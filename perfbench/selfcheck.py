"""Self-check of the benchmark harness at toy sizes.

Run from the repository root:

    python3 perfbench/selfcheck.py

It validates ``BENCHMARK.json``, runs every workload once untraced and the
traced run once, all with ``--tiny``, and checks each result line against
the metric names and units that ``BENCHMARK.json`` declares. Last, it runs
the benchmark in a directory holding only ``BENCHMARK.json`` and
``perfbench/``, where it must fail without printing a result. Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TIMEOUT_S = 170


def check_spec(spec: dict) -> list:
    """BENCHMARK.json against the harness: names, units, limits."""
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        errors.append("workloads differ from perfbench/workloads.py")
    if any(len(w["why"]) > 200 for w in spec["workloads"]):
        errors.append("a workload's why exceeds 200 characters")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    if len(set(names)) != len(names):
        errors.append("a metric name is used twice")
    errors += [f"bad name or unit: {m}" for m in metrics
               if not NAME.fullmatch(m["name"])
               or not UNIT.fullmatch(m["unit"])]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if max(bounds.values()) > 0.25 or \
            bounds.get("setup_s") != max(bounds.values()):
        errors.append("setup_s needs the largest bound, at most 0.25")
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != run.layer_metric_specs():
        errors.append("per_layer differs from perfbench/layers.json")
    return errors


def run_bench(cwd: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def check_result(line: str, expected: dict, label: str) -> list:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return [f"{label}: last line is not JSON: {line[:200]}"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{label}: result keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0 \
            or not isinstance(result["attempted"], int) \
            or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        errors.append(f"{label}: metrics differ; missing {missing}, "
                      f"extra {extra}, or units differ")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)) or v["value"] < 0:
            errors.append(f"{label}: {k} = {v['value']!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_spec(spec)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in run.WORKLOADS:
        code, line, err = run_bench(ROOT, workload, 0)
        errors += [f"{workload}: exit {code}: {err[-500:]}"] if code else \
            check_result(line, end_to_end, workload)
    code, line, err = run_bench(ROOT, run.WORKLOADS[0], 1)
    errors += [f"traced: exit {code}: {err[-500:]}"] if code else \
        check_result(line, per_layer, "traced")

    bare = run.OUT / "selfcheck_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, line, _ = run_bench(bare, run.WORKLOADS[0], 0)
    shutil.rmtree(bare)
    if code == 0 or line.startswith("{"):
        errors.append(f"without src/ the benchmark exited {code}: {line}")

    for e in errors:
        print("FAIL", e)
    print("selfcheck", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
