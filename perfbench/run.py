"""Closed-loop benchmark of qaccredit: one process, one client, no threads.

Run from the repository root:

    python3 perfbench/run.py --workload accredit_clifford --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload: set-up is
repeated and its median reported, then units of operations run back to back,
each waiting for the last, until less than half a unit is left of
``--seconds``. Times are converted to the reference speed of
``perfbench/pace.py``, which takes out most of a shared machine's drifting
speed; wall-clock figures are printed too, on the lines before the result.
``--trace 1`` is the separate traced run: for every workload it runs one
fixed unit several times, each on a fresh import of the package (plain,
with spans, with call counters), and reports the per-layer metrics of
``perfbench/layers.json``; spans are written to ``.bench_out/``. The last line of standard output is one JSON
object; the lines before it repeat the metrics for people.
"""

from __future__ import annotations

import os

# The closed loop is single-threaded; keep BLAS from starting threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pace  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SUBMODULES = ("circuit", "cliffords", "families", "mesothetic", "noise",
              "oracles", "pauli", "protocol", "qotp", "simulator", "traps")
SETUP_REPEATS = 11
WORKLOADS = tuple(workloads.FULL)


class MissingProgram(RuntimeError):
    """The checkout holds no qaccredit sources to benchmark."""


def fresh_import():
    """Import qaccredit from ``src/`` anew, so import cost and caches reset."""
    if not (SRC / "qaccredit" / "__init__.py").is_file():
        raise MissingProgram(f"no qaccredit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "qaccredit" or m.startswith("qaccredit.")]:
        del sys.modules[name]
    package = importlib.import_module("qaccredit")
    if Path(package.__file__).resolve().parent != SRC / "qaccredit":
        raise MissingProgram(f"qaccredit imported from {package.__file__}")
    return SimpleNamespace(**{
        name: importlib.import_module(f"qaccredit.{name}")
        for name in SUBMODULES})


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": commit()}


def commit() -> str:
    """HEAD of the checkout read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_unit(w, i: int):
    """Run unit i; returns (start, end, ops attempted, ops failed)."""
    inputs = w.inputs(i)
    start = time.perf_counter()
    try:
        result = w.call(inputs)
        end = time.perf_counter()
        return start, end, w.ops_per_unit, w.check(inputs, result)
    except Exception:  # a failing operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return start, time.perf_counter(), w.ops_per_unit, w.ops_per_unit


def end_to_end(name: str, seed: int, seconds: float, tiny: bool):
    with pace.Pacer() as pacer:
        spans = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            w = workloads.build(name, fresh_import(), seed, tiny=tiny)
            w.warm()
            spans.append((start, time.perf_counter()))
        # One pace for all set-ups: each is too short to hold many samples.
        setup_pace, _ = pacer.window(spans[0][0], spans[-1][1])
        setups = [(end - start - pacer.window(start, end)[1]) / setup_pace
                  for start, end in spans]

        rates, wall_rates, paces, attempted, failed = [], [], [], 0, 0
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            start, end, ops, bad = run_unit(w, i)
            unit_pace, kernel_s = pacer.window(start, end)
            rates.append(ops * unit_pace / (end - start - kernel_s))
            wall_rates.append(ops / (end - start))
            paces.append(unit_pace)
            attempted += ops
            failed += bad
            i += 1
            # Stop when less than half a unit's time is left, so that runs
            # of units as long as half of --seconds still fill it.
            if deadline - time.perf_counter() < (end - start) / 2:
                break
    failed = min(attempted, failed + w.finish())
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }
    notes = {
        "ops_per_s": f"at reference speed, median over {len(rates)} units "
                     f"of {w.ops_per_unit} ops",
        "setup_s": f"at reference speed, median of {SETUP_REPEATS} "
                   f"set-ups: import, inputs, warm-up",
        "peak_rss_mb": "peak resident memory of this process",
    }
    human = [f"{key:<12} {value:.6g} {unit}   ({notes[key]})"
             for key, (value, unit) in metrics.items()]
    human.append(f"{'failed_frac':<12} {failed / attempted:.6g} 1   "
                 f"({failed} of {attempted} ops)")
    human.append(f"wall clock: ops_per_s {statistics.median(wall_rates):.6g}"
                 f" 1/s, setup_s "
                 f"{statistics.median(e - s for s, e in spans):.6g} s; "
                 f"machine pace {statistics.median(paces):.4g} x reference "
                 f"(median over units; above 1 is slower)")
    return metrics, attempted, failed, human


def layer_metric_specs() -> dict:
    """Every per-layer metric name with its (unit, better) pair."""
    specs = {}
    for layer in json.loads((HERE / "layers.json").read_text())["layers"]:
        for wl in layer["workloads"]:
            for stat in layer.get("stats", [None]):
                metric = f"{layer['metric']}.{stat}" if stat \
                    else layer["metric"]
                unit, better = {"calls": ("count", "lower"),
                                "self_s": ("s", "lower")}.get(
                    stat, (layer.get("unit"), layer.get("better")))
                specs[f"{wl}.{metric}"] = (unit, better)
    return specs


# Spans and plain passes alternate in adjacent pairs, so that the machine's
# drifting speed cancels in each pair's overhead ratio; counters run last.
PASS_ORDER = ("plain", "spans", "spans", "plain", "plain", "spans", "counts")


def traced_pass(name: str, seed: int, tiny: bool, kind: str):
    """One unit of a workload on a fresh import, plain or instrumented."""
    qa = fresh_import()
    w = workloads.build(name, qa, seed, tiny=tiny, trace=True)
    w.warm()
    recorder, targets = {
        "plain": (None, {}),
        "spans": (tracer.SpanRecorder(), tracer.span_targets(qa)),
        "counts": (tracer.CallCounter(), tracer.count_targets(qa)),
    }[kind]
    with tracer.patched(targets, recorder.wrapper if recorder else None):
        start, end, ops, bad = run_unit(w, 0)
    return w, recorder, end - start, ops, min(ops, bad + w.finish())


def traced(seed: int, tiny: bool, spans_path: Path):
    """Per-layer metrics of every workload, from passes over one unit."""
    specs = layer_metric_specs()
    metrics, attempted, failed, human = {}, 0, 0, []
    for name in WORKLOADS:
        walls, values = {"plain": [], "spans": [], "counts": []}, {}
        for kind in PASS_ORDER:
            w, recorder, elapsed, ops, bad = traced_pass(name, seed, tiny,
                                                         kind)
            walls[kind].append(elapsed)
            attempted += ops
            failed += bad
            if kind == "spans" and len(walls["spans"]) == 1:
                calls, self_s = recorder.summary()
                recorder.dump(spans_path, name)
                values.update(w.layer_values(calls))
                for span in calls:
                    values[f"{span}.calls"] = calls[span]
                    values[f"{span}.self_s"] = self_s[span]
            elif kind == "counts":
                for fn, count in recorder.calls.items():
                    values[f"{fn}.calls"] = count
        overhead = statistics.median(
            s / p for p, s in zip(walls["plain"], walls["spans"]))
        values["trace.overhead_ratio"] = overhead
        human.append(
            f"{name}: unit {statistics.median(walls['plain']):.4g} s plain, "
            f"{statistics.median(walls['spans']):.4g} s with spans "
            f"(overhead x{overhead:.4g}, median of "
            f"{len(walls['plain'])} pairs), "
            f"{walls['counts'][0]:.4g} s with counters")
        prefix = name + "."
        for metric, (unit, _) in specs.items():
            if metric.startswith(prefix):
                value = values.get(metric[len(prefix):], 0)
                metrics[metric] = (value, unit)
                human.append(f"  {metric:<60} {value:.6g} {unit}")
    return metrics, attempted, failed, human


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy sizes, for the harness self-check")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans_seed{args.seed}.jsonl"
            spans_path.unlink(missing_ok=True)
            result = traced(args.seed, args.tiny, spans_path)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds,
                                args.tiny)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics, attempted, failed, human = result

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(environment()))
    for line in human:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
