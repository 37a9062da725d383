"""Command-line interface.

Exit codes: 0 success, 2 bad input, 3 simulator limits exceeded, 4 at least
one lemma check failed. Every subcommand is deterministic given --seed; when
no seed is given one is drawn from entropy and echoed in the output.
"""

from __future__ import annotations

import contextlib
import json
import sys

import click
import numpy as np

from . import families, mesothetic, oracles, protocol
from .circuit import parse, serialize
from .noise import model_from_json, noiseless, random_adversary
from .protocol import (OperationCounts, ProtocolConfig, curve_to_csv,
                       figure8_curve)
from .simulator import SimLimitError

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_SIM_LIMITS = 3
EXIT_LEMMA_FAILURE = 4


def _resolve_seed(seed):
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2 ** 64))
    return int(seed)


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=not text.endswith("\n"))


@contextlib.contextmanager
def _exit_codes():
    """Exit 3 on SimLimitError and 2 on bad input (ValueError, KeyError)."""
    try:
        yield
    except (SimLimitError, ValueError, KeyError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_SIM_LIMITS if isinstance(exc, SimLimitError)
                 else EXIT_BAD_INPUT)


@click.group()
def main():
    """Accreditation-protocol simulation toolkit."""


@main.command("accredit")
@click.option("--circuit", "circuit_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--v", "v", required=True, type=int,
              help="Number of trap circuits (>= 3).")
@click.option("--d", "d", required=True, type=int, help="Number of runs.")
@click.option("--theta", required=True, type=float)
@click.option("--noise", "noise_path",
              type=click.Path(exists=True, dir_okay=False),
              help="Noise-model JSON; omitted = noiseless.")
@click.option("--epsilon-mode", type=click.Choice(["theorem1", "theorem2"]),
              default="theorem1")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_exit_codes()
def cmd_accredit(circuit_path, v, d, theta, noise_path, epsilon_mode, seed, out):
    """Run the accreditation protocol and print the report."""
    seed = _resolve_seed(seed)
    with open(circuit_path) as fh:
        target = parse(fh.read())
    model = noiseless()
    if noise_path:
        with open(noise_path) as fh:
            model = model_from_json(fh.read())
    config = ProtocolConfig(v=v, d=d, theta=theta, master_seed=seed,
                            noise=model, epsilon_mode=epsilon_mode)
    report = protocol.accredit(config, target)
    if report.bound_vacuous:
        bound = "unavailable" if report.bound is None \
            else f"{report.bound:.4g}"
        click.echo(f"note: vacuous bound {bound}", err=True)
    if report.confidence_vacuous:
        click.echo(f"note: vacuous confidence {report.confidence:.4g} "
                   "(at most 0)", err=True)
    _emit(report.to_json() + "\n", out)


@main.command("bounds")
@click.option("--v", required=True, type=int)
@click.option("--n", required=True, type=int)
@click.option("--m", required=True, type=int)
@click.option("--r0-grid", "grid_spec", required=True,
              help="start:stop:steps with 0 <= start < stop < 1.")
@click.option("--counts", "counts_path",
              type=click.Path(exists=True, dir_okay=False),
              help="JSON {preparations, measurements, cz_gates, "
                   "single_qubit_rounds}; omitted = dense-topology default.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_exit_codes()
def cmd_bounds(v, n, m, grid_spec, counts_path, out):
    """Emit the credibility/acceptance bound curve as CSV."""
    parts = grid_spec.split(":")
    if len(parts) != 3:
        raise ValueError("grid spec must be start:stop:steps")
    start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0 <= start < stop < 1) or steps < 1:
        raise ValueError("grid requires 0 <= start < stop < 1, steps >= 1")
    if v < 3 or n < 1 or m < 1:
        raise ValueError("need v >= 3, n >= 1, m >= 1")
    if counts_path:
        with open(counts_path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("counts document must be an object")
        counts = OperationCounts(
            preparations=doc["preparations"],
            measurements=doc["measurements"],
            cz_gates=doc["cz_gates"],
            single_qubit_rounds=doc["single_qubit_rounds"])
    else:
        counts = OperationCounts.for_protocol(
            n, m, v, cz_per_circuit=(m - 1) * (n // 2))
    grid = np.linspace(start, stop, steps)
    points = figure8_curve(v, grid, counts)
    for p in points:
        if p.vacuous:
            click.echo(f"note: vacuous bound {p.bound:.4g} at r0={p.r0:.4g}",
                       err=True)
    _emit(curve_to_csv(points), out)


@main.command("oracle")
@click.option("--which", required=True,
              type=click.Choice(["lemma2", "twirl", "pauli-twirl", "theorem1"]))
@click.option("--n", type=click.IntRange(min=1), default=2)
@click.option("--m", type=click.IntRange(min=1), default=2)
@click.option("--v", type=int, default=3)
@click.option("--band-class", type=click.Choice(["single", "two", "all"]),
              default="single")
@click.option("--runs", type=click.IntRange(min=1), default=10 ** 5)
@click.option("--adversaries", type=click.IntRange(min=1), default=5,
              help="Random adversary distributions for the theorem1 oracle.")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_exit_codes()
def cmd_oracle(which, n, m, v, band_class, runs, adversaries, seed, out):
    """Run a lemma-verification suite; emits JSON-lines reports."""
    if which == "theorem1" and v < 3:
        raise ValueError("v >= 3 required for the credibility bound")
    seed = _resolve_seed(seed)
    rng = np.random.default_rng(seed)
    # a circuit and the samples drawn against it use two independent streams
    circuit_rng, sample_rng = map(np.random.default_rng,
                                  np.random.SeedSequence(seed).spawn(2))
    reports = []
    if which == "lemma2":
        topology = families.random_clifford_circuit(n, m, circuit_rng)
        reports = oracles.lemma2_sweep(topology, band_class, rng=sample_rng)
    elif which == "twirl":
        circ = families.random_generic_circuit(n, m, rng)
        # a random unitary deviation as a one-element Kraus list
        channels = {0: [families.random_unitary(2 ** n, rng)]}
        reports = [_twirl_report(circ, channels)]
    elif which == "pauli-twirl":
        reports = [oracles.pauli_twirl_identity_check(n, rng)]
    elif which == "theorem1":
        target = families.random_clifford_circuit(n, m, circuit_rng)
        for _ in range(adversaries):
            adv = random_adversary(n, m, v, sample_rng, min_slots=2)
            reports.append(oracles.theorem1_empirical(
                target, v, adv, runs=runs, rng=sample_rng))
    text = "\n".join(r.to_json() for r in reports) + "\n"
    _emit(text, out)
    failures = sum(1 for r in reports if not r.passed)
    if failures:
        click.echo(f"{failures} lemma check(s) failed", err=True)
        sys.exit(EXIT_LEMMA_FAILURE)


def _twirl_report(circ, channels):
    rep = oracles.twirl_channel(circ, channels)
    return oracles.LemmaReport(
        instance=f"twirl n={circ.n} m={circ.m}",
        probability=rep.residual, bound=oracles.TWIRL_RESIDUAL_TOL,
        passed=rep.passed, samples=len(rep.weights))


@main.command("mesothetic")
@click.option("--circuit", "circuit_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--v", required=True, type=int)
@click.option("--sessions", type=click.IntRange(min=1), default=1)
@click.option("--dishonest", is_flag=True,
              help="Bob inserts a fixed Z on qubit 0 before every measurement.")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_exit_codes()
def cmd_mesothetic(circuit_path, v, sessions, dishonest, seed, out):
    """Run interactive verifier/prover sessions."""
    seed = _resolve_seed(seed)
    rng = np.random.default_rng(seed)
    with open(circuit_path) as fh:
        target = parse(fh.read())
    if v < 3:
        raise ValueError("v >= 3 required for the credibility bound")
    if dishonest:
        from .pauli import PauliString
        devs = {(k, target.m): [PauliString(target.n, 0, 1)]
                for k in range(v + 1)}
        bob = mesothetic.BobStrategy(honest=False, deviations=devs)
    else:
        bob = mesothetic.BobStrategy(honest=True)
    results = []
    for _ in range(sessions):
        rep = mesothetic.run_session(target, v, bob, rng)
        results.append({
            "flag": rep.flag,
            "aborted": rep.aborted,
            "transcript_length": rep.transcript_length,
            "target_output": (None if rep.target_output is None else
                              "".join(str(int(b))
                                      for b in rep.target_output)),
        })
    _emit(json.dumps({"seed": seed, "sessions": results}, indent=2) + "\n",
          out)


@main.command("gen")
@click.option("--family", required=True,
              type=click.Choice(["ghz", "random-clifford", "random-generic"]))
@click.option("--n", required=True, type=int)
@click.option("--m", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_exit_codes()
def cmd_gen(family, n, m, seed, out):
    """Generate a circuit in the band-structured JSON form."""
    seed = _resolve_seed(seed)
    rng = np.random.default_rng(seed)
    if n < 1:
        raise ValueError("n must be >= 1")
    if family == "ghz":
        circ = families.ghz_circuit(n)
    elif m is None or m < 2:
        raise ValueError("--m >= 2 required for random families")
    elif family == "random-clifford":
        circ = families.random_clifford_circuit(n, m, rng)
    else:
        circ = families.random_generic_circuit(n, m, rng)
    _emit(serialize(circ), out)


if __name__ == "__main__":
    main()
