"""The accreditation protocol runner and its closed-form statistics.

One protocol run implements v+1 circuits — the target hidden at a uniformly
random slot v0 among v trap circuits — each freshly padded with a quantum
one-time pad. The run accepts iff every trap outputs the all-zero string.
Over d runs, the accepted target outputs carry a variation-distance bound

    TV <= epsilon / (N_acc / d - theta)

with confidence 1 - 2 exp(-2 d theta^2), where epsilon is the credibility
parameter: kappa / (v + 1) with kappa = 27/16 for Pauli-collection noise,
or g * kappa / (v + 1) + 1 - g when single-qubit rounds additionally suffer
diamond-norm-bounded deviations with survival factor g.

:func:`accredit` runs the protocol without the pads, which change nothing
observable under Pauli errors, gate deviations included (Lemma 1);
:func:`single_run` is the padded run it is checked against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import qotp, simulator, traps
from .circuit import Circuit
from .noise import NoiseModel

KAPPA = Fraction(27, 16)  # 3 * (3/4)^2, exact


class DomainError(ValueError):
    """Parameter outside the regime where the bounds are proven."""


def epsilon_theorem1(v: int) -> Fraction:
    """Credibility parameter kappa/(v+1) for Pauli-collection noise; v >= 3."""
    if v < 3:
        raise DomainError("v >= 3 required for the credibility bound")
    return KAPPA / (v + 1)


def epsilon_theorem2(v: int, g) -> Fraction:
    """Credibility with bounded gate noise: g*kappa/(v+1) + 1 - g."""
    if v < 3:
        raise DomainError("v >= 3 required for the credibility bound")
    g = Fraction(g) if not isinstance(g, Fraction) else g
    if not 0 <= g <= 1:
        raise DomainError("g must lie in [0, 1]")
    return g * KAPPA / (v + 1) + 1 - g


def delta_bound(error_rates: Sequence[float]) -> float:
    """Acceptance-probability lower bound: product of (1 - r_p)."""
    out = 1.0
    for r in error_rates:
        if not 0.0 <= r < 1.0:
            raise DomainError("error rates must lie in [0, 1)")
        out *= 1.0 - r
    return out


def confidence(d: int, theta: float) -> float:
    return 1.0 - 2.0 * math.exp(-2.0 * d * theta * theta)


@dataclass(frozen=True)
class ProtocolConfig:
    v: int
    d: int
    theta: float
    master_seed: int
    noise: NoiseModel
    epsilon_mode: str = "theorem1"  # or "theorem2"

    def __post_init__(self):
        if self.v < 3:
            raise DomainError("v >= 3 required for the credibility bound")
        if self.d < 1:
            raise DomainError("d must be >= 1")
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise DomainError("theta must be finite and > 0")
        if self.epsilon_mode not in ("theorem1", "theorem2"):
            raise DomainError("epsilon_mode must be theorem1 or theorem2")


@dataclass(frozen=True)
class RunOutcome:
    v0: int
    target_output: np.ndarray
    trap_outputs: tuple
    flag: str  # "acc" | "rej"

    def __post_init__(self):
        traps_zero = all(not out.any() for out in self.trap_outputs)
        if (self.flag == "acc") != traps_zero:
            raise ValueError("flag must be acc exactly when every trap "
                             "output is all zeros")


@dataclass
class AccreditationReport:
    n_acc: int
    d: int
    theta: float
    epsilon: float
    confidence: float
    bound: Optional[float]  # None <-> "unavailable"
    accepted_outputs: list = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def bound_vacuous(self) -> bool:
        """The bound is unavailable or above 1, so it says nothing."""
        return self.bound is None or self.bound > 1.0

    @property
    def confidence_vacuous(self) -> bool:
        """The confidence is at most 0: d is too small for this theta."""
        return self.confidence <= 0.0

    def to_json(self) -> str:
        return json.dumps({
            "n_acc": self.n_acc,
            "d": self.d,
            "theta": self.theta,
            "epsilon": self.epsilon,
            "confidence": self.confidence,
            "bound": self.bound if self.bound is not None else "unavailable",
            "bound_vacuous": self.bound_vacuous,
            "confidence_vacuous": self.confidence_vacuous,
            "accepted_outputs": ["".join(str(int(b)) for b in out)
                                 for out in self.accepted_outputs],
            "seed": self.seed,
        }, indent=2)


def eq1_bound(epsilon: float, n_acc: int, d: int, theta: float) -> Optional[float]:
    """Variation-distance bound; None when N_acc/d - theta is not positive."""
    denom = n_acc / d - theta
    if denom <= 0:
        return None
    return float(epsilon) / denom


def _check_plan(target: Circuit, v: int):
    if v < 1:
        raise DomainError("v must be >= 1")
    if target.m < 2:
        raise DomainError("traps need at least 2 bands")


def plan_run(target: Circuit, v: int,
             rng: np.random.Generator) -> tuple[int, list]:
    """The verifier's secret choices for one run: (v0, [(circuit, key)]).

    Draws the target's slot v0, then slot by slot a trap choice (every slot
    but v0) and fresh pads. Both the padded reference run and the
    two-party session execute the v+1 dressed circuits this returns, each
    with the key that post-processes its output.
    """
    _check_plan(target, v)
    n, m = target.n, target.m
    v0 = int(rng.integers(0, v + 1))
    dressed = []
    for k in range(v + 1):
        base = target if k == v0 else traps.generate_trap(
            target, traps.sample_choice(target, rng))
        dressed.append(qotp.dress(base, qotp.sample_pads(n, m, rng)))
    return v0, dressed


def single_run(target: Circuit, v: int, noise: NoiseModel,
               rng: np.random.Generator) -> RunOutcome:
    """One padded protocol run, the reference that :func:`accredit` matches.

    Hides the target among v traps and pads every circuit
    (:func:`plan_run`), draws the error bits, then per slot one dense
    statevector sample of the dressed circuit, post-processed with its key.
    The run accepts iff every trap outputs all zeros.
    """
    v0, plan = plan_run(target, v, rng)
    err_x, err_z = noise.sample_error_bits(v, target.n, target.m, rng)
    outputs = []
    for k, (circuit, key) in enumerate(plan):
        raw = simulator.run_statevector(circuit, (err_x[k], err_z[k]),
                                        rng=rng)
        outputs.append(qotp.postprocess(raw, key))
    trap_outputs = tuple(outputs[:v0] + outputs[v0 + 1:])
    flag = "acc" if all(not out.any() for out in trap_outputs) else "rej"
    return RunOutcome(v0=v0, target_output=outputs[v0],
                      trap_outputs=trap_outputs, flag=flag)


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Per-run generator; identical whether runs execute serially or not."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, run_index]))


# Runs per batched frame; bounds the trap frame's memory for any d.
RUN_BLOCK = 128


def _pad_free_runs(config: ProtocolConfig, target: Circuit) -> list:
    """Accepted target outputs of d runs, in run order, without padding.

    By Lemma 1 the one-time pad changes neither a trap's flip mask nor the
    target's post-processed output distribution under Pauli errors, and
    every gate deviation is a Pauli drawn into the error bits, so no
    circuit is padded: the traps of a block of runs move through one
    batched Pauli frame, and each accepted run samples the bare target.
    Run r draws from ``run_rng(master_seed, r)``, in order: v0, the flat
    choice bits of its v traps (slot order), the error bits of its v+1
    slots (one ``sample_error_bits`` call) and, only if every trap outputs
    zeros, the uniform that picks its target sample
    (:func:`simulator.sample_bits`'s rule).
    """
    _check_plan(target, config.v)
    simulator.check_statevector_size(target.n)
    # (run, sample draw) of each accepted run, by its target's error bits
    slices = {}
    for start in range(0, config.d, RUN_BLOCK):
        runs = range(start, min(start + RUN_BLOCK, config.d))
        for r, u, bits in _pad_free_block(config, target, runs):
            slices.setdefault(bits, []).append((r, u))
    # one target distribution at a time
    outputs = [None] * config.d
    shape = (2, target.m + 1, target.n)
    for bits, accepted in slices.items():
        probs = simulator.statevector_distribution(
            target, np.frombuffer(bits, dtype=np.uint8).reshape(shape))
        run_ids, draws = zip(*accepted)
        for r, i in zip(run_ids, simulator.quantile_indices(probs, draws)):
            outputs[r] = simulator.index_to_bits(int(i), target.n)
    return [out for out in outputs if out is not None]


def _pad_free_block(config: ProtocolConfig, target: Circuit,
                    runs: range) -> list:
    """(run, sample draw, target error bits as bytes) per accepted run."""
    v, noise, b = config.v, config.noise, len(runs)
    n, m = target.n, target.m
    width = traps.choice_width(target)
    v0 = np.empty(b, dtype=np.intp)
    choice = np.empty((b, v, width), dtype=np.uint8)
    err_x = np.empty((b, v + 1, m + 1, n), dtype=np.uint8)
    err_z = np.empty_like(err_x)
    rngs = []
    for i, r in enumerate(runs):
        rng = run_rng(config.master_seed, r)
        v0[i] = rng.integers(0, v + 1)
        choice[i] = rng.integers(0, 2, size=(v, width), dtype=np.uint8)
        err_x[i], err_z[i] = noise.sample_error_bits(v, n, m, rng)
        rngs.append(rng)
    # run i's t-th trap sits at the t-th slot other than v0[i]
    slots = np.arange(v) + (np.arange(v) >= v0[:, None])
    rows = np.arange(b)[:, None]
    flips = simulator.frame_flips(
        target, traps.trap_cliffords(target, choice.reshape(b * v, width)),
        err_x[rows, slots].reshape(b * v, m + 1, n),
        err_z[rows, slots].reshape(b * v, m + 1, n))
    return [(runs[i], rngs[i].random(),
             err_x[i, v0[i]].tobytes() + err_z[i, v0[i]].tobytes())
            for i in np.flatnonzero(~flips.reshape(b, v * n).any(axis=1))]


def accredit(config: ProtocolConfig, target: Circuit) -> AccreditationReport:
    """Execute d independent runs and assemble the accreditation report.

    Every run, under any noise model, takes the batched pad-free path
    (:func:`_pad_free_runs`); :func:`single_run` is its padded reference.
    Theorem 1 covers Pauli noise only, so a theorem-1 epsilon under gate
    noise (survival factor g < 1) raises DomainError before any run.
    """
    g = config.noise.g_factor(config.v, target.m)
    if config.epsilon_mode == "theorem2":
        eps = epsilon_theorem2(config.v, Fraction(g))
    elif g < 1:
        raise DomainError(
            f"gate noise (g = {g:.4g} < 1) is covered only by Theorem 2; "
            "use epsilon mode theorem2 (--epsilon-mode theorem2)")
    else:
        eps = epsilon_theorem1(config.v)
    accepted = _pad_free_runs(config, target)
    n_acc = len(accepted)
    return AccreditationReport(
        n_acc=n_acc,
        d=config.d,
        theta=config.theta,
        epsilon=float(eps),
        confidence=confidence(config.d, config.theta),
        bound=eq1_bound(float(eps), n_acc, config.d, config.theta),
        accepted_outputs=accepted,
        seed=config.master_seed,
    )


# ---------------------------------------------------------------------------
# Bound curves over a physical error-rate grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperationCounts:
    """Operation tally across all v+1 circuits of one protocol run."""

    preparations: int
    measurements: int
    cz_gates: int
    single_qubit_rounds: int

    def __post_init__(self):
        for name, count in vars(self).items():
            if not isinstance(count, int) or isinstance(count, bool) \
                    or count < 0:
                raise DomainError(f"{name} must be an integer >= 0, "
                                  f"found {count!r}")

    @classmethod
    def for_protocol(cls, n: int, m: int, v: int,
                     cz_per_circuit: int) -> "OperationCounts":
        runs = v + 1
        return cls(preparations=runs * n, measurements=runs * n,
                   cz_gates=runs * cz_per_circuit,
                   single_qubit_rounds=runs * m)


@dataclass(frozen=True)
class CurvePoint:
    r0: float
    epsilon: float
    delta: float
    bound: float  # epsilon / delta
    vacuous: bool  # bound exceeds 1, i.e. weaker than the trivial TV bound


def figure8_curve(v: int, r0_grid: Sequence[float], counts: OperationCounts,
                  gate_rate_divisor: float = 10.0) -> list:
    """Credibility-over-acceptance curve for physical error rate r0.

    Preparations, measurements, and cZ gates fail at rate r0; single-qubit
    gate rounds at r0 / gate_rate_divisor. For each grid point:
    delta = (1-r0)^(preps+meas+cZ) * (1-r0/div)^rounds, g = (1-r0/div)^rounds,
    epsilon from the bounded-gate-noise formula, and bound = epsilon/delta.
    """
    if not (math.isfinite(gate_rate_divisor) and gate_rate_divisor > 0):
        raise DomainError("gate rate divisor must be finite and > 0")
    points = []
    for r0 in r0_grid:
        if not 0.0 <= r0 < 1.0:
            raise DomainError("r0 must lie in [0, 1)")
        r_gate = r0 / gate_rate_divisor
        rates = ([r0] * (counts.preparations + counts.measurements
                         + counts.cz_gates)
                 + [r_gate] * counts.single_qubit_rounds)
        delta = delta_bound(rates)
        g = (1.0 - r_gate) ** counts.single_qubit_rounds
        eps = float(epsilon_theorem2(v, Fraction(g)))
        bound = eps / delta
        points.append(CurvePoint(r0=float(r0), epsilon=eps, delta=delta,
                                 bound=bound, vacuous=bound > 1.0))
    return points


def curve_to_csv(points: Sequence[CurvePoint]) -> str:
    lines = ["r0,epsilon,delta,bound"]
    for p in points:
        lines.append(f"{p.r0:.10g},{p.epsilon:.10g},{p.delta:.10g},{p.bound:.10g}")
    return "\n".join(lines) + "\n"
