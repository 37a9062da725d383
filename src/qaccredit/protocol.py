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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import noise as noise_mod
from . import qotp, simulator, traps
from .circuit import Circuit, validate
from .noise import NoiseModel
from .simulator import DEFAULT_LIMITS, SimLimits

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
    limits: SimLimits = DEFAULT_LIMITS

    def __post_init__(self):
        if self.v < 3:
            raise DomainError("v >= 3 required for the credibility bound")
        if self.d < 1:
            raise DomainError("d must be >= 1")
        if self.theta <= 0:
            raise DomainError("theta must be > 0")
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

    def to_json(self) -> str:
        return json.dumps({
            "n_acc": self.n_acc,
            "d": self.d,
            "theta": self.theta,
            "epsilon": self.epsilon,
            "confidence": self.confidence,
            "bound": self.bound if self.bound is not None else "unavailable",
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


def _simulate_circuit(dressed: qotp.DressedCircuit, errors, deviations,
                      rng, limits, is_trap: bool) -> np.ndarray:
    """Raw (pre-key) output bits of one implemented circuit.

    Trap circuits under pure Pauli noise are handled by the exact frame
    backend (their noiseless padded output is the key itself, so the raw
    output is key XOR flip-mask); everything else goes dense.
    """
    circ = dressed.circuit
    if is_trap and circ.all_clifford and not deviations:
        return simulator.trap_output(circ, errors) ^ dressed.key
    return simulator.run_statevector(circ, errors, deviations, rng, limits)


def plan_run(target: Circuit, v: int,
             rng: np.random.Generator) -> tuple[int, list]:
    """The verifier's secret choices for one run: (v0, dressed circuits).

    Draws the target's slot v0, then slot by slot a trap choice (every slot
    but v0) and fresh pads. Both the direct run and the two-party session
    execute the v+1 dressed circuits this returns.
    """
    report = validate(target)
    if not report.ok:
        raise ValueError("invalid target circuit: " + "; ".join(report.violations))
    if v < 1:
        raise DomainError("v must be >= 1")
    n, m = target.n, target.m
    v0 = int(rng.integers(0, v + 1))
    dressed = []
    for k in range(v + 1):
        base = target if k == v0 else traps.generate_trap(
            target, traps.sample_choice(target, rng))
        dressed.append(qotp.dress(base, qotp.sample_pads(n, m, rng)))
    return v0, dressed


def single_run(target: Circuit, v: int, noise: NoiseModel,
               rng: np.random.Generator,
               limits: SimLimits = DEFAULT_LIMITS) -> RunOutcome:
    """One protocol run: hide the target among v traps, pad, simulate, flag."""
    v0, plan = plan_run(target, v, rng)
    n, m = target.n, target.m
    collection = (noise.sample_collection(v, n, m, rng)
                  if noise.has_pauli_part
                  else noise_mod.identity_collection(v + 1, n, m))
    target_output = None
    trap_outputs = []
    for k, dressed in enumerate(plan):
        deviations = noise.sample_deviations(k, m, rng)
        raw = _simulate_circuit(dressed, collection.slice_for(k),
                                deviations, rng, limits, is_trap=(k != v0))
        out = qotp.postprocess(raw, dressed.key)
        if k == v0:
            target_output = out
        else:
            trap_outputs.append(out)
    flag = "acc" if all(not out.any() for out in trap_outputs) else "rej"
    return RunOutcome(v0=v0, target_output=target_output,
                      trap_outputs=tuple(trap_outputs), flag=flag)


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Per-run generator; identical whether runs execute serially or not."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, run_index]))


def accredit(config: ProtocolConfig, target: Circuit) -> AccreditationReport:
    """Execute d independent runs and assemble the accreditation report."""
    if config.epsilon_mode == "theorem1":
        eps = epsilon_theorem1(config.v)
    else:
        g = config.noise.g_factor(config.v, target.m)
        eps = epsilon_theorem2(config.v, Fraction(g))
    n_acc = 0
    accepted = []
    for r in range(config.d):
        outcome = single_run(target, config.v, config.noise,
                             run_rng(config.master_seed, r), config.limits)
        if outcome.flag == "acc":
            n_acc += 1
            accepted.append(outcome.target_output)
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
