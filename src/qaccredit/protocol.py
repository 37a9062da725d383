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
observable under Pauli errors, gate deviations included (Lemma 1), as array
work per block of runs: the traps alone decide each run, and only accepted
runs' targets are sampled. :func:`single_run` is the padded run it is
checked against. Every run path draws a run's slot, trap choices and error
bits in one order (:func:`_draw_runs`), so from one generator state the
padded run and the two-party session decide as the pad-free engine does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import cliffords, qotp, simulator, traps
from .circuit import Circuit
from .noise import NoiseModel

KAPPA = Fraction(27, 16)  # 3 * (3/4)^2, exact
GATE_RATE_DIVISOR = 10.0  # figure8_curve's single-qubit rounds fail at r0/10


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


class RunPlan(NamedTuple):
    """One run's secret choices and noise, as arrays (:func:`plan_run`)."""

    v0: int
    gates: np.ndarray  # (v+1, m, n) gate indices, pads and errors in
    matrices: dict  # the target slot's generic 2x2s, {} if Clifford
    keys: np.ndarray  # (v+1, n) post-processing keys


def plan_run(target: Circuit, v: int, noise: NoiseModel,
             rng: np.random.Generator) -> RunPlan:
    """One run's secret choices and noise as a :class:`RunPlan`.

    Draws the run as a run of :func:`accredit` is drawn (:func:`_draw_runs`
    at one run), then the v+1 pad rows as one array. Trap t sits at the
    t-th slot other than v0, with the gates :func:`traps.trap_cliffords`
    gives its choice row; every slot is dressed by its pad row
    (:func:`qotp.pad_paulis`), as :func:`qotp.dress` dresses one circuit,
    on the target's cZ layers, and its drawn errors are composed into the
    pads (:func:`simulator.error_paulis`). Both the padded reference run
    and the two-party session execute these v+1 circuits as run, each
    post-processed with its key. No circuit is built.
    """
    _check_plan(target, v)
    v0, choice, err_x, err_z = _draw_runs(target, v, noise, 1, rng)
    v0 = int(v0[0])
    pads = rng.integers(0, 2, size=(v + 1, qotp.pad_width(target.n, target.m)),
                        dtype=np.uint8)
    trap_gates = traps.trap_cliffords(target, choice[0])
    bases = np.concatenate((trap_gates[:v0], target.gates[None],
                            trap_gates[v0:]))
    pre, post, keys = qotp.pad_paulis(target, pads)
    err_pre, err_post = simulator.error_paulis(err_x[0], err_z[0])
    pre = cliffords.COMPOSE[err_pre, pre]
    post = cliffords.COMPOSE[post, err_post]
    return RunPlan(v0, qotp.pad_gates(bases, pre, post),
                   qotp.pad_matrices(target.matrices, pre[v0], post[v0]),
                   keys)


def single_run(target: Circuit, v: int, noise: NoiseModel,
               rng: np.random.Generator) -> RunOutcome:
    """One padded protocol run, the reference that :func:`accredit` matches.

    Hides the target among v traps, pads every circuit and folds in the
    drawn errors (:func:`plan_run`), then per slot builds the circuit as
    run and takes one dense statevector sample of it, post-processed with
    its key. The run accepts iff every trap outputs all zeros.
    """
    plan = plan_run(target, v, noise, rng)
    v0 = plan.v0
    outputs = []
    for k, (gates, key) in enumerate(zip(plan.gates, plan.keys)):
        circuit = Circuit(target.n, target.m, gates, target.cz,
                          plan.matrices if k == v0 else None)
        raw = simulator.run_statevector(circuit, rng=rng)
        outputs.append(qotp.postprocess(raw, key))
    trap_outputs = tuple(outputs[:v0] + outputs[v0 + 1:])
    flag = "acc" if all(not out.any() for out in trap_outputs) else "rej"
    return RunOutcome(v0=v0, target_output=outputs[v0],
                      trap_outputs=trap_outputs, flag=flag)


def run_rng(master_seed: int, block: int) -> np.random.Generator:
    """Generator of stream block ``block`` of :func:`accredit`'s runs, the
    ``STREAM_BLOCK`` runs from ``block * STREAM_BLOCK`` on; it depends on
    the seed and the block only, not on d."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, block]))


# Runs drawn from one run_rng stream and decided by one batched frame;
# fixed, so a report's runs do not depend on d, and a frame's memory is
# bounded for any d.
STREAM_BLOCK = 128


def _pad_free_runs(config: ProtocolConfig, target: Circuit) -> list:
    """Accepted target outputs of d runs, in run order, without padding.

    By Lemma 1 the one-time pad changes neither a trap's flip mask nor the
    target's post-processed output distribution under Pauli errors, and
    every gate deviation is a Pauli drawn into the error bits, so no
    circuit is padded. Stream block b draws its ``STREAM_BLOCK`` runs from
    ``run_rng(master_seed, b)`` (:func:`_draw_runs`), then each run's last
    draw. It draws all its runs and drops those past d, so a shorter report
    is a prefix of a longer one. The traps alone decide a run
    (:func:`_traps_accept`): by Lemma 2's linearity a trap with no error
    outputs zeros, so only the trap slots that hold an error are built and
    walked, each from its first error location. Only the accepted runs'
    target slices are read.

    A Clifford target's last draw is a mask a of n bits: an accepted run
    outputs :func:`simulator.reference_outcome` XOR the target's flips
    under its slice with X^a at location 0, one batched frame per block, so
    a report keeps n bits per accepted run and builds no statevector. A
    generic target's last draw is the uniform that picks its sample from
    its slice's statevector distribution; the report's accepted slices are
    sampled together (:func:`_sample_targets`), from one noiseless walk
    branched at each slice's first error, and only a generic target meets
    the size limit.
    """
    _check_plan(target, config.v)
    n, m = target.n, target.m
    clifford = target.all_clifford
    if clifford:
        reference = simulator.reference_outcome(target)
    else:
        simulator.check_statevector_size(n)
    rows, draws = [], []
    for start in range(0, config.d, STREAM_BLOCK):
        rng = run_rng(config.master_seed, start // STREAM_BLOCK)
        drawn = _draw_runs(target, config.v, config.noise, STREAM_BLOCK, rng)
        last = (rng.integers(0, 2, size=(STREAM_BLOCK, n), dtype=np.uint8)
                if clifford else rng.random(STREAM_BLOCK))
        v0, choice, err_x, err_z, last = (a[:config.d - start]
                                          for a in (*drawn, last))
        run = np.flatnonzero(_traps_accept(target, v0, choice, err_x, err_z))
        slot = v0[run]
        err_x, err_z, last = err_x[run, slot], err_z[run, slot], last[run]
        if clifford:
            err_x[:, 0] ^= last
            gates = np.broadcast_to(target.gates, (len(run), m, n))
            rows.append(reference
                        ^ simulator.frame_flips(target, gates, err_x, err_z))
        else:
            rows.append(np.stack((err_x, err_z), axis=1))
            draws.append(last)
    rows = np.concatenate(rows)
    return list(rows if clifford
                else _sample_targets(target, rows, np.concatenate(draws)))


def _draw_runs(target: Circuit, v: int, noise: NoiseModel, runs: int,
               rng: np.random.Generator) -> tuple:
    """The draws of ``runs`` protocol runs, in the one order every run
    takes: v0 (runs,), the choice rows (runs, v, choice_width) of each
    run's traps in slot order, then the error bits err_x, err_z (runs,
    v+1, m+1, n) of all slots from one ``sample_error_bits`` call."""
    v0 = rng.integers(0, v + 1, size=runs)
    choice = rng.integers(0, 2, size=(runs, v, traps.choice_width(target)),
                          dtype=np.uint8)
    err_x, err_z = noise.sample_error_bits(runs, v, target.n, target.m, rng)
    return v0, choice, err_x, err_z


def _traps_accept(target: Circuit, v0, choice, err_x, err_z) -> np.ndarray:
    """Acceptance flags (runs,) of drawn runs (:func:`_draw_runs`): a run
    accepts when all its v traps' flips are zero. The target's slot takes
    no part.

    A trap's flips are GF(2)-linear in its error bits (Lemma 2), so a trap
    slot that holds no error bit outputs zeros whatever its gates. Only the
    live slots, those holding an error, get gates and move, through one
    batched frame, each from its first error location
    (:func:`simulator.frame_flips`).
    """
    b, slots, locations, n = err_x.shape
    # flat hits in (run, slot, location, qubit) order: the first hit of a
    # (run, slot) pair is at its first error location
    hit = np.flatnonzero((err_x | err_z) != 0) // n
    live, start = np.unique(hit // locations, return_index=True)
    run, slot = np.divmod(live, slots)
    trap = slot != v0[run]
    run, slot = run[trap], slot[trap]
    first = hit[start[trap]] % locations
    order = np.argsort(first, kind="stable")
    run, slot, first = run[order], slot[order], first[order]
    # run i's t-th trap sits at the t-th slot other than v0[i]
    t = slot - (slot > v0[run])
    flips = simulator.frame_flips(
        target, traps.trap_cliffords(target, choice[run, t]),
        err_x[run, slot], err_z[run, slot], first)
    accept = np.ones(b, dtype=bool)
    accept[run[flips.any(axis=1)]] = False
    return accept


def _sample_targets(target: Circuit, slices: np.ndarray,
                    draws: np.ndarray) -> np.ndarray:
    """Outputs (A, n) of a generic target under A error slices (A, 2, m+1,
    n), each picked by its uniform draw from the slice's statevector
    distribution. Each distinct slice's distribution comes from one
    noiseless walk branched per slice (:func:`simulator.slice_distributions`)
    and is dropped once its runs are picked.
    """
    flat = slices.reshape(len(slices), math.prod(slices.shape[1:]))
    keys, inverse = np.unique(flat, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    indices = np.empty(len(slices), dtype=np.int64)
    for i, probs in simulator.slice_distributions(
            target, keys.reshape((-1,) + slices.shape[1:])):
        runs = inverse == i
        indices[runs] = simulator.quantile_indices(probs, draws[runs])
    return (indices[:, None] >> np.arange(target.n) & 1).astype(np.uint8)


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


def figure8_curve(v: int, r0_grid: Sequence[float],
                  counts: OperationCounts) -> list:
    """Credibility-over-acceptance curve for physical error rate r0.

    Preparations, measurements, and cZ gates fail at rate r0; single-qubit
    gate rounds at r0 / GATE_RATE_DIVISOR. For each grid point:
    delta = (1-r0)^(preps+meas+cZ) * (1-r0/div)^rounds, g = (1-r0/div)^rounds,
    epsilon from the bounded-gate-noise formula, and bound = epsilon/delta
    (infinite, so vacuous, where delta underflows to 0).
    """
    points = []
    others = counts.preparations + counts.measurements + counts.cz_gates
    for r0 in r0_grid:
        if not 0.0 <= r0 < 1.0:
            raise DomainError("r0 must lie in [0, 1)")
        g = (1.0 - r0 / GATE_RATE_DIVISOR) ** counts.single_qubit_rounds
        delta = (1.0 - r0) ** others * g
        eps = float(epsilon_theorem2(v, Fraction(g)))
        bound = eps / delta if delta else math.inf
        points.append(CurvePoint(r0=float(r0), epsilon=eps, delta=delta,
                                 bound=bound, vacuous=bound > 1.0))
    return points


def curve_to_csv(points: Sequence[CurvePoint]) -> str:
    lines = ["r0,epsilon,delta,bound"]
    for p in points:
        lines.append(f"{p.r0:.10g},{p.epsilon:.10g},{p.delta:.10g},{p.bound:.10g}")
    return "\n".join(lines) + "\n"
