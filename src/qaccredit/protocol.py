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
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import qotp, simulator, traps
from .circuit import Circuit
from .noise import NoiseModel, scatter_hits

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
        for name in ("v", "d", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Integral):
                raise DomainError(f"{name} must be an integer")
        if self.v < 3:
            raise DomainError("v >= 3 required for the credibility bound")
        if self.d < 1:
            raise DomainError("d must be >= 1")
        if self.master_seed < 0:
            raise DomainError("master_seed must be >= 0")
        if isinstance(self.theta, bool) or not isinstance(self.theta,
                                                          numbers.Real):
            raise DomainError("theta must be a real number")
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

    def unitaries(self) -> np.ndarray:
        """Every slot's band unitaries (v+1, m, n, 2, 2), the target
        slot's generic 2x2s in (:func:`simulator.band_unitaries`)."""
        return simulator.band_unitaries(
            self.gates, {(self.v0, j, i): u
                         for (j, i), u in self.matrices.items()})


def plan_run(target: Circuit, v: int, noise: NoiseModel,
             rng: np.random.Generator) -> RunPlan:
    """One run's secret choices and noise as a :class:`RunPlan`.

    Draws the run as a run of :func:`accredit` is drawn (:func:`_draw_runs`
    at one run), then the v+1 pad rows as one array. Trap t sits at the
    t-th slot other than v0, with the gates :func:`traps.trap_cliffords`
    gives its choice row; every slot is dressed by its pad row
    (:func:`qotp.pad_paulis`), as :func:`qotp.dress` dresses one circuit,
    on the target's cZ layers, with its drawn errors XORed into the pad
    Paulis. Both the padded reference run and the two-party session
    execute these v+1 circuits as run, each post-processed with its key.
    No circuit is built.
    """
    _check_plan(target, v)
    v0, choice, err_x, err_z = _dense_runs(target, v, noise, 1, rng)
    v0 = int(v0[0])
    pads = rng.integers(0, 2, size=(v + 1, qotp.pad_width(target.n, target.m)),
                        dtype=np.uint8)
    trap_gates = traps.trap_cliffords(target, choice[0])
    bases = np.concatenate((trap_gates[:v0], target.gates[None],
                            trap_gates[v0:]))
    pre, post, keys = qotp.pad_paulis(target, pads, (err_x[0], err_z[0]))
    return RunPlan(v0, qotp.pad_gates(bases, pre, post),
                   qotp.pad_matrices(target.matrices, pre[v0], post[v0]),
                   keys)


def single_run(target: Circuit, v: int, noise: NoiseModel,
               rng: np.random.Generator) -> RunOutcome:
    """One padded protocol run, the reference that :func:`accredit` matches.

    Checks n against the statevector limit before any draw, plans the
    padded run with its drawn errors folded in (:func:`plan_run`), walks
    its v+1 slots as one batch and samples each slot in slot order,
    post-processed with its key. It accepts iff every trap outputs zeros.
    """
    simulator.check_statevector_size(target.n)
    plan = plan_run(target, v, noise, rng)
    probs = simulator.density_distribution(
        plan.unitaries().transpose(1, 2, 0, 3, 4), target.cz, {})
    outputs = [qotp.postprocess(simulator.sample_bits(p, target.n, rng), key)
               for p, key in zip(probs, plan.keys)]
    trap_outputs = tuple(outputs[:plan.v0] + outputs[plan.v0 + 1:])
    flag = "acc" if all(not out.any() for out in trap_outputs) else "rej"
    return RunOutcome(v0=plan.v0, target_output=outputs[plan.v0],
                      trap_outputs=trap_outputs, flag=flag)


def run_rng(master_seed: int, block: int) -> np.random.Generator:
    """Generator of stream block ``block`` of :func:`accredit`'s runs, the
    ``STREAM_BLOCK`` runs from ``block * STREAM_BLOCK`` on; it depends on
    the seed and the block only, not on d."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, block]))


# Runs drawn from one run_rng stream; fixed, so a report's runs do not
# depend on d.
STREAM_BLOCK = 128
# Bytes that stream blocks hand on to one trap walk, each pending error hit
# counted at the bytes of a live trap row in the walk (its packed choice
# bytes and its two bits a qubit in the frame planes) and each pending run
# at its target slice: once the pending blocks count more, they are decided
# together, so a walk's memory is bounded for any d while a small report is
# one walk.
WALK_BYTES = 2 ** 20


def _pad_free_runs(config: ProtocolConfig, target: Circuit) -> list:
    """Accepted target outputs of d runs, in run order, without padding.

    By Lemma 1 the one-time pad changes neither a trap's flip mask nor the
    target's post-processed output distribution under Pauli errors, and
    every gate deviation is a Pauli drawn into the error hits, so no
    circuit is padded. Stream block b draws its ``STREAM_BLOCK`` runs from
    ``run_rng(master_seed, b)`` (:func:`_draw_runs`), then each run's last
    draw. It draws all its runs and drops those past d, so a shorter report
    is a prefix of a longer one. A block does nothing but draw: it hands on
    its runs' v0, packed choice bytes and last draws and its error hits
    (:func:`_hand_on`). Once the pending blocks count more than
    ``WALK_BYTES``, and at the end of the report, they are decided in one
    walk (:func:`_accepted_slices`): by Lemma 2's linearity a trap with no
    error outputs zeros, so only the trap slots that hold a hit are walked,
    on bit-sliced frames straight from their packed choice bytes
    (:func:`simulator.trap_flips`), and only the accepted runs' target
    slices are built.

    A Clifford target's last draw is a mask a of n bits: an accepted run
    outputs :func:`simulator.reference_outcome` XOR the target's flips
    under its slice with X^a at location 0, one batched frame per walk, so
    a report keeps n bits per accepted run and builds no statevector. A
    generic target's last draw is the uniform that picks its sample from
    its slice's statevector law; the report's accepted slices are sampled
    together (:func:`_sample_targets`): each run's uniform draws from the
    law of one noiseless walk, and its place inside the drawn outcome's
    cell redraws the bits on the light cone of the slice's errors. Only a
    generic target meets the size limit.
    """
    _check_plan(target, config.v)
    n, m = target.n, target.m
    clifford = target.all_clifford
    if clifford:
        reference = simulator.reference_outcome(target)
    else:
        simulator.check_statevector_size(n)
    hit_bytes = -(-traps.choice_width(target) // 8) + -(-n // 4)
    run_bytes = 2 * (m + 1) * n
    rows, draws, pending, held = [], [], [], 0
    for start in range(0, config.d, STREAM_BLOCK):
        block = _hand_on(config, target, start)
        pending.append(block)
        held += (sum(a.nbytes for a in block) + len(block.v0) * run_bytes
                 + len(block.codes) * hit_bytes)
        if held <= WALK_BYTES and start + STREAM_BLOCK < config.d:
            continue
        slices, last = _accepted_slices(target, pending)
        pending, held = [], 0
        if clifford:
            slices[:, 0, 0] ^= last
            gates = np.broadcast_to(target.gates, (len(last), m, n))
            rows.append(reference ^ simulator.frame_flips(
                target, gates, simulator.frame_hits(slices[:, 0],
                                                    slices[:, 1])))
        else:
            rows.append(slices)
            draws.append(last)
    rows = np.concatenate(rows)
    return list(rows if clifford
                else _sample_targets(target, rows, np.concatenate(draws)))


class _Block(NamedTuple):
    """What a stream block hands on (:func:`_hand_on`)."""

    v0: np.ndarray  # (runs,)
    packed: np.ndarray  # (runs, v, bytes) packed choice bytes
    positions: np.ndarray  # error hits (:func:`_draw_runs`)
    codes: np.ndarray
    last: np.ndarray  # (runs, ...) last draws


def _hand_on(config: ProtocolConfig, target: Circuit, start: int) -> _Block:
    """What the stream block of runs ``start`` on hands on, its runs past d
    and their hits dropped."""
    rng = run_rng(config.master_seed, start // STREAM_BLOCK)
    v0, packed, (positions, codes) = _draw_runs(
        target, config.v, config.noise, STREAM_BLOCK, rng)
    last = (rng.integers(0, 2, size=(STREAM_BLOCK, target.n), dtype=np.uint8)
            if target.all_clifford else rng.random(STREAM_BLOCK))
    runs = min(STREAM_BLOCK, config.d - start)
    cut = np.searchsorted(
        positions, runs * (config.v + 1) * (target.m + 1) * target.n)
    return _Block(v0[:runs], packed[:runs], positions[:cut], codes[:cut],
                  last[:runs])


def _draw_runs(target: Circuit, v: int, noise: NoiseModel, runs: int,
               rng: np.random.Generator) -> tuple:
    """The draws of ``runs`` protocol runs, in the one order every run
    takes: v0 (runs,), the packed choice bytes (runs, v, ceil(choice_width
    / 8)) of each run's traps in slot order, then the error hits of all
    slots, positions flat over (run, slot, location, qubit) and codes, from
    one ``sample_hits`` call. A trap's choice row is its bytes unpacked
    least significant bit first (:func:`_choice_rows`)."""
    width = traps.choice_width(target)
    v0 = rng.integers(0, v + 1, size=runs)
    packed = rng.integers(0, 256, size=(runs, v, -(-width // 8)),
                          dtype=np.uint8)
    return v0, packed, noise.sample_hits(runs, v, target.n, target.m, rng)


def _choice_rows(target: Circuit, packed: np.ndarray) -> np.ndarray:
    """Choice rows (..., choice_width) of packed choice bytes (..., bytes)."""
    return np.unpackbits(packed, axis=-1, count=traps.choice_width(target),
                         bitorder="little")


def _dense_runs(target: Circuit, v: int, noise: NoiseModel, runs: int,
                rng: np.random.Generator) -> tuple:
    """The draws of :func:`_draw_runs` as dense arrays: v0 (runs,), the
    choice rows (runs, v, choice_width) and the error bits err_x, err_z
    (runs, v+1, m+1, n)."""
    v0, packed, hits = _draw_runs(target, v, noise, runs, rng)
    return (v0, _choice_rows(target, packed),
            *scatter_hits(hits, (runs, v + 1, target.m + 1, target.n)))


def _decide(target: Circuit, v0, packed, positions, codes) -> tuple:
    """Acceptance flags (runs,) of drawn runs given as v0, packed choice
    bytes and error hits (:func:`_draw_runs`), and the hits in the
    target's slot as (run, at, codes), at = location * n + qubit, in
    position order. Every other hit sits in a trap, and all traps are
    decided in one walk (:func:`_failing_runs`)."""
    slots = packed.shape[1] + 1
    cell, at = np.divmod(positions, (target.m + 1) * target.n)
    run, slot = np.divmod(cell, slots)
    in_target = slot == v0[run]
    trap = ~in_target
    accept = np.ones(len(v0), dtype=bool)
    accept[_failing_runs(target, v0, packed, cell[trap], at[trap],
                         codes[trap])] = False
    return accept, (run[in_target], at[in_target], codes[in_target])


def _failing_runs(target: Circuit, v0, packed, cell, at, codes
                  ) -> np.ndarray:
    """The runs among trap hits whose flips are not all zero; a hit sits
    at cell = run * (v+1) + slot, ascending, and at = location * n +
    qubit within it.

    A trap's flips are GF(2)-linear in its errors (Lemma 2), so a trap
    slot with no hit outputs zeros whatever its choice, and each live slot
    is one row, found from the sorted cells. The rows' packed choice bytes
    and their hits, as drawn, go through one bit-sliced walk, 64 rows to
    a word, which builds no trap gate (:func:`simulator.trap_flips`)."""
    slots = packed.shape[1] + 1
    new = np.diff(cell, prepend=-1) != 0
    run, slot = np.divmod(cell[new], slots)
    # run i's t-th trap sits at the t-th slot other than v0[i]
    flips = simulator.trap_flips(target, packed[run, slot - (slot > v0[run])],
                                 (np.cumsum(new) - 1, at, codes))
    return run[flips.any(axis=1)]


def _accepted_slices(target: Circuit, blocks: list) -> tuple:
    """The accepted runs' target slices (A, 2, m+1, n), the (x, z) bits of
    each location, and last draws (A, ...), in run order, of stream blocks
    handed on by :func:`_hand_on`, which it empties. Each block's
    positions are offset by the runs of the blocks before, and all blocks
    are decided in one walk (:func:`_decide`)."""
    n, m = target.n, target.m
    size = (m + 1) * n
    run_size = (blocks[0].packed.shape[1] + 1) * size
    offsets = np.cumsum([0] + [len(block.v0) for block in blocks])
    positions = np.concatenate([block.positions + offset * run_size
                                for block, offset in zip(blocks, offsets)])
    v0, packed, _, codes, last = (np.concatenate(part)
                                  for part in zip(*blocks))
    blocks.clear()
    accept, (run, at, codes) = _decide(target, v0, packed, positions, codes)
    kept = accept[run]
    row = np.cumsum(accept) - 1
    slices = np.zeros((int(accept.sum()), 1, m + 1, n), dtype=np.uint8)
    slices.reshape(-1)[row[run[kept]] * size + at[kept]] = codes[kept]
    return np.concatenate((slices & 1, slices >> 1), axis=1), last[accept]


def _sample_targets(target: Circuit, slices: np.ndarray,
                    draws: np.ndarray) -> np.ndarray:
    """Outputs (A, n) of a generic target under A error slices (A, 2, m+1,
    n), each drawn by its uniform from the slice's statevector law: x from
    the noiseless law of one walk, then the bits on the light cone of its
    errors again, by the uniform's place inside x's cell
    (:func:`simulator.sample_slices`).
    """
    indices = simulator.sample_slices(target, slices, draws)
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
    # plain Python numbers, so any real theta writes to JSON
    theta = (int if isinstance(config.theta, numbers.Integral) else float)(
        config.theta)
    return AccreditationReport(
        n_acc=n_acc,
        d=config.d,
        theta=theta,
        epsilon=float(eps),
        confidence=confidence(config.d, theta),
        bound=eq1_bound(float(eps), n_acc, config.d, theta),
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
            try:
                float(count)
            except OverflowError:
                raise DomainError(f"{name} is too large for a float") from None

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
    # as floats: a sum past the largest float is inf, not OverflowError
    others = (float(counts.preparations) + float(counts.measurements)
              + float(counts.cz_gates))
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
