"""Brute-force verifiers for the protocol's supporting lemmas.

These recompute everything from the Clifford tables and the simulator's
reference paths — never through the protocol runner's acceptance logic, the
batched trap builder or the batched frame — so they are an independent
check, not a tautology:

* trap-detection bounds: exact (rational) probability that a trap outputs
  all zeros under a fixed Pauli error collection, averaged over all trap
  choices, with exhaustive sweeps over single- and two-location collections;
* the pad-twirl reduction: the exhaustive pad average of an arbitrary noisy
  channel is a classical mixture of Pauli error collections (nonnegative
  least-squares fit, residual threshold 1e-9);
* the dense Pauli-twirl identities (full and restricted);
* Monte Carlo credibility: freq(accept AND target corrupted) under explicit
  adversarial collection distributions stays below kappa/(v+1); traps and
  target read the adversary's error bits through flip rows of basis errors.

A Pauli at one location is the code ``x << n | z``: every enumeration is a
range of codes, turned once into the (x, z) uint8 bits (bit q is qubit q)
that the flip tables and the statevector walk read. Flip tables come from
one backward pass over the Clifford images of the gates (``_backward_flips``),
a sweep gathers them by code (``_pass_counts``), and the pad average walks
every pad row as one batch (``pad_averaged_distribution``). PauliStrings
appear only in ``corrupts_target``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import nnls

from . import cliffords, pauli, qotp, simulator, traps
from .circuit import Circuit
from .noise import ExplicitCollectionDistribution
from .protocol import KAPPA

TWIRL_RESIDUAL_TOL = 1e-9
CROSS_TERM_TOL = 1e-12
SWEEP_SAMPLES = 10 ** 4  # collections drawn by the sampled ``all`` sweep
FLIP_TABLE_CAP = 2 ** 20  # entries of one flip table
SWEEP_COLLECTION_CAP = 2 ** 17  # collections an exhaustive sweep lists
SWEEP_CHUNK = 2 ** 18  # flip words a sweep's code tables, or a block, hold
_CODE_GROUP_BITS = 8  # code bits one location's flip table covers
TWIRL_WALK_CAP = 2 ** 15  # statevector walks in one pad-twirl fit
PAULI_TWIRL_TERM_CAP = 2 ** 18  # Q-conjugated terms in the dense twirl sums


@dataclass
class LemmaReport:
    instance: str
    probability: object  # Fraction (exact) or float (Monte Carlo)
    bound: object
    passed: bool
    samples: int  # enumeration size or Monte Carlo run count
    sampled: bool = False  # True when not exhaustive
    detail: dict = field(default_factory=dict)

    def to_json(self) -> str:
        def num(x):
            return float(x) if isinstance(x, Fraction) else x
        return json.dumps({
            "instance": self.instance,
            "probability": num(self.probability),
            "bound": num(self.bound),
            "passed": self.passed,
            "samples": self.samples,
            "sampled": self.sampled,
            "detail": self.detail,
        })


# ---------------------------------------------------------------------------
# Trap-detection bounds (exact, averaged over trap choices)
# ---------------------------------------------------------------------------


# _IMAGES[c, p, o]: bit o (0: x, 1: z) of c P c† for P = X (p 0) or Z (p 1)
_IMAGES = cliffords.IMAGES[:, 1:3, :2].astype(np.uint32)


def _backward_flips(gates: np.ndarray, cz: tuple) -> np.ndarray:
    """Flip masks of the basis errors of C Clifford circuits on one cZ
    topology, gate indices (C, m, n), as a uint32 array (m+1, 2n, C).

    Entry [loc, b, c] is the end-of-circuit flip mask of circuit c under
    the basis error with symplectic bit b (b < n: X on qubit b; b >= n: Z
    on qubit b-n) inserted at location loc. A suffix of a Clifford circuit
    acts on Paulis as a GF(2)-linear map (Aaronson & Gottesman 2004,
    arXiv:quant-ph/0406196), so one pass from the measurement back to
    location 0 builds every row: at the measurement Z_q flips bit q and X_q
    nothing; band j, from m-1 down to 0, takes the rows through cZ_j (X_lo
    picks up Z_hi's flips, X_hi Z_lo's) to location j+1, then through its
    single-qubit round, where gate c sends X and Z to their images.
    """
    n_circuits, m, n = gates.shape
    table = np.empty((m + 1, 2 * n, n_circuits), dtype=np.uint32)
    x = np.zeros((n, n_circuits), dtype=np.uint32)
    z = np.ones((n, n_circuits), dtype=np.uint32) << np.arange(
        n, dtype=np.uint32)[:, None]
    for j in range(m - 1, -1, -1):
        for lo, hi in cz[j]:
            x[lo], x[hi] = x[lo] ^ z[hi], x[hi] ^ z[lo]
        table[j + 1, :n], table[j + 1, n:] = x, z
        image = _IMAGES[gates[:, j].T]
        x, z = (image[..., 0, 0] * x ^ image[..., 0, 1] * z,
                image[..., 1, 0] * x ^ image[..., 1, 1] * z)
    table[0, :n], table[0, n:] = x, z
    return table


def _flip_rows(circuit: Circuit) -> np.ndarray:
    """Flip masks (m+1, 2n) of the basis errors of one Clifford circuit:
    :func:`_backward_flips` of the circuit alone. Flip masks are GF(2)-linear
    in the error's symplectic bits, so any slice's mask is an XOR of these
    rows."""
    return _backward_flips(circuit.gates[None], circuit.cz)[..., 0]


@lru_cache(maxsize=32)
def _choice_flip_tables(topology: Circuit) -> np.ndarray:
    """:func:`_flip_rows` of every trap choice of a topology.

    Returns a read-only uint32 array of shape (m+1, 2n, choices), choice c
    last: one backward pass over the gates that :func:`traps.generate_trap`
    builds for each choice. Raises ValueError when the table holds more
    than ``FLIP_TABLE_CAP`` entries, 2n(m+1) per trap choice.
    """
    n, m = topology.n, topology.m
    size = 2 * n * (m + 1) * traps.choice_space_size(topology)
    if size > FLIP_TABLE_CAP:
        raise ValueError(f"flip table of {size} entries too large to build "
                         f"(cap {FLIP_TABLE_CAP})")
    gates = np.stack([traps._trap_gates(topology, c)
                      for c in traps.enumerate_choices(topology)])
    table = _backward_flips(gates, topology.cz)
    table.flags.writeable = False
    return table


def _flips(rows: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """XOR of the flip rows that a slice's (m+1, n) error bits select."""
    select = np.concatenate((x, z), axis=-1).astype(bool)
    return np.bitwise_xor.reduce(rows[select], axis=0)


def lemma2_exact_prob(topology: Circuit, errors: tuple) -> Fraction:
    """Exact prob(trap outputs all zeros), uniform over all trap choices.

    ``errors`` is a single-circuit slice as an (x, z) pair of (m+1, n)
    uint8 bit arrays, row j the location-j error (bit q is qubit q).
    """
    return _pass_prob(_choice_flip_tables(topology), *errors)


def _pass_prob(table: np.ndarray, x: np.ndarray, z: np.ndarray) -> Fraction:
    """Share of the table's trap choices whose flip mask under a slice's
    (m+1, n) error bits is zero."""
    flips = _flips(table, x, z)
    return Fraction(int((flips == 0).sum()), len(flips))


def corrupts_target(target: Circuit, errors: Sequence) -> bool:
    """Does a slice of m+1 PauliStrings flip a Clifford target's output?

    Decided by frame propagation, independently of the batched engine.
    """
    return pauli.z_mask(simulator.propagate_frame(target, errors)) != 0


def _codes(n: int, z_only: bool) -> range:
    """Every Pauli at one location as a code ``x << n | z``: identity
    first, x-major, then z. A Z-only location is the codes below 2^n."""
    return range(2 ** n if z_only else 4 ** n)


def _bits(codes, n: int) -> tuple:
    """(x, z) uint8 arrays of codes of any shape, with a trailing axis of
    length n (bit q is qubit q). Codes fit in int64: the flip-table cap
    admits n <= 22 and the twirl caps far less."""
    bits = np.asarray(codes, dtype=np.int64)[..., None] >> np.arange(2 * n)
    bits = (bits & 1).astype(np.uint8)
    return bits[..., n:], bits[..., :n]


def _pass_counts(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Trap choices of a flip table (m+1, 2n, C) under which each of S
    collections, an (S, m+1) array of codes, has a zero flip mask.

    Flips are linear in a code's bits, so each location's codes get flip
    tables by XOR doubling, F[c | 1 << b] = F[c] ^ row[b], one table per
    group of ``_CODE_GROUP_BITS`` bits (a single table up to n = 4), and a
    collection's flips are the XOR of the rows its codes gather, over the
    locations a block of collections touches. Choices and collections go in
    chunks, so that the tables, and each block of flips, hold at most
    ``SWEEP_CHUNK`` words.
    """
    m1, two_n, n_choices = table.shape
    n = two_n // 2
    # code bit b < n is Z on qubit b (row n + b), bit n + q X on qubit q
    row_of_bit = (np.arange(two_n) + n) % two_n
    groups = [[(lo, min(lo + _CODE_GROUP_BITS, bits))
               for lo in range(0, bits, _CODE_GROUP_BITS)]
              for bits in [n] + [two_n] * (m1 - 2) + [n]]
    per_choice = sum(1 << hi - lo for spans in groups for lo, hi in spans)
    width = max(1, SWEEP_CHUNK // per_choice)
    height = max(1, SWEEP_CHUNK // min(width, n_choices))
    counts = np.zeros(len(codes), dtype=np.int64)
    for c0 in range(0, n_choices, width):
        tables = [[_doubled(table[loc, row_of_bit[lo:hi], c0:c0 + width])
                   for lo, hi in spans] for loc, spans in enumerate(groups)]
        for s0 in range(0, len(codes), height):
            block = codes[s0:s0 + height]
            flips = np.zeros((len(block), tables[0][0].shape[1]),
                             dtype=np.uint32)
            for loc in np.flatnonzero(block.any(axis=0)):
                for (lo, hi), t in zip(groups[loc], tables[loc]):
                    flips ^= t[block[:, loc] >> lo & (1 << hi - lo) - 1]
            counts[s0:s0 + len(block)] += (flips == 0).sum(axis=1)
    return counts


def _doubled(rows: np.ndarray) -> np.ndarray:
    """XOR of every subset of ``rows`` (k, C), subset c at index c."""
    out = np.zeros((1 << len(rows), rows.shape[1]), dtype=rows.dtype)
    for b, row in enumerate(rows):
        out[1 << b: 2 << b] = out[:1 << b] ^ row
    return out


def lemma2_sweep(topology: Circuit, band_count_class: str,
                 rng: Optional[np.random.Generator] = None) -> list:
    """Sweep error collections against the 1/2 (single) / 3/4 (multi) bounds.

    ``single`` and ``two`` enumerate exhaustively all collections supported
    on exactly one / two locations, at most ``SWEEP_COLLECTION_CAP`` of
    them. ``all`` samples ``SWEEP_SAMPLES`` collections with no support
    restriction from ``rng``, which it requires (reports flagged as
    sampled). Each collection is m+1 codes, one per location; an instance
    is named by one letter per qubit, qubit 0 first. Every class counts its
    passing trap choices by :func:`_pass_counts`; :func:`lemma2_exact_prob`
    is the one-collection reference.
    """
    if band_count_class not in ("single", "two", "all"):
        raise ValueError("band_count_class must be single, two, or all")
    if band_count_class == "all" and rng is None:
        raise ValueError("the sampled class 'all' needs an rng")
    n, m = topology.n, topology.m
    # the table is checked against its cap before any collection is listed
    table = _choice_flip_tables(topology)
    n_choices = table.shape[-1]
    if band_count_class == "all":
        # per collection and location: x (inner locations only), then z
        draws = rng.integers(0, 2 ** n, size=(SWEEP_SAMPLES, 2 * m))
        codes = np.empty((SWEEP_SAMPLES, m + 1), dtype=np.int64)
        codes[:, 0], codes[:, m] = draws[:, 0], draws[:, -1]
        codes[:, 1:m] = draws[:, 1:-2:2] << n | draws[:, 2:-1:2]
    else:
        sizes = [len(_codes(n, loc in (0, m))) for loc in range(m + 1)]
        k = 1 if band_count_class == "single" else 2
        support_sets = list(itertools.combinations(range(m + 1), k))
        count = sum(math.prod(sizes[loc] - 1 for loc in locs)
                    for locs in support_sets)
        if count > SWEEP_COLLECTION_CAP:
            raise ValueError(f"sweep of {count} collections too large to "
                             f"list (cap {SWEEP_COLLECTION_CAP})")
        codes = np.zeros((count, m + 1), dtype=np.int64)
        start = 0
        for locs in support_sets:
            # every non-identity code per location, the first one outermost
            picked = np.indices([sizes[loc] - 1 for loc in locs])
            picked = picked.reshape(k, -1) + 1
            codes[start:start + picked.shape[1], locs] = picked.T
            start += picked.shape[1]
    counts = _pass_counts(table, codes)
    single, multi = Fraction(1, 2), Fraction(3, 4)
    probabilities = {passes: Fraction(passes, n_choices)
                     for passes in np.unique(counts).tolist()}
    reports = []
    # names go in blocks whose bit arrays (2n(m+1) int64 per collection)
    # and strings take about as much memory as one block of flips
    step = max(1, SWEEP_CHUNK // (16 * n * (m + 1)))
    for s0 in range(0, len(codes), step):
        block = codes[s0:s0 + step]
        touched = block != 0
        # "loc<j>:" and n letters, qubit 0 first, per touched location j
        x, z = _bits(block, n)
        letters = np.array(list("IXZY"))[x + 2 * z].view(f"<U{n}")[..., 0]
        instances = np.full(len(block), "")
        for loc in range(m + 1):
            sep = np.where((instances != "") & touched[:, loc], "+", "")
            name = np.strings.add(f"loc{loc}:", letters[:, loc])
            instances = np.strings.add(np.strings.add(instances, sep),
                                       np.where(touched[:, loc], name, ""))
        for instance, size, passes in zip(instances.tolist(),
                                          touched.sum(axis=1).tolist(),
                                          counts[s0:s0 + step].tolist()):
            if not size:
                continue
            prob = probabilities[passes]
            # prob == 1 means the flip mask vanishes for every dressing: the
            # errors cancel exactly and the collection acts as the identity
            # channel on the trap. The detection bounds apply to collections
            # with a non-trivial action, so these pass with a note (they can
            # never corrupt an output either).
            trivial = prob == 1
            bound = single if size == 1 else multi
            reports.append(LemmaReport(
                instance=instance, probability=prob, bound=bound,
                passed=trivial or prob <= bound,
                samples=n_choices, sampled=band_count_class == "all",
                detail={"acts_trivially": True} if trivial else {}))
    return reports


# ---------------------------------------------------------------------------
# Pad-twirl reduction to Pauli-collection mixtures
# ---------------------------------------------------------------------------


@dataclass
class TwirlReport:
    """A twirl fit: ``weights[i]`` weighs candidate slice i of
    ``collections``, an (x, z) pair of (C, m+1, n) uint8 bit arrays."""
    averaged: np.ndarray  # pad-averaged output distribution of the circuit
    residual: float
    weights: np.ndarray
    collections: tuple
    passed: bool


def _check_twirl_walks(circ: Circuit, channels: dict, fit: bool):
    """Raise ValueError when the pad average (one walk per pad row and Kraus
    path) plus, for a fit, one walk per candidate collection (4^(nm) of
    them) exceeds ``TWIRL_WALK_CAP``."""
    n, m = circ.n, circ.m
    walks = 2 ** qotp.pad_width(n, m) * math.prod(
        len(kraus) for kraus in (channels or {}).values())
    walks += 4 ** (n * m) if fit else 0
    if walks > TWIRL_WALK_CAP:
        raise ValueError(f"pad twirl of {walks} statevector walks too large "
                         f"to run (cap {TWIRL_WALK_CAP})")


def pad_averaged_distribution(circ: Circuit, channels: dict) -> np.ndarray:
    """Exhaustive pad average of the noisy, post-processed output.

    Every pad row's dressed bands, X^{alpha'} Z^{alpha} U times the Pauli
    before it, walk through the density backend as one batch; each row's
    distribution is read at its outputs XOR its key. :func:`qotp.dress`
    and :func:`simulator.run_density` of one row are the reference.
    """
    _check_twirl_walks(circ, channels, fit=False)
    n, m = circ.n, circ.m
    channels = simulator.density_channels(n, m, channels)
    width = qotp.pad_width(n, m)
    rows = np.arange(2 ** width)
    pads = (rows[:, None] >> np.arange(width) & 1).astype(np.uint8)
    pre, post, key = qotp.pad_paulis(circ, pads)
    bands = qotp.pad_unitaries(simulator.band_unitaries(circ), pre, post)
    probs = simulator.density_distribution(bands.transpose(1, 2, 0, 3, 4),
                                           circ.cz, channels)
    outputs = np.arange(2 ** n) ^ (key @ (1 << np.arange(n)))[:, None]
    return probs[rows[:, None], outputs].mean(axis=0)


def twirl_channel(circ: Circuit, channels: dict) -> TwirlReport:
    """Fit the pad-averaged noisy channel by a Pauli-collection mixture.

    ``channels`` maps noise locations to Kraus lists (2^n-dimensional).
    The candidates are every slice (Z-only at the end locations) as bits:
    the product of the locations' codes, identity first, folded into the
    gates (:func:`simulator.error_paulis`) and walked as one batch.
    """
    _check_twirl_walks(circ, channels, fit=True)
    averaged = pad_averaged_distribution(circ, channels)
    n, m = circ.n, circ.m
    err_x, err_z = _bits(list(itertools.product(
        *(_codes(n, loc in (0, m)) for loc in range(m + 1)))), n)
    bands = qotp.pad_unitaries(simulator.band_unitaries(circ),
                               *simulator.error_paulis(err_x, err_z))
    a = simulator.density_distribution(bands.transpose(1, 2, 0, 3, 4),
                                       circ.cz, {}).T
    # constrain weights to a distribution by appending the sum-to-one row
    scale = 10.0
    a_aug = np.vstack([a, scale * np.ones(a.shape[1])])
    b_aug = np.concatenate([averaged, [scale]])
    weights, _ = nnls(a_aug, b_aug)
    residual = float(np.max(np.abs(a @ weights - averaged)))
    return TwirlReport(averaged=averaged, residual=residual, weights=weights,
                       collections=(err_x, err_z),
                       passed=residual < TWIRL_RESIDUAL_TOL)


# ---------------------------------------------------------------------------
# Dense Pauli-twirl identities
# ---------------------------------------------------------------------------


def pauli_twirl_identity_check(n: int,
                               rng: np.random.Generator) -> LemmaReport:
    """Verify that twirling kills cross terms, by dense matrix arithmetic.

    Full twirl: sum_Q (QPQ) rho (QP'Q) = 0 for all P != P'. Restricted twirl
    over {I,X}^n kills cross terms with P, P' in {I,Z}^n (and the X<->Z
    swapped statement). The P = P' arm must equal 4^n P rho P. Raises
    ValueError, before any draw, when the sums need more than
    ``PAULI_TWIRL_TERM_CAP`` terms, 16^n (4^n - 1) + 2 * 4^n (2^n - 1) + 4^n.
    """
    size = {"full": 4 ** n, "IX": 2 ** n, "IZ": 2 ** n}
    cases = (("full", "full"), ("IX", "IZ"), ("IZ", "IX"))
    terms = size["full"] + sum(size[q] * size[p] * (size[p] - 1)
                               for q, p in cases)
    if terms > PAULI_TWIRL_TERM_CAP:
        raise ValueError(f"Pauli twirl of {terms} terms too large to sum "
                         f"(cap {PAULI_TWIRL_TERM_CAP})")
    dim = 2 ** n
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    rho /= np.trace(rho).real
    # a Pauli as the kron of canonical matrices, qubit 0 the last factor: the
    # Hermitian Pauli up to a phase c with c^4 = 1, which no check sees (a
    # term holds each Q four times; the sanity arm has P on both sides)
    dense = {letters: [reduce(np.kron, cliffords.MATRICES[
        cliffords.PAULI_INDEX[xq, zq]][::-1]) for xq, zq in zip(*_bits(c, n))]
        for letters, c in (("full", _codes(n, False)),
                           ("IX", range(0, 4 ** n, 2 ** n)),
                           ("IZ", _codes(n, True)))}

    def twirl_sum(pd, p2d, q_mats):
        acc = np.zeros((dim, dim), dtype=complex)
        for qd in q_mats:
            acc += (qd @ pd @ qd) @ rho @ (qd @ p2d @ qd)
        return acc

    worst = 0.0
    checks = 0
    for q_letters, p_letters in cases:
        for pd, p2d in itertools.permutations(dense[p_letters], 2):
            res = twirl_sum(pd, p2d, dense[q_letters])
            worst = max(worst, float(np.max(np.abs(res))))
            checks += 1
    # sanity arm: no cancellation when P = P'
    pd = dense["full"][1]
    same = twirl_sum(pd, pd, dense["full"])
    sanity_ok = np.allclose(same, (4 ** n) * pd @ rho @ pd, atol=1e-9)
    passed = worst < CROSS_TERM_TOL and sanity_ok
    return LemmaReport(
        instance=f"pauli-twirl n={n}",
        probability=worst, bound=CROSS_TERM_TOL, passed=passed,
        samples=checks, detail={"sanity_arm_ok": bool(sanity_ok)})


# ---------------------------------------------------------------------------
# Monte Carlo credibility under explicit adversaries
# ---------------------------------------------------------------------------


def three_sigma_report(instance: str, freq: float, bound: float, runs: int,
                       detail: Optional[dict] = None) -> LemmaReport:
    """Sampled report that passes when freq <= bound + 3 sigma.

    sigma is the binomial standard error at the bound, floored at
    1/(2 runs) so that a bound of 0 or 1 still gets sampling slack.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, not {runs}")
    sigma = float(np.sqrt(max(bound * (1 - bound), 0.25 / runs) / runs))
    return LemmaReport(
        instance=instance, probability=freq, bound=bound,
        passed=freq <= bound + 3 * sigma, samples=runs, sampled=True,
        detail={**(detail or {}), "three_sigma": 3 * sigma})


def _acceptance_tables(target: Circuit,
                       adversary: ExplicitCollectionDistribution):
    """Precompute per-(entry, slot, choice) trap acceptance and corruption.

    accept[e, k, c] = 1 iff a trap built from choice c, placed at slot k,
    outputs all zeros under adversary entry e. corrupted[e, k] = 1 iff the
    entry's slot-k errors flip the target's post-processed output. Both
    read the entries' error bits through one flip-row XOR.
    """
    table = _choice_flip_tables(target)
    rows = _flip_rows(target)
    accept = np.array([[_flips(table, xk, zk) == 0 for xk, zk in zip(x, z)]
                       for x, z in adversary.bits])
    corrupted = np.array([[_flips(rows, xk, zk) != 0 for xk, zk in zip(x, z)]
                          for x, z in adversary.bits])
    return accept, corrupted, adversary.probs


def theorem1_empirical(target: Circuit, v: int,
                       adversary: ExplicitCollectionDistribution,
                       runs: int, rng: np.random.Generator) -> LemmaReport:
    """Estimate freq(accept AND target corrupted) against kappa/(v+1).

    The target must be all-Clifford (corruption is decided by frame
    propagation). Also reports the tighter per-v-hat bound
    v_hat/(v+1) * (3/4)^(v_hat-1) when every adversary entry touches the
    same number of circuits.
    """
    if v < 3:
        raise ValueError("v >= 3 required")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, not {runs}")
    if not target.all_clifford:
        raise ValueError("empirical credibility check needs a Clifford target")
    shape, want = adversary.bits[0][0].shape, (v + 1, target.m + 1, target.n)
    if shape != want:
        raise ValueError(f"adversary collections of shape {shape} do not "
                         f"cover (v+1, m+1, n) = {want}")
    accept, corrupted, probs = _acceptance_tables(target, adversary)
    n_entries, _, n_choices = accept.shape

    entry_idx = rng.choice(n_entries, size=runs, p=probs)
    v0 = rng.integers(0, v + 1, size=runs)
    choice_idx = rng.integers(0, n_choices, size=(runs, v + 1))
    slot = np.arange(v + 1)[None, :]
    per_slot = accept[entry_idx[:, None], slot, choice_idx]
    per_slot[np.arange(runs), v0] = True  # target slot carries no trap
    acc = per_slot.all(axis=1)
    corr = corrupted[entry_idx, v0]
    bad = acc & corr
    freq = float(bad.mean())

    bound = KAPPA / (v + 1)
    touched = {int((x | z).any(axis=(1, 2)).sum()) for x, z in adversary.bits}
    detail = {}
    if len(touched) == 1:
        v_hat = touched.pop()
        if v_hat >= 1:
            vhat_bound = Fraction(v_hat, v + 1) * Fraction(3, 4) ** (v_hat - 1)
            bound = min(bound, vhat_bound)
            detail["v_hat"] = v_hat
            detail["v_hat_bound"] = float(vhat_bound)
    return three_sigma_report(f"credibility v={v} entries={n_entries}",
                              freq, float(bound), runs, detail)
