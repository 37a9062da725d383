"""Brute-force verifiers for the protocol's supporting lemmas.

These recompute everything from the Pauli-algebra and simulator primitives —
never through the protocol runner's acceptance logic — so they are an
independent check, not a tautology:

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
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import nnls

from . import pauli, qotp, simulator, traps
from .circuit import Circuit
from .noise import ExplicitCollectionDistribution, PauliErrorCollection
from .pauli import PauliString
from .protocol import KAPPA

TWIRL_RESIDUAL_TOL = 1e-9
CROSS_TERM_TOL = 1e-12
SWEEP_SAMPLES = 10 ** 4  # collections drawn by the sampled ``all`` sweep
FLIP_TABLE_CAP = 2 ** 20  # basis-error propagations in one flip table
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


def _flip_rows(circuit: Circuit) -> np.ndarray:
    """Flip masks of the basis errors of one Clifford circuit.

    Returns a uint32 array of shape (m+1, 2n): entry [loc, b] is the
    end-of-circuit flip mask, by :func:`simulator.propagate_frame`, of the
    basis error with symplectic bit b (b < n: X on qubit b; b >= n: Z on
    qubit b-n) inserted at location loc. Flip masks are GF(2)-linear in the
    error's symplectic bits, so any slice's mask is an XOR of these rows.
    """
    n, m = circuit.n, circuit.m
    ident = PauliString(n)
    rows = np.zeros((m + 1, 2 * n), dtype=np.uint32)
    for loc, b in itertools.product(range(m + 1), range(2 * n)):
        slice_ = [ident] * (m + 1)
        slice_[loc] = PauliString(n, (b < n) << (b % n), (b >= n) << (b % n))
        rows[loc, b] = pauli.z_mask(simulator.propagate_frame(circuit, slice_))
    return rows


@lru_cache(maxsize=32)
def _choice_flip_tables(topology: Circuit) -> np.ndarray:
    """:func:`_flip_rows` of every trap choice of a topology.

    Returns a read-only uint32 array of shape (m+1, 2n, choices), choice c
    last. Raises ValueError when the table needs more than
    ``FLIP_TABLE_CAP`` propagations, 2n(m+1) per trap choice.
    """
    n, m = topology.n, topology.m
    size = 2 * n * (m + 1) * traps.choice_space_size(topology)
    if size > FLIP_TABLE_CAP:
        raise ValueError(f"flip table of {size} basis-error propagations "
                         f"too large to build (cap {FLIP_TABLE_CAP})")
    table = np.stack([_flip_rows(traps.generate_trap(topology, c))
                      for c in traps.enumerate_choices(topology)], axis=-1)
    table.flags.writeable = False
    return table


def _flips(rows: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """XOR of the flip rows that a slice's (m+1, n) error bits select."""
    select = np.concatenate((x, z), axis=-1).astype(bool)
    return np.bitwise_xor.reduce(rows[select], axis=0)


def _collection_flips(topology: Circuit, errors: Sequence) -> np.ndarray:
    """Per trap choice, the flip mask of a slice of m+1 PauliStrings."""
    n = topology.n
    x = np.array([simulator.index_to_bits(e.x_bits, n) for e in errors])
    z = np.array([simulator.index_to_bits(e.z_bits, n) for e in errors])
    return _flips(_choice_flip_tables(topology), x, z)


def lemma2_exact_prob(topology: Circuit, errors: Sequence) -> Fraction:
    """Exact prob(trap outputs all zeros), uniform over all trap choices.

    ``errors`` is a single-circuit slice: m+1 PauliStrings by location.
    """
    flips = _collection_flips(topology, errors)
    return Fraction(int((flips == 0).sum()), len(flips))


def corrupts_target(target: Circuit, errors: Sequence) -> bool:
    """Does a slice of m+1 PauliStrings flip a Clifford target's output?

    Decided by frame propagation, independently of the batched engine.
    """
    return pauli.z_mask(simulator.propagate_frame(target, errors)) != 0


def _location_paulis(n: int, z_only: bool):
    """All nonidentity PauliStrings at one location."""
    out = []
    for x in ([0] if z_only else range(2 ** n)):
        for z in range(2 ** n):
            if x or z:
                # sign chosen so each X^1 Z^1 factor reads as the letter Y
                out.append(PauliString(n, x, z, bin(x & z).count("1") % 4))
    return out


def lemma2_sweep(topology: Circuit, band_count_class: str,
                 rng: Optional[np.random.Generator] = None) -> list:
    """Sweep error collections against the 1/2 (single) / 3/4 (multi) bounds.

    ``single`` and ``two`` enumerate exhaustively all collections supported
    on exactly one / two locations. ``all`` samples ``SWEEP_SAMPLES``
    collections with no support restriction from ``rng``, which it
    requires (reports flagged as sampled).
    """
    if band_count_class not in ("single", "two", "all"):
        raise ValueError("band_count_class must be single, two, or all")
    if band_count_class == "all" and rng is None:
        raise ValueError("the sampled class 'all' needs an rng")
    n, m = topology.n, topology.m
    # the table is checked against its cap before any collection is listed
    n_choices = _choice_flip_tables(topology).shape[-1]
    if band_count_class == "all":
        def draw(z_only):
            x = 0 if z_only else int(rng.integers(0, 2 ** n))
            return PauliString(n, x, int(rng.integers(0, 2 ** n)))
        collections = ([draw(loc in (0, m)) for loc in range(m + 1)]
                       for _ in range(SWEEP_SAMPLES))
    else:
        options = [_location_paulis(n, z_only=(loc in (0, m)))
                   for loc in range(m + 1)]
        k = 1 if band_count_class == "single" else 2
        ident = PauliString(n)
        collections = (
            [dict(zip(locs, picked)).get(loc, ident) for loc in range(m + 1)]
            for locs in itertools.combinations(range(m + 1), k)
            for picked in itertools.product(*(options[loc] for loc in locs)))
    reports = []
    for errs in collections:
        support = [(loc, e) for loc, e in enumerate(errs)
                   if e.x_bits or e.z_bits]
        if not support:
            continue
        prob = lemma2_exact_prob(topology, errs)
        # prob == 1 means the flip mask vanishes for every dressing: the
        # errors cancel exactly and the collection acts as the identity
        # channel on the trap. The detection bounds apply to collections
        # with a non-trivial action, so these pass with a note (they can
        # never corrupt an output either).
        trivial = prob == 1
        bound = Fraction(1, 2) if len(support) == 1 else Fraction(3, 4)
        reports.append(LemmaReport(
            instance="+".join(f"loc{loc}:{pauli.to_text(e)}"
                              for loc, e in support),
            probability=prob, bound=bound,
            passed=trivial or prob <= bound,
            samples=n_choices, sampled=band_count_class == "all",
            detail={"acts_trivially": True} if trivial else {}))
    return reports


# ---------------------------------------------------------------------------
# Pad-twirl reduction to Pauli-collection mixtures
# ---------------------------------------------------------------------------


def _all_pads(n: int, m: int):
    width = qotp.pad_width(n, m)
    for code in range(2 ** width):
        yield simulator.index_to_bits(code, width)


def _postprocessed(dist: np.ndarray, key: np.ndarray) -> np.ndarray:
    key_int = simulator.bits_to_index(key)
    idx = np.arange(len(dist))
    return dist[idx ^ key_int]


def _enumerate_collections(n: int, m: int):
    """All single-circuit Pauli collections (Z-only at the end locations)."""
    per_loc = [[PauliString(n)] + _location_paulis(n, z_only=(loc in (0, m)))
               for loc in range(m + 1)]
    return list(itertools.product(*per_loc))


@dataclass
class TwirlReport:
    averaged: np.ndarray  # pad-averaged output distribution of the circuit
    residual: float
    weights: np.ndarray
    collections: list
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
    """Exhaustive pad average of the noisy, post-processed output."""
    _check_twirl_walks(circ, channels, fit=False)
    n, m = circ.n, circ.m
    total = np.zeros(2 ** n)
    count = 0
    for pads in _all_pads(n, m):
        dressed, key = qotp.dress(circ, pads)
        total += _postprocessed(simulator.run_density(dressed, channels), key)
        count += 1
    return total / count


def twirl_channel(circ: Circuit, channels: dict) -> TwirlReport:
    """Fit the pad-averaged noisy channel by a Pauli-collection mixture.

    ``channels`` maps noise locations to Kraus lists (2^n-dimensional).
    """
    _check_twirl_walks(circ, channels, fit=True)
    averaged = pad_averaged_distribution(circ, channels)
    collections = _enumerate_collections(circ.n, circ.m)
    # the candidate slices as the circuits of one collection, in bits
    err_x, err_z = PauliErrorCollection(collections).to_bits()
    a = np.array([simulator.statevector_distribution(circ, errors=(x, z))
                  for x, z in zip(err_x, err_z)]).T
    # constrain weights to a distribution by appending the sum-to-one row
    scale = 10.0
    a_aug = np.vstack([a, scale * np.ones(a.shape[1])])
    b_aug = np.concatenate([averaged, [scale]])
    weights, _ = nnls(a_aug, b_aug)
    residual = float(np.max(np.abs(a @ weights - averaged)))
    return TwirlReport(averaged=averaged, residual=residual, weights=weights,
                       collections=collections,
                       passed=residual < TWIRL_RESIDUAL_TOL)


# ---------------------------------------------------------------------------
# Dense Pauli-twirl identities
# ---------------------------------------------------------------------------


def _dense_pauli(p: PauliString) -> np.ndarray:
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    full = np.array([[1.0]], dtype=complex)
    for q in reversed(range(p.n)):
        local = np.eye(2, dtype=complex)
        if (p.x_bits >> q) & 1:
            local = local @ x
        if (p.z_bits >> q) & 1:
            local = local @ z
        full = np.kron(full, local)
    return (1j ** p.sign) * full


def _pauli_set(n: int, letters: str):
    """All Paulis over {I,X,Y,Z}^n ("full"), {I,X}^n ("IX") or {I,Z}^n."""
    xs = range(2 ** n) if letters in ("full", "IX") else [0]
    zs = range(2 ** n) if letters in ("full", "IZ") else [0]
    return [PauliString(n, x, z) for x in xs for z in zs]


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

    def twirl_sum(p, p2, q_set):
        acc = np.zeros((dim, dim), dtype=complex)
        pd, p2d = _dense_pauli(p), _dense_pauli(p2)
        for q in q_set:
            qd = _dense_pauli(q)
            acc += (qd @ pd @ qd) @ rho @ (qd @ p2d @ qd)
        return acc

    worst = 0.0
    checks = 0
    for q_letters, p_letters in cases:
        q_set = _pauli_set(n, q_letters)
        for p1, p2 in itertools.permutations(_pauli_set(n, p_letters), 2):
            res = twirl_sum(p1, p2, q_set)
            worst = max(worst, float(np.max(np.abs(res))))
            checks += 1
    # sanity arm: no cancellation when P = P'
    full = _pauli_set(n, "full")
    p = full[1]
    pd = _dense_pauli(p)
    same = twirl_sum(p, p, full)
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
