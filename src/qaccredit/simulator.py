"""Circuit simulation backends.

* Pauli-frame propagation: exact and sampling-free for all-Clifford circuits
  under Pauli noise — errors are commuted to the end of the circuit and read
  off as an X-measurement flip mask; :func:`frame_flips` does this for many
  circuits on one cZ topology at once, on bit arrays. With one noiseless
  outcome from a signed stabiliser tableau (:func:`reference_outcome`), the
  frame also samples a Clifford circuit's outputs, with no statevector.
* Dense statevector simulation for small generic circuits, one band step at
  a time (:func:`apply_round`, :func:`apply_cz`), the steps the two-party
  register also runs. :func:`slice_distributions` is its one entry: a
  drawn Pauli error is folded into a gate as a pad is, and since a Pauli
  reaches only its forward light cone, every error slice joins one
  noiseless walk late: its errors up to the latest band whose light cone
  fits in ``BLOCK`` qubits become one operator on that cone, applied on
  the cone's qubit axes. The round and cZ steps take leading batch axes,
  so one walk moves many states; the density backend sums that walk over
  every path of Kraus operators at the noise locations.

Noise locations for a circuit with m bands: location 0 right after state
preparation, location j+1 right after band j's single-qubit round and before
its cZ round. The last band has no cZ round, so location m is right before
measurement.

Measurement convention: X-basis outcome 0 corresponds to ``|+>``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import cliffords, pauli
from .circuit import GENERIC, Circuit, cz_partners
from .pauli import PauliString

TRACE_ATOL = 1e-10
MAX_STATEVECTOR_QUBITS = 16
MAX_DENSITY_QUBITS = 6
BLOCK = 4  # qubits of one fused Kronecker block of a round


class SimLimitError(RuntimeError):
    """Requested simulation exceeds the dense backends' qubit limits."""


class NonCliffordError(ValueError):
    """Frame backend asked to handle a non-Clifford gate."""


# ---------------------------------------------------------------------------
# Pauli-frame backend
# ---------------------------------------------------------------------------


def propagate_frame(circuit: Circuit, errors: Sequence) -> PauliString:
    """Commute a per-location Pauli error slice to the end of the circuit.

    ``errors`` holds m+1 PauliStrings indexed by location. Returns the single
    end-of-circuit Pauli; exact, no sampling. A gate off the running Pauli's
    support, an identity error and a cZ touching no X leave it unchanged,
    sign included, so they are skipped.
    """
    if not circuit.all_clifford:
        raise NonCliffordError("frame backend requires an all-Clifford circuit")
    if len(errors) != circuit.m + 1:
        raise ValueError(f"expected {circuit.m + 1} error locations")
    q = errors[0]
    for row, pairs, error in zip(circuit.gates.tolist(), circuit.cz,
                                 errors[1:]):
        support = q.x_bits | q.z_bits
        while support:
            i = (support & -support).bit_length() - 1
            q = pauli.conj_single(q, row[i], i)
            support &= support - 1
        if error.x_bits or error.z_bits or error.sign:
            q = pauli.multiply(error, q)
        for pair in pairs:
            if q.x_bits >> pair[0] & 1 or q.x_bits >> pair[1] & 1:
                q = pauli.conj_cz(q, pair)
    return q


def trap_output(circuit: Circuit, errors: Sequence) -> np.ndarray:
    """X-measurement flip pattern relative to the noiseless all-zero output."""
    return index_to_bits(pauli.z_mask(propagate_frame(circuit, errors)),
                         circuit.n)


# asked once per report, and one target is reported on many times
@lru_cache(maxsize=64)
def reference_outcome(circuit: Circuit) -> np.ndarray:
    """One noiseless X-measurement outcome of a Clifford circuit, n
    read-only bits.

    Pushes the stabilisers X_q of |+>^n through the circuit with their
    signs (:func:`propagate_frame` of X_q at location 0), finds the X-type
    subgroup of the final stabiliser group by GF(2) elimination on the z
    bits, and solves its sign constraints <r, x> = sign/2 for r, free bits
    0 (Aaronson & Gottesman 2004, arXiv:quant-ph/0406196). Any stabiliser S
    leaves the output law unchanged and flips outcomes by its z bits, so
    the outcomes are r XOR the flips of X^a at location 0 for uniform a,
    the frame reference-sample method (arXiv:2103.02202). No statevector is
    built, at any n. A non-Clifford circuit raises NonCliffordError.
    """
    n = circuit.n
    later = (PauliString(n),) * circuit.m
    rows = [propagate_frame(circuit, (PauliString(n, 1 << q),) + later)
            for q in range(n)]
    # eliminate z bits: a pivot row leaves, clearing its bit from the rest
    x_type = []
    while rows:
        p = rows.pop()
        if not p.z_bits:
            x_type.append(p)
            continue
        pivot = p.z_bits & -p.z_bits
        rows = [pauli.multiply(p, r) if r.z_bits & pivot else r
                for r in rows]
    # i^sign X^x stabilises the state: the outcome parity on x is sign/2
    solved = []
    eqs = [(p.x_bits, p.sign >> 1) for p in x_type]
    while eqs:
        x, b = eqs.pop()
        pivot = x & -x
        eqs = [(x2 ^ x, b2 ^ b) if x2 & pivot else (x2, b2)
               for x2, b2 in eqs]
        solved.append((x, b, pivot))
    r = 0
    for x, b, pivot in reversed(solved):
        if (b + bin(x & r).count("1")) % 2:
            r |= pivot
    bits = index_to_bits(r, n)
    bits.setflags(write=False)
    return bits


# _CONJ[c << 2 | x | z << 1] = x' | z' << 1: c X^x Z^z c† ~ X^x' Z^z'
_CONJ = (cliffords.IMAGES[..., 0] | cliffords.IMAGES[..., 1] << 1).reshape(-1)


def frame_hits(err_x: np.ndarray, err_z: np.ndarray) -> tuple:
    """Error bits (R, m+1, n) of R rows as the hits :func:`frame_flips`
    takes: ascending flat positions over (location, row, qubit) and their
    codes x | z << 1."""
    codes = (err_z << 1 | err_x).transpose(1, 0, 2).reshape(-1)
    positions = np.flatnonzero(codes)
    return positions, codes[positions]


def frame_flips(topology: Circuit, gates: np.ndarray, hits: tuple,
                first: Optional[np.ndarray] = None) -> np.ndarray:
    """Flip patterns of R Clifford circuits sharing ``topology``'s cZ layers.

    ``gates`` holds Clifford indices of shape (R, m, n); ``hits`` the
    errors of all rows as (positions, codes): ascending flat positions over
    (location, row, qubit) of shape (m+1, R, n), each with its code
    x | z << 1 (:func:`frame_hits` makes them from error bits). Row r of
    the (R, n) result is :func:`trap_output` of circuit r under its errors.
    The frame of all R circuits moves band by band as a 2-bit code
    x | z << 1 per qubit (bit-array frame simulation, arXiv:2103.02202),
    and each location's hits are XORed in with one fancy-index assignment.

    ``first``, ascending (R,), gives each row's first error location; the
    row has no error before it. A frame is GF(2)-linear in its error bits
    (Lemma 2), so a row's frame is the identity up to there, and band j
    moves only the leading rows whose first location is at most j+1: a
    row whose one error sits at location m still takes band m-1's step.
    None starts every row at location 0.
    """
    rows, n, m = len(gates), topology.n, topology.m
    moved = (np.full(m, rows) if first is None
             else np.searchsorted(first, np.arange(1, m + 1), side="right"))
    positions, codes = hits
    # location j's hits are those in [j R n, (j+1) R n)
    bounds = np.searchsorted(positions,
                             np.arange(m + 2) * (rows * n)).tolist()
    gates = gates << 2
    frame = np.zeros((rows, n), dtype=np.uint8)
    flat = frame.reshape(-1)
    flat[positions[:bounds[1]]] = codes[:bounds[1]]
    partner, paired = cz_partners(n, topology.cz)
    partner = partner % n  # the partner's qubit in its band
    for j, k in enumerate(moved.tolist()):
        head = frame[:k]
        _CONJ.take(gates[:k, j] | head, out=head)
        at = slice(bounds[j + 1], bounds[j + 2])
        flat[positions[at] - (j + 1) * rows * n] ^= codes[at]
        # cZ: a paired qubit's z bit takes its partner's x bit
        head ^= (head[:, partner[j]] & paired[j]) << 1
    return frame >> 1


# ---------------------------------------------------------------------------
# Dense backends
# ---------------------------------------------------------------------------


def fuse_round(unitaries) -> list:
    """A single-qubit round as the Kronecker blocks :func:`apply_round`
    applies: ``unitaries`` (n, ..., 2, 2) holds qubit q's 2x2 (qubit 0 =
    least significant bit) at index q, with any batch axes in between, and
    each block (..., 2^k, 2^k) is the product of k <= ``BLOCK``
    consecutive qubits' 2x2s, the highest qubits first (gate fusion,
    arXiv:1704.01127). A caller that knows its gates ahead fuses them once
    and indexes the blocks by its batch axes."""
    unitaries = np.asarray(unitaries)
    n = len(unitaries)
    return [_kron(unitaries[max(hi - BLOCK, 0):hi])
            for hi in range(n, 0, -BLOCK)]


def apply_round(state: np.ndarray, blocks, n: int) -> np.ndarray:
    """Apply a band's single-qubit round, given as its :func:`fuse_round`
    blocks, to ``state`` (..., 2^n), one product per block.

    A block may be one matrix for every state or a stack (..., 2^k, 2^k)
    of one per state. Each product acts on the highest qubits, the first
    axis after the batch axes, and leaves them as the lowest, so after the
    last block every qubit is back in place and the state has been read
    once per block, not once per qubit. ``n`` is unused: every band step
    takes the qubit count last.
    """
    shape = state.shape
    for u in blocks:
        state = (state.reshape(shape[:-1] + (u.shape[-1], -1)).mT
                 @ u.mT).reshape(shape)
    return state


def _kron(unitaries) -> np.ndarray:
    """Kronecker product (..., 2^k, 2^k) of k stacks (..., 2, 2), the last
    one the most significant qubit, by broadcasting."""
    out = unitaries[-1]
    for u in unitaries[-2::-1]:
        size = 2 * out.shape[-1]
        out = (out[..., :, None, :, None] * u[..., None, :, None, :]
               ).reshape(out.shape[:-2] + (size, size))
    return out


def apply_cz(state: np.ndarray, pairs, n: int) -> np.ndarray:
    """Apply a band's cZ round, a tuple of (lo, hi) pairs, to (..., 2^n)
    states: one sign flip per basis state where an odd number of its pairs
    has both qubits set, as one product with the round's cached signs."""
    return state * (_cz_parity if n > BLOCK else _block_cz_parity)(n, pairs)


def _cz_signs(n: int, pairs: tuple) -> np.ndarray:
    """Read-only int8 (2^n,): (-1)^parity, -1 on the basis states a cZ
    round flips."""
    idx = np.arange(2 ** n, dtype=np.min_scalar_type(2 ** n - 1))
    odd = np.zeros_like(idx)
    for i, j in pairs:
        odd ^= idx >> i & idx >> j
    signs = 1 - 2 * (odd & 1).astype(np.int8)
    signs.setflags(write=False)
    return signs


# a whole target's cZ layers, which a branch walk revisits once per branch
_cz_parity = lru_cache(maxsize=64)(_cz_signs)
# layers of at most BLOCK qubits, such as a light cone's: few exist, and
# they take no room from a target's layers
_block_cz_parity = lru_cache(maxsize=None)(_cz_signs)


def apply_pauli(state: np.ndarray, x_mask: int, z_mask: int,
                n: int) -> np.ndarray:
    """Apply X^x Z^z by integer masks (bit q = qubit q); no global phase."""
    sign, perm = _pauli_action(n, x_mask, z_mask)
    return np.where(sign, -state, state)[perm]


# a prover inserts few distinct Paulis; at n = 16 an entry holds 0.6 MB
@lru_cache(maxsize=32)
def _pauli_action(n: int, x_mask: int, z_mask: int) -> tuple:
    """Read-only (2^n,) arrays of X^x Z^z on basis states |b>: the sign
    flip, Z phasing b first, and the permutation b -> b ^ x after it."""
    idx = np.arange(2 ** n)
    sign = (np.bitwise_count(idx & z_mask) & 1).astype(bool)
    perm = idx ^ x_mask
    sign.setflags(write=False)
    perm.setflags(write=False)
    return sign, perm


def plus_state(n: int) -> np.ndarray:
    """The n-qubit input state |+>^n."""
    return np.full(2 ** n, 2 ** (-n / 2), dtype=complex)


def band_unitaries(gates: np.ndarray, matrices: dict) -> np.ndarray:
    """Single-qubit unitaries (..., 2, 2) of gate indices of any shape;
    ``matrices`` maps a full index of ``gates`` to a GENERIC gate's 2x2."""
    bands = cliffords.MATRICES[np.where(gates == GENERIC, cliffords.C_I,
                                        gates)]
    for at, u in matrices.items():
        bands[at] = u
    return bands


def _x_weights(state: np.ndarray, n: int) -> np.ndarray:
    """Squared X-basis amplitudes of a state, not normalised."""
    # rotate to the X basis so computational outcomes are the measurement bits
    return np.abs(apply_round(state, _hadamard_round(n), n)) ** 2


@lru_cache(maxsize=32)
def _hadamard_round(n: int) -> tuple:
    """Read-only :func:`fuse_round` blocks of a Hadamard on every qubit."""
    blocks = tuple(fuse_round(np.broadcast_to(
        cliffords.MATRICES[cliffords.C_H], (n, 2, 2))))
    for block in blocks:
        block.setflags(write=False)
    return blocks


def x_distribution(state: np.ndarray, n: int) -> np.ndarray:
    """X-measurement outcome distribution of a state (index bit q = qubit q)."""
    probs = _x_weights(state, n)
    return probs / probs.sum()


def sample_bits(probs: np.ndarray, n: int,
                rng: np.random.Generator) -> np.ndarray:
    """One outcome drawn from ``probs`` as an n-bit array."""
    return index_to_bits(int(quantile_indices(probs, rng.random())), n)


def quantile_indices(probs: np.ndarray, u) -> np.ndarray:
    """Outcome indices at uniform draw(s) ``u`` by inverse CDF.

    This is the rule ``Generator.choice(len(probs), p=probs)`` applies to
    its one uniform draw, so a caller may take the draw first and pick the
    outcome later.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def check_statevector_size(n: int):
    """Raise SimLimitError when n qubits exceed the statevector limit."""
    if n > MAX_STATEVECTOR_QUBITS:
        raise SimLimitError(
            f"{n} qubits exceeds statevector limit {MAX_STATEVECTOR_QUBITS}")


def slice_distributions(circuit: Circuit, slices: np.ndarray):
    """Yield (k, weights) for every error slice k of ``slices`` (K, 2,
    m+1, n), the (x, z) bits of each location's Pauli: the squared
    X-basis amplitudes (index bit q = qubit q) of ``circuit`` under slice
    k, its outcome distribution up to rounding (:func:`quantile_indices`
    normalises).

    One noiseless walk serves every slice. A location-j error (j < m) is
    moved through band j-1's cZ round, where a qubit's Z picks up its
    partner's X, to just before band j's round, so a slice's state is the
    noiseless one up to its first error location f. A Pauli reaches only
    its forward light cone, so the slice's state at a later band boundary
    t is the noiseless one there times one operator O on the cone S of its
    errors before t: S holds the qubits they touch, closed under the
    partners of each crossed cZ layer, and O = W_slice W_noiseless†, the
    walks of bands f..t-1 restricted to S (:func:`_cone_operator`). A slice
    joins the noiseless walk at the latest t at which S fits in ``BLOCK``
    qubits (:func:`_join_bands`): O acts there as one product on the
    state with S's qubit axes moved to the front (:func:`_branch_weights`),
    then the slice walks bands t..m-1 with its Paulis folded into their
    unitaries. Most slices join at t = m and walk no full-size round; one
    whose first band already overflows joins at t = f with O the identity.
    The X-basis rotation is folded into the last band, which has no cZ
    round, so a location-m Pauli only relabels outcomes: its Z bits XOR
    the outcome index and its X bits do nothing, and slices that differ
    only there share one branch. The walk holds a few states at a time, at
    any m; slices come out by join band.
    """
    n, m = circuit.n, circuit.m
    x, z = slices[:, 0], slices[:, 1]
    partner, paired = cz_partners(n, circuit.cz)
    crossed = z[:, 1:] ^ x[:, 1:].reshape(-1, m * n)[:, partner] & paired
    pre = cliffords.PAULI_INDEX[x[:, :m], np.concatenate(
        (z[:, :1], crossed[:, :-1]), axis=1)]
    first, join, cones = _join_bands(pre != cliffords.C_I, partner % n,
                                     paired.astype(bool))
    flips = z[:, m] @ (1 << np.arange(n))
    branches = {}
    for i, key in enumerate(pre):
        branches.setdefault(key.tobytes(), []).append(i)
    bands = band_unitaries(circuit.gates, circuit.matrices)
    bands[-1] = cliffords.MATRICES[cliffords.C_H] @ bands[-1]
    state, at = plus_state(n), 0
    for group in sorted(branches.values(), key=lambda ks: join[ks[0]]):
        i = group[0]
        state = _walk(state, bands[at:join[i]], circuit.cz[at:join[i]], n)
        at = join[i]
        weights = _branch_weights(state, bands, circuit.cz, pre[i],
                                  first[i], at, cones[i, at])
        for k in group:
            yield k, (weights[np.arange(2 ** n) ^ flips[k]] if flips[k]
                      else weights)
        del weights  # the next branch's walk holds no stale weights


def _branch_weights(state: np.ndarray, bands: np.ndarray, cz: tuple,
                    paulis: np.ndarray, f: int, t: int,
                    cone: np.ndarray) -> np.ndarray:
    """Squared amplitudes (2^n,) of a slice with Pauli indices ``paulis``
    (m, n) before each band's round, first at band f, that joins the
    noiseless ``state`` at band boundary t with the bool light cone
    ``cone`` (n,), after ``bands`` (m, n, 2, 2) and ``cz``. The state is
    read as n axes of length 2, qubit q on axis n-1-q: the cone's axes move
    to the front, highest qubit first, for the cone operator's product and
    move back after it. A slice that joins before the last band walks the
    later bands."""
    m, n = bands.shape[:2]
    if t > f:
        qubits = np.flatnonzero(cone)
        axes, front = n - 1 - qubits[::-1], range(len(qubits))
        operator = _cone_operator(bands[f:t], cz[f:t], paulis[f:t], qubits)
        state = np.moveaxis(state.reshape((2,) * n), axes, front)
        state = operator @ state.reshape(len(operator), -1)
        state = np.moveaxis(state.reshape((2,) * n), front, axes).reshape(-1)
    if t < m:
        state = _walk(state, bands[t:] @ cliffords.MATRICES[paulis[t:]],
                      cz[t:], n)
    weights = np.square(state.real)
    weights += np.square(state.imag)
    return weights


def _join_bands(touched: np.ndarray, partner: np.ndarray,
                paired: np.ndarray) -> tuple:
    """(first, join, cones) of K slices whose Paulis before band j's round
    touch the qubits ``touched[:, j]`` (K, m, n), on cZ layers given by
    :func:`circuit.cz_partners` as qubit ``partner`` and bool ``paired``
    (m, n) arrays. ``cones`` (K, m+1, n) marks the light cone of each
    slice's Paulis before band boundary t: the qubits they touch, closed
    under each crossed cZ layer's partners. ``first`` is the first band a
    slice touches (m when none), ``join`` the latest boundary whose cone
    holds at most ``BLOCK`` qubits; cones only grow, and none is nonempty
    before ``first``, so first <= join."""
    k, m, n = touched.shape
    cones = np.zeros((k, m + 1, n), dtype=bool)
    for j in range(m):
        cone = cones[:, j] | touched[:, j]
        cones[:, j + 1] = cone | cone[:, partner[j]] & paired[j]
    bands = touched.any(axis=2)
    first = np.where(bands.any(axis=1), bands.argmax(axis=1), m)
    join = (cones.sum(axis=2) <= BLOCK).sum(axis=1) - 1
    return first, join, cones


def _cone_operator(bands: np.ndarray, cz: tuple, paulis: np.ndarray,
                   cone: np.ndarray) -> np.ndarray:
    """O = W_slice W_noiseless† (2^s, 2^s) on the s qubits ``cone``, bit i
    of its index qubit cone[i]: W is the walk of ``bands`` (b, n, 2, 2) and
    the ``cz`` pairs inside the cone, W_slice with the Pauli indices
    ``paulis`` (b, n) before each round. Both walks are one :func:`_walk`
    of the 2^s basis states, so row r of each walk is column r of its W.
    """
    s = len(cone)
    at = dict(zip(cone.tolist(), range(s)))
    pairs = tuple(tuple((at[lo], at[hi]) for lo, hi in layer
                        if lo in at and hi in at) for layer in cz)
    plain = bands[:, cone, None, None]
    both = np.concatenate((plain @ cliffords.MATRICES[
        paulis[:, cone, None, None]], plain), axis=2)
    basis = np.eye(2 ** s, dtype=complex)[None].repeat(2, axis=0)
    walked, plain_walked = _walk(basis, both, pairs, s)
    return walked.T @ plain_walked.conj()


def _walk(state: np.ndarray, bands, cz: tuple, n: int,
          operators: Optional[dict] = None) -> np.ndarray:
    """``state`` through single-qubit rounds ``bands`` (m, n, ..., 2, 2),
    each followed by its cZ layer in ``cz``; an empty layer costs nothing.
    A round is fused (:func:`fuse_round`) as the walk reaches it, so the
    walk holds one round's blocks at any m. ``operators`` maps a location,
    counted from the first band passed, to one 2^n x 2^n matrix applied
    there: location 0 before the first round, location j+1 after round j
    and before its cZ layer, even an empty one."""
    operators = operators or {}
    if 0 in operators:
        state = state @ operators[0].T
    for j, (unitaries, pairs) in enumerate(zip(bands, cz), 1):
        state = apply_round(state, fuse_round(unitaries), n)
        if j in operators:
            state = state @ operators[j].T
        if pairs:
            state = apply_cz(state, pairs, n)
    return state


def run_density(circuit: Circuit,
                channels: Optional[dict] = None) -> np.ndarray:
    """Exact output distribution under Kraus channels at noise locations.

    ``channels`` maps location index (0..m) to a list of 2^n x 2^n Kraus
    operators. Returns the length-2^n X-measurement probability vector:
    :func:`density_distribution` of the circuit's bands, once
    :func:`density_channels` has checked the channels.
    """
    channels = density_channels(circuit.n, circuit.m, channels)
    return density_distribution(
        band_unitaries(circuit.gates, circuit.matrices), circuit.cz, channels)


def density_channels(n: int, m: int, channels: Optional[dict]) -> dict:
    """``channels`` as lists of complex Kraus arrays, once n is within the
    density limit (else SimLimitError) and every channel sits at a location
    in 0..m and is trace-preserving within 1e-10 (else ValueError)."""
    if n > MAX_DENSITY_QUBITS:
        raise SimLimitError(
            f"{n} qubits exceeds density limit {MAX_DENSITY_QUBITS}")
    channels = {loc: [np.asarray(k, dtype=complex) for k in kraus]
                for loc, kraus in (channels or {}).items()}
    for loc, kraus in channels.items():
        if loc not in range(m + 1):
            raise ValueError(f"channel location {loc} lies outside 0..{m}")
        # finite first, so that no inf reaches the products
        if not (all(np.isfinite(k).all() for k in kraus) and np.abs(
                sum(k.conj().T @ k for k in kraus)
                - np.eye(2 ** n)).max() <= TRACE_ATOL):
            raise ValueError("channel is not trace-preserving within 1e-10")
    return channels


def density_distribution(bands: np.ndarray, cz: tuple,
                         channels: dict) -> np.ndarray:
    """X-measurement distributions (..., 2^n) of walks through ``bands``
    (m, n, ..., 2, 2) on the cZ layers ``cz`` under channels that
    :func:`density_channels` returned.

    Each distribution is a sum over Kraus paths: for every choice of one
    operator per location, the walk of |+>^n by :func:`_walk` with that
    path's operators at their locations adds its squared X-basis
    amplitudes. This costs one batched walk per path, the product of the
    Kraus-list lengths. Raises ValueError when a distribution does not sum
    to 1 within 1e-10.
    """
    n = bands.shape[1]
    plus = np.broadcast_to(plus_state(n), bands.shape[2:-2] + (2 ** n,))
    paths = (dict(zip(channels, kraus))
             for kraus in itertools.product(*channels.values()))
    probs = sum(_x_weights(_walk(plus, bands, cz, n, p), n) for p in paths)
    sums = probs.sum(axis=-1, keepdims=True)
    if np.abs(sums - 1.0).max() > TRACE_ATOL:
        raise ValueError("output distribution does not sum to 1 within 1e-10")
    return probs / sums


def bits_to_index(bits: np.ndarray) -> int:
    return int(sum(int(b) << q for q, b in enumerate(bits)))


def index_to_bits(index: int, n: int) -> np.ndarray:
    return np.array([(index >> q) & 1 for q in range(n)], dtype=np.uint8)
