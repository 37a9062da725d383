"""Circuit simulation backends.

* Pauli-frame propagation: exact and sampling-free for all-Clifford circuits
  under Pauli noise — errors are commuted to the end of the circuit and read
  off as an X-measurement flip mask; :func:`frame_flips` does this for many
  circuits on one cZ topology at once, on bit arrays. With one noiseless
  outcome from a signed stabiliser tableau (:func:`reference_outcome`), the
  frame also samples a Clifford circuit's outputs, with no statevector.
* Dense statevector simulation for small generic circuits, one band step at
  a time (:func:`apply_round`, :func:`apply_cz`), the steps the two-party
  register also runs. :func:`sample_slices` is its one entry, a chain-rule
  sampler: a drawn Pauli error is folded into a gate as a pad is, and it
  reaches only its forward light cone, so every run draws from the law of
  one noiseless walk and then redraws only the bits on the light cone of
  its errors, a width class of cones in one walk. The round and cZ steps
  take leading batch axes, so one walk moves many states; the density
  backend sums that walk over every path of Kraus operators.

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
# _BYTE_BITS[k, v]: bit k of the byte v
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[None], axis=0,
                           bitorder="little")


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
    return state * _cz_parity(n, pairs)


# a target's cZ layers
@lru_cache(maxsize=64)
def _cz_parity(n: int, pairs: tuple) -> np.ndarray:
    """Read-only int8 (2^n,): (-1)^parity, -1 on the basis states a cZ
    round flips."""
    idx = np.arange(2 ** n, dtype=np.min_scalar_type(2 ** n - 1))
    odd = np.zeros_like(idx)
    for i, j in pairs:
        odd ^= idx >> i & idx >> j
    signs = 1 - 2 * (odd & 1).astype(np.int8)
    signs.setflags(write=False)
    return signs


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
    """One outcome drawn from ``probs`` as an n-bit array, by inverse cdf
    at one uniform: the rule ``Generator.choice(len(probs), p=probs)``."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return index_to_bits(int(cdf.searchsorted(rng.random(), side="right")), n)


def check_statevector_size(n: int):
    """Raise SimLimitError when n qubits exceed the statevector limit."""
    if n > MAX_STATEVECTOR_QUBITS:
        raise SimLimitError(
            f"{n} qubits exceeds statevector limit {MAX_STATEVECTOR_QUBITS}")


def sample_slices(circuit: Circuit, slices: np.ndarray,
                  draws: np.ndarray) -> np.ndarray:
    """Outcome indices (A,) (index bit q = qubit q) of ``circuit`` under A
    error slices (A, 2, m+1, n), the (x, z) bits of each location's Pauli,
    each drawn by its uniform in ``draws`` (A,).

    Chain-rule sampling (Bravyi, Gosset & Liu, arXiv:2112.08499): one
    noiseless walk gives the state phi (:func:`_noiseless_law`), and each
    run first draws x from |phi|^2 by its uniform; the residual, its place
    inside x's cell, is uniform and independent of x, so it draws again.
    A location-j error (j < m) is moved through band j-1's cZ round, where
    a qubit's Z picks up its partner's X, to just before band j's round. A
    Pauli reaches only its forward light cone, so a slice's final state is
    (O (x) I) phi with O = W_slice W_noiseless† unitary on the cone S of its
    errors: the qubits they touch, closed under the partners of each
    crossed cZ layer (:func:`_light_cones`). O leaves the law of the
    qubits off S unchanged, so x's bits off S stay and the residual redraws
    S's bits from O's image of x's column: the (cone, column) pairs the
    runs drew walk by width class ceil(|S| / BLOCK), in chunks of about
    one state (:func:`_cone_laws`). The last band holds the X-basis
    rotation and no cZ, so a location-m Pauli's Z bits XOR the outcome and
    its X bits do nothing; slices that differ only there share one cone.
    """
    n, m = circuit.n, circuit.m
    paulis, starts, cones = _light_cones(circuit, slices)
    bands, state, cdf = _noiseless_law(circuit)
    # the walks' rounding leaves about 1e-35 where a weight is exactly 0:
    # u and its residual stay at least float eps, so no draw picks one
    eps = np.finfo(float).eps
    draws = np.maximum(draws, eps)
    out = cdf.searchsorted(draws, side="right") - 1
    low = cdf[out]
    residual = np.clip((draws - low) / (cdf[out + 1] - low), eps,
                       np.nextafter(1.0, 0.0))
    del cdf
    keys = np.ascontiguousarray(paulis).reshape(len(paulis), m * n)
    _, first, group = np.unique(
        keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize)))[:, 0],
        return_index=True, return_inverse=True)
    # the states: each cone's distinct columns, the bits off the cone its
    # runs drew, by width class, width and first band; the runs by state
    clear = out & ~(cones @ (1 << np.arange(n)))
    cols, col = np.unique(group.reshape(-1) << n | clear, return_inverse=True)
    rep = first[cols >> n]
    widths, starts = cones[rep].sum(axis=1), starts[rep]
    kind = -(-widths // BLOCK)
    order = np.lexsort((starts, widths, kind))
    place = np.argsort(order)[col]
    runs = np.argsort(place, kind="stable")
    run_at = place[runs].searchsorted(np.arange(len(order) + 1)).tolist()
    classes = kind[order].searchsorted(np.arange(1, -(-n // BLOCK) + 2))
    for lo, hi in zip(classes[:-1].tolist(), classes[1:].tolist()):
        if lo == hi:
            continue
        members = order[lo:hi]
        s, f0 = int(widths[members].max()), int(starts[members].min())
        # a chunk's amplitudes, 2x2s and one round's blocks: about a state
        size = (1 << s) + 8 * (m - f0) * s + sum(
            4 ** min(BLOCK, s - k) for k in range(0, s, BLOCK))
        step = max(1, (1 << n) // size)
        for a in range(lo, hi, step):
            at = order[a:min(a + step, hi)]
            s, f0 = int(widths[at].max()), int(starts[at].min())
            spread, law = _cone_laws(state, cols[at] % 2 ** n, bands[f0:],
                                     circuit.cz[f0:], paulis[rep[at], f0:],
                                     starts[at] - f0, cones[rep[at]], s)
            end = run_at[a + len(at)]  # runs compare 2^n entries at a time
            for c in range(run_at[a], end, 1 << n - s):
                part = runs[c:min(c + (1 << n - s), end)]
                row = place[part] - a
                pick = (law[row] <= residual[part, None]).sum(axis=1)
                out[part] = clear[part] | spread[row, pick]
            del spread, law  # the next chunk's walk holds no stale law
    return out ^ slices[:, 1, m] @ (1 << np.arange(n))


def _noiseless_law(circuit: Circuit) -> tuple:
    """(bands, state, cdf) of ``circuit``: its single-qubit bands (m, n, 2,
    2) with the X-basis rotation folded into the last, the noiseless final
    state (2^n,) after them, and the cdf (2^n + 1,) of its outcomes, from 0
    to 1: outcome k owns [cdf[k], cdf[k+1])."""
    n = circuit.n
    bands = band_unitaries(circuit.gates, circuit.matrices)
    bands[-1] = cliffords.MATRICES[cliffords.C_H] @ bands[-1]
    state = _walk(plus_state(n), zip(*fuse_round(bands.swapaxes(0, 1))),
                  [_cz_parity(n, p) if p else None for p in circuit.cz], n)
    cdf = np.zeros(2 ** n + 1)
    np.cumsum(np.square(state.real) + np.square(state.imag), out=cdf[1:])
    cdf /= cdf[-1]
    return bands, state, cdf


def _cone_laws(state: np.ndarray, rows: np.ndarray, bands: np.ndarray,
               cz: tuple, paulis: np.ndarray, first: np.ndarray,
               cones: np.ndarray, width: int) -> tuple:
    """(spread, cdf) (C, 2^width) of O = W_slice W_noiseless† on the C
    light cones ``cones`` (C, n), for the columns of ``state`` whose bits
    off cone c are ``rows[c]``: ``spread`` maps cone index i, bit k its
    k-th qubit, to outcome bits, and ``cdf`` row c is the normalised
    cumulative law of |O state[rows[c] | spread[c]]|^2. A cone is padded to
    ``width`` with dummy high qubits of zero amplitude, identity gates and
    no cZ, so no draw picks their entries. W walks ``bands`` (b, n, 2, 2)
    and each cone's own sign rows of the ``cz`` pairs inside it, W_slice
    the Pauli indices ``paulis`` (C, b, n) too; bands before ``first[c]``
    are the identity. The columns walk W† back, then W_slice forth."""
    index = np.arange(2 ** width, dtype=np.uint16)
    octets = index.view(np.uint8).reshape(-1, 2)
    bits = np.unpackbits(octets, axis=1, bitorder="little")[:, :width]
    qubits = np.argsort(~cones, axis=1, kind="stable")[:, :width]
    sizes = cones.sum(axis=1, keepdims=True)
    live = np.arange(width) < sizes
    table = np.pad(live << qubits, ((0, 0), (0, 16 - width))).reshape(
        -1, 2, 8) @ _BYTE_BITS  # each cone's outcome bits of a byte
    spread = table[:, 0, octets[:, 0]] | table[:, 1, octets[:, 1]]
    # a round is the identity before a cone's first band and on its dummies
    on = ((np.arange(len(bands))[:, None, None] >= first[:, None])
          & live)[..., None, None]
    plain = bands[:, qubits]
    errors = cliffords.MATRICES[np.take_along_axis(
        paulis, qubits[:, None], axis=2)].swapaxes(0, 1)
    back = np.where(on, plain.conj().mT, np.eye(2))[::-1].swapaxes(1, 2)
    forth = np.where(on, plain @ errors, np.eye(2)).swapaxes(1, 2)
    # cZ layer j's signs: -1 where an odd number of a cone's pairs inside
    # it has both qubits set, from the cone's first band on
    place = np.cumsum(cones, axis=1) - 1
    signs = []
    for j, pairs in enumerate(cz[:-1]):
        lo, hi = np.array(pairs, dtype=int).reshape(-1, 2).T
        inside = cones[:, lo] & cones[:, hi] & (first <= j)[:, None]
        odd = np.bitwise_xor.reduce(bits[:, place[:, lo]]
                                    & bits[:, place[:, hi]] & inside, axis=2)
        signs.append(1 - 2 * odd.T.astype(np.int8) if pairs else None)
    del bits, octets  # as large as the amplitudes, and no longer read
    # no name holds the gathered columns or W†'s image: each walk frees them
    amps = _walk(_walk(np.where(index < 1 << sizes,
                                state[rows[:, None] | spread], 0),
                       map(fuse_round, back), signs[::-1] + [None], width),
                 map(fuse_round, forth), signs + [None], width)
    cdf = np.square(amps.real)
    cdf += np.square(amps.imag)
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    return spread, cdf


def _light_cones(circuit: Circuit, slices: np.ndarray) -> tuple:
    """(paulis, first, cones) of K error slices (K, 2, m+1, n) of
    ``circuit``: the Pauli indices (K, m, n) before each band's round, a
    location-j error (0 < j < m) moved through band j-1's cZ round, where a
    qubit's Z picks up its partner's X; the first band each slice touches
    (m when none); and the bool light cones (K, n) of its Paulis after the
    last band: the qubits they touch, closed under the partners of each
    cZ layer they cross."""
    n, m = circuit.n, circuit.m
    x, z = slices[:, 0], slices[:, 1]
    partner, paired = cz_partners(n, circuit.cz)
    crossed = z[:, 1:] ^ x[:, 1:].reshape(-1, m * n)[:, partner] & paired
    paulis = cliffords.PAULI_INDEX[x[:, :m], np.concatenate(
        (z[:, :1], crossed[:, :-1]), axis=1)]
    touched = paulis != cliffords.C_I
    partner, paired = partner % n, paired.astype(bool)
    cones = np.zeros((len(slices), n), dtype=bool)
    for j in range(m):
        cones |= touched[:, j]
        cones |= cones[:, partner[j]] & paired[j]
    bands = touched.any(axis=2)
    first = np.where(bands.any(axis=1), bands.argmax(axis=1), m)
    return paulis, first, cones


def _walk(state: np.ndarray, rounds, signs, n: int,
          operators: Optional[dict] = None) -> np.ndarray:
    """``state`` through ``rounds`` of :func:`fuse_round` blocks, each
    followed by its cZ layer's ``signs``: one row, a row per state, or
    None for an empty layer. ``operators`` maps a location, counted from
    the first round passed, to one 2^n x 2^n matrix applied there:
    location 0 before the first round, location j+1 after round j and
    before its cZ layer, even an empty one."""
    operators = operators or {}
    if 0 in operators:
        state = state @ operators[0].T
    for j, (blocks, layer) in enumerate(zip(rounds, signs), 1):
        state = apply_round(state, blocks, n)
        if j in operators:
            state = state @ operators[j].T
        if layer is not None:  # the round's product is a fresh array
            state *= layer
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
    signs = [_cz_parity(n, pairs) if pairs else None for pairs in cz]
    probs = sum(_x_weights(_walk(plus, map(fuse_round, bands), signs, n, p), n)
                for p in paths)
    sums = probs.sum(axis=-1, keepdims=True)
    if np.abs(sums - 1.0).max() > TRACE_ATOL:
        raise ValueError("output distribution does not sum to 1 within 1e-10")
    return probs / sums


def bits_to_index(bits: np.ndarray) -> int:
    return int(sum(int(b) << q for q, b in enumerate(bits)))


def index_to_bits(index: int, n: int) -> np.ndarray:
    return np.array([(index >> q) & 1 for q in range(n)], dtype=np.uint8)
