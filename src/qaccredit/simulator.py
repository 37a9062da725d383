"""Circuit simulation backends.

* Pauli-frame propagation: exact and sampling-free for all-Clifford circuits
  under Pauli noise — errors are commuted to the end of the circuit and read
  off as an X-measurement flip mask; :func:`frame_flips` does this for many
  circuits on one cZ topology at once, on bit arrays. With one noiseless
  outcome from a signed stabiliser tableau (:func:`reference_outcome`), the
  frame also samples a Clifford circuit's outputs, with no statevector.
* Dense statevector simulation for small generic circuits, one band step at
  a time (:func:`apply_round`, :func:`apply_cz`), the steps the two-party
  register also runs. A drawn Pauli error is folded into a gate as a pad
  is: :func:`slice_distributions` branches every error slice off one
  noiseless walk at its first error, and :func:`error_paulis` gives errors
  the pads' form for a run's plan and for batched walks. The round and cZ
  steps take leading batch axes, so one walk moves many states; the
  density backend sums that walk over every path of Kraus operators at
  the noise locations.

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
# apply_round fuses the 2x2s of BLOCK qubits into one product from
# BLOCK_FROM qubits on; below that the per-qubit products cost no more
BLOCK = 4
BLOCK_FROM = 8


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


def reference_outcome(circuit: Circuit) -> np.ndarray:
    """One noiseless X-measurement outcome of a Clifford circuit, n bits.

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
    return index_to_bits(r, n)


# _CONJ[c << 2 | x | z << 1] = x' | z' << 1: c X^x Z^z c† ~ X^x' Z^z'
_CONJ = (cliffords.IMAGES[..., 0] | cliffords.IMAGES[..., 1] << 1).reshape(-1)


def frame_flips(topology: Circuit, gates: np.ndarray, err_x: np.ndarray,
                err_z: np.ndarray, first: Optional[np.ndarray] = None
                ) -> np.ndarray:
    """Flip patterns of R Clifford circuits sharing ``topology``'s cZ layers.

    ``gates`` holds Clifford indices of shape (R, m, n); ``err_x``/``err_z``
    the location-indexed error bits of shape (R, m+1, n). Row r of the
    (R, n) result is :func:`trap_output` of circuit r under error slice r.
    The frame of all R circuits moves band by band as a 2-bit code
    x | z << 1 per qubit (bit-array frame simulation, arXiv:2103.02202).

    ``first``, ascending (R,), gives each row's first error location; the
    row has no error before it. A frame is GF(2)-linear in its error bits
    (Lemma 2), so a row's frame is the identity up to there, and band j
    moves only the leading rows whose first location is at most j+1: a
    row whose one error sits at location m still takes band m-1's step.
    None starts every row at location 0.
    """
    rows, m = len(gates), topology.m
    moved = (np.full(m, rows) if first is None
             else np.searchsorted(first, np.arange(1, m + 1), side="right"))
    codes = err_x | err_z << 1
    gates = gates << 2
    frame = codes[:, 0].copy()
    partner, paired = cz_partners(topology.n, topology.cz)
    partner = partner % topology.n  # the partner's qubit in its band
    for j, k in enumerate(moved.tolist()):
        head = frame[:k]
        _CONJ.take(gates[:k, j] | head, out=head)
        head ^= codes[:k, j + 1]
        # cZ: a paired qubit's z bit takes its partner's x bit
        head ^= (head[:, partner[j]] & paired[j]) << 1
    return frame >> 1


# ---------------------------------------------------------------------------
# Dense backends
# ---------------------------------------------------------------------------


def apply_round(state: np.ndarray, unitaries, n: int) -> np.ndarray:
    """Apply a band's single-qubit round, the 2x2 unitary ``unitaries[q]``
    on every qubit q (qubit 0 = least significant bit); ``unitaries`` is an
    (n, 2, 2) array or a list of n 2x2s.

    ``state`` may carry leading batch axes, (..., 2^n); ``unitaries[q]``
    may then be a stack (..., 2, 2) of one 2x2 per state. Each product acts
    on the highest qubits, the first axis after the batch axes, and leaves
    them as the lowest, so after the last product every qubit is back in
    place. Below ``BLOCK_FROM`` qubits that is one 2x2 product per qubit;
    from there on the 2x2s of up to ``BLOCK`` qubits are first multiplied
    into one Kronecker product, so the state is read once per block, not
    once per qubit (gate fusion, arXiv:1704.01127).
    """
    shape = state.shape
    if n < BLOCK_FROM:
        split = shape[:-1] + (2, -1)
        for u in reversed(unitaries):
            state = (state.reshape(split).mT @ u.mT).reshape(shape)
        return state
    for hi in range(n, 0, -BLOCK):
        lo = max(hi - BLOCK, 0)
        u = _kron(unitaries[lo:hi])
        state = (state.reshape(shape[:-1] + (2 ** (hi - lo), -1)).mT
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
    has both qubits set."""
    return np.where(_cz_parity(n, pairs), -state, state)


# a whole target's cZ layers, which a branch walk revisits once per branch
@lru_cache(maxsize=64)
def _cz_parity(n: int, pairs: tuple) -> np.ndarray:
    """Read-only bool (2^n,): the basis states a cZ round flips."""
    idx = np.arange(2 ** n)
    odd = np.zeros(2 ** n, dtype=idx.dtype)
    for i, j in pairs:
        odd ^= idx >> i & idx >> j & 1
    odd = odd.astype(bool)
    odd.setflags(write=False)
    return odd


def apply_pauli(state: np.ndarray, x_mask: int, z_mask: int,
                n: int) -> np.ndarray:
    """Apply X^x Z^z by integer masks (bit q = qubit q); no global phase."""
    idx = np.arange(2 ** n)
    # X^x Z^z on |b>: Z phases first on b, then X flips b
    odd = np.bitwise_count(idx & z_mask) & 1
    return np.where(odd, -state, state)[idx ^ x_mask]


def plus_state(n: int) -> np.ndarray:
    """The n-qubit input state |+>^n."""
    return np.full(2 ** n, 2 ** (-n / 2), dtype=complex)


def error_paulis(err_x: np.ndarray, err_z: np.ndarray) -> tuple:
    """Error bits (..., m+1, n), row j the location-j error, as Pauli
    indices (..., m, n) before and after each gate, the pads' form: the
    location-0 error before band 0's gate, location j+1 after band j's."""
    paulis = cliffords.PAULI_INDEX[err_x, err_z]
    pre = np.full_like(paulis[..., 1:, :], cliffords.C_I)
    pre[..., 0, :] = paulis[..., 0, :]
    return pre, paulis[..., 1:, :]


def band_unitaries(circuit: Circuit) -> np.ndarray:
    """Every band's single-qubit unitaries as one (m, n, 2, 2) array."""
    bands = cliffords.MATRICES[np.where(circuit.gates == GENERIC,
                                        cliffords.C_I, circuit.gates)]
    for (j, i), u in circuit.matrices.items():
        bands[j, i] = u
    return bands


def _evolve_state(bands: np.ndarray, cz: tuple,
                  operators: dict) -> np.ndarray:
    """|+>^n through single-qubit rounds ``bands`` (m, n, ..., 2, 2) and
    the cZ layers ``cz``. Axes of ``bands`` between n and the 2x2 walk a
    batch of states at once, (..., 2^n). ``operators`` maps a location to
    one 2^n x 2^n matrix applied there.
    """
    n = bands.shape[1]

    def at_location(state, loc):
        return state @ operators[loc].T if loc in operators else state

    state = np.broadcast_to(plus_state(n), bands.shape[2:-2] + (2 ** n,))
    state = at_location(state, 0)
    for j, pairs in enumerate(cz):
        state = at_location(apply_round(state, bands[j], n), j + 1)
        state = apply_cz(state, pairs, n)
    return state


def _x_weights(state: np.ndarray, n: int) -> np.ndarray:
    """Squared X-basis amplitudes of a state, not normalised."""
    # rotate to the X basis so computational outcomes are the measurement bits
    state = apply_round(state, [cliffords.MATRICES[cliffords.C_H]] * n, n)
    return np.abs(state) ** 2


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


def statevector_distribution(circuit: Circuit,
                             errors: Optional[Sequence] = None) -> np.ndarray:
    """Exact X-measurement outcome distribution (index bit q = qubit q)
    under ``errors``, an (x, z) pair of (m+1, n) bit arrays or None: the
    one-slice case of :func:`slice_distributions`."""
    check_statevector_size(circuit.n)
    slices = np.zeros((1, 2, circuit.m + 1, circuit.n), dtype=np.uint8)
    if errors is not None:
        slices[0] = errors
    return next(slice_distributions(circuit, slices))[1]


def slice_distributions(circuit: Circuit, slices: np.ndarray):
    """Yield (k, probs) for every error slice k of ``slices`` (K, 2, m+1,
    n), the (x, z) bits of each location's Pauli: the X-measurement
    distribution (index bit q = qubit q) of ``circuit`` under slice k.

    One noiseless walk serves every slice. A location-j error (j < m) is
    moved through band j-1's cZ round, where a qubit's Z picks up its
    partner's X, to just before band j's round, so a slice's state is the
    noiseless one up to its first error location f. The walk branches
    there, and the branch runs bands f..m-1 with the slice's Paulis folded
    into their unitaries. The X-basis rotation is folded into the last
    band, which has no cZ round, so a location-m Pauli only relabels
    outcomes: its Z bits XOR the outcome index and its X bits do nothing,
    and slices that differ only there share one branch. The walk holds two
    states at a time, at any m; slices come out by first error location.
    """
    n, m, k = circuit.n, circuit.m, len(slices)
    x, z = slices[:, 0], slices[:, 1]
    partner, paired = cz_partners(n, circuit.cz)
    crossed = z[:, 1:] ^ x[:, 1:].reshape(k, m * n)[:, partner] & paired
    pre = cliffords.PAULI_INDEX[x[:, :m], np.concatenate(
        (z[:, :1], crossed[:, :-1]), axis=1)]
    touched = (pre != cliffords.C_I).any(axis=2)
    first = np.where(touched.any(axis=1), touched.argmax(axis=1), m)
    flips = z[:, m] @ (1 << np.arange(n))
    branches = {}
    for i, key in enumerate(pre):
        branches.setdefault(key.tobytes(), []).append(i)
    outcomes = np.arange(2 ** n)
    bands = band_unitaries(circuit)
    bands[-1] = cliffords.MATRICES[cliffords.C_H] @ bands[-1]
    state, at = plus_state(n), 0
    for group in sorted(branches.values(), key=lambda ks: first[ks[0]]):
        f = first[group[0]]
        state = _walk(state, bands[at:f], circuit.cz[at:f], n)
        at = f
        probs = np.abs(_walk(state, bands[f:] @ cliffords.MATRICES[
            pre[group[0], f:]], circuit.cz[f:], n)) ** 2
        probs /= probs.sum()
        for i in group:
            yield i, probs[outcomes ^ flips[i]]


def _walk(state: np.ndarray, bands, cz: tuple, n: int) -> np.ndarray:
    """``state`` through single-qubit rounds ``bands``, each followed by
    its cZ layer in ``cz``; an empty layer costs nothing."""
    for unitaries, pairs in zip(bands, cz):
        state = apply_round(state, unitaries, n)
        if pairs:
            state = apply_cz(state, pairs, n)
    return state


def run_statevector(circuit: Circuit, errors: Optional[Sequence] = None, *,
                    rng: np.random.Generator) -> np.ndarray:
    """One X-measurement sample as an n-bit array."""
    probs = statevector_distribution(circuit, errors)
    return sample_bits(probs, circuit.n, rng)


def run_density(circuit: Circuit,
                channels: Optional[dict] = None) -> np.ndarray:
    """Exact output distribution under Kraus channels at noise locations.

    ``channels`` maps location index (0..m) to a list of 2^n x 2^n Kraus
    operators. Returns the length-2^n X-measurement probability vector:
    :func:`density_distribution` of the circuit's bands, once
    :func:`density_channels` has checked the channels.
    """
    channels = density_channels(circuit.n, circuit.m, channels)
    return density_distribution(band_unitaries(circuit), circuit.cz,
                                channels)


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
    operator per location, the statevector walk of :func:`_evolve_state`
    adds that path's squared X-basis amplitudes. This costs one batched
    walk per path, the product of the Kraus-list lengths. Raises
    ValueError when a distribution does not sum to 1 within 1e-10.
    """
    n = bands.shape[1]
    probs = np.zeros(bands.shape[2:-2] + (2 ** n,))
    for path in itertools.product(*channels.values()):
        operators = dict(zip(channels, path))
        probs += _x_weights(_evolve_state(bands, cz, operators), n)
    sums = probs.sum(axis=-1, keepdims=True)
    if np.abs(sums - 1.0).max() > TRACE_ATOL:
        raise ValueError("output distribution does not sum to 1 within 1e-10")
    return probs / sums


def bits_to_index(bits: np.ndarray) -> int:
    return int(sum(int(b) << q for q, b in enumerate(bits)))


def index_to_bits(index: int, n: int) -> np.ndarray:
    return np.array([(index >> q) & 1 for q in range(n)], dtype=np.uint8)
