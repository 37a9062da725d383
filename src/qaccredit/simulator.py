"""Circuit simulation backends.

* Pauli-frame propagation: exact and sampling-free for all-Clifford circuits
  under Pauli noise — errors are commuted to the end of the circuit and read
  off as an X-measurement flip mask; :func:`frame_flips` does this for many
  circuits on one cZ topology at once, on bit arrays.
* Dense statevector simulation for small generic circuits, one band step at
  a time (:func:`apply_round`, :func:`apply_pauli`, :func:`apply_cz`), the
  steps the two-party register also runs; the density backend sums it over
  every path of Kraus operators at the noise locations.

Noise locations for a circuit with m bands: location 0 right after state
preparation, location j+1 right after band j's single-qubit round and before
its cZ round. The last band has no cZ round, so location m is right before
measurement.

Measurement convention: X-basis outcome 0 corresponds to ``|+>``.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from . import cliffords, pauli
from .circuit import Circuit
from .pauli import PauliString

TRACE_ATOL = 1e-10
MAX_STATEVECTOR_QUBITS = 16
MAX_DENSITY_QUBITS = 6


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
    end-of-circuit Pauli; exact, no sampling.
    """
    if not circuit.all_clifford:
        raise NonCliffordError("frame backend requires an all-Clifford circuit")
    if len(errors) != circuit.m + 1:
        raise ValueError(f"expected {circuit.m + 1} error locations")
    q = errors[0]
    for j, pairs in enumerate(circuit.cz):
        for i, c in enumerate(circuit.gates[j].tolist()):
            q = pauli.conj_single(q, c, i)
        q = pauli.multiply(errors[j + 1], q)
        for pair in pairs:
            q = pauli.conj_cz(q, pair)
    return q


def trap_output(circuit: Circuit, errors: Sequence) -> np.ndarray:
    """X-measurement flip pattern relative to the noiseless all-zero output."""
    mask = pauli.z_mask(propagate_frame(circuit, errors))
    return np.array([(mask >> q) & 1 for q in range(circuit.n)],
                    dtype=np.uint8)


def _build_conj_table() -> np.ndarray:
    """_CONJ[c, x | z << 1] = x' | z' << 1 where c X^x Z^z c† ~ X^x' Z^z'."""
    table = np.zeros((cliffords.GROUP_ORDER, 2, 2), dtype=np.uint8)
    for c in range(cliffords.GROUP_ORDER):
        for z in (0, 1):
            for x in (0, 1):
                lx = x & cliffords.IMG_X[c][0] ^ z & cliffords.IMG_Z[c][0]
                lz = x & cliffords.IMG_X[c][1] ^ z & cliffords.IMG_Z[c][1]
                table[c, z, x] = lx | lz << 1
    return table.reshape(cliffords.GROUP_ORDER, 4)


_CONJ = _build_conj_table()


def frame_flips(topology: Circuit, gates: np.ndarray, err_x: np.ndarray,
                err_z: np.ndarray) -> np.ndarray:
    """Flip patterns of R Clifford circuits sharing ``topology``'s cZ layers.

    ``gates`` holds Clifford indices of shape (R, m, n); ``err_x``/``err_z``
    the location-indexed error bits of shape (R, m+1, n). Row r of the
    (R, n) result is :func:`trap_output` of circuit r under error slice r.
    The frame of all R circuits moves band by band as a 2-bit code
    x | z << 1 per qubit (bit-array frame simulation, arXiv:2103.02202).
    """
    codes = err_x | err_z << 1
    frame = codes[:, 0]
    for j, pairs in enumerate(topology.cz):
        frame = _CONJ[gates[:, j], frame] ^ codes[:, j + 1]
        if pairs:
            lo, hi = np.array(pairs).T
            x = frame & 1
            frame[:, lo] ^= x[:, hi] << 1
            frame[:, hi] ^= x[:, lo] << 1
    return frame >> 1


# ---------------------------------------------------------------------------
# Dense backends
# ---------------------------------------------------------------------------


def apply_single(state: np.ndarray, u: np.ndarray, q: int, n: int) -> np.ndarray:
    """Apply a 2x2 unitary to qubit q (qubit 0 = least significant bit)."""
    psi = state.reshape(2 ** (n - 1 - q), 2, 2 ** q)
    return np.einsum("ab,ibj->iaj", u, psi).reshape(-1)


def apply_round(state: np.ndarray, circuit: Circuit, j: int,
                n: int) -> np.ndarray:
    """Apply band j's single-qubit round of ``circuit``."""
    for i in range(n):
        state = apply_single(state, circuit.unitary(j, i), i, n)
    return state


def apply_cz(state: np.ndarray, pairs, n: int) -> np.ndarray:
    """Apply a band's cZ round, one (i, j) pair at a time."""
    for i, j in pairs:
        idx = np.arange(2 ** n)
        mask = ((idx >> i) & 1) & ((idx >> j) & 1)
        state = state.copy()
        state[mask == 1] *= -1
    return state


def apply_pauli(state: np.ndarray, x_mask: int, z_mask: int,
                n: int) -> np.ndarray:
    """Apply X^x Z^z by integer masks (bit q = qubit q); no global phase."""
    if not x_mask and not z_mask:
        return state
    idx = np.arange(2 ** n)
    # X^x Z^z on |b>: Z phases first on b, then X flips b
    zpar = np.zeros(2 ** n, dtype=np.int64)
    for q in range(n):
        if (z_mask >> q) & 1:
            zpar ^= (idx >> q) & 1
    out = np.zeros_like(state)
    out[idx ^ x_mask] = state * ((-1.0) ** zpar)
    return out


def plus_state(n: int) -> np.ndarray:
    """The n-qubit input state |+>^n."""
    return np.full(2 ** n, 2 ** (-n / 2), dtype=complex)


def row_masks(bits: Optional[Sequence], rows: int) -> list:
    """(x, z) integer masks per row of an (x, z) bit-array pair, or of
    ``rows`` noiseless rows for None."""
    if bits is None:
        return [(0, 0)] * rows
    return [(bits_to_index(x), bits_to_index(z)) for x, z in zip(*bits)]


def _evolve_state(circuit: Circuit, errors: Optional[Sequence],
                  operators: Optional[dict] = None) -> np.ndarray:
    """|+>^n through the circuit with one Pauli error per location.

    ``errors`` is an (x, z) pair of (m+1, n) bit arrays, row j the
    location-j error, or None for no noise; a gate deviation is the error
    at the location after its round. ``operators`` maps a location to one
    2^n x 2^n matrix applied after its error.
    """
    n, m = circuit.n, circuit.m
    err = row_masks(errors, m + 1)
    operators = operators or {}

    def at_location(state, loc):
        state = apply_pauli(state, *err[loc], n)
        return operators[loc] @ state if loc in operators else state

    state = at_location(plus_state(n), 0)
    for j, pairs in enumerate(circuit.cz):
        state = at_location(apply_round(state, circuit, j, n), j + 1)
        state = apply_cz(state, pairs, n)
    return state


def _x_weights(state: np.ndarray, n: int) -> np.ndarray:
    """Squared X-basis amplitudes of a state, not normalised."""
    # rotate to the X basis so computational outcomes are the measurement bits
    had = cliffords.MATRICES[cliffords.C_H]
    for q in range(n):
        state = apply_single(state, had, q, n)
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
    under the (x, z) error bits that :func:`_evolve_state` reads."""
    check_statevector_size(circuit.n)
    return x_distribution(_evolve_state(circuit, errors), circuit.n)


def run_statevector(circuit: Circuit, errors: Optional[Sequence] = None, *,
                    rng: np.random.Generator) -> np.ndarray:
    """One X-measurement sample as an n-bit array."""
    probs = statevector_distribution(circuit, errors)
    return sample_bits(probs, circuit.n, rng)


def run_density(circuit: Circuit,
                channels: Optional[dict] = None) -> np.ndarray:
    """Exact output distribution under Kraus channels at noise locations.

    ``channels`` maps location index (0..m) to a list of 2^n x 2^n Kraus
    operators. Returns the length-2^n X-measurement probability vector.

    The distribution is a sum over Kraus paths: for every choice of one
    operator per location, the statevector walk of :func:`_evolve_state`
    adds that path's squared X-basis amplitudes. This costs one walk per
    path, the product of the Kraus-list lengths, in 2^n memory.
    """
    n, m = circuit.n, circuit.m
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
    probs = np.zeros(2 ** n)
    for path in itertools.product(*channels.values()):
        operators = dict(zip(channels, path))
        probs += _x_weights(_evolve_state(circuit, None, operators), n)
    if abs(probs.sum() - 1.0) > TRACE_ATOL:
        raise ValueError("output distribution does not sum to 1 within 1e-10")
    return probs / probs.sum()


def bits_to_index(bits: np.ndarray) -> int:
    return int(sum(int(b) << q for q, b in enumerate(bits)))


def index_to_bits(index: int, n: int) -> np.ndarray:
    return np.array([(index >> q) & 1 for q in range(n)], dtype=np.uint8)
