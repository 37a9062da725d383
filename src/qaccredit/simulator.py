"""Circuit simulation backends.

* Pauli-frame propagation: exact and sampling-free for all-Clifford circuits
  under Pauli noise — errors are commuted to the end of the circuit and read
  off as an X-measurement flip mask; :func:`frame_flips` does this for many
  circuits on one cZ topology at once, on bit arrays.
* Dense statevector / density-matrix simulation for small generic circuits,
  including arbitrary Kraus channels at the standard noise locations.

Noise locations for a circuit with m bands: location 0 right after state
preparation, location j in [1, m-1] after band j's single-qubit round and
before its cZ round, location m right before measurement.

Measurement convention: X-basis outcome 0 corresponds to ``|+>``.
"""

from __future__ import annotations

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
    for j, band in enumerate(circuit.bands):
        for i, gate in enumerate(band.singles):
            q = pauli.conj_single(q, gate.clifford, i)
        if j < circuit.m - 1:
            q = pauli.multiply(errors[j + 1], q)
        for pair in band.sorted_pairs():
            q = pauli.conj_cz(q, pair)
    return pauli.multiply(errors[circuit.m], q)


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
    m = topology.m
    codes = err_x | err_z << 1
    frame = codes[:, 0].copy()
    for j, band in enumerate(topology.bands):
        frame = _CONJ[gates[:, j], frame]
        if j < m - 1:
            frame ^= codes[:, j + 1]
        if band.cz_pairs:
            lo, hi = np.array(band.sorted_pairs()).T
            x = frame & 1
            frame[:, lo] ^= x[:, hi] << 1
            frame[:, hi] ^= x[:, lo] << 1
    return (frame ^ codes[:, m]) >> 1


# ---------------------------------------------------------------------------
# Dense backends
# ---------------------------------------------------------------------------


def apply_single(state: np.ndarray, u: np.ndarray, q: int, n: int) -> np.ndarray:
    """Apply a 2x2 unitary to qubit q (qubit 0 = least significant bit)."""
    psi = state.reshape(2 ** (n - 1 - q), 2, 2 ** q)
    return np.einsum("ab,ibj->iaj", u, psi).reshape(-1)


def apply_cz(state: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    idx = np.arange(2 ** n)
    mask = ((idx >> i) & 1) & ((idx >> j) & 1)
    out = state.copy()
    out[mask == 1] *= -1
    return out


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


_HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def _plus_state(n: int) -> np.ndarray:
    return np.full(2 ** n, 2 ** (-n / 2), dtype=complex)


def row_masks(bits: Optional[Sequence], rows: int) -> list:
    """(x, z) integer masks per row of an (x, z) bit-array pair, or of
    ``rows`` noiseless rows for None."""
    if bits is None:
        return [(0, 0)] * rows
    return [(bits_to_index(x), bits_to_index(z)) for x, z in zip(*bits)]


def _evolve_state(circuit: Circuit,
                  errors: Optional[Sequence],
                  deviations: Optional[Sequence]) -> np.ndarray:
    """|+>^n through the circuit with Pauli errors and gate deviations.

    ``errors`` is an (x, z) pair of (m+1, n) bit arrays, row j the
    location-j error. ``deviations`` is an (x, z) pair of (m, n) bit arrays,
    row j applied after band j's single-qubit round and before the
    location-(j+1) error. Either may be None for no noise.
    """
    n, m = circuit.n, circuit.m
    err = row_masks(errors, m + 1)
    dev = row_masks(deviations, m)
    state = apply_pauli(_plus_state(n), *err[0], n)
    for j, band in enumerate(circuit.bands):
        for i, gate in enumerate(band.singles):
            state = apply_single(state, gate.to_matrix(), i, n)
        state = apply_pauli(state, *dev[j], n)
        if j < m - 1:
            state = apply_pauli(state, *err[j + 1], n)
        for pair in band.sorted_pairs():
            state = apply_cz(state, *pair, n)
    return apply_pauli(state, *err[m], n)


def x_distribution(state: np.ndarray, n: int) -> np.ndarray:
    """X-measurement outcome distribution of a state (index bit q = qubit q)."""
    # rotate to the X basis so computational outcomes are the measurement bits
    for q in range(n):
        state = apply_single(state, _HAD, q, n)
    probs = np.abs(state) ** 2
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
                             errors: Optional[Sequence] = None,
                             deviations: Optional[Sequence] = None
                             ) -> np.ndarray:
    """Exact X-measurement outcome distribution (index bit q = qubit q)
    under the (x, z) bit pairs that :func:`_evolve_state` reads."""
    check_statevector_size(circuit.n)
    return x_distribution(_evolve_state(circuit, errors, deviations),
                          circuit.n)


def run_statevector(circuit: Circuit,
                    errors: Optional[Sequence] = None,
                    deviations: Optional[Sequence] = None, *,
                    rng: np.random.Generator) -> np.ndarray:
    """One X-measurement sample as an n-bit array."""
    probs = statevector_distribution(circuit, errors, deviations)
    return sample_bits(probs, circuit.n, rng)


def _apply_channel(rho: np.ndarray, kraus: Sequence) -> np.ndarray:
    dim = rho.shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    check = np.zeros((dim, dim), dtype=complex)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        total += k @ rho @ k.conj().T
        check += k.conj().T @ k
    if not np.allclose(check, np.eye(dim), atol=TRACE_ATOL, rtol=0):
        raise ValueError("channel is not trace-preserving within 1e-10")
    return total


def _conjugate_single(rho: np.ndarray, u: np.ndarray, q: int,
                      n: int) -> np.ndarray:
    """U rho U^dagger for a 2x2 U on qubit q.

    Row-major rho read as a 2n-qubit vector carries the row index on qubits
    n..2n-1 and the column index on qubits 0..n-1, so U acts on qubit n+q
    and conj(U) on qubit q.
    """
    vec = apply_single(rho.reshape(-1), u, n + q, 2 * n)
    return apply_single(vec, u.conj(), q, 2 * n).reshape(rho.shape)


def run_density(circuit: Circuit,
                channels: Optional[dict] = None) -> np.ndarray:
    """Exact output distribution under Kraus channels at noise locations.

    ``channels`` maps location index (0..m) to a list of 2^n x 2^n Kraus
    operators. Returns the length-2^n X-measurement probability vector.
    """
    n, m = circuit.n, circuit.m
    if n > MAX_DENSITY_QUBITS:
        raise SimLimitError(
            f"{n} qubits exceeds density limit {MAX_DENSITY_QUBITS}")
    channels = channels or {}
    plus = _plus_state(n)
    rho = np.outer(plus, plus.conj())
    if 0 in channels:
        rho = _apply_channel(rho, channels[0])
    for j, band in enumerate(circuit.bands):
        for i, gate in enumerate(band.singles):
            rho = _conjugate_single(rho, gate.to_matrix(), i, n)
        loc = j + 1
        if 0 < loc < m and loc in channels:
            rho = _apply_channel(rho, channels[loc])
        if band.cz_pairs:
            idx = np.arange(2 ** n)
            sign = np.ones(2 ** n)
            for i, k in band.sorted_pairs():
                sign *= 1.0 - 2.0 * (((idx >> i) & 1) & ((idx >> k) & 1))
            rho = rho * np.outer(sign, sign)
    if m in channels:
        rho = _apply_channel(rho, channels[m])
    for q in range(n):
        rho = _conjugate_single(rho, _HAD, q, n)
    probs = np.real(np.diag(rho))
    if abs(probs.sum() - 1.0) > TRACE_ATOL:
        raise ValueError("output distribution does not sum to 1 within 1e-10")
    if probs.min() < -1e-12:
        raise ValueError("negative probability beyond tolerance")
    return np.clip(probs, 0.0, None) / probs.sum()


def bits_to_index(bits: np.ndarray) -> int:
    return int(sum(int(b) << q for q, b in enumerate(bits)))


def index_to_bits(index: int, n: int) -> np.ndarray:
    return np.array([(index >> q) & 1 for q in range(n)], dtype=np.uint8)
