"""Quantum one-time pad: circuit dressing and classical key.

A circuit's pads are one uint8 row of :func:`pad_width` = 2nm + n bits:
alpha (m x n, band-major), then alpha' (m x n), then gamma (n). Every
single-qubit gate U_{i,j} gets a Pauli pad appended:
``U' = X^{alpha'} Z^{alpha} U``. Band 1 additionally absorbs a random X^gamma
(X stabilizes ``|+>``). The pad of band j is undone at the start of band j+1
by the pad conjugated through band j's cZ layer; the band-m Z-pad exponents
survive as a classical key that is XORed into the measured outputs.
:func:`pad_paulis` turns a stack of pad rows into these Paulis and keys in
one pass; :func:`dress` applies them to one circuit and returns the padded
circuit and its key as a pair.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import cliffords
from .circuit import GENERIC, Circuit, cz_partners

# COMPOSE with a GENERIC row and column: a generic gate stays generic
_COMPOSE = np.pad(cliffords.COMPOSE, (0, 1), constant_values=GENERIC)
# the four Paulis' matrices, code 2x + z, and each Pauli index's code
_PAULI_MATRICES = cliffords.MATRICES[cliffords.PAULI_INDEX.reshape(-1)]
_PAULI_CODE = np.zeros(cliffords.GROUP_ORDER, dtype=np.intp)
_PAULI_CODE[cliffords.PAULI_INDEX.reshape(-1)] = np.arange(4)


def pad_width(n: int, m: int) -> int:
    """Bits in one circuit's pad row: alpha and alpha' (m x n each), gamma."""
    return 2 * n * m + n


def dress(circuit: Circuit, pads: np.ndarray) -> tuple[Circuit, np.ndarray]:
    """Routine-1 compilation: (padded circuit, n-bit post-processing key).

    Band 1: ``U'' = X^{alpha'} Z^{alpha} U X^{gamma}``. Band j+1 prepends the
    band-j pad conjugated through band j's cZ layer (X_i -> X_i Z_j).
    Clifford gates stay Clifford (Pauli * Clifford is Clifford); generic gates
    multiply matrices. This is :func:`pad_paulis` at one row, then
    :func:`pad_gates` and :func:`pad_matrices`.
    """
    n, m = circuit.n, circuit.m
    row = np.asarray(pads)
    if row.shape != (pad_width(n, m),) or not set(row.tolist()) <= {0, 1}:
        raise ValueError(f"pads must be a 0/1 row of {pad_width(n, m)} bits")
    pre, post, key = pad_paulis(circuit, row[None].astype(np.uint8))
    dressed = Circuit(n, m, pad_gates(circuit.gates, pre[0], post[0]),
                      circuit.cz,
                      pad_matrices(circuit.matrices, pre[0], post[0]))
    return dressed, key[0]


def pad_paulis(topology: Circuit, pads: np.ndarray,
               errors: Optional[tuple] = None) -> tuple:
    """Pads of K circuits on ``topology``'s cZ layers as Paulis.

    ``pads`` is a (K, pad_width) stack of 0/1 uint8 rows. Returns the
    Pauli indices (K, m, n) that go before and after each gate, and the
    keys (K, n): band 1 opens with X^gamma, band j+1 undoes band j's pad
    conjugated through band j's cZ layer, and every gate is followed by
    X^{alpha'} Z^{alpha}; the band-m alpha rows are the keys.

    ``errors``, an (x, z) pair of (K, m+1, n) bit arrays, folds each
    circuit's drawn errors into its Paulis: location 0's before band 0's
    gate, location j+1's after band j's. A product of Paulis is the XOR of
    their bits up to phase, so the bits are XORed into gamma's and into
    each gate's post-Pauli bits; the undo Paulis and keys stay the pads'.
    """
    n, m = topology.n, topology.m
    alpha = pads[:, : n * m].reshape(-1, m, n)
    alpha_prime = pads[:, n * m: 2 * n * m]
    # band j's pad conjugated through band j's cZ layer: a qubit's Z pad
    # picks up its partner's X pad
    partner, paired = cz_partners(n, topology.cz)
    crossed_z = alpha ^ alpha_prime[:, partner] & paired
    alpha_prime = alpha_prime.reshape(alpha.shape)
    pre = np.empty(alpha.shape, dtype=np.uint8)
    pre[:, 1:] = cliffords.PAULI_INDEX[alpha_prime[:, :-1], crossed_z[:, :-1]]
    gamma_x, gamma_z = pads[:, 2 * n * m:], 0
    post_x, post_z = alpha_prime, alpha
    if errors is not None:
        err_x, err_z = errors
        gamma_x, gamma_z = gamma_x ^ err_x[:, 0], err_z[:, 0]
        post_x, post_z = post_x ^ err_x[:, 1:], post_z ^ err_z[:, 1:]
    pre[:, 0] = cliffords.PAULI_INDEX[gamma_x, gamma_z]
    post = cliffords.PAULI_INDEX[post_x, post_z]
    return pre, post, alpha[:, m - 1]


def pad_gates(gates: np.ndarray, pre: np.ndarray,
              post: np.ndarray) -> np.ndarray:
    """Gate indices of any shape between their pre and post Paulis; a
    GENERIC gate stays GENERIC."""
    return _COMPOSE[_COMPOSE[pre, gates], post]


def pad_unitaries(unitaries: np.ndarray, pre: np.ndarray,
                  post: np.ndarray) -> np.ndarray:
    """2x2 unitaries (..., 2, 2) between pre and post Pauli indices, whose
    shapes broadcast with the unitaries' leading axes. Each unitary U gets
    its 16 products ``P_post @ (U @ P_pre)``, one per (post, pre) pair of
    Paulis, which are gathered by the Paulis' codes. The Paulis' matrices
    hold only 0 and +-1, so the products are exact."""
    unitaries = np.asarray(unitaries)
    table = (_PAULI_MATRICES[:, None] @ (
        unitaries[..., None, :, :] @ _PAULI_MATRICES)[..., None, :, :, :]
    ).reshape(-1, 2, 2)
    at = np.arange(0, len(table), 16).reshape(unitaries.shape[:-2])
    return table[at + 4 * _PAULI_CODE[post] + _PAULI_CODE[pre]]


def pad_matrices(matrices, pre: np.ndarray, post: np.ndarray) -> dict:
    """One circuit's generic 2x2s {(j, i): u}, each between the (m, n)
    pre and post Paulis at its position, padded by one
    :func:`pad_unitaries` call (none for a Clifford circuit)."""
    if not matrices:
        return {}
    at = tuple(np.array(list(matrices)).T)
    padded = pad_unitaries(np.array(list(matrices.values())), pre[at],
                           post[at])
    return dict(zip(matrices, padded))


def postprocess(outputs: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Undo the surviving Z-pad: bitwise XOR of outputs with the key."""
    outputs = np.asarray(outputs, dtype=np.uint8)
    key = np.asarray(key, dtype=np.uint8)
    if outputs.shape != key.shape:
        raise ValueError("length mismatch")
    return outputs ^ key
