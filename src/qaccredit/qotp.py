"""Quantum one-time pad: circuit dressing and classical key.

A circuit's pads are one uint8 row of :func:`pad_width` = 2nm + n bits:
alpha (m x n, band-major), then alpha' (m x n), then gamma (n). Every
single-qubit gate U_{i,j} gets a Pauli pad appended:
``U' = X^{alpha'} Z^{alpha} U``. Band 1 additionally absorbs a random X^gamma
(X stabilizes ``|+>``). The pad of band j is undone at the start of band j+1
by the pad conjugated through band j's cZ layer; the band-m Z-pad exponents
survive as a classical key that is XORed into the measured outputs.
:func:`dress` returns the padded circuit and its key as a pair.
"""

from __future__ import annotations

import numpy as np

from . import cliffords
from .circuit import GENERIC, Circuit

# COMPOSE with a GENERIC row and column: a generic gate stays generic
_COMPOSE = np.pad(cliffords.COMPOSE, (0, 1), constant_values=GENERIC)


def pad_width(n: int, m: int) -> int:
    """Bits in one circuit's pad row: alpha and alpha' (m x n each), gamma."""
    return 2 * n * m + n


def dress(circuit: Circuit, pads: np.ndarray) -> tuple[Circuit, np.ndarray]:
    """Routine-1 compilation: (padded circuit, n-bit post-processing key).

    Band 1: ``U'' = X^{alpha'} Z^{alpha} U X^{gamma}``. Band j+1 prepends the
    band-j pad conjugated through band j's cZ layer (X_i -> X_i Z_j).
    Clifford gates stay Clifford (Pauli * Clifford is Clifford); generic gates
    multiply matrices.
    """
    n, m = circuit.n, circuit.m
    row = np.asarray(pads)
    if row.shape != (pad_width(n, m),) or not set(row.tolist()) <= {0, 1}:
        raise ValueError(f"pads must be a 0/1 row of {pad_width(n, m)} bits")
    row = row.astype(np.uint8)
    alpha = row[: n * m].reshape(m, n)
    alpha_prime = row[n * m: 2 * n * m].reshape(m, n)
    # band j's pad conjugated through band j's cZ layer
    crossed_z = alpha.copy()
    for j, pairs in enumerate(circuit.cz):
        for lo, hi in pairs:
            crossed_z[j, lo] ^= alpha_prime[j, hi]
            crossed_z[j, hi] ^= alpha_prime[j, lo]
    # band 1 opens with X^gamma; band j+1 undoes band j's crossed pad
    pre = np.empty((m, n), dtype=np.uint8)
    pre[0] = cliffords.PAULI_INDEX[row[2 * n * m:], 0]
    pre[1:] = cliffords.PAULI_INDEX[alpha_prime[:-1], crossed_z[:-1]]
    post = cliffords.PAULI_INDEX[alpha_prime, alpha]
    matrices = {(j, i): cliffords.MATRICES[post[j, i]]
                @ (u @ cliffords.MATRICES[pre[j, i]])
                for (j, i), u in circuit.matrices.items()}
    dressed = Circuit(n, m, _COMPOSE[_COMPOSE[pre, circuit.gates], post],
                      circuit.cz, matrices)
    return dressed, alpha[m - 1]


def postprocess(outputs: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Undo the surviving Z-pad: bitwise XOR of outputs with the key."""
    outputs = np.asarray(outputs, dtype=np.uint8)
    key = np.asarray(key, dtype=np.uint8)
    if outputs.shape != key.shape:
        raise ValueError("length mismatch")
    return outputs ^ key
