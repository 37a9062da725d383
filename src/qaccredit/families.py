"""Example circuit families in the band-structured form."""

from __future__ import annotations

import numpy as np

from . import cliffords
from .circuit import GENERIC, Circuit

GENERIC_FRACTION = 0.5  # share of Haar-random gates in random_generic_circuit


def ghz_circuit(n: int) -> Circuit:
    """Prepare an n-qubit GHZ state and measure every qubit in X.

    Chain construction on |+>^n: band j entangles qubits (j, j+1) with a cZ
    and band j+1 rotates qubit j+1 with H before extending the chain, so
    cZ(0,1), H_1, cZ(1,2), H_2, ... yields (|0...0> + |1...1>)/sqrt(2) after
    band n-1. Uses m = max(n, 2) bands and n-1 cZ gates.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = max(n, 2)
    gates = np.full((m, n), cliffords.C_I)
    gates[range(1, n), range(1, n)] = cliffords.C_H
    cz = [((j, j + 1),) if j < n - 1 else () for j in range(m)]
    return Circuit(n, m, gates, cz)


def _random_disjoint_pairs(n: int, rng: np.random.Generator) -> list:
    qubits = list(rng.permutation(n))
    pairs = []
    while len(qubits) >= 2:
        if rng.random() < 0.7:
            a, b = qubits.pop(), qubits.pop()
            pairs.append((int(a), int(b)))
        else:
            qubits.pop()
    return pairs


def random_clifford_circuit(n: int, m: int,
                            rng: np.random.Generator) -> Circuit:
    """Uniformly random single-qubit Cliffords on random disjoint cZ layers."""
    gates = np.empty((m, n), dtype=np.uint8)
    cz = []
    for j in range(m):
        gates[j] = [rng.integers(0, cliffords.GROUP_ORDER) for _ in range(n)]
        cz.append(_random_disjoint_pairs(n, rng) if j < m - 1 else ())
    return Circuit(n, m, gates, cz)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random dim x dim unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_generic_circuit(n: int, m: int,
                           rng: np.random.Generator) -> Circuit:
    """Mixed Clifford/generic gates; guaranteed at least one generic gate."""
    gates = np.empty((m, n), dtype=np.uint8)
    cz, matrices = [], {}
    for j in range(m):
        for i in range(n):
            if rng.random() < GENERIC_FRACTION:
                gates[j, i] = GENERIC
                matrices[j, i] = random_unitary(2, rng)
            else:
                gates[j, i] = rng.integers(0, cliffords.GROUP_ORDER)
        cz.append(_random_disjoint_pairs(n, rng) if j < m - 1 else ())
    if not matrices:
        gates[0, 0] = GENERIC
        matrices[0, 0] = random_unitary(2, rng)
    return Circuit(n, m, gates, cz, matrices)
