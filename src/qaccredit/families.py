"""Example circuit families in the band-structured form."""

from __future__ import annotations

import numpy as np

from . import cliffords
from .circuit import Band, Circuit, Gate, IDENTITY_GATE, clifford_gate

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
    bands = []
    for j in range(m):
        singles = [IDENTITY_GATE] * n
        pairs = []
        if 1 <= j <= n - 1:
            singles[j] = clifford_gate("H")
        if j < n - 1 and j < m - 1:
            pairs.append((j, j + 1))
        bands.append(Band(singles=tuple(singles), cz_pairs=pairs))
    return Circuit(n=n, m=m, bands=tuple(bands))


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
    bands = []
    for j in range(m):
        singles = tuple(
            Gate(clifford=int(rng.integers(0, cliffords.GROUP_ORDER)))
            for _ in range(n))
        pairs = _random_disjoint_pairs(n, rng) if j < m - 1 else []
        bands.append(Band(singles=singles, cz_pairs=pairs))
    return Circuit(n=n, m=m, bands=tuple(bands))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random dim x dim unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_unitary_gate(rng: np.random.Generator) -> Gate:
    """Haar-random single-qubit gate."""
    return Gate(matrix=random_unitary(2, rng))


def random_generic_circuit(n: int, m: int,
                           rng: np.random.Generator) -> Circuit:
    """Mixed Clifford/generic gates; guaranteed at least one generic gate."""
    bands = []
    has_generic = False
    for j in range(m):
        singles = []
        for _ in range(n):
            if rng.random() < GENERIC_FRACTION:
                singles.append(random_unitary_gate(rng))
                has_generic = True
            else:
                singles.append(
                    Gate(clifford=int(rng.integers(0, cliffords.GROUP_ORDER))))
        pairs = _random_disjoint_pairs(n, rng) if j < m - 1 else []
        bands.append(Band(singles=tuple(singles), cz_pairs=pairs))
    if not has_generic:
        bands[0] = Band(
            singles=(random_unitary_gate(rng),) + bands[0].singles[1:],
            cz_pairs=bands[0].cz_pairs)
    return Circuit(n=n, m=m, bands=tuple(bands))
