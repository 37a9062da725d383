"""Quantum one-time pad: pad sampling, circuit dressing, classical key.

A circuit's pads are one uint8 row of :func:`pad_width` = 2nm + n bits:
alpha (m x n, band-major), then alpha' (m x n), then gamma (n). Every
single-qubit gate U_{i,j} gets a Pauli pad appended:
``U' = X^{alpha'} Z^{alpha} U``. Band 1 additionally absorbs a random X^gamma
(X stabilizes ``|+>``). The pad of band j is undone at the start of band j+1
by the pad conjugated through band j's cZ layer; the band-m Z-pad exponents
survive as a classical key that is XORed into the measured outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cliffords
from .circuit import Band, Circuit, Gate, compose_singles

# The single-qubit Pauli X^x Z^z as a gate, keyed by (x, z).
_PAULI_GATES = {xz: Gate(clifford=c) for xz, c in cliffords.PAULI_INDEX.items()}


@dataclass(frozen=True)
class DressedCircuit:
    """Padded circuit plus the n-bit classical post-processing key."""

    circuit: Circuit
    key: np.ndarray

    def __post_init__(self):
        key = np.asarray(self.key, dtype=np.uint8)
        key.setflags(write=False)
        object.__setattr__(self, "key", key)


def pad_width(n: int, m: int) -> int:
    """Bits in one circuit's pad row: alpha and alpha' (m x n each), gamma."""
    return 2 * n * m + n


def sample_pads(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform pads: one row of :func:`pad_width` bits, deterministic given rng."""
    return rng.integers(0, 2, size=pad_width(n, m), dtype=np.uint8)


def dress(circuit: Circuit, pads: np.ndarray) -> DressedCircuit:
    """Routine-1 compilation: pads folded into each gate, key extracted.

    Band 1: ``U'' = X^{alpha'} Z^{alpha} U X^{gamma}``. Band j+1 prepends the
    band-j pad conjugated through band j's cZ layer (X_i -> X_i Z_j).
    Clifford gates stay Clifford (Pauli * Clifford is Clifford); generic gates
    multiply matrices.
    """
    n, m = circuit.n, circuit.m
    row = np.asarray(pads)
    if row.shape != (pad_width(n, m),) or ((row != 0) & (row != 1)).any():
        raise ValueError(f"pads must be a 0/1 row of {pad_width(n, m)} bits")
    alpha = row[: n * m].reshape(m, n).tolist()
    alpha_prime = row[n * m: 2 * n * m].reshape(m, n).tolist()
    # band 1's pre-Pauli is X^gamma
    x, z = row[2 * n * m:].tolist(), [0] * n
    new_bands = []
    for j, band in enumerate(circuit.bands):
        singles = tuple(
            compose_singles(compose_singles(_PAULI_GATES[x[i], z[i]], u),
                            _PAULI_GATES[alpha_prime[j][i], alpha[j][i]])
            for i, u in enumerate(band.singles))
        new_bands.append(Band(singles=singles, cz_pairs=band.cz_pairs))
        # band j+1 undoes band j's pad after its cZ layer
        x, z = alpha_prime[j], list(alpha[j])
        for lo, hi in band.cz_pairs:
            z[lo] ^= x[hi]
            z[hi] ^= x[lo]
    dressed = Circuit(n=n, m=m, bands=tuple(new_bands))
    return DressedCircuit(circuit=dressed, key=alpha[m - 1])


def postprocess(outputs: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Undo the surviving Z-pad: bitwise XOR of outputs with the key."""
    outputs = np.asarray(outputs, dtype=np.uint8)
    key = np.asarray(key, dtype=np.uint8)
    if outputs.shape != key.shape:
        raise ValueError("length mismatch")
    return outputs ^ key
