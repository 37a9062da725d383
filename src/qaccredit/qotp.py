"""Quantum one-time pad: pad sampling, circuit dressing, classical key.

Every single-qubit gate U_{i,j} gets a random Pauli pad appended:
``U' = X^{alpha'} Z^{alpha} U``. Band 1 additionally absorbs a random X^gamma
(X stabilizes ``|+>``). The pad of band j is undone at the start of band j+1
by the pad conjugated through band j's cZ layer; the band-m Z-pad exponents
survive as a classical key that is XORed into the measured outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cliffords, pauli
from .circuit import Band, Circuit, Gate, compose_singles


@dataclass(frozen=True)
class PadRecord:
    """Pad bits for one circuit: alpha, alpha_prime are m x n; gamma is n."""

    alpha: np.ndarray
    alpha_prime: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "alpha_prime", "gamma"):
            arr = np.asarray(getattr(self, name), dtype=np.uint8)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.alpha.shape != self.alpha_prime.shape:
            raise ValueError("alpha and alpha_prime shapes differ")
        if self.alpha.ndim != 2 or self.gamma.shape != (self.alpha.shape[1],):
            raise ValueError("pad record shapes are inconsistent")

    @property
    def m(self) -> int:
        return self.alpha.shape[0]

    @property
    def n(self) -> int:
        return self.alpha.shape[1]


@dataclass(frozen=True)
class DressedCircuit:
    """Padded circuit plus the n-bit classical post-processing key."""

    circuit: Circuit
    key: np.ndarray

    def __post_init__(self):
        key = np.asarray(self.key, dtype=np.uint8)
        key.setflags(write=False)
        object.__setattr__(self, "key", key)


def pads_from_bits(bits: np.ndarray, n: int, m: int) -> PadRecord:
    """The pads of 2nm + n bits: alpha, then alpha', then gamma."""
    return PadRecord(alpha=bits[: n * m].reshape(m, n),
                     alpha_prime=bits[n * m: 2 * n * m].reshape(m, n),
                     gamma=bits[2 * n * m:])


def sample_pads(n: int, m: int, rng: np.random.Generator) -> PadRecord:
    """Uniform pads: 2nm + n independent bits, deterministic given rng."""
    return pads_from_bits(rng.integers(0, 2, size=2 * n * m + n,
                                       dtype=np.uint8), n, m)


def zero_pads(n: int, m: int) -> PadRecord:
    return PadRecord(np.zeros((m, n), np.uint8), np.zeros((m, n), np.uint8),
                     np.zeros(n, np.uint8))


def _pauli_gate(x: int, z: int) -> Gate:
    return Gate(clifford=cliffords.PAULI_INDEX[(x, z)])


def _band_pad_string(pads: PadRecord, j: int) -> pauli.PauliString:
    """The band-j pad as one n-qubit Pauli (phase irrelevant downstream)."""
    x = z = 0
    for i in range(pads.n):
        x |= int(pads.alpha_prime[j, i]) << i
        z |= int(pads.alpha[j, i]) << i
    return pauli.PauliString(pads.n, x, z)


def undo_pauli(pads: PadRecord, band: Band, j: int) -> pauli.PauliString:
    """Band-(j+1) undo operator: band-j pad conjugated through its cZ layer."""
    p = _band_pad_string(pads, j)
    for pair in band.sorted_pairs():
        p = pauli.conj_cz(p, pair)
    return p


def dress(circuit: Circuit, pads: PadRecord) -> DressedCircuit:
    """Routine-1 compilation: pads folded into each gate, key extracted.

    Band 1: ``U'' = X^{alpha'} Z^{alpha} U X^{gamma}``. Band j+1 prepends the
    band-j undo Pauli before its own padded gate. Clifford gates stay Clifford
    (Pauli * Clifford is Clifford); generic gates multiply matrices.
    """
    n, m = circuit.n, circuit.m
    if pads.m != m or pads.n != n:
        raise ValueError("pad dimensions do not match circuit")
    new_bands = []
    for j, band in enumerate(circuit.bands):
        if j == 0:
            pre_gates = [_pauli_gate(int(pads.gamma[i]), 0) for i in range(n)]
        else:
            undo = undo_pauli(pads, circuit.bands[j - 1], j - 1)
            pre_gates = [
                _pauli_gate((undo.x_bits >> i) & 1, (undo.z_bits >> i) & 1)
                for i in range(n)
            ]
        singles = []
        for i, u in enumerate(band.singles):
            g = compose_singles(pre_gates[i], u)
            g = compose_singles(g, _pauli_gate(0, int(pads.alpha[j, i])))
            g = compose_singles(g, _pauli_gate(int(pads.alpha_prime[j, i]), 0))
            singles.append(g)
        new_bands.append(Band(singles=tuple(singles), cz_pairs=band.cz_pairs))
    dressed = Circuit(n=n, m=m, bands=tuple(new_bands))
    return DressedCircuit(circuit=dressed, key=pads.alpha[m - 1].copy())


def postprocess(outputs: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Undo the surviving Z-pad: bitwise XOR of outputs with the key."""
    outputs = np.asarray(outputs, dtype=np.uint8)
    key = np.asarray(key, dtype=np.uint8)
    if outputs.shape != key.shape:
        raise ValueError("length mismatch")
    return outputs ^ key
