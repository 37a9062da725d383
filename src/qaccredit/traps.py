"""Trap circuits: random H/S dressings of the target's cZ topology.

For each non-final band, every cZ pair gets either (S on lo, H on hi) or
(H on lo, S on hi) — the orientation turning that cZ into a cX — and every
unpaired qubit gets H or S. The next band prepends the inverses, so the whole
trap telescopes to the identity on ``|+>^n`` and noiselessly outputs all
zeros. A global bit t optionally sandwiches the circuit in Hadamard rounds,
swapping which error species the trap is sensitive to.

A trap choice is one flat 0/1 row of :func:`choice_width` bits. Band by band
for j in [0, m-1), it holds one bit per sorted cZ pair (0: S on the lower
qubit, H on the higher; 1: swapped), then one bit per unpaired qubit in
ascending order (0: H, 1: S); t is the last bit.
"""

from __future__ import annotations

import numpy as np

from . import cliffords
from .circuit import Band, Circuit, Gate, compose_singles

ENUMERATION_CAP = 2 ** 24

_H = Gate(clifford=cliffords.C_H)
_S = Gate(clifford=cliffords.C_S)
_I = Gate(clifford=cliffords.C_I)


def _band_layout(target: Circuit, j: int):
    """Sorted cZ pairs and ascending unpaired qubits of band j."""
    pairs = target.bands[j].cz_pairs
    in_pair = {q for p in pairs for q in p}
    unpaired = [q for q in range(target.n) if q not in in_pair]
    return pairs, unpaired


def choice_width(target: Circuit) -> int:
    """Bits in one trap choice: every pair and unpaired bit, then t."""
    return 1 + sum(target.n - len(target.bands[j].cz_pairs)
                   for j in range(target.m - 1))


def _check_choice(target: Circuit, bits, ndim: int) -> np.ndarray:
    """``bits`` as uint8, once it is an ndim-array of 0/1 choice rows."""
    if target.m < 2:
        raise ValueError("trap generation needs at least 2 bands")
    bits = np.asarray(bits)
    if bits.ndim != ndim or bits.shape[-1] != choice_width(target):
        shape = "(R, choice_width)" if ndim == 2 else "(choice_width,)"
        raise ValueError(f"choice bits must have shape {shape}")
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("choice bits must be 0 or 1")
    return bits.astype(np.uint8, copy=False)


def generate_trap(target: Circuit, choice) -> Circuit:
    """Build the trap circuit for one choice row.

    The row picks m+1 layers of single-qubit Cliffords: a Hadamard sandwich
    at both ends (H on every qubit when t is 1, else I) and, as layer j+1,
    band j's fresh H/S assignment for j in [0, m-1). Band j undoes layer j
    and applies layer j+1, recompiled into one Clifford per qubit; H and I
    are their own inverses, so band 0 opens the sandwich and band m-1
    closes it.
    """
    choice = _check_choice(target, choice, ndim=1)
    n = target.n
    sandwich = [_H if choice[-1] else _I] * n
    layers, bits = [sandwich], iter(choice[:-1])
    for j in range(target.m - 1):
        pairs, unpaired = _band_layout(target, j)
        gates = [_I] * n
        for lo, hi in pairs:
            gates[lo], gates[hi] = (_H, _S) if next(bits) else (_S, _H)
        for q in unpaired:
            gates[q] = _S if next(bits) else _H
        layers.append(gates)
    layers.append(sandwich)
    bands = tuple(
        Band(singles=tuple(
            compose_singles(Gate(clifford=cliffords.DAGGER[undo.clifford]), g)
            for undo, g in zip(layers[j], layers[j + 1])),
            cz_pairs=band.cz_pairs)
        for j, band in enumerate(target.bands))
    return Circuit(n=n, m=target.m, bands=bands)


_COMPOSE = np.array(cliffords.COMPOSE, dtype=np.uint8)
_DAGGER = np.array(cliffords.DAGGER, dtype=np.uint8)


def trap_cliffords(target: Circuit, bits: np.ndarray) -> np.ndarray:
    """Clifford indices (R, m, n) of the R traps chosen by rows of ``bits``.

    Band j of trap r is the gate :func:`generate_trap` builds from row r.
    """
    bits = _check_choice(target, bits, ndim=2)
    n, m = target.n, target.m
    # layers 0 and m are the sandwich; layer j+1, band j's assignment, is S
    # on qubit q exactly when bit[column] ^ lower-of-pair is 1
    layers = np.empty((len(bits), m + 1, n), dtype=np.uint8)
    layers[:, [0, m]] = np.where(bits[:, -1:, None], cliffords.C_H,
                                 cliffords.C_I)
    col = 0
    for j in range(m - 1):
        pairs, unpaired = _band_layout(target, j)
        cols = np.empty(n, dtype=np.intp)
        lower = np.zeros(n, dtype=np.uint8)
        for lo, hi in pairs:
            cols[lo] = cols[hi] = col
            lower[lo] = 1
            col += 1
        for q in unpaired:
            cols[q] = col
            col += 1
        layers[:, j + 1] = np.where(bits[:, cols] ^ lower, cliffords.C_S,
                                    cliffords.C_H)
    return _COMPOSE[_DAGGER[layers[:, :-1]], layers[:, 1:]]


def sample_choice(target: Circuit, rng: np.random.Generator) -> np.ndarray:
    """Uniform over the Routine-2 choice space; deterministic given rng.

    Draws with the default integer dtype, one 32-bit word per bit in row
    order, so the stream does not depend on how the row splits into bands.
    """
    return rng.integers(0, 2, size=choice_width(target)).astype(np.uint8)


def choice_space_size(target: Circuit) -> int:
    return 2 ** choice_width(target)


def enumerate_choices(target: Circuit) -> np.ndarray:
    """Every choice row once, in deterministic order, as a 2-D array.

    Row c holds the bits of the code c: bit 0 is t, and the higher bits
    fill the bands from the last band to the first, each band's pair bits
    before its unpaired bits, so downstream exhaustive averages are
    reproducible.
    """
    total = choice_space_size(target)
    if total > ENUMERATION_CAP:
        raise ValueError(f"choice space of size {total} too large to "
                         f"enumerate (cap {ENUMERATION_CAP})")
    widths = [target.n - len(target.bands[j].cz_pairs)
              for j in range(target.m - 1)]
    # code bit of each row column: band by band, then t at bit 0
    shifts = [1 + sum(widths[j + 1:]) + k
              for j, w in enumerate(widths) for k in range(w)] + [0]
    codes = np.arange(total)
    rows = np.empty((total, len(shifts)), dtype=np.uint8)
    for col, shift in enumerate(shifts):
        rows[:, col] = codes >> shift & 1
    return rows
