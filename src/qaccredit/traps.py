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

from functools import lru_cache

import numpy as np

from . import cliffords
from .circuit import Circuit

ENUMERATION_CAP = 2 ** 24

# trap_cliffords' layer codes 0, 1, 2 are the gates I, H, S; _UNDO_THEN[3a +
# b] is the band gate "undo layer gate a, then apply layer gate b"
_LAYER = np.array([cliffords.C_I, cliffords.C_H, cliffords.C_S])
_UNDO_THEN = cliffords.COMPOSE[cliffords.DAGGER[_LAYER][:, None],
                               _LAYER].reshape(-1)


def _unpaired(n: int, pairs: tuple) -> list:
    """Ascending qubits of n in no cZ pair of a band."""
    in_pair = {q for p in pairs for q in p}
    return [q for q in range(n) if q not in in_pair]


def choice_width(target: Circuit) -> int:
    """Bits in one trap choice: every pair and unpaired bit, then t. A
    circuit of fewer than 2 bands has no traps (ValueError)."""
    if target.m < 2:
        raise ValueError("trap generation needs at least 2 bands")
    return 1 + sum(target.n - len(pairs) for pairs in target.cz[:-1])


def _check_choice(target: Circuit, bits, ndim: int) -> np.ndarray:
    """``bits`` as uint8, once it is an ndim-array of 0/1 choice rows."""
    bits = np.asarray(bits)
    if bits.shape[-1:] != (choice_width(target),) or bits.ndim != ndim:
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
    closes it. This is :func:`_trap_gates` at one row.
    """
    choice = _check_choice(target, choice, ndim=1)
    return Circuit(target.n, target.m, _trap_gates(target, choice[None])[0],
                   target.cz)


def _trap_gates(target: Circuit, choices: np.ndarray) -> np.ndarray:
    """:func:`generate_trap`'s gate indices (C, m, n) of C checked rows
    (C, choice_width), layer by layer from ``target.cz``: one vector pick
    per cZ pair and per unpaired qubit over every row, then one gather of
    the band gates."""
    n, m = target.n, target.m
    h, s = cliffords.C_H, cliffords.C_S
    layers = np.empty((len(choices), m + 1, n), dtype=np.uint8)
    layers[:, 0] = layers[:, m] = np.where(choices[:, -1:], h, cliffords.C_I)
    bits = iter(choices[:, :-1].T.astype(bool))
    for j in range(m - 1):
        for lo, hi in target.cz[j]:
            bit = next(bits)
            layers[:, j + 1, lo] = np.where(bit, h, s)
            layers[:, j + 1, hi] = np.where(bit, s, h)
        for q in _unpaired(n, target.cz[j]):
            layers[:, j + 1, q] = np.where(next(bits), s, h)
    return cliffords.COMPOSE[cliffords.DAGGER[layers[:, :-1]], layers[:, 1:]]


def trap_cliffords(target: Circuit, bits: np.ndarray) -> np.ndarray:
    """Clifford indices (R, m, n) of the R traps chosen by rows of ``bits``,
    a view of a band-major (m, R, n) array.

    Band j of trap r is the gate :func:`generate_trap` builds from row r.
    """
    bits = _check_choice(target, bits, ndim=2)
    n, m = target.n, target.m
    # layers 0 and m are the sandwich, H (code 1) when t is 1; layer j+1,
    # band j's assignment, is S (code 2) on qubit q exactly when
    # bit[cols[j, q]] ^ lower[j, q] is 1, else H. Layers and gates are
    # band-major, so each band's take reads and writes one block and its
    # index copy holds one band
    cols, lower = _layer_columns(n, target.cz)
    layers = np.empty((m + 1, len(bits), n), dtype=np.uint8)
    layers[0] = layers[m] = bits[:, -1:]
    np.add(bits[:, cols].transpose(1, 0, 2) ^ lower[:, None], 1,
           out=layers[1:m])
    gates = layers[:-1] * 3
    gates += layers[1:]
    for band in gates:
        band[...] = _UNDO_THEN.take(band)
    return gates.transpose(1, 0, 2)


@lru_cache(maxsize=64)
def _layer_columns(n: int, cz: tuple) -> tuple:
    """(m-1, n) arrays: the choice column each qubit of layer j+1 reads,
    and 1 where the qubit is the lower one of a cZ pair."""
    cols = np.empty((len(cz) - 1, n), dtype=np.intp)
    lower = np.zeros((len(cz) - 1, n), dtype=np.uint8)
    col = 0
    for j, pairs in enumerate(cz[:-1]):
        for lo, hi in pairs:
            cols[j, lo] = cols[j, hi] = col
            lower[j, lo] = 1
            col += 1
        for q in _unpaired(n, pairs):
            cols[j, q] = col
            col += 1
    cols.setflags(write=False)
    lower.setflags(write=False)
    return cols, lower


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
    widths = [target.n - len(pairs) for pairs in target.cz[:-1]]
    # code bit of each row column: band by band, then t at bit 0
    shifts = [1 + sum(widths[j + 1:]) + k
              for j, w in enumerate(widths) for k in range(w)] + [0]
    codes = np.arange(total)
    rows = np.empty((total, len(shifts)), dtype=np.uint8)
    for col, shift in enumerate(shifts):
        rows[:, col] = codes >> shift & 1
    return rows
