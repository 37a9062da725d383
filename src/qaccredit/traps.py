"""Trap circuits: random H/S dressings of the target's cZ topology.

For each non-final band, every cZ pair gets either (S on lo, H on hi) or
(H on lo, S on hi) — the orientation turning that cZ into a cX — and every
unpaired qubit gets H or S. The next band prepends the inverses, so the whole
trap telescopes to the identity on ``|+>^n`` and noiselessly outputs all
zeros. A global bit t optionally sandwiches the circuit in Hadamard rounds,
swapping which error species the trap is sensitive to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import cliffords
from .circuit import Band, Circuit, Gate, compose_singles

DEFAULT_ENUMERATION_CAP = 2 ** 24

_H = Gate(clifford=cliffords.C_H)
_S = Gate(clifford=cliffords.C_S)
_I = Gate(clifford=cliffords.C_I)


@dataclass(frozen=True)
class TrapChoice:
    """Random bits defining one trap circuit on a fixed topology.

    ``pair_bits[j]`` has one bit per sorted cZ pair of band j (0: S on the
    lower qubit, H on the higher; 1: swapped) and ``single_bits[j]`` one bit
    per unpaired qubit in ascending order (0: H, 1: S), for j in [0, m-1).
    ``t`` is the global Hadamard-sandwich bit.
    """

    pair_bits: tuple  # tuple over bands of tuple of bits
    single_bits: tuple
    t: int

    def to_json(self) -> str:
        return json.dumps({
            "pair_bits": [list(b) for b in self.pair_bits],
            "single_bits": [list(b) for b in self.single_bits],
            "t": self.t,
        })

    @classmethod
    def from_json(cls, text: str) -> "TrapChoice":
        doc = json.loads(text)
        return cls(
            pair_bits=tuple(tuple(b) for b in doc["pair_bits"]),
            single_bits=tuple(tuple(b) for b in doc["single_bits"]),
            t=int(doc["t"]),
        )


def _band_layout(target: Circuit, j: int):
    """Sorted cZ pairs and ascending unpaired qubits of band j."""
    pairs = target.bands[j].sorted_pairs()
    in_pair = {q for p in pairs for q in p}
    unpaired = [q for q in range(target.n) if q not in in_pair]
    return pairs, unpaired


def _check_choice(target: Circuit, choice: TrapChoice):
    if target.m < 2:
        raise ValueError("trap generation needs at least 2 bands")
    if len(choice.pair_bits) != target.m - 1 \
            or len(choice.single_bits) != target.m - 1:
        raise ValueError("choice band count does not match topology")
    for j in range(target.m - 1):
        pairs, unpaired = _band_layout(target, j)
        if len(choice.pair_bits[j]) != len(pairs):
            raise ValueError(f"band {j}: pair bit count mismatch")
        if len(choice.single_bits[j]) != len(unpaired):
            raise ValueError(f"band {j}: unpaired bit count mismatch")
    if choice.t not in (0, 1):
        raise ValueError("t must be a bit")


def _band_gates(target: Circuit, choice: TrapChoice, j: int):
    """The fresh H/S assignment V_j of band j (before undo/sandwich)."""
    pairs, unpaired = _band_layout(target, j)
    gates = [_I] * target.n
    for bit, (lo, hi) in zip(choice.pair_bits[j], pairs):
        if bit == 0:
            gates[lo], gates[hi] = _S, _H
        else:
            gates[lo], gates[hi] = _H, _S
    for bit, q in zip(choice.single_bits[j], unpaired):
        gates[q] = _S if bit else _H
    return gates


def generate_trap(target: Circuit, choice: TrapChoice) -> Circuit:
    """Build the trap circuit for one random choice.

    Band j applies V_j after undoing V_{j-1}; band m applies only the undo.
    With t=1 an extra Hadamard round is composed before band 1's assignment
    and after band m's undo, each pair (i, j) recompiled into one Clifford.
    """
    _check_choice(target, choice)
    n, m = target.n, target.m
    sandwich = _H if choice.t else _I
    assignments = [_band_gates(target, choice, j) for j in range(m - 1)]
    bands = []
    for j in range(m):
        singles = []
        for i in range(n):
            g = _I
            if j == 0:
                g = compose_singles(sandwich, assignments[0][i])
            else:
                undo = Gate(clifford=cliffords.DAGGER[
                    assignments[j - 1][i].clifford])
                if j < m - 1:
                    g = compose_singles(undo, assignments[j][i])
                else:
                    g = compose_singles(undo, sandwich)
            singles.append(g)
        bands.append(Band(singles=tuple(singles),
                          cz_pairs=target.bands[j].cz_pairs))
    return Circuit(n=n, m=m, bands=tuple(bands))


_COMPOSE = np.array(cliffords.COMPOSE, dtype=np.uint8)
_DAGGER = np.array(cliffords.DAGGER, dtype=np.uint8)


def choice_width(target: Circuit) -> int:
    """Bits in one flat trap choice: every pair and unpaired bit, then t."""
    return 1 + sum(target.n - len(target.bands[j].cz_pairs)
                   for j in range(target.m - 1))


def trap_cliffords(target: Circuit, bits: np.ndarray) -> np.ndarray:
    """Clifford indices (R, m, n) of the R traps chosen by rows of ``bits``.

    Row r is one flat choice of :func:`choice_width` bits in TrapChoice's
    order: band by band the pair bits then the unpaired bits, and t last.
    Band j of trap r is the gate :func:`generate_trap` builds from the
    matching TrapChoice.
    """
    if target.m < 2:
        raise ValueError("trap generation needs at least 2 bands")
    n, m = target.n, target.m
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2 or bits.shape[1] != choice_width(target):
        raise ValueError("choice bits must have shape (R, choice_width)")
    # V_j on qubit q is S exactly when bit[column] ^ lower-of-pair is 1
    assign = np.empty((len(bits), m - 1, n), dtype=np.uint8)
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
        assign[:, j] = np.where(bits[:, cols] ^ lower, cliffords.C_S,
                                cliffords.C_H)
    sandwich = np.where(bits[:, -1:], cliffords.C_H, cliffords.C_I)
    undo = _DAGGER[assign]
    gates = np.empty((len(bits), m, n), dtype=np.uint8)
    gates[:, 0] = _COMPOSE[sandwich, assign[:, 0]]
    gates[:, 1:m - 1] = _COMPOSE[undo[:, :-1], assign[:, 1:]]
    gates[:, m - 1] = _COMPOSE[undo[:, -1], sandwich]
    return gates


def sample_choice(target: Circuit, rng: np.random.Generator) -> TrapChoice:
    """Uniform over the Routine-2 choice space; deterministic given rng."""
    pair_bits, single_bits = [], []
    for j in range(target.m - 1):
        pairs, unpaired = _band_layout(target, j)
        pair_bits.append(tuple(int(b) for b in
                               rng.integers(0, 2, size=len(pairs))))
        single_bits.append(tuple(int(b) for b in
                                 rng.integers(0, 2, size=len(unpaired))))
    return TrapChoice(pair_bits=tuple(pair_bits),
                      single_bits=tuple(single_bits),
                      t=int(rng.integers(0, 2)))


def choice_space_size(target: Circuit) -> int:
    total = 2  # the global t bit
    for j in range(target.m - 1):
        pairs, unpaired = _band_layout(target, j)
        total <<= len(pairs) + len(unpaired)
    return total


def enumerate_choices(target: Circuit,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[TrapChoice]:
    """Yield every TrapChoice once, in deterministic order.

    Order is band-major with pair bits before unpaired bits and the t bit
    varying fastest, so downstream exhaustive averages are reproducible.
    """
    total = choice_space_size(target)
    if total > cap:
        raise ValueError(
            f"choice space of size {total} too large to enumerate (cap {cap})")
    layouts = [_band_layout(target, j) for j in range(target.m - 1)]
    widths = [len(pairs) + len(unpaired) for pairs, unpaired in layouts]

    def build(code: int) -> TrapChoice:
        t = code & 1
        code >>= 1
        pair_bits, single_bits = [], []
        # highest band consumes the lowest remaining bits; reverse at the end
        for (pairs, unpaired), w in zip(reversed(layouts), reversed(widths)):
            bits = [(code >> k) & 1 for k in range(w)]
            code >>= w
            pair_bits.append(tuple(bits[: len(pairs)]))
            single_bits.append(tuple(bits[len(pairs):]))
        return TrapChoice(pair_bits=tuple(reversed(pair_bits)),
                          single_bits=tuple(reversed(single_bits)), t=t)

    for code in range(total):
        yield build(code)
