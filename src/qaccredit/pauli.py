"""Symplectic representation of n-qubit Pauli operators.

A PauliString is ``i^sign * prod_q X_q^{x_q} Z_q^{z_q}`` with the per-qubit
factor ordered X-then-Z. The sign is tracked mod 4 so products are exact;
measurement semantics only ever look at the z bits (the X-basis flip mask).

Conjugation is supported through exactly the gates the protocol needs: any
single-qubit Clifford (by index into :mod:`qaccredit.cliffords`) and cZ.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cliffords

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}
# X^1 Z^1 = -iY, so writing the qubit as "Y" owes a factor of i per Y.
_SIGN_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PREFIX_SIGN = {v: k for k, v in _SIGN_PREFIX.items()}
# _IMAGES[c][x | z << 1] = (x', z', sign): c X^x Z^z c† = i^sign X^x' Z^z'
_IMAGES = cliffords.IMAGES.tolist()


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator ``i^sign * X^{x_bits} Z^{z_bits}``."""

    n: int
    x_bits: int = 0
    z_bits: int = 0
    sign: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("bit mask exceeds qubit count")
        if not 0 <= self.sign < 4:
            object.__setattr__(self, "sign", self.sign % 4)

    def qubit(self, q: int) -> str:
        """Letter (I/X/Y/Z) on qubit q, phase dropped."""
        return _BITS_TO_CHAR[(self.x_bits >> q) & 1, (self.z_bits >> q) & 1]


def from_text(text: str) -> PauliString:
    """Parse e.g. ``"XIZY"`` or ``"-iXY"`` (qubit 0 is the leftmost letter)."""
    sign = 0
    for prefix in ("+i", "-i", "+", "-"):
        if text.startswith(prefix):
            sign = _PREFIX_SIGN[prefix]
            text = text[len(prefix):]
            break
    x = z = 0
    for q, ch in enumerate(text):
        if ch not in _CHAR_TO_BITS:
            raise ValueError(f"bad Pauli letter {ch!r}")
        xb, zb = _CHAR_TO_BITS[ch]
        x |= xb << q
        z |= zb << q
        if xb and zb:
            # letter Y = i * (XZ); account for the convention difference
            sign = (sign + 1) % 4
    return PauliString(len(text), x, z, sign)


def to_text(p: PauliString) -> str:
    """Inverse of :func:`from_text`; sign prefix omitted when '+'."""
    sign = p.sign
    chars = []
    for q in range(p.n):
        xb = (p.x_bits >> q) & 1
        zb = (p.z_bits >> q) & 1
        chars.append(_BITS_TO_CHAR[xb, zb])
        if xb and zb:
            sign = (sign - 1) % 4
    prefix = _SIGN_PREFIX[sign]
    return ("" if prefix == "+" else prefix) + "".join(chars)


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Operator product a·b with exact sign mod 4."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    # Z^{a.z} X^{b.x} = (-1)^{|a.z & b.x|} X^{b.x} Z^{a.z}
    swaps = bin(a.z_bits & b.x_bits).count("1")
    return PauliString(
        a.n,
        a.x_bits ^ b.x_bits,
        a.z_bits ^ b.z_bits,
        (a.sign + b.sign + 2 * swaps) % 4,
    )


def conj_single(p: PauliString, gate: int, qubit: int) -> PauliString:
    """Conjugate by a single-qubit Clifford: returns g·p·g†."""
    if not 0 <= qubit < p.n:
        raise IndexError("qubit index out of range")
    if not 0 <= gate < cliffords.GROUP_ORDER:
        raise ValueError("not a Clifford index")
    code = (p.x_bits >> qubit) & 1 | ((p.z_bits >> qubit) & 1) << 1
    if not code:
        return p
    lx, lz, ls = _IMAGES[gate][code]
    x = (p.x_bits & ~(1 << qubit)) | (lx << qubit)
    z = (p.z_bits & ~(1 << qubit)) | (lz << qubit)
    return PauliString(p.n, x, z, (p.sign + ls) % 4)


def conj_cz(p: PauliString, pair: tuple) -> PauliString:
    """Conjugate through one cZ gate: X_i -> X_i Z_j, Z_i -> Z_i."""
    i, j = pair
    if i == j:
        raise ValueError("cZ needs two distinct qubits")
    if not (0 <= i < p.n and 0 <= j < p.n):
        raise IndexError("qubit index out of range")
    xi = (p.x_bits >> i) & 1
    xj = (p.x_bits >> j) & 1
    z = p.z_bits ^ (xi << j) ^ (xj << i)
    return PauliString(p.n, p.x_bits, z, (p.sign + 2 * (xi & xj)) % 4)


def z_mask(p: PauliString) -> int:
    """Mask of qubits where p acts as Z or Y: the X-measurement flip pattern."""
    return p.z_bits
