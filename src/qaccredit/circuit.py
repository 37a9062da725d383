"""Band-structured circuit IR, valid by construction, and JSON round-trip.

A circuit acts on ``|+>^n``: each band is one round of single-qubit gates
followed by one round of disjoint cZ gates, the last band has no cZ gates,
and every qubit is finally measured in the X basis (outcome 0 <-> ``|+>``).
:class:`Circuit` rejects any other shape when it is built, so every circuit
that exists has this form.

The single-qubit gates are one read-only (m, n) uint8 array of indices into
the 24-element single-qubit Clifford group (exact, used by the trap/frame
machinery); the reserved index :data:`GENERIC` marks a gate given instead as
an arbitrary 2x2 unitary, stored by its (band, qubit) position. Global phase
is quotiented out everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional, Sequence

import numpy as np

from . import cliffords

UNITARITY_ATOL = 1e-12
GENERIC = cliffords.GROUP_ORDER  # gate index of a generic 2x2 unitary


def _unitary(u) -> np.ndarray:
    """``u`` as a read-only complex 2x2 copy, once it is unitary."""
    u = np.array(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("matrix gate must be 2x2")
    if not np.allclose(u @ u.conj().T, np.eye(2), atol=UNITARITY_ATOL, rtol=0):
        raise ValueError("matrix gate is not unitary within 1e-12")
    u.setflags(write=False)
    return u


def _violations(n: int, m: int, cz: tuple) -> list:
    """Every broken band-structure invariant, with its coordinates."""
    out = []
    if n < 1:
        out.append("qubit count must be >= 1")
    if m < 1:
        out.append("band count must be >= 1")
    for j, pairs in enumerate(cz):
        seen = set()
        for pair in pairs:
            if len(pair) != 2:
                out.append(f"band {j}: cZ pair {pair} is not two qubits")
                continue
            lo, hi = pair
            if lo == hi:
                out.append(f"band {j}: cZ pair ({lo},{hi}) is degenerate")
            for q in pair:
                if not 0 <= q < n:
                    out.append(f"band {j}: qubit {q} out of range")
                elif q in seen:
                    out.append(f"band {j}: qubit {q} in two pairs")
                seen.add(q)
    if cz and cz[-1]:
        out.append(f"band {m - 1}: final band must have no cZ")
    return out


@dataclass(frozen=True, eq=False)
class Circuit:
    """n qubits, m bands; input |+>^n, X-basis measurement after band m.

    ``gates[j, i]`` is the Clifford index of band j's gate on qubit i, or
    :data:`GENERIC` when ``matrices[(j, i)]`` holds it as a 2x2 unitary.
    ``cz[j]`` is band j's cZ layer as an ascending tuple of (lo, hi) pairs
    of distinct qubits in range, no qubit in two pairs of one band and no
    pair in the last band; a pair given twice is rejected, never merged
    (cZ.cZ = I). ``gates``, ``matrices`` and every matrix are read-only
    copies, so a circuit can key a cache.
    """

    n: int
    m: int
    gates: np.ndarray
    cz: tuple = None  # None: no cZ gate in any band
    matrices: dict = None

    def __post_init__(self):
        gates = np.array(self.gates)
        if gates.shape != (self.m, self.n):
            raise ValueError(f"gates must have shape ({self.m}, {self.n}), "
                             f"found {gates.shape}")
        # checked as Python ints: numpy reductions cost more on small arrays
        values = gates.ravel().tolist()
        if gates.dtype.kind not in "iu" or not all(
                0 <= c <= GENERIC for c in values):
            raise ValueError("gate indices must be integers in "
                             f"[0, {GENERIC}]")
        gates = gates.astype(np.uint8)
        gates.setflags(write=False)
        cz = ((),) * self.m if self.cz is None else self.cz
        if len(cz) != self.m:
            raise ValueError(f"expected {self.m} cZ layers, found {len(cz)}")
        cz = tuple(tuple(sorted(tuple(sorted(p)) for p in pairs))
                   for pairs in cz)
        violations = _violations(self.n, self.m, cz)
        if violations:
            raise ValueError("; ".join(violations))
        matrices = {(int(j), int(i)): _unitary(u)
                    for (j, i), u in (self.matrices or {}).items()}
        if set(matrices) != {divmod(k, self.n)
                             for k, c in enumerate(values) if c == GENERIC}:
            raise ValueError("matrices must be given exactly at the "
                             f"GENERIC ({GENERIC}) gates")
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "cz", cz)
        object.__setattr__(self, "matrices", MappingProxyType(matrices))

    @property
    def all_clifford(self) -> bool:
        return not self.matrices

    def unitary(self, j: int, i: int) -> np.ndarray:
        """Read-only 2x2 matrix of band j's gate on qubit i."""
        c = self.gates[j, i]
        return self.matrices[j, i] if c == GENERIC else cliffords.MATRICES[c]

    def _key(self) -> tuple:
        return (self.n, self.m, self.cz, self.gates.tobytes(),
                tuple(sorted((at, u.tobytes())
                             for at, u in self.matrices.items())))

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


class CircuitParseError(ValueError):
    """Schema or invariant violation, with a JSON path to the offender."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _gate_to_json(circuit: Circuit, j: int, i: int) -> dict:
    c = int(circuit.gates[j, i])
    if c != GENERIC:
        return {"clifford": cliffords.INDEX_TO_NAME.get(c, f"C{c}")}
    return {"matrix": [[[float(v.real), float(v.imag)] for v in row]
                       for row in circuit.matrices[j, i]]}


def _gate_from_json(obj, path: str):
    """(Clifford index, None) or (GENERIC, unitary) of one gate object."""
    if not isinstance(obj, dict):
        raise CircuitParseError(path, "gate must be an object")
    if "clifford" in obj:
        name = obj["clifford"]
        if name in cliffords.NAME_TO_INDEX:
            return cliffords.NAME_TO_INDEX[name], None
        if isinstance(name, str) and name.startswith("C"):
            try:
                idx = int(name[1:])
            except ValueError:
                raise CircuitParseError(path, f"unknown Clifford name {name!r}")
            if not 0 <= idx < cliffords.GROUP_ORDER:
                raise CircuitParseError(path, f"Clifford index {idx} not in [0, 24)")
            return idx, None
        raise CircuitParseError(path, f"unknown Clifford name {name!r}")
    if "matrix" in obj:
        rows = obj["matrix"]
        try:
            m = np.array([[complex(re, im) for re, im in row] for row in rows])
        except (TypeError, ValueError):
            raise CircuitParseError(path, "matrix must be [[re,im] x2] x2")
        try:
            return GENERIC, _unitary(m)
        except ValueError as exc:
            raise CircuitParseError(path, str(exc))
    raise CircuitParseError(path, "gate needs 'clifford' or 'matrix'")


def parse(json_text: str) -> Circuit:
    """Parse a circuit document; errors carry a JSON path."""
    try:
        doc = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise CircuitParseError("$", f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise CircuitParseError("$", "document must be an object")
    for key in ("n", "m", "bands"):
        if key not in doc:
            raise CircuitParseError(f"$.{key}", "missing required key")
    n, m = doc["n"], doc["m"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise CircuitParseError("$.n", "must be a positive integer")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise CircuitParseError("$.m", "must be a positive integer")
    if not isinstance(doc["bands"], list):
        raise CircuitParseError("$.bands", "must be a list")
    if len(doc["bands"]) != m:
        raise CircuitParseError("$.bands", f"expected {m} bands, "
                                f"found {len(doc['bands'])}")
    gates = np.empty((m, n), dtype=np.uint8)
    cz, matrices = [], {}
    for j, bobj in enumerate(doc["bands"]):
        bpath = f"$.bands[{j}]"
        if not isinstance(bobj, dict):
            raise CircuitParseError(bpath, "band must be an object")
        if "singles" not in bobj:
            raise CircuitParseError(f"{bpath}.singles", "missing required key")
        singles = bobj["singles"]
        if not isinstance(singles, list) or len(singles) != n:
            raise CircuitParseError(f"{bpath}.singles", "expected a list of "
                                    f"{n} single-qubit gates")
        for i, g in enumerate(singles):
            gates[j, i], u = _gate_from_json(g, f"{bpath}.singles[{i}]")
            if u is not None:
                matrices[j, i] = u
        pairs = []
        for k, pr in enumerate(bobj.get("cz", [])):
            ppath = f"{bpath}.cz[{k}]"
            if (not isinstance(pr, (list, tuple)) or len(pr) != 2
                    or not all(isinstance(q, int) for q in pr)):
                raise CircuitParseError(ppath, "cZ pair must be [int, int]")
            pairs.append(tuple(pr))
        cz.append(pairs)
    try:
        return Circuit(n, m, gates, cz, matrices)
    except ValueError as exc:
        raise CircuitParseError("$", str(exc))


def serialize(circuit: Circuit) -> str:
    """Canonical JSON: bands ascending, pairs as sorted [lo, hi]."""
    doc = {
        "n": circuit.n,
        "m": circuit.m,
        "bands": [
            {
                "singles": [_gate_to_json(circuit, j, i)
                            for i in range(circuit.n)],
                "cz": [list(p) for p in pairs],
            }
            for j, pairs in enumerate(circuit.cz)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def identity_circuit(n: int, m: int,
                     cz_layout: Optional[Sequence] = None) -> Circuit:
    """All-identity gates on an optional cZ topology (last band forced empty)."""
    cz = [() if cz_layout is None or j == m - 1 else cz_layout[j]
          for j in range(m)]
    gates = np.full((m, n), cliffords.C_I, dtype=np.uint8)
    return Circuit(n, m, gates, cz)
