"""Band-structured circuit IR: validation, composition, JSON round-trip.

A circuit acts on ``|+>^n``: each band is one round of single-qubit gates
followed by one round of disjoint cZ gates, the last band has no cZ gates,
and every qubit is finally measured in the X basis (outcome 0 <-> ``|+>``).

Gates carry a dual representation: an index into the 24-element single-qubit
Clifford group (exact, used by the trap/frame machinery) or an arbitrary 2x2
unitary matrix. Global phase is quotiented out everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import cliffords

UNITARITY_ATOL = 1e-12


@dataclass(frozen=True)
class Gate:
    """Single-qubit gate: Clifford index or generic 2x2 unitary."""

    clifford: Optional[int] = None
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.clifford is None) == (self.matrix is None):
            raise ValueError("gate needs exactly one of clifford index / matrix")
        if self.clifford is not None:
            if not 0 <= self.clifford < cliffords.GROUP_ORDER:
                raise ValueError(f"Clifford index {self.clifford} not in [0, 24)")
        else:
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (2, 2):
                raise ValueError("matrix gate must be 2x2")
            if not np.allclose(m @ m.conj().T, np.eye(2), atol=UNITARITY_ATOL, rtol=0):
                raise ValueError("matrix gate is not unitary within 1e-12")
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)

    @property
    def is_clifford(self) -> bool:
        return self.clifford is not None

    def to_matrix(self) -> np.ndarray:
        if self.clifford is not None:
            return cliffords.matrix(self.clifford)
        return np.array(self.matrix)

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        if self.clifford is not None or other.clifford is not None:
            return self.clifford == other.clifford
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        if self.clifford is not None:
            return hash(("c", self.clifford))
        return hash(("m", self.matrix.tobytes()))


def clifford_gate(name_or_index) -> Gate:
    """Gate from a Clifford name ('H', 'S', ...) or group index."""
    if isinstance(name_or_index, str):
        return Gate(clifford=cliffords.NAME_TO_INDEX[name_or_index])
    return Gate(clifford=int(name_or_index))


IDENTITY_GATE = Gate(clifford=cliffords.C_I)


@dataclass(frozen=True)
class Band:
    """One round of single-qubit gates plus one round of disjoint cZ pairs.

    ``cz_pairs`` is stored as an ascending tuple of (lo, hi) pairs. A pair
    given twice is kept, so that ``validate`` reports it rather than the
    band silently dropping one of the two gates.
    """

    singles: tuple  # tuple of Gate, one per qubit
    cz_pairs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "singles", tuple(self.singles))
        pairs = tuple(sorted(tuple(sorted(p)) for p in self.cz_pairs))
        object.__setattr__(self, "cz_pairs", pairs)


@dataclass(frozen=True)
class Circuit:
    """n qubits, m bands; input |+>^n, X-basis measurement after band m."""

    n: int
    m: int
    bands: tuple

    def __post_init__(self):
        object.__setattr__(self, "bands", tuple(self.bands))

    @property
    def all_clifford(self) -> bool:
        return all(g.is_clifford for b in self.bands for g in b.singles)


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(circuit: Circuit) -> ValidationReport:
    """Check every structural invariant; violations carry coordinates."""
    report = ValidationReport()
    add = report.violations.append
    if circuit.n < 1:
        add("qubit count must be >= 1")
    if circuit.m < 1:
        add("band count must be >= 1")
    if len(circuit.bands) != circuit.m:
        add(f"expected {circuit.m} bands, found {len(circuit.bands)}")
    for j, band in enumerate(circuit.bands):
        if len(band.singles) != circuit.n:
            add(f"band {j}: expected {circuit.n} single-qubit gates, "
                f"found {len(band.singles)}")
        seen = set()
        for pair in band.cz_pairs:
            lo, hi = pair
            if lo == hi:
                add(f"band {j}: cZ pair ({lo},{hi}) is degenerate")
            for q in pair:
                if not 0 <= q < circuit.n:
                    add(f"band {j}: qubit {q} out of range")
                elif q in seen:
                    add(f"band {j}: qubit {q} in two pairs")
                seen.add(q)
        if j == circuit.m - 1 and band.cz_pairs:
            add("final band must have no cZ")
    return report


def compose_singles(a: Gate, b: Gate) -> Gate:
    """The gate equal to applying a, then b."""
    if a.is_clifford and b.is_clifford:
        return Gate(clifford=cliffords.COMPOSE[a.clifford][b.clifford])
    return Gate(matrix=b.to_matrix() @ a.to_matrix())


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


class CircuitParseError(ValueError):
    """Schema or invariant violation, with a JSON path to the offender."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _gate_to_json(gate: Gate) -> dict:
    if gate.clifford is not None:
        name = cliffords.INDEX_TO_NAME.get(gate.clifford)
        return {"clifford": name if name is not None else f"C{gate.clifford}"}
    return {"matrix": [[[float(v.real), float(v.imag)] for v in row]
                       for row in gate.matrix]}


def _gate_from_json(obj, path: str) -> Gate:
    if not isinstance(obj, dict):
        raise CircuitParseError(path, "gate must be an object")
    if "clifford" in obj:
        name = obj["clifford"]
        if name in cliffords.NAME_TO_INDEX:
            return Gate(clifford=cliffords.NAME_TO_INDEX[name])
        if isinstance(name, str) and name.startswith("C"):
            try:
                idx = int(name[1:])
            except ValueError:
                raise CircuitParseError(path, f"unknown Clifford name {name!r}")
            if not 0 <= idx < cliffords.GROUP_ORDER:
                raise CircuitParseError(path, f"Clifford index {idx} not in [0, 24)")
            return Gate(clifford=idx)
        raise CircuitParseError(path, f"unknown Clifford name {name!r}")
    if "matrix" in obj:
        rows = obj["matrix"]
        try:
            m = np.array([[complex(re, im) for re, im in row] for row in rows])
        except (TypeError, ValueError):
            raise CircuitParseError(path, "matrix must be [[re,im] x2] x2")
        try:
            return Gate(matrix=m)
        except ValueError as exc:
            raise CircuitParseError(path, str(exc))
    raise CircuitParseError(path, "gate needs 'clifford' or 'matrix'")


def parse(json_text: str) -> Circuit:
    """Parse and validate a circuit document; errors carry a JSON path."""
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
    bands = []
    for j, bobj in enumerate(doc["bands"]):
        bpath = f"$.bands[{j}]"
        if not isinstance(bobj, dict):
            raise CircuitParseError(bpath, "band must be an object")
        if "singles" not in bobj:
            raise CircuitParseError(f"{bpath}.singles", "missing required key")
        singles = [
            _gate_from_json(g, f"{bpath}.singles[{i}]")
            for i, g in enumerate(bobj["singles"])
        ]
        pairs = []
        for k, pr in enumerate(bobj.get("cz", [])):
            ppath = f"{bpath}.cz[{k}]"
            if (not isinstance(pr, (list, tuple)) or len(pr) != 2
                    or not all(isinstance(q, int) for q in pr)):
                raise CircuitParseError(ppath, "cZ pair must be [int, int]")
            pairs.append(tuple(pr))
        bands.append(Band(singles=tuple(singles), cz_pairs=pairs))
    circ = Circuit(n=n, m=m, bands=tuple(bands))
    report = validate(circ)
    if not report.ok:
        raise CircuitParseError("$", "; ".join(report.violations))
    return circ


def serialize(circuit: Circuit) -> str:
    """Canonical JSON: bands ascending, pairs as sorted [lo, hi]."""
    doc = {
        "n": circuit.n,
        "m": circuit.m,
        "bands": [
            {
                "singles": [_gate_to_json(g) for g in band.singles],
                "cz": [list(p) for p in band.cz_pairs],
            }
            for band in circuit.bands
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def identity_circuit(n: int, m: int,
                     cz_layout: Optional[Sequence] = None) -> Circuit:
    """All-identity gates on an optional cZ topology (last band forced empty)."""
    bands = []
    for j in range(m):
        pairs = () if (cz_layout is None or j == m - 1) else cz_layout[j]
        bands.append(Band(singles=(IDENTITY_GATE,) * n, cz_pairs=pairs))
    return Circuit(n=n, m=m, bands=tuple(bands))
