"""The 24-element single-qubit Clifford group as composition/conjugation tables.

The group is generated from H and S and canonicalized modulo global phase,
so every element has a stable integer index in [0, 24). Tables built here:

* ``MATRICES[c]``: canonical 2x2 matrix of index c, one (24, 2, 2) array
* ``COMPOSE[a, b]``: index of the gate "apply a, then b", a (24, 24) array
* ``DAGGER[a]``: index of the inverse, a (24,) array
* ``IMG_X[c]`` / ``IMG_Z[c]``: conjugation images ``c X c†`` and ``c Z c†``
  as ``(x, z, sign)`` triples, where the operator is ``i^sign X^x Z^z``

``MATRICES``, ``COMPOSE`` and ``DAGGER`` are read-only numpy arrays, the
index tables of dtype uint8.
"""

from __future__ import annotations

import numpy as np

_SQ2 = 1.0 / np.sqrt(2.0)

_GEN_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "Sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}

CLIFFORD_NAMES = ("I", "X", "Y", "Z", "H", "S", "Sdg")


def _canonicalize(u: np.ndarray) -> np.ndarray:
    """Strip the global phase: make the first nonzero entry real positive."""
    flat = u.ravel()
    k = int(np.argmax(np.abs(flat) > 1e-9))
    phase = flat[k] / abs(flat[k])
    return u / phase


def _key(u: np.ndarray) -> bytes:
    rounded = np.round(_canonicalize(u), 9) + 0.0  # +0.0 normalizes -0.0
    return rounded.tobytes()


def _build_group():
    # BFS from I with generators H, S; deterministic order gives stable indices.
    # Seed with the named gates so their indices are the smallest.
    mats = []
    index = {}
    for name in CLIFFORD_NAMES:
        m = _canonicalize(_GEN_MATRICES[name])
        k = _key(m)
        if k not in index:
            index[k] = len(mats)
            mats.append(m)
    frontier = list(mats)
    gens = [_GEN_MATRICES["H"], _GEN_MATRICES["S"]]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                c = _canonicalize(g @ m)
                k = _key(c)
                if k not in index:
                    index[k] = len(mats)
                    mats.append(c)
                    nxt.append(c)
        frontier = nxt
    assert len(mats) == 24
    mats = np.array(mats)
    mats.setflags(write=False)
    return mats, index


MATRICES, _INDEX = _build_group()
GROUP_ORDER = 24

NAME_TO_INDEX = {name: _INDEX[_key(_GEN_MATRICES[name])] for name in CLIFFORD_NAMES}
INDEX_TO_NAME = {v: k for k, v in NAME_TO_INDEX.items()}


def _table(indices) -> np.ndarray:
    """Nested lists of group indices as a read-only uint8 array."""
    table = np.array(indices, dtype=np.uint8)
    table.setflags(write=False)
    return table


# COMPOSE[a, b] = "apply a first, then b"
COMPOSE = _table([[_INDEX[_key(MATRICES[b] @ MATRICES[a])]
                   for b in range(GROUP_ORDER)] for a in range(GROUP_ORDER)])
DAGGER = _table([_INDEX[_key(MATRICES[c].conj().T)]
                 for c in range(GROUP_ORDER)])


def _match_pauli(m: np.ndarray):
    """Express m as i^sign X^x Z^z; m must be a Pauli up to i^k phase."""
    px = _GEN_MATRICES["X"]
    pz = _GEN_MATRICES["Z"]
    for x in (0, 1):
        for z in (0, 1):
            base = (px if x else np.eye(2)) @ (pz if z else np.eye(2))
            ratio = m @ np.linalg.inv(base)
            if np.allclose(ratio, ratio[0, 0] * np.eye(2), atol=1e-9):
                phase = ratio[0, 0]
                for s in range(4):
                    if abs(phase - 1j**s) < 1e-9:
                        return (x, z, s)
    raise ValueError("matrix is not a Pauli up to phase")


def _build_images():
    img_x, img_z = [], []
    for c in range(GROUP_ORDER):
        u = MATRICES[c]
        img_x.append(_match_pauli(u @ _GEN_MATRICES["X"] @ u.conj().T))
        img_z.append(_match_pauli(u @ _GEN_MATRICES["Z"] @ u.conj().T))
    return img_x, img_z


IMG_X, IMG_Z = _build_images()

# Frequently used indices.
C_I = NAME_TO_INDEX["I"]
C_X = NAME_TO_INDEX["X"]
C_Y = NAME_TO_INDEX["Y"]
C_Z = NAME_TO_INDEX["Z"]
C_H = NAME_TO_INDEX["H"]
C_S = NAME_TO_INDEX["S"]
C_SDG = NAME_TO_INDEX["Sdg"]

# PAULI_INDEX[x, z]: index of the single-qubit Pauli X^x Z^z (phase
# dropped; XZ = -iY has Y's index)
PAULI_INDEX = _table([[C_I, C_Z], [C_X, C_Y]])
