"""The 24-element single-qubit Clifford group as composition/conjugation tables.

The group is generated from H and S and canonicalized modulo global phase,
so every element has a stable integer index in [0, 24). Tables built here:

* ``MATRICES[c]``: canonical 2x2 matrix of index c, one (24, 2, 2) array
* ``COMPOSE[a, b]``: index of the gate "apply a, then b", a (24, 24) array
* ``DAGGER[a]``: index of the inverse, a (24,) array
* ``PAULI_INDEX[x, z]``: index of the Pauli X^x Z^z, a (2, 2) array
* ``IMAGES[c, x | z << 1]``: the signed image ``(x', z', sign)`` of
  X^x Z^z, so that ``c X^x Z^z c† = i^sign X^x' Z^z'``, a (24, 4, 3) array
  whose code order is the Pauli frame's 2-bit code
* ``IMG_X[c]`` / ``IMG_Z[c]``: rows 1 and 2 of ``IMAGES[c]`` as tuples

Two 2x2 unitaries are equal up to phase exactly when |tr(u†c)| = 2. The
group is found by a breadth-first search with that membership test, and
every index table is that overlap against all of ``MATRICES`` at once; the
images are the overlaps of the conjugated Paulis against the four X^x Z^z.
The arrays are read-only, the index tables of dtype uint8.
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

# _PAULIS[x | z << 1] = X^x Z^z
_PAULIS = np.array([_GEN_MATRICES["I"], _GEN_MATRICES["X"], _GEN_MATRICES["Z"],
                    _GEN_MATRICES["X"] @ _GEN_MATRICES["Z"]])


def _canonicalize(u: np.ndarray) -> np.ndarray:
    """Strip the global phase: make the first nonzero entry real positive."""
    flat = u.ravel()
    k = int(np.argmax(np.abs(flat) > 1e-9))
    phase = flat[k] / abs(flat[k])
    return u / phase


def _build_group() -> np.ndarray:
    # BFS from the named gates with generators H, S; the deterministic order
    # gives stable indices, the named gates the smallest. u is already found
    # when |tr(m†u)| = 2 for some found m.
    mats, candidates = [], [_GEN_MATRICES[name] for name in CLIFFORD_NAMES]
    while candidates:
        found = []
        for u in map(_canonicalize, candidates):
            if all(abs(abs(np.vdot(m, u)) - 2) > 1e-9 for m in mats):
                mats.append(u)
                found.append(u)
        candidates = [g @ u for u in found
                      for g in (_GEN_MATRICES["H"], _GEN_MATRICES["S"])]
    assert len(mats) == 24
    mats = np.array(mats)
    mats.setflags(write=False)
    return mats


MATRICES = _build_group()
GROUP_ORDER = 24


def _index(u: np.ndarray) -> np.ndarray:
    """Group index of each 2x2 unitary in u (..., 2, 2), read-only uint8."""
    overlap = np.abs(np.einsum("kab,...ab->...k", MATRICES.conj(), u))
    if not np.allclose(overlap.max(axis=-1), 2.0):
        raise ValueError("not a Clifford up to phase")
    index = overlap.argmax(axis=-1).astype(np.uint8)
    index.setflags(write=False)
    return index


NAME_TO_INDEX = dict(zip(CLIFFORD_NAMES, _index(np.array(
    [_GEN_MATRICES[name] for name in CLIFFORD_NAMES])).tolist()))
INDEX_TO_NAME = {v: k for k, v in NAME_TO_INDEX.items()}

# COMPOSE[a, b] = "apply a first, then b"
COMPOSE = _index(MATRICES[None] @ MATRICES[:, None])
DAGGER = _index(MATRICES.conj().mT)
# PAULI_INDEX[x, z]: index of the single-qubit Pauli X^x Z^z (phase
# dropped; XZ = -iY has Y's index)
PAULI_INDEX = _index(_PAULIS.reshape(2, 2, 2, 2).swapaxes(0, 1))


def _images() -> np.ndarray:
    # tr(P'† c P c†) / 2 is i^sign on the one image P' of P, 0 on the others
    overlap = np.einsum("cab,pbe,cde,kad->cpk", MATRICES, _PAULIS,
                        MATRICES.conj(), _PAULIS.conj()) / 2
    code = np.abs(overlap).argmax(axis=-1)
    phase = np.take_along_axis(overlap, code[..., None], axis=-1)[..., 0]
    sign = np.rint(np.angle(phase) / (np.pi / 2)).astype(int) % 4
    images = np.stack([code & 1, code >> 1, sign], axis=-1).astype(np.uint8)
    images.setflags(write=False)
    return images


IMAGES = _images()
IMG_X = tuple(map(tuple, IMAGES[:, 1].tolist()))
IMG_Z = tuple(map(tuple, IMAGES[:, 2].tolist()))

# Frequently used indices.
C_I = NAME_TO_INDEX["I"]
C_X = NAME_TO_INDEX["X"]
C_Y = NAME_TO_INDEX["Y"]
C_Z = NAME_TO_INDEX["Z"]
C_H = NAME_TO_INDEX["H"]
C_S = NAME_TO_INDEX["S"]
C_SDG = NAME_TO_INDEX["Sdg"]
