import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaccredit import cliffords, pauli
from qaccredit.pauli import PauliString

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dense(p: PauliString) -> np.ndarray:
    full = np.array([[1.0]], dtype=complex)
    for q in reversed(range(p.n)):
        local = np.eye(2, dtype=complex)
        if (p.x_bits >> q) & 1:
            local = local @ X
        if (p.z_bits >> q) & 1:
            local = local @ Z
        full = np.kron(full, local)
    return (1j ** p.sign) * full


def random_pauli(rng, n):
    return PauliString(n, int(rng.integers(0, 2 ** n)),
                       int(rng.integers(0, 2 ** n)), int(rng.integers(0, 4)))


paulis = st.builds(
    PauliString,
    n=st.just(3),
    x_bits=st.integers(0, 7),
    z_bits=st.integers(0, 7),
    sign=st.integers(0, 3),
)


def test_multiply_examples():
    x = pauli.from_text("X")
    z = pauli.from_text("Z")
    assert pauli.multiply(x, x) == PauliString(1)
    # X.Z = -iY: check via the dense oracle
    assert np.allclose(dense(pauli.multiply(x, z)), dense(x) @ dense(z))
    assert pauli.to_text(pauli.multiply(x, z)) == "-iY"


def test_multiply_identity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = random_pauli(rng, 3)
        assert pauli.multiply(p, PauliString(3)) == p


def test_multiply_size_mismatch():
    with pytest.raises(ValueError):
        pauli.multiply(PauliString(1), PauliString(2))


@settings(max_examples=100)
@given(a=paulis, b=paulis)
def test_multiply_matches_dense(a, b):
    assert np.allclose(dense(pauli.multiply(a, b)), dense(a) @ dense(b))


def test_conj_single_mapping_table():
    h, s = cliffords.C_H, cliffords.C_S
    x, y, z = (pauli.from_text(c) for c in "XYZ")
    def letter(p, g):
        return pauli.conj_single(p, g, 0).qubit(0)
    assert [letter(p, h) for p in (x, z, y)] == ["Z", "X", "Y"]
    assert [letter(p, s) for p in (x, y, z)] == ["Y", "X", "Z"]
    for p in (x, y, z):
        assert pauli.conj_single(p, cliffords.C_I, 0) == p


def test_conj_cz_examples():
    xi = pauli.from_text("XI")
    zi = pauli.from_text("ZI")
    yi = pauli.from_text("YI")
    assert pauli.to_text(pauli.conj_cz(xi, (0, 1))) == "XZ"
    assert pauli.conj_cz(zi, (0, 1)) == zi
    res = pauli.conj_cz(yi, (0, 1))
    assert (res.x_bits, res.z_bits) == (0b01, 0b11)  # Y x Z up to sign


def _dense_cz(n, i, j):
    idx = np.arange(2 ** n)
    sign = 1.0 - 2.0 * (((idx >> i) & 1) & ((idx >> j) & 1))
    return np.diag(sign).astype(complex)


def _dense_single(n, u2, q):
    full = np.array([[1.0]], dtype=complex)
    for k in reversed(range(n)):
        full = np.kron(full, u2 if k == q else np.eye(2, dtype=complex))
    return full


def test_conj_against_dense_oracle():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for _ in range(60):
            p = random_pauli(rng, n)
            g = int(rng.integers(0, 24))
            q = int(rng.integers(0, n))
            u = _dense_single(n, cliffords.MATRICES[g], q)
            assert np.allclose(dense(pauli.conj_single(p, g, q)),
                               u @ dense(p) @ u.conj().T, atol=1e-9)
            i, j = rng.choice(n, size=2, replace=False)
            ucz = _dense_cz(n, int(i), int(j))
            assert np.allclose(dense(pauli.conj_cz(p, (int(i), int(j)))),
                               ucz @ dense(p) @ ucz.conj().T, atol=1e-9)


@settings(max_examples=60)
@given(a=paulis, b=paulis, gate=st.integers(0, 23), q=st.integers(0, 2))
def test_conj_single_is_automorphism(a, b, gate, q):
    lhs = pauli.conj_single(pauli.multiply(a, b), gate, q)
    rhs = pauli.multiply(pauli.conj_single(a, gate, q),
                         pauli.conj_single(b, gate, q))
    assert (lhs.x_bits, lhs.z_bits) == (rhs.x_bits, rhs.z_bits)
    assert np.allclose(dense(lhs), dense(rhs))  # signs agree too


@settings(max_examples=60)
@given(p=paulis)
def test_involutions(p):
    assert pauli.conj_cz(pauli.conj_cz(p, (0, 2)), (0, 2)) == p
    h = cliffords.C_H
    assert pauli.conj_single(pauli.conj_single(p, h, 1), h, 1) == p


def test_z_mask():
    assert pauli.z_mask(PauliString(4)) == 0
    assert pauli.z_mask(pauli.from_text("ZIII")) == 0b0001
    assert pauli.z_mask(pauli.from_text("YXZ")) == 0b101


def test_text_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = random_pauli(rng, 4)
        assert pauli.from_text(pauli.to_text(p)) == p
    assert pauli.to_text(pauli.from_text("+iXIZY")) == "+iXIZY"


def test_mask_bounds():
    with pytest.raises(ValueError):
        PauliString(2, x_bits=4)
