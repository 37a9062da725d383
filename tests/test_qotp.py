import numpy as np
import pytest

from qaccredit import cliffords, families, simulator
from qaccredit.circuit import GENERIC, Circuit, identity_circuit
from qaccredit.qotp import dress, pad_width, postprocess, sample_pads

TV_TOL = 1e-10
PAULI = cliffords.PAULI_INDEX


def tv(a, b):
    return 0.5 * float(np.abs(a - b).sum())


def _single_bit_row(n, m, index):
    row = np.zeros(pad_width(n, m), np.uint8)
    row[index] = 1
    return row


def test_zero_row_is_identity():
    circ = families.random_clifford_circuit(2, 3, np.random.default_rng(0))
    dressed, key = dress(circ, np.zeros(pad_width(2, 3), np.uint8))
    assert dressed == circ
    assert not key.any()


def test_pad_row_layout():
    # alpha (m x n, band-major), then alpha' (m x n), then gamma (n)
    n, m = 2, 3
    circ = identity_circuit(n, m)
    gamma_on_1, key = dress(circ, _single_bit_row(n, m, 2 * n * m + 1))
    assert gamma_on_1.gates[0].tolist() == [PAULI[0, 0], PAULI[1, 0]]
    assert (gamma_on_1.gates[1:] == PAULI[0, 0]).all()
    assert not key.any()
    last_alpha_on_0, key = dress(circ, _single_bit_row(n, m, (m - 1) * n))
    assert last_alpha_on_0.gates[m - 1].tolist() == \
        [PAULI[0, 1], PAULI[0, 0]]
    assert key.tolist() == [1, 0]


def test_dress_undoes_pad_through_cz():
    # an X pad on qubit q of band 1 crosses the (0,1) cZ as X on q, Z on 1-q
    circ = identity_circuit(2, 2, cz_layout=[{(0, 1)}, set()])
    for q in (0, 1):
        dressed, _ = dress(circ, _single_bit_row(2, 2, 2 * 2 + q))
        first, second = dressed.gates.tolist()
        assert first[q] == PAULI[1, 0] and first[1 - q] == PAULI[0, 0]
        assert second[q] == PAULI[1, 0] and second[1 - q] == PAULI[0, 1]


def test_dress_dimension_mismatch():
    circ = identity_circuit(2, 2)
    for width in (pad_width(2, 2) - 1, pad_width(3, 2)):
        with pytest.raises(ValueError):
            dress(circ, np.zeros(width, np.uint8))
    with pytest.raises(ValueError):
        dress(circ, np.zeros((1, pad_width(2, 2)), np.uint8))


def test_dress_rejects_non_bit_values():
    row = np.zeros(pad_width(2, 2), np.uint8)
    row[3] = 2
    with pytest.raises(ValueError):
        dress(identity_circuit(2, 2), row)


def test_sample_pads_deterministic():
    pads = sample_pads(3, 2, np.random.default_rng(42))
    assert pads.dtype == np.uint8
    assert np.array_equal(pads, np.random.default_rng(42).integers(
        0, 2, size=pad_width(3, 2), dtype=np.uint8))


def test_sample_pads_bit_means():
    rng = np.random.default_rng(7)
    reps = 10 ** 4
    rows = np.array([sample_pads(2, 2, rng) for _ in range(reps)])
    for mean in rows.mean(axis=0):
        assert 0.48 <= mean <= 0.52


def test_pad_bit_budget():
    # n=1, m=1 uses exactly 3 bits: alpha, alpha_prime, gamma
    assert pad_width(1, 1) == 3
    assert pad_width(2, 3) == 14
    assert sample_pads(1, 1, np.random.default_rng(0)).shape == (3,)


def test_postprocess():
    s = np.array([0, 1, 1, 0], np.uint8)
    k = np.array([0, 1, 1, 0], np.uint8)
    assert not postprocess(s, k).any()
    zero = np.zeros(4, np.uint8)
    key = np.array([1, 0, 1, 0], np.uint8)
    assert np.array_equal(postprocess(zero, key), key)
    assert np.array_equal(postprocess(postprocess(s, key), key), s)
    with pytest.raises(ValueError):
        postprocess(np.zeros(3, np.uint8), np.zeros(4, np.uint8))


def test_dressing_preserves_structure():
    rng = np.random.default_rng(3)
    circ = families.random_generic_circuit(3, 3, rng)
    pads = sample_pads(3, 3, rng)
    dressed, key = dress(circ, pads)
    assert dressed.n == circ.n and dressed.m == circ.m
    assert dressed.cz == circ.cz
    assert np.array_equal(key, pads[6:9])  # alpha of band m
    # Clifford gates stay Clifford, generic stay generic
    assert np.array_equal(dressed.gates == GENERIC, circ.gates == GENERIC)
    assert dressed.matrices.keys() == circ.matrices.keys()


def test_dress_keeps_generic_gates_generic():
    # T on band 0 and H on band 1 of one qubit, under every pad
    t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
    circ = Circuit(1, 2, [[GENERIC], [cliffords.C_H]],
                   matrices={(0, 0): t_gate})
    from qaccredit.oracles import _all_pads
    for pads in _all_pads(1, 2):
        alpha, alpha_prime, gamma = pads[:2], pads[2:4], pads[4]
        pre = [PAULI[gamma, 0], PAULI[alpha_prime[0], alpha[0]]]
        post = [PAULI[alpha_prime[j], alpha[j]] for j in (0, 1)]
        dressed, _ = dress(circ, pads)
        assert dressed.gates[0, 0] == GENERIC
        p_pre, p_post = (cliffords.matrix(c) for c in (pre[0], post[0]))
        assert np.array_equal(dressed.matrices[0, 0],
                              p_post @ (t_gate @ p_pre))
        assert dressed.gates[1, 0] == cliffords.COMPOSE[
            cliffords.COMPOSE[pre[1], cliffords.C_H], post[1]]


def _transparency_tv(circ, pads):
    bare = simulator.run_density(circ)
    dressed, key = dress(circ, pads)
    noisy = simulator.run_density(dressed)
    key_int = simulator.bits_to_index(key)
    idx = np.arange(len(noisy))
    return tv(bare, noisy[idx ^ key_int])


def test_transparency_exhaustive_small():
    # every pad of a 1-qubit, 2-band circuit leaves the distribution fixed
    rng = np.random.default_rng(5)
    circ = families.random_generic_circuit(1, 2, rng)
    from qaccredit.oracles import _all_pads
    for pads in _all_pads(1, 2):
        assert _transparency_tv(circ, pads) < TV_TOL


def test_transparency_random_pads():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        circ = families.random_generic_circuit(n, m, rng)
        for _ in range(20):
            assert _transparency_tv(circ, sample_pads(n, m, rng)) < TV_TOL

