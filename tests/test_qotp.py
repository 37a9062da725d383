import numpy as np
import pytest

from qaccredit import families, pauli, qotp, simulator
from qaccredit.circuit import identity_circuit
from qaccredit.qotp import PadRecord, dress, postprocess, sample_pads, zero_pads

TV_TOL = 1e-10


def tv(a, b):
    return 0.5 * float(np.abs(a - b).sum())


def test_zero_pads_are_identity():
    circ = families.random_clifford_circuit(2, 3, np.random.default_rng(0))
    dressed = dress(circ, zero_pads(2, 3))
    assert dressed.circuit == circ
    assert not dressed.key.any()


def test_undo_pauli_through_cz():
    # X pad on qubit 0 of band 1 crosses the (0,1) cZ as X on 0, Z on 1
    pads = zero_pads(2, 2)
    alpha_prime = np.zeros((2, 2), np.uint8)
    alpha_prime[0, 0] = 1
    pads = PadRecord(pads.alpha, alpha_prime, pads.gamma)
    circ = identity_circuit(2, 2, cz_layout=[{(0, 1)}, set()])
    undo = qotp.undo_pauli(pads, circ.bands[0], 0)
    assert undo.qubit(0) == "X"
    assert undo.qubit(1) == "Z"


def test_dress_dimension_mismatch():
    circ = identity_circuit(2, 2)
    with pytest.raises(ValueError):
        dress(circ, zero_pads(3, 2))


def test_sample_pads_deterministic():
    a = sample_pads(3, 2, np.random.default_rng(42))
    b = sample_pads(3, 2, np.random.default_rng(42))
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.alpha_prime, b.alpha_prime)
    assert np.array_equal(a.gamma, b.gamma)


def test_sample_pads_bit_means():
    rng = np.random.default_rng(7)
    total = np.zeros((2, 2))
    total_p = np.zeros((2, 2))
    total_g = np.zeros(2)
    reps = 10 ** 4
    for _ in range(reps):
        pads = sample_pads(2, 2, rng)
        total += pads.alpha
        total_p += pads.alpha_prime
        total_g += pads.gamma
    for mean in np.concatenate(
            [total.ravel(), total_p.ravel(), total_g]) / reps:
        assert 0.48 <= mean <= 0.52


def test_pad_bit_budget():
    # n=1, m=1 uses exactly 3 bits: alpha, alpha_prime, gamma
    pads = sample_pads(1, 1, np.random.default_rng(0))
    assert pads.alpha.shape == (1, 1)
    assert pads.alpha_prime.shape == (1, 1)
    assert pads.gamma.shape == (1,)


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
    dressed = dress(circ, pads)
    assert dressed.circuit.n == circ.n and dressed.circuit.m == circ.m
    for a, b in zip(dressed.circuit.bands, circ.bands):
        assert a.cz_pairs == b.cz_pairs
    assert np.array_equal(dressed.key, pads.alpha[-1])
    # Clifford gates stay Clifford, generic stay generic
    for db, bb in zip(dressed.circuit.bands, circ.bands):
        for dg, bg in zip(db.singles, bb.singles):
            assert dg.is_clifford == bg.is_clifford


def _transparency_tv(circ, pads):
    bare = simulator.run_density(circ)
    dressed = dress(circ, pads)
    noisy = simulator.run_density(dressed.circuit)
    key_int = simulator.bits_to_index(dressed.key)
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

