import itertools

import numpy as np

from qaccredit import cliffords

PHASE_ATOL = 1e-10


def equal_up_to_phase(a, b, atol=PHASE_ATOL):
    flat = b.ravel()
    k = int(np.argmax(np.abs(flat) > 1e-9))
    if abs(a.ravel()[k]) < 1e-12:
        return False
    phase = a.ravel()[k] / flat[k]
    return abs(abs(phase) - 1.0) < atol and np.allclose(a, phase * b, atol=atol)


def test_group_order():
    assert cliffords.GROUP_ORDER == 24
    assert len(cliffords.MATRICES) == 24


def test_named_gates_round_trip():
    for name in cliffords.CLIFFORD_NAMES:
        idx = cliffords.NAME_TO_INDEX[name]
        assert cliffords.INDEX_TO_NAME[idx] == name


def test_compose_matches_matrix_product():
    for a, b in itertools.product(range(24), repeat=2):
        composed = cliffords.COMPOSE[a][b]
        expected = cliffords.MATRICES[b] @ cliffords.MATRICES[a]
        assert equal_up_to_phase(cliffords.MATRICES[composed], expected)


def test_compose_associative_up_to_phase():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b, c = rng.integers(0, 24, size=3)
        left = cliffords.COMPOSE[cliffords.COMPOSE[a][b]][c]
        right = cliffords.COMPOSE[a][cliffords.COMPOSE[b][c]]
        assert left == right
        dense = (cliffords.MATRICES[c] @ cliffords.MATRICES[b]
                 @ cliffords.MATRICES[a])
        assert equal_up_to_phase(cliffords.MATRICES[left], dense)


def test_dagger():
    for c in range(24):
        prod = cliffords.COMPOSE[c][cliffords.DAGGER[c]]
        assert prod == cliffords.C_I


def test_images_match_dense_conjugation():
    """c X^x Z^z c† = i^sign X^x' Z^z' for all four codes x | z << 1, the
    sign included, so Y's image (code 3) is checked as well."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    images = cliffords.IMAGES
    assert images.shape == (24, 4, 3) and images.dtype == np.uint8
    assert not images.flags.writeable
    for c in range(24):
        u = cliffords.MATRICES[c]
        for code in range(4):
            base = np.linalg.matrix_power(x, code & 1) \
                @ np.linalg.matrix_power(z, code >> 1)
            xb, zb, s = (int(b) for b in images[c, code])
            rebuilt = (1j ** s) * np.linalg.matrix_power(x, xb) \
                @ np.linalg.matrix_power(z, zb)
            assert np.allclose(rebuilt, u @ base @ u.conj().T, atol=1e-12)
        assert cliffords.IMG_X[c] == tuple(images[c, 1].tolist())
        assert cliffords.IMG_Z[c] == tuple(images[c, 2].tolist())


def test_tables_are_permutations_with_stable_named_indices():
    for row in (*cliffords.COMPOSE, *cliffords.COMPOSE.T):
        assert sorted(row.tolist()) == list(range(24))
    names = cliffords.CLIFFORD_NAMES
    assert [cliffords.NAME_TO_INDEX[name] for name in names] == list(range(7))


def test_known_images():
    h, s = cliffords.C_H, cliffords.C_S
    # H: X -> Z, Z -> X; S: X -> Y, Z -> Z
    assert cliffords.IMG_X[h][:2] == (0, 1)
    assert cliffords.IMG_Z[h][:2] == (1, 0)
    assert cliffords.IMG_X[s][:2] == (1, 1)
    assert cliffords.IMG_Z[s][:2] == (0, 1)
