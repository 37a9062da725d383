import json
from fractions import Fraction

import numpy as np
import pytest

from qaccredit import families, oracles, traps
from qaccredit.circuit import identity_circuit
from qaccredit.noise import (ExplicitCollectionDistribution,
                             PauliErrorCollection, identity_collection)
from qaccredit.oracles import (lemma2_exact_prob, lemma2_sweep,
                               pauli_twirl_identity_check, theorem1_empirical,
                               twirl_channel)
from qaccredit.pauli import PauliString


def _errs(n, m, **at):
    out = [PauliString(n)] * (m + 1)
    for loc, p in at.items():
        out[int(loc)] = p
    return out


def test_prep_error_never_passes():
    topo = identity_circuit(2, 3, cz_layout=[{(0, 1)}, {(0, 1)}, set()])
    prob = lemma2_exact_prob(topo, _errs(2, 3, **{"0": PauliString(2, 0, 1)}))
    assert prob == 0


def test_measurement_error_never_passes():
    topo = identity_circuit(1, 2)
    prob = lemma2_exact_prob(topo, _errs(1, 2, **{"2": PauliString(1, 0, 1)}))
    assert prob == 0


def test_single_middle_error_at_most_half():
    topo = identity_circuit(1, 2)
    prob = lemma2_exact_prob(topo, _errs(1, 2, **{"1": PauliString(1, 0, 1)}))
    assert prob == Fraction(1, 2)  # the bound is tight here


def test_exact_prob_is_rational_with_choice_denominator():
    topo = identity_circuit(2, 2, cz_layout=[{(0, 1)}, set()])
    prob = lemma2_exact_prob(topo, _errs(2, 2, **{"1": PauliString(2, 1, 0)}))
    assert isinstance(prob, Fraction)
    assert 4 % prob.denominator == 0


def test_sweep_single_class():
    topo = identity_circuit(1, 3)
    reports = lemma2_sweep(topo, "single")
    assert reports and all(r.passed for r in reports)
    assert all(r.bound == Fraction(1, 2) for r in reports)
    assert not any(r.sampled for r in reports)


def test_sweep_two_class():
    topo = identity_circuit(2, 3, cz_layout=[{(0, 1)}, {(0, 1)}, set()])
    reports = lemma2_sweep(topo, "two")
    assert reports and all(r.passed for r in reports)
    assert all(r.bound == Fraction(3, 4) for r in reports)
    # the 3/4 bound is attained somewhere
    assert max(r.probability for r in reports) == Fraction(3, 4)


def test_sweep_sampled_class():
    topo = identity_circuit(2, 4, cz_layout=[{(0, 1)}] * 3 + [set()])
    reports = lemma2_sweep(topo, "all", rng=np.random.default_rng(0))
    assert reports and all(r.passed for r in reports)
    assert all(r.sampled for r in reports)


def test_sweep_rejects_unknown_class():
    with pytest.raises(ValueError):
        lemma2_sweep(identity_circuit(1, 2), "three")


def test_flip_table_cap(allocates_at_most):
    assert oracles.FLIP_TABLE_CAP == 2 ** 20
    # 2n(m+1) = 64 basis errors per choice: 2^14 choices sit at the cap,
    # 2^15 exceed it and are refused before any trap is built
    at_cap = identity_circuit(8, 3, cz_layout=[{(0, 1), (2, 3)}, {(4, 5)},
                                               set()])
    over = identity_circuit(8, 3, cz_layout=[{(0, 1)}, {(4, 5)}, set()])
    assert 64 * 2 ** traps.choice_width(at_cap) == oracles.FLIP_TABLE_CAP
    assert traps.choice_width(over) == 15
    for kind in ("single", "two", "all"):
        with allocates_at_most(2 ** 16), \
                pytest.raises(ValueError, match="too large to build"):
            lemma2_sweep(over, kind)


def test_report_json():
    topo = identity_circuit(1, 2)
    rep = lemma2_sweep(topo, "single")[0]
    doc = json.loads(rep.to_json())
    assert set(doc) >= {"instance", "probability", "bound", "passed",
                        "samples", "sampled"}


def _random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def test_twirl_identity_channels():
    circ = families.random_generic_circuit(1, 2, np.random.default_rng(1))
    rep = twirl_channel(circ, {})
    assert rep.passed
    ident_idx = rep.collections.index(
        tuple(identity_collection(1, 1, 2).slice_for(0)))
    assert rep.weights[ident_idx] > 1 - 1e-8


def test_twirl_unitary_deviation_reduces_to_pauli_mixture():
    rng = np.random.default_rng(2)
    circ = families.random_generic_circuit(2, 2, rng)
    channels = {1: [_random_unitary(4, rng)]}
    rep = twirl_channel(circ, channels)
    assert rep.residual < oracles.TWIRL_RESIDUAL_TOL


def test_twirl_pure_z_error_recovered():
    circ = families.random_generic_circuit(1, 2, np.random.default_rng(3))
    z = np.diag([1.0, -1.0]).astype(complex)
    rep = twirl_channel(circ, {2: [z]})
    weights = {}
    for coll, w in zip(rep.collections, rep.weights):
        if w > 1e-9:
            weights[tuple(str(p.x_bits) + str(p.z_bits) for p in coll)] = w
    assert rep.passed
    # all recovered mass is on the Z-at-measurement collection
    target = tuple(["00", "00", "01"])
    assert weights.get(target, 0) > 1 - 1e-8


def test_pauli_twirl_identities():
    for n in (1, 2):
        rep = pauli_twirl_identity_check(n, np.random.default_rng(4))
        assert rep.passed
        assert rep.probability < 1e-12
        assert rep.detail["sanity_arm_ok"]


def _adversary_touching(n, m, v, v_hat, rng):
    """One deterministic collection acting on exactly v_hat circuits."""
    circuits = []
    for k in range(v + 1):
        locs = [PauliString(n)] * (m + 1)
        if k < v_hat:
            loc = int(rng.integers(1, m))
            x = int(rng.integers(0, 2 ** n))
            z = int(rng.integers(0, 2 ** n))
            if x == 0 and z == 0:
                z = 1
            locs[loc] = PauliString(n, x, z)
        circuits.append(tuple(locs))
    return ExplicitCollectionDistribution(
        [(PauliErrorCollection(tuple(circuits)), 1.0)])


def test_theorem1_identity_adversary():
    target = families.random_clifford_circuit(2, 2, np.random.default_rng(5))
    adv = ExplicitCollectionDistribution(
        [(identity_collection(4, 2, 2), 1.0)])
    rep = theorem1_empirical(target, 3, adv, runs=10 ** 4,
                             rng=np.random.default_rng(6))
    assert rep.probability == 0.0
    assert rep.passed


def test_theorem1_vhat_bound_reported():
    rng = np.random.default_rng(7)
    target = families.random_clifford_circuit(2, 2, rng)
    adv = _adversary_touching(2, 2, 3, 3, rng)
    rep = theorem1_empirical(target, 3, adv, runs=10 ** 5, rng=rng)
    assert rep.detail["v_hat"] == 3
    assert abs(rep.detail["v_hat_bound"] - (3 / 4) * (9 / 16)) < 1e-12
    assert rep.passed


def test_theorem1_random_adversaries():
    rng = np.random.default_rng(8)
    target = families.random_clifford_circuit(2, 2,
                                              np.random.default_rng(8))
    for v_hat in (1, 2, 3, 4):
        adv = _adversary_touching(2, 2, 3, v_hat, rng)
        rep = theorem1_empirical(target, 3, adv, runs=2 * 10 ** 4, rng=rng)
        assert rep.passed, (v_hat, rep.probability, rep.bound)


def test_corrupted_target_is_seen():
    target = families.ghz_circuit(2)
    z_at_end = [PauliString(2)] * target.m + [PauliString(2, 0, 1)]
    assert oracles.corrupts_target(target, z_at_end)
    assert not oracles.corrupts_target(target, [PauliString(2)] * 3)
    # the corrupting slice sits in slot 0 only, so it is never caught by a
    # trap and corrupts the output exactly when v0 = 0
    circuits = (tuple(z_at_end),) + identity_collection(3, 2, 2).circuits
    adv = ExplicitCollectionDistribution(
        [(PauliErrorCollection(circuits), 1.0)])
    rep = theorem1_empirical(target, 3, adv, runs=10 ** 4,
                             rng=np.random.default_rng(10))
    assert abs(rep.probability - 1 / 4) < 0.02
    assert rep.passed


def test_theorem1_requires_v_at_least_3():
    target = families.random_clifford_circuit(2, 2, np.random.default_rng(9))
    adv = ExplicitCollectionDistribution([(identity_collection(3, 2, 2), 1.0)])
    with pytest.raises(ValueError):
        theorem1_empirical(target, 2, adv)
