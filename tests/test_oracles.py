import json
from fractions import Fraction

import numpy as np
import pytest

from qaccredit import families, oracles, traps
from qaccredit.circuit import identity_circuit
from qaccredit.noise import (ExplicitCollectionDistribution,
                             PauliErrorCollection, identity_collection,
                             random_adversary)
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


def test_sampled_sweep_needs_an_rng():
    topo = identity_circuit(2, 3, cz_layout=[{(0, 1)}, {(0, 1)}, set()])

    def table_calls():
        info = oracles._choice_flip_tables.cache_info()
        return info.hits + info.misses
    before = table_calls()
    # refused before the flip table is looked up, let alone built
    with pytest.raises(ValueError, match="needs an rng"):
        lemma2_sweep(topo, "all")
    assert table_calls() == before
    assert lemma2_sweep(topo, "single")  # the exhaustive classes need none


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
            lemma2_sweep(over, kind, rng=np.random.default_rng(0))


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
        identity_collection(1, 1, 2).circuits[0])
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


def test_twirl_walk_cap(allocates_at_most, monkeypatch):
    assert oracles.TWIRL_WALK_CAP == 2 ** 15
    rng = np.random.default_rng(5)
    # 2^18 and 2^21 pad rows, refused before any circuit is dressed
    for n, m in ((2, 4), (3, 3)):
        circ = families.random_generic_circuit(n, m, rng)
        channels = {0: [_random_unitary(2 ** n, rng)]}
        with allocates_at_most(2 ** 16), \
                pytest.raises(ValueError, match="too large to run"):
            twirl_channel(circ, channels)
    # pad rows x Kraus paths: 2^10 rows x 3 x 11 paths exceed the cap
    circ = families.random_generic_circuit(2, 2, rng)
    channels = {0: [np.eye(4) / np.sqrt(3)] * 3,
                2: [np.eye(4) / np.sqrt(11)] * 11}
    with pytest.raises(ValueError, match="33792 statevector walks"):
        oracles.pad_averaged_distribution(circ, channels)
    # the fit counts 2^5 pad rows plus 4^2 collections: 48 walks
    circ = families.random_generic_circuit(1, 2, rng)
    monkeypatch.setattr(oracles, "TWIRL_WALK_CAP", 48)
    assert twirl_channel(circ, {}).passed
    monkeypatch.setattr(oracles, "TWIRL_WALK_CAP", 47)
    with pytest.raises(ValueError, match="48 statevector walks"):
        twirl_channel(circ, {})


def test_pauli_twirl_term_cap(monkeypatch):
    assert oracles.PAULI_TWIRL_TERM_CAP == 2 ** 18
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="too large to sum"):
        pauli_twirl_identity_check(4, rng)
    assert rng.bit_generator.state == state
    # n = 1 sums 4 + 4 * 4 * 3 + 2 * (2 * 2 * 1) = 60 terms
    monkeypatch.setattr(oracles, "PAULI_TWIRL_TERM_CAP", 60)
    assert pauli_twirl_identity_check(1, rng).passed
    monkeypatch.setattr(oracles, "PAULI_TWIRL_TERM_CAP", 59)
    with pytest.raises(ValueError, match="60 terms"):
        pauli_twirl_identity_check(1, rng)


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


def test_acceptance_tables_match_the_pauli_path():
    """The bits path of the credibility oracle against the PauliString
    path, slot by slot: trap acceptance by the per-slice flip XOR and
    corruption by propagating the whole slice through the target."""
    rng = np.random.default_rng(13)
    seen = set()
    for _ in range(12):
        n, m = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        target = families.random_clifford_circuit(n, m, rng)
        adv = random_adversary(n, m, 3, rng)
        accept, corrupted, probs = oracles._acceptance_tables(target, adv)
        assert accept.shape[:2] == corrupted.shape == (len(adv.entries), 4)
        assert np.array_equal(probs, [p for _, p in adv.entries])
        for e, (coll, _) in enumerate(adv.entries):
            for k, errs in enumerate(coll.circuits):
                assert np.array_equal(
                    accept[e, k],
                    oracles._collection_flips(target, errs) == 0)
                assert corrupted[e, k] == oracles.corrupts_target(target,
                                                                  errs)
                seen.add(bool(corrupted[e, k]))
    assert seen == {False, True}


def test_theorem1_requires_v_at_least_3():
    target = families.random_clifford_circuit(2, 2, np.random.default_rng(9))
    adv = ExplicitCollectionDistribution([(identity_collection(3, 2, 2), 1.0)])
    with pytest.raises(ValueError):
        theorem1_empirical(target, 2, adv, runs=10,
                           rng=np.random.default_rng(0))


def test_theorem1_rejects_adversary_of_another_shape():
    # the tables read the adversary's bits against the target's (m+1, n)
    target = families.random_clifford_circuit(2, 2, np.random.default_rng(9))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for circuits, n, m in ((5, 2, 2), (4, 1, 2), (4, 3, 2), (4, 2, 3)):
        adv = ExplicitCollectionDistribution(
            [(identity_collection(circuits, n, m), 1.0)])
        with pytest.raises(ValueError, match="do not cover"):
            theorem1_empirical(target, 3, adv, runs=10, rng=rng)
    assert rng.bit_generator.state == state


def test_monte_carlo_counts_below_one_are_rejected(monkeypatch):
    target = families.random_clifford_circuit(2, 2, np.random.default_rng(9))
    adv = ExplicitCollectionDistribution([(identity_collection(4, 2, 2), 1.0)])

    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(oracles, "_acceptance_tables", no_tables)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for runs in (0, -5):
        with pytest.raises(ValueError, match=f"runs must be >= 1, not {runs}"):
            theorem1_empirical(target, 3, adv, runs=runs, rng=rng)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="runs must be >= 1, not 0"):
        oracles.three_sigma_report("no runs", 0.0, 0.5, runs=0)
