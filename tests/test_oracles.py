import ast
import inspect
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaccredit import families, oracles, pauli, protocol, qotp, simulator, \
    traps
from qaccredit.circuit import Circuit, identity_circuit
from qaccredit.noise import (ExplicitCollectionDistribution,
                             IndependentLocationChannels,
                             PauliErrorCollection, identity_collection,
                             random_adversary)
from qaccredit.oracles import (lemma2_exact_prob, lemma2_sweep,
                               pauli_twirl_identity_check, theorem1_empirical,
                               twirl_channel)
from qaccredit.pauli import PauliString


def _errs(n, m, **at):
    """A slice as (x, z) bits of shape (m+1, n); ``at`` maps a location to
    its PauliString, every other location is the identity."""
    x, z = np.zeros((2, m + 1, n), dtype=np.uint8)
    for loc, p in at.items():
        x[int(loc)] = simulator.index_to_bits(p.x_bits, n)
        z[int(loc)] = simulator.index_to_bits(p.z_bits, n)
    return x, z


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


def test_sweep_names_carry_no_phase():
    # one letter per qubit in every class: a Y in a sampled collection
    # reads as "Y", as in the exhaustive classes, never as "-iY"
    topo = families.random_clifford_circuit(2, 3, np.random.default_rng(1))
    name = re.compile(r"loc\d+:[IXYZ]+(\+loc\d+:[IXYZ]+)*")
    for kind in ("single", "two", "all"):
        reports = lemma2_sweep(topo, kind, rng=np.random.default_rng(1))
        assert reports
        for rep in reports:
            assert name.fullmatch(rep.instance), rep.instance
    assert any("Y" in rep.instance for rep in reports)


def test_sweep_instance_names_the_swept_slice():
    topo = identity_circuit(2, 3, cz_layout=[{(0, 1)}, {(0, 1)}, set()])
    reps = {rep.instance: rep for rep in lemma2_sweep(topo, "two")}
    # qubit 0 is the leftmost letter, as in pauli.from_text
    rep = reps["loc0:IZ+loc1:YX"]
    assert rep.probability == lemma2_exact_prob(
        topo, _errs(2, 3, **{"0": pauli.from_text("IZ"),
                             "1": pauli.from_text("YX")}))


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


def test_sweep_collection_cap(allocates_at_most):
    assert oracles.SWEEP_COLLECTION_CAP == 2 ** 17
    # n=6, m=3: a small flip table, but 2 * (63 * 4095) * 2 + 4095^2 + 63^2
    # two-location collections, refused before any is listed
    topo = identity_circuit(6, 3, cz_layout=[{(0, 1), (2, 3), (4, 5)}] * 2
                            + [set()])
    oracles._choice_flip_tables(topo)  # built and cached outside the check
    with allocates_at_most(2 ** 16), \
            pytest.raises(ValueError, match="17804934 collections too large"):
        lemma2_sweep(topo, "two")
    # the single-location class lists 2 * 63 + 2 * 4095 collections
    assert len(lemma2_sweep(topo, "single")) == 2 * 63 + 2 * 4095


def _reference_reports(topo, rows):
    """(instance, probability) of every non-identity collection among
    ``rows`` (one code per location), each by its own ``_pass_prob``."""
    n, table = topo.n, oracles._choice_flip_tables(topo)
    names = ["".join("IXZY"[(code >> n + q & 1) + 2 * (code >> q & 1)]
                     for q in range(n)) for code in range(4 ** n)]
    out = []
    for row in rows:
        support = [loc for loc, code in enumerate(row) if code]
        if support:
            out.append(("+".join(f"loc{loc}:{names[row[loc]]}"
                                 for loc in support),
                        oracles._pass_prob(table, *oracles._bits(row, n))))
    return out


def test_sweep_memory_stays_within_the_chunk_budget(allocates_at_most):
    # beyond the reports it returns, a sweep holds its code tables and one
    # block of flips with its temporaries, a few SWEEP_CHUNK words each,
    # plus a few words of codes and counts per collection. One block of
    # every collection's flips would be 80550 x 512 and 10^4 x 8192 words.
    budget = 8 * 4 * oracles.SWEEP_CHUNK
    n, m = 4, 3
    two = identity_circuit(n, m)  # 2^9 trap choices
    sizes = [2 ** n, 4 ** n, 4 ** n, 2 ** n]
    rows = [[dict(zip(locs, picked)).get(loc, 0) for loc in range(m + 1)]
            for locs in itertools.combinations(range(m + 1), 2)
            for picked in itertools.product(*(range(1, sizes[loc])
                                              for loc in locs))]
    assert len(rows) == 80550  # just under SWEEP_COLLECTION_CAP
    assert len(rows) <= oracles.SWEEP_COLLECTION_CAP < 2 * len(rows)
    oracles._choice_flip_tables(two)  # built and cached outside the check
    with allocates_at_most(budget, beyond_result=True):
        reports = lemma2_sweep(two, "two")
    assert [(r.instance, r.probability) for r in reports] \
        == _reference_reports(two, rows)

    n, m = 2, 7
    many = identity_circuit(n, m)  # 2^13 trap choices
    assert traps.choice_space_size(many) == 2 ** 13
    oracles._choice_flip_tables(many)
    with allocates_at_most(budget, beyond_result=True):
        reports = lemma2_sweep(many, "all", rng=np.random.default_rng(3))
    # the draws, collection by collection: z at the end locations, x then
    # z in between
    rng = np.random.default_rng(3)
    rows = [[(0 if loc in (0, m) else int(rng.integers(0, 2 ** n))) << n
             | int(rng.integers(0, 2 ** n)) for loc in range(m + 1)]
            for _ in range(oracles.SWEEP_SAMPLES)]
    assert [(r.instance, r.probability) for r in reports] \
        == _reference_reports(many, rows)



def _class_rows(topo, kind, seed):
    """The collections a sweep of class ``kind`` lists, one code per
    location: every one on one / two locations, or the sampled draws from
    ``default_rng(seed)`` (z at the end locations, x then z in between)."""
    n, m = topo.n, topo.m
    if kind == "all":
        rng = np.random.default_rng(seed)
        return [[(0 if loc in (0, m) else int(rng.integers(0, 2 ** n))) << n
                 | int(rng.integers(0, 2 ** n)) for loc in range(m + 1)]
                for _ in range(oracles.SWEEP_SAMPLES)]
    sizes = [2 ** n if loc in (0, m) else 4 ** n for loc in range(m + 1)]
    return [[dict(zip(locs, picked)).get(loc, 0) for loc in range(m + 1)]
            for locs in itertools.combinations(
                range(m + 1), 1 if kind == "single" else 2)
            for picked in itertools.product(*(range(1, sizes[loc])
                                              for loc in locs))]


@pytest.mark.parametrize("kind", ["single", "two", "all"])
def test_pass_counts_equal_the_exact_probability_of_each_collection(
        kind, monkeypatch):
    # each location gathers only the rows that touch it; at n = 5 an inner
    # location's 10 code bits take two flip tables, and a small chunk
    # splits the 32 trap choices and the collections into many blocks
    monkeypatch.setattr(oracles, "SWEEP_CHUNK", 2 ** 10)
    topo = families.random_clifford_circuit(5, 2, np.random.default_rng(0))
    table = oracles._choice_flip_tables(topo)
    n_choices = table.shape[-1]
    assert n_choices == 32
    codes = np.array(_class_rows(topo, kind, seed=6))
    counts = oracles._pass_counts(table, codes)
    assert counts.shape == (len(codes),)
    # every row of a one-location sweep, a spread of the larger classes
    stride = 1 if kind == "single" else 7
    for row, count in zip(codes[::stride], counts[::stride]):
        want = lemma2_exact_prob(topo, oracles._bits(row, topo.n))
        assert Fraction(int(count), n_choices) == want


@pytest.mark.parametrize("topo, trivial_too", [
    (identity_circuit(2, 3, cz_layout=[{(0, 1)}, {(0, 1)}, set()]), True),
    (families.random_clifford_circuit(2, 4, np.random.default_rng(12)),
     False)])
def test_sweep_verdicts_equal_a_per_collection_decision(topo, trivial_too):
    # each report against its own probability and bound, decided apart;
    # on the identity topology some collections act trivially
    trivial = set()
    for kind in ("single", "two", "all"):
        want = []
        for instance, prob in _reference_reports(
                topo, _class_rows(topo, kind, seed=5)):
            bound = Fraction(1 if "+" not in instance else 3,
                             2 if "+" not in instance else 4)
            want.append(oracles.LemmaReport(
                instance=instance, probability=prob, bound=bound,
                passed=prob == 1 or prob <= bound,
                samples=traps.choice_space_size(topo),
                sampled=kind == "all",
                detail={"acts_trivially": True} if prob == 1 else {}))
            trivial.add(prob == 1)
        got = lemma2_sweep(topo, kind, rng=np.random.default_rng(5))
        assert got == want
        assert [r.to_json() for r in got] == [r.to_json() for r in want]
    assert trivial == {False, trivial_too}

def _flip_topology(n, m, seed):
    """A random Clifford topology with at most 2^9 trap choices: every
    cZ band pairs as many qubits as it can when a random one has more."""
    rng = np.random.default_rng(seed)
    topo = families.random_clifford_circuit(n, m, rng)
    if traps.choice_width(topo) > 9:
        cz = [tuple(zip(p[0::2], p[1::2]))
              for p in (rng.permutation(n).tolist() for _ in range(m - 1))]
        topo = Circuit(n, m, topo.gates, cz + [()])
    return topo


def _basis_slices(n, m):
    """PauliString slices of every basis error, (location, bit) order: bit
    b < n is X on qubit b, b >= n Z on qubit b - n."""
    ident = PauliString(n)
    out = []
    for loc, b in itertools.product(range(m + 1), range(2 * n)):
        slice_ = [ident] * (m + 1)
        slice_[loc] = PauliString(n, (b < n) << b % n, (b >= n) << b % n)
        out.append(slice_)
    return out


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(2, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_flip_tables_agree_three_ways(n, m, seed):
    """The backward pass against the signed PauliString walk of each
    generate_trap circuit, and against the batched frame of the engine on
    basis errors over trap_cliffords."""
    topo = _flip_topology(n, m, seed)
    choices = traps.enumerate_choices(topo)
    table = oracles._choice_flip_tables(topo)
    assert table.shape == (m + 1, 2 * n, len(choices))
    slices = _basis_slices(n, m)

    def walk(circuit):
        return np.array([pauli.z_mask(simulator.propagate_frame(circuit, sl))
                         for sl in slices]).reshape(m + 1, 2 * n)
    assert np.array_equal(oracles._flip_rows(topo), walk(topo))
    for c, choice in enumerate(choices):
        assert np.array_equal(table[..., c],
                              walk(traps.generate_trap(topo, choice)))
    # every (choice, location, bit) as one row of the batched frame
    basis = np.eye(2 * n, dtype=np.uint8)
    errors = np.zeros((m + 1, 2 * n, m + 1, 2 * n), dtype=np.uint8)
    errors[np.arange(m + 1), :, np.arange(m + 1)] = basis
    errors = np.broadcast_to(errors, (len(choices),) + errors.shape)
    errors = errors.reshape(-1, m + 1, 2 * n)
    gates = np.repeat(traps.trap_cliffords(topo, choices),
                      2 * n * (m + 1), axis=0)
    flips = simulator.frame_flips(topo, gates, simulator.frame_hits(
        errors[..., :n], errors[..., n:]))
    masks = (flips @ (1 << np.arange(n))).reshape(len(choices), m + 1, 2 * n)
    assert np.array_equal(table, masks.transpose(1, 2, 0))


@pytest.mark.parametrize("n, m, seed", [(1, 2, 0), (1, 3, 1), (2, 2, 2),
                                         (2, 3, 3)])
def test_exact_acceptance_is_the_sum_over_every_slice(n, m, seed):
    # A_k sums, over every error slice of trap slot k, the slice's
    # probability under slot k's rates times its Lemma-2 pass probability;
    # the target sits at a uniform slot and the other v traps must pass
    topo = families.random_clifford_circuit(n, m, np.random.default_rng(seed))
    v = 3
    default = {"X": 0.04, "Y": 0.02, "Z": 0.06}
    overrides = {(0, 1): {"X": 0.3}, (2, m): {"Z": 0.5},
                 (3, 0): {"X": 0.7, "Z": 0.2}, (1, 1): {"Y": 0.25, "Z": 0.1},
                 (3, m - 1): {"X": 1.0}}
    model = IndependentLocationChannels(default_rates=default,
                                        rates=overrides)
    codes = np.array(list(itertools.product(*[
        range(2 ** n if loc in (0, m) else 4 ** n) for loc in range(m + 1)])))
    x, z = oracles._bits(codes, n)  # (slices, m+1, n)
    passes = np.array([float(lemma2_exact_prob(topo, (xs, zs)))
                       for xs, zs in zip(x, z)])
    letter = x + 2 * z  # 0: I, 1: X, 2: Z, 3: Y
    trap = []
    for k in range(v + 1):
        probs = np.empty((m + 1, 4))
        for loc in range(m + 1):
            r = overrides.get((k, loc), default)
            px, py, pz = (0.0 if loc in (0, m) and p != "Z" else
                          r.get(p, 0.0) for p in "XYZ")
            probs[loc] = [1 - px - py - pz, px, pz, py]
        weight = probs[np.arange(m + 1)[:, None], letter].prod(axis=(1, 2))
        trap.append((weight * passes).sum())
    want = np.mean([np.prod([trap[k] for k in range(v + 1) if k != v0])
                    for v0 in range(v + 1)])
    assert 0.0 < want < 1.0
    assert abs(oracles.exact_acceptance(topo, v, model) - want) <= 1e-12


@pytest.mark.parametrize("target", [
    families.ghz_circuit(3),
    families.random_clifford_circuit(3, 4, np.random.default_rng(40))])
def test_accredit_acceptance_lies_in_its_hoeffding_interval(target):
    # n_acc / d against the exact acceptance probability, at risk 1e-6
    v, d = 3, 20000
    model = IndependentLocationChannels(
        default_rates={"X": 0.01, "Y": 0.01, "Z": 0.01},
        rates={(2, 1): {"X": 0.2}, (0, target.m): {"Z": 0.1}})
    p = oracles.exact_acceptance(target, v, model)
    assert 0.2 < p < 0.8
    cfg = protocol.ProtocolConfig(v=v, d=d, theta=0.05, master_seed=61,
                                  noise=model)
    freq = protocol.accredit(cfg, target).n_acc / d
    assert abs(freq - p) <= math.sqrt(math.log(2 / 1e-6) / (2 * d))


def test_exact_acceptance_needs_independent_channels():
    with pytest.raises(TypeError, match="IndependentLocationChannels"):
        oracles.exact_acceptance(families.ghz_circuit(2), 3,
                                 random_adversary(2, 2, 3,
                                                  np.random.default_rng(0)))


def test_oracles_never_read_the_engine_they_check(monkeypatch):
    """No name in ``oracles`` reaches the engine's batched trap builder or
    its layer cache, the bit-sliced trap walk, the batched frame or its
    conjugation table, and no oracle calls them."""
    engine = {"trap_cliffords", "_layer_columns", "trap_flips", "frame_flips",
              "_CONJ"}
    tree = ast.parse(inspect.getsource(oracles))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & engine

    def engine_call(*args):
        raise AssertionError("an oracle called the engine")
    monkeypatch.setattr(traps, "trap_cliffords", engine_call)
    monkeypatch.setattr(traps, "_layer_columns", engine_call)
    monkeypatch.setattr(simulator, "trap_flips", engine_call)
    monkeypatch.setattr(simulator, "frame_flips", engine_call)
    monkeypatch.setattr(simulator, "_CONJ", None)
    rng = np.random.default_rng(21)
    topo = families.random_clifford_circuit(2, 3, rng)
    oracles._choice_flip_tables.cache_clear()
    for kind in ("single", "two", "all"):
        assert all(r.passed for r in lemma2_sweep(topo, kind, rng=rng))
    adv = random_adversary(2, 3, 3, rng)
    assert theorem1_empirical(topo, 3, adv, runs=1000, rng=rng).passed
    circ = families.random_generic_circuit(1, 2, rng)
    assert twirl_channel(circ, {1: [_random_unitary(2, rng)]}).passed


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
    x, z = rep.collections
    ident = np.flatnonzero(~(x | z).any(axis=(1, 2)))
    assert len(ident) == 1
    assert rep.weights[ident[0]] > 1 - 1e-8


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
    x, z = rep.collections
    assert rep.passed
    # all recovered mass is on the Z-at-measurement collection
    target = np.flatnonzero(~x.any(axis=(1, 2))
                            & (z[:, :, 0] == [0, 0, 1]).all(axis=1))
    assert len(target) == 1
    assert rep.weights[target[0]] > 1 - 1e-8


def test_twirl_weights_do_not_follow_the_rounding_of_a_walk(monkeypatch,
                                                           plain_walk):
    # many candidates share one output distribution; unfused rounds round
    # differently, and must not move weight between such candidates
    rng = np.random.default_rng(5)
    fits = [(families.random_generic_circuit(2, 2, rng),
             {1: [_random_unitary(4, rng)]}) for _ in range(8)]
    fused = [twirl_channel(circ, channels) for circ, channels in fits]
    monkeypatch.setattr(simulator, "BLOCK", 1)
    for (circ, channels), rep in zip(fits, fused):
        unfused = twirl_channel(circ, channels)
        assert rep.passed and unfused.passed
        assert np.abs(unfused.weights - rep.weights).max() < 1e-9
        # each output's weight sits on its first candidate
        x, z = rep.collections
        outputs = plain_walk(circ, (x, z)).round(9)
        for i in np.flatnonzero(rep.weights):
            assert not (outputs[:i] == outputs[i]).all(axis=1).any()


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                                  (2, 3)])
def test_twirl_candidates_are_every_slice_once(n, m):
    circ = families.random_generic_circuit(n, m, np.random.default_rng(6))
    rep = twirl_channel(circ, {})
    x, z = rep.collections
    assert x.shape == z.shape == (len(rep.weights), m + 1, n)
    rows = np.concatenate((x, z), axis=-1).reshape(len(x), -1)
    assert len(rows) == 2 ** (2 * n) * 4 ** (n * (m - 1))
    assert len(np.unique(rows, axis=0)) == len(rows)  # each exactly once
    assert not x[:, [0, m]].any()  # Z-only at the end locations
    assert not rows[0].any()  # identity first


def _random_channel(dim, kraus, rng):
    """``kraus`` Kraus operators of a random channel on ``dim`` levels:
    the blocks of a random isometry, so that they sum to the identity."""
    isometry = _random_unitary(dim * kraus, rng)[:, :dim]
    return [isometry[k * dim:(k + 1) * dim] for k in range(kraus)]


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_pad_average_matches_the_per_pad_loop(n, m):
    """The batched walk against qotp.dress and run_density, one pad row at
    a time, under multi-Kraus channels at several locations, location 0
    among them."""
    rng = np.random.default_rng(40 + 10 * n + m)
    circ = families.random_generic_circuit(n, m, rng)
    channels = {0: _random_channel(2 ** n, 2, rng),
                m: _random_channel(2 ** n, 3, rng)}
    if m > 1:
        channels[1] = [_random_unitary(2 ** n, rng)]
    width = qotp.pad_width(n, m)
    total = np.zeros(2 ** n)
    for code in range(2 ** width):
        dressed, key = qotp.dress(circ, simulator.index_to_bits(code, width))
        outputs = np.arange(2 ** n) ^ simulator.bits_to_index(key)
        total += simulator.run_density(dressed, channels)[outputs]
    averaged = oracles.pad_averaged_distribution(circ, channels)
    assert np.abs(averaged - total / 2 ** width).max() <= 1e-12


def test_pad_average_checks_channels_before_any_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a state was walked")
    monkeypatch.setattr(simulator, "_walk", no_walk)
    circ = families.random_generic_circuit(2, 2, np.random.default_rng(41))
    half = 0.5 * np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="trace-preserving"):
        oracles.pad_averaged_distribution(circ, {1: [half]})
    for loc in (3, -1):
        with pytest.raises(ValueError, match=f"location {loc} lies outside"):
            oracles.pad_averaged_distribution(circ, {loc: [np.eye(4)]})


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
        assert accept.shape[:2] == corrupted.shape == (len(adv.bits), 4)
        assert np.array_equal(probs, adv.probs)
        choices = traps.enumerate_choices(target)
        for e, (x, z) in enumerate(adv.bits):
            for k in range(4):
                errs = [PauliString(n, simulator.bits_to_index(xl),
                                    simulator.bits_to_index(zl))
                        for xl, zl in zip(x[k], z[k])]
                # trap acceptance choice by choice through the signed walk
                assert accept[e, k].tolist() == [
                    not pauli.z_mask(simulator.propagate_frame(
                        traps.generate_trap(target, c), errs))
                    for c in choices]
                assert corrupted[e, k] == oracles.corrupts_target(target,
                                                                  errs)
                seen.add(bool(corrupted[e, k]))
    assert seen == {False, True}



def _sampler_before_slots(target, v, adversary, runs, rng):
    """freq(accept AND corrupted) by the sampler that gathered every
    (run, slot) at once: rng.choice, then v0, then the (runs, v+1) trap
    choices, the target slot overwritten as accepting."""
    accept, corrupted, probs = oracles._acceptance_tables(target, adversary)
    n_entries, _, n_choices = accept.shape
    entry_idx = rng.choice(n_entries, size=runs, p=probs)
    v0 = rng.integers(0, v + 1, size=runs)
    choice_idx = rng.integers(0, n_choices, size=(runs, v + 1))
    per_slot = accept[entry_idx[:, None], np.arange(v + 1)[None, :],
                      choice_idx]
    per_slot[np.arange(runs), v0] = True
    return float((per_slot.all(axis=1) & corrupted[entry_idx, v0]).mean())


def _weighted_adversary(n, m, v, weights, rng):
    """One random collection per weight, zero weights included: each puts
    a random non-identity Pauli at a random inner location of one or two
    random slots, so that some runs accept a corrupted target."""
    entries = []
    for w in weights:
        circuits = [[PauliString(n)] * (m + 1) for _ in range(v + 1)]
        for k in rng.choice(v + 1, size=int(rng.integers(1, 3)),
                            replace=False):
            x, z = rng.integers(0, 2 ** n, size=2).tolist()
            circuits[k][int(rng.integers(1, m))] = PauliString(n, x, z or 1)
        entries.append((PauliErrorCollection(tuple(map(tuple, circuits))),
                        w))
    return ExplicitCollectionDistribution(entries)


@pytest.mark.parametrize("v", [3, 7, 8, 11])
@pytest.mark.parametrize("chunk", [None, 37])
def test_theorem1_sampler_keeps_the_draws_of_the_full_gather(
        v, chunk, monkeypatch):
    # the same entries, slots and trap choices as the (runs, v+1) gather,
    # so the same frequency, and the generator left in the same state; a
    # small chunk draws the trap choices in many uneven blocks
    if chunk:
        monkeypatch.setattr(oracles, "SWEEP_CHUNK", chunk)
    rng = np.random.default_rng(100 + v)
    n, m = 2, 2
    target = families.random_clifford_circuit(n, m, rng)
    adversaries = [random_adversary(n, m, v, rng),
                   _weighted_adversary(n, m, v, [0.0, 0.5, 0.0, 0.3, 0.2,
                                                 0.0], rng),
                   _weighted_adversary(n, m, v, [0.0, 1.0], rng)]
    wants = []
    for adv in adversaries:
        seed = int(rng.integers(2 ** 32))
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        runs = 3001
        rep = theorem1_empirical(target, v, adv, runs=runs, rng=new)
        want = _sampler_before_slots(target, v, adv, runs, old)
        assert rep.probability == want
        assert new.bit_generator.state == old.bit_generator.state
        wants.append(want)
    assert wants[1] > 0  # the mixture with zero weights corrupts some runs


class _Draws:
    """A generator stand-in whose ``random`` hands out fixed uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return self.u


@pytest.mark.parametrize("entries", [1, 3, 30, 300])
def test_choice_draw_is_rng_choice(entries):
    rng = np.random.default_rng(entries)
    probs = rng.dirichlet(np.ones(entries))
    probs[rng.random(entries) < 0.3] = 0.0  # zero-weight entries
    probs[rng.integers(entries)] = 1.0
    probs /= probs.sum()
    runs = 10 ** 4
    seed = int(rng.integers(2 ** 32))
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    picked = oracles._choice_draw(probs, runs, new)
    assert np.array_equal(picked, old.choice(entries, size=runs, p=probs))
    assert new.bit_generator.state == old.bit_generator.state
    assert (probs[picked] > 0).all()
    # the rule itself: each uniform picks the count of normalised cdf
    # values at or below it, exact hits on the cdf included
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = np.concatenate(([0.0], cdf[:-1], np.nextafter(cdf[:-1], 0),
                        rng.random(100)))
    want = [sum(c <= x for c in cdf[:-1]) for x in u]
    assert oracles._choice_draw(probs, len(u), _Draws(u)).tolist() == want


def test_theorem1_draw_cap(monkeypatch):
    assert oracles.THEOREM1_DRAW_CAP == 2 ** 24
    target = families.random_clifford_circuit(2, 2, np.random.default_rng(9))
    adv = ExplicitCollectionDistribution([(identity_collection(4, 2, 2), 1.0)])

    def no_tables(*args):
        raise AssertionError("a table was built")
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_acceptance_tables", no_tables)
        # 10^9 runs x 4 slots, refused before any table or draw
        with pytest.raises(ValueError, match="too large to draw"):
            theorem1_empirical(target, 3, adv, runs=10 ** 9, rng=rng)
    assert rng.bit_generator.state == state
    # 25 runs x 4 slots sit at a cap of 100 slot draws, 26 exceed it
    monkeypatch.setattr(oracles, "THEOREM1_DRAW_CAP", 100)
    assert theorem1_empirical(target, 3, adv, runs=25, rng=rng).passed
    with pytest.raises(ValueError, match="26 runs x 4 slots"):
        theorem1_empirical(target, 3, adv, runs=26, rng=rng)

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
