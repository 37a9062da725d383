import numpy as np
import pytest

from qaccredit import noise, pauli
from qaccredit.noise import (BoundedGateNoise, CompositeModel,
                             ExplicitCollectionDistribution,
                             IndependentLocationChannels,
                             PauliErrorCollection, identity_collection,
                             model_from_json, noiseless)
from qaccredit.pauli import PauliString


def _uniform_collection(num, n, m, letter_z=True):
    locs = []
    for loc in range(m + 1):
        locs.append(PauliString(n, 0, 1) if letter_z else PauliString(n))
    return PauliErrorCollection(tuple(tuple(locs) for _ in range(num)))


def test_z_only_constraint_enforced():
    with pytest.raises(ValueError, match="Z-only"):
        PauliErrorCollection(((PauliString(1, 1, 0), PauliString(1)),))
    with pytest.raises(ValueError, match="Z-only"):
        PauliErrorCollection(((PauliString(1), PauliString(1, 1, 1)),))
    # X anywhere in the middle is fine
    PauliErrorCollection(
        ((PauliString(1), PauliString(1, 1, 0), PauliString(1)),))


def test_noiseless_model():
    model = noiseless()
    coll = model.sample_collection(3, 2, 2, np.random.default_rng(0))
    assert coll.touched_circuits() == []
    assert coll == identity_collection(4, 2, 2)


def test_explicit_distribution_frequencies():
    c1 = _uniform_collection(2, 1, 1)
    c2 = identity_collection(2, 1, 1)
    model = ExplicitCollectionDistribution([(c1, 0.3), (c2, 0.7)])
    rng = np.random.default_rng(1)
    draws = 10 ** 4
    hits = sum(model.sample_collection(1, 1, 1, rng) == c1
               for _ in range(draws))
    sigma = np.sqrt(0.3 * 0.7 / draws)
    assert abs(hits / draws - 0.3) < 3 * sigma


def test_explicit_distribution_validation():
    c = identity_collection(1, 1, 1)
    with pytest.raises(ValueError):
        ExplicitCollectionDistribution([(c, 0.5), (c, 0.4)])
    with pytest.raises(ValueError):
        ExplicitCollectionDistribution([(c, -0.1), (c, 1.1)])


def test_independent_channels_degenerate_rate():
    model = IndependentLocationChannels(rates={(1, 2): {"Z": 1.0}})
    rng = np.random.default_rng(2)
    coll = model.sample_collection(1, 3, 2, rng)
    p = coll.slice_for(1)[2]
    assert p.z_bits == 0b111 and p.x_bits == 0
    # untouched circuits stay identity
    assert coll.is_identity_on(0)


def test_independent_channels_respect_z_only_ends():
    model = IndependentLocationChannels(default_rates={"X": 0.9, "Z": 0.05})
    rng = np.random.default_rng(3)
    for _ in range(50):
        coll = model.sample_collection(1, 2, 2, rng)
        for k in range(2):
            locs = coll.slice_for(k)
            assert locs[0].x_bits == 0 and locs[-1].x_bits == 0


def test_gate_deviation_rates():
    rng = np.random.default_rng(4)
    zero = BoundedGateNoise(rate=0.0, n=2)
    assert all(zero.sample_gate_deviation(0, 0, rng) is None
               for _ in range(100))
    hot = BoundedGateNoise(rate=1 - 1e-9, n=2)
    fired = sum(hot.sample_gate_deviation(0, 0, rng) is not None
                for _ in range(10 ** 4))
    assert fired >= 9990
    a = BoundedGateNoise(rate=0.5, n=2).sample_gate_deviation(
        0, 0, np.random.default_rng(9))
    b = BoundedGateNoise(rate=0.5, n=2).sample_gate_deviation(
        0, 0, np.random.default_rng(9))
    assert a == b


def test_gate_deviation_is_nonidentity_pauli():
    model = BoundedGateNoise(rate=1 - 1e-12, n=3)
    rng = np.random.default_rng(5)
    for _ in range(100):
        dev = model.sample_gate_deviation(0, 0, rng)
        assert dev is not None
        assert (dev.x, dev.z) != (0, 0)
        assert 0 <= dev.qubit < 3


def test_rate_bounds():
    with pytest.raises(ValueError):
        BoundedGateNoise(rate=1.0, n=1)


def test_g_factor():
    assert BoundedGateNoise(rate=0.0, n=1).g_factor(3, 2) == 1.0
    single = BoundedGateNoise(rate={(0, 0): 0.5}, n=1)
    assert single.g_factor(0, 1) == 0.5
    uniform = BoundedGateNoise(rate=0.1, n=1)
    assert abs(uniform.g_factor(1, 2) - 0.9 ** 4) < 1e-15


def test_independent_channels_reject_bad_rates():
    for bad in ({"X": 0.8, "Y": 0.8, "Z": -0.3}, {"Z": -0.1},
                {"X": 0.5, "Y": 0.3, "Z": 0.3}):
        with pytest.raises(ValueError, match="X \\+ Y \\+ Z <= 1"):
            IndependentLocationChannels(default_rates=bad)
        with pytest.raises(ValueError):
            IndependentLocationChannels(rates={(0, 1): bad})
    with pytest.raises(ValueError):
        model_from_json('{"variant": "independent", "rates": '
                        '[{"k": 0, "loc": 1, "X": 0.6, "Z": 0.6}]}')
    IndependentLocationChannels(default_rates={"X": 0.5, "Y": 0.25, "Z": 0.25})


def test_sample_deviations_draws_band_by_band():
    model = BoundedGateNoise(rate=0.5, n=3)
    devs = model.sample_deviations(2, 4, np.random.default_rng(12))
    rng = np.random.default_rng(12)
    expected = {}
    for j in range(4):
        dev = model.sample_gate_deviation(2, j, rng)
        if dev is not None:
            expected[j] = [dev]
    assert devs == expected
    assert noiseless().sample_deviations(0, 4, np.random.default_rng(0)) == {}


def test_composite_model():
    model = CompositeModel(pauli_part=noiseless(),
                           gate_part=BoundedGateNoise(rate=0.2, n=2))
    assert model.has_pauli_part and model.has_gate_part
    rng = np.random.default_rng(6)
    assert model.sample_collection(3, 2, 2, rng).touched_circuits() == []
    assert model.gate_rate(0, 1) == 0.2


def test_pauli_part_missing():
    model = BoundedGateNoise(rate=0.1, n=1)
    with pytest.raises(ValueError, match="no Pauli-collection part"):
        model.sample_collection(3, 1, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="no gate-noise part"):
        noiseless().sample_gate_deviation(0, 0, np.random.default_rng(0))


def test_model_json_variants():
    assert isinstance(model_from_json('{"variant": "noiseless"}'),
                      noise.NoiselessModel)
    doc = ('{"variant": "explicit", "entries": [{"prob": 1.0, '
           '"collection": [["Z", "X", "I"], ["I", "I", "Z"]]}]}')
    model = model_from_json(doc)
    coll = model.sample_collection(1, 1, 2, np.random.default_rng(0))
    assert pauli.to_text(coll.slice_for(0)[0]) == "Z"
    assert pauli.to_text(coll.slice_for(1)[2]) == "Z"
    model = model_from_json('{"variant": "bounded_gate", "rate": 0.25, "n": 2}')
    assert model.gate_rate(0, 0) == 0.25
    model = model_from_json(
        '{"variant": "composite", "pauli": {"variant": "noiseless"}, '
        '"gate": {"variant": "bounded_gate", "rate": 0.1, "n": 1}}')
    assert model.has_pauli_part and model.has_gate_part
    with pytest.raises(ValueError, match="variant"):
        model_from_json('{"variant": "bogus"}')
