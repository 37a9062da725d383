import numpy as np
import pytest

from qaccredit import noise, pauli, simulator
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


def test_collection_rejects_no_circuits():
    with pytest.raises(ValueError, match="at least one circuit"):
        PauliErrorCollection(())


def test_collection_rejects_different_location_counts():
    with pytest.raises(ValueError, match="location counts"):
        PauliErrorCollection(((PauliString(1),) * 3, (PauliString(1),) * 4))


def test_collection_rejects_different_qubit_counts():
    # X on qubit 1 of a 2-qubit string among 1-qubit strings used to read
    # as noiseless
    with pytest.raises(ValueError, match="qubit counts"):
        PauliErrorCollection(
            ((PauliString(1), PauliString(2, 0b10, 0), PauliString(1)),))
    with pytest.raises(ValueError, match="qubit counts"):
        PauliErrorCollection(((PauliString(1),) * 3, (PauliString(2),) * 3))


def test_explicit_distribution_rejects_different_shapes():
    with pytest.raises(ValueError, match="different shapes"):
        ExplicitCollectionDistribution([(identity_collection(2, 1, 2), 0.5),
                                        (identity_collection(3, 1, 2), 0.5)])


def test_noiseless_model():
    model = noiseless()
    x, z = model.sample_error_bits(3, 2, 2, np.random.default_rng(0))
    assert x.shape == z.shape == (4, 3, 2) and not x.any() and not z.any()


def test_explicit_distribution_frequencies():
    c1 = _uniform_collection(2, 1, 1)
    c2 = identity_collection(2, 1, 1)
    model = ExplicitCollectionDistribution([(c1, 0.3), (c2, 0.7)])
    rng = np.random.default_rng(1)
    draws = 10 ** 4
    # c1 puts Z at every location, c2 nothing
    hits = sum(model.sample_error_bits(1, 1, 1, rng)[1].all()
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
    x, z = model.sample_error_bits(1, 3, 2, rng)
    assert z[1, 2].all() and not x[1, 2].any()
    # untouched circuits stay identity
    assert not x[0].any() and not z[0].any()


def test_independent_channels_respect_z_only_ends():
    model = IndependentLocationChannels(default_rates={"X": 0.9, "Z": 0.05})
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, _ = model.sample_error_bits(1, 2, 2, rng)
        assert not x[:, [0, -1]].any()


def test_gate_deviation_rates():
    # one circuit of one band: one round that may fire
    rng = np.random.default_rng(4)
    zero = BoundedGateNoise(rate=0.0, n=2)
    assert not any(np.any(zero.sample_error_bits(0, 2, 1, rng))
                   for _ in range(100))
    hot = BoundedGateNoise(rate=1 - 1e-9, n=2)
    fired = sum(np.any(hot.sample_error_bits(0, 2, 1, rng))
                for _ in range(10 ** 4))
    assert fired >= 9990
    a = BoundedGateNoise(rate=0.5, n=2).sample_error_bits(
        0, 2, 8, np.random.default_rng(9))
    b = BoundedGateNoise(rate=0.5, n=2).sample_error_bits(
        0, 2, 8, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_gate_deviation_is_nonidentity_pauli():
    model = BoundedGateNoise(rate=1 - 1e-12, n=3)
    rng = np.random.default_rng(5)
    letters = set()
    for _ in range(100):
        x, z = model.sample_error_bits(0, 3, 1, rng)
        assert x.shape == z.shape == (1, 2, 3)
        assert x.dtype == z.dtype == np.uint8
        # nothing at location 0; the band-0 deviation at location 1
        assert not x[0, 0].any() and not z[0, 0].any()
        (q,) = np.flatnonzero(x[0, 1] | z[0, 1])  # one qubit
        letters.add({(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[x[0, 1, q],
                                                            z[0, 1, q]])
    assert letters == {"X", "Y", "Z"}


def test_rate_bounds():
    with pytest.raises(ValueError):
        BoundedGateNoise(rate=1.0, n=1)


def test_g_factor():
    assert BoundedGateNoise(rate=0.0, n=1).g_factor(3, 2) == 1.0
    assert BoundedGateNoise(rate=0.5, n=1).g_factor(0, 1) == 0.5
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


def test_independent_channels_reject_locations_outside_the_run():
    for key in ((0, -1), (-1, 0), (0.0, 1), (0, "1")):
        with pytest.raises(ValueError, match="integers"):
            IndependentLocationChannels(rates={key: {"Z": 1.0}})
    rng = np.random.default_rng(0)
    for key in ((9, 1), (0, 3)):
        model = IndependentLocationChannels(rates={key: {"Z": 1.0}})
        with pytest.raises(ValueError, match=f"k={key[0]}, loc={key[1]}"):
            model.sample_error_bits(3, 2, 2, rng)
    # the same key is fine where it lies inside the run
    model = IndependentLocationChannels(rates={(9, 1): {"Z": 1.0}})
    x, z = model.sample_error_bits(9, 2, 2, rng)
    assert z[9, 1].all() and not z.sum() - z[9, 1].sum()
    with pytest.raises(ValueError, match="integers"):
        model_from_json('{"variant": "independent", "rates": '
                        '[{"k": 0, "loc": -1, "Z": 1.0}]}')


def test_gate_noise_draws_band_by_band_at_the_next_location():
    model = BoundedGateNoise(rate=0.5, n=3)
    bits = model.sample_error_bits(2, 3, 4, np.random.default_rng(12))
    # circuit by circuit and band by band: the firing uniform, then the
    # qubit and the letter; band j's deviation sits at location j+1
    rng = np.random.default_rng(12)
    expected = np.zeros((2, 3, 5, 3), dtype=np.uint8)
    for k in range(3):
        for j in range(4):
            if rng.random() < 0.5:
                q = int(rng.integers(0, 3))
                x, z = [(1, 0), (1, 1), (0, 1)][int(rng.integers(0, 3))]
                expected[:, k, j + 1, q] = x, z
    assert expected[:, :, 4].any() and not expected[:, :, 0].any()
    assert np.array_equal(bits, expected)


def test_gate_noise_rejects_another_qubit_count():
    model = BoundedGateNoise(rate=0.5, n=6)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for sampler in (model, CompositeModel(gate_part=model),
                    CompositeModel(pauli_part=model)):
        with pytest.raises(ValueError, match="n=6 .* n=2"):
            sampler.sample_error_bits(3, 2, 2, rng)
        # raised before any draw
        assert rng.bit_generator.state == state


def test_composite_model():
    pauli_part = IndependentLocationChannels(default_rates={"X": 0.1,
                                                            "Z": 0.2})
    gate = BoundedGateNoise(rate=0.2, n=2)
    model = CompositeModel(pauli_part=pauli_part, gate_part=gate)
    x, z = model.sample_error_bits(3, 2, 9, np.random.default_rng(7))
    # the XOR of the parts' bits, drawn from one generator, Pauli part first
    rng = np.random.default_rng(7)
    px, pz = pauli_part.sample_error_bits(3, 2, 9, rng)
    gx, gz = gate.sample_error_bits(3, 2, 9, rng)
    assert px.any() and gx.any()
    assert np.array_equal(x, px ^ gx) and np.array_equal(z, pz ^ gz)
    # g is the product of the parts' g factors, whichever slot holds a part
    assert model.g_factor(3, 2) == gate.g_factor(3, 2)
    assert abs(model.g_factor(3, 2) - 0.8 ** 8) < 1e-15
    both = CompositeModel(pauli_part=BoundedGateNoise(rate=0.5, n=2),
                          gate_part=gate)
    assert both.g_factor(3, 2) == 0.5 ** 8 * gate.g_factor(3, 2)
    assert CompositeModel(pauli_part=gate).g_factor(3, 2) \
        == gate.g_factor(3, 2)


def test_models_without_gate_noise():
    # no noise draws nothing; no gate noise means g = 1
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for model in (noiseless(), CompositeModel(),
                  CompositeModel(pauli_part=noiseless())):
        x, z = model.sample_error_bits(3, 1, 1, rng)
        assert x.shape == z.shape == (4, 2, 1) and not x.any() and not z.any()
    assert rng.bit_generator.state == state
    for model in (noiseless(),
                  IndependentLocationChannels(default_rates={"Z": 0.5}),
                  ExplicitCollectionDistribution(
                      [(identity_collection(4, 1, 2), 1.0)]),
                  CompositeModel(pauli_part=IndependentLocationChannels()),
                  BoundedGateNoise(rate=0.0, n=1)):
        assert model.g_factor(3, 2) == 1.0


def test_model_json_variants():
    assert type(model_from_json('{"variant": "noiseless"}')) \
        is noise.NoiseModel
    doc = ('{"variant": "explicit", "entries": [{"prob": 1.0, '
           '"collection": [["Z", "X", "I"], ["I", "I", "Z"]]}]}')
    model = model_from_json(doc)
    x, z = model.sample_error_bits(1, 1, 2, np.random.default_rng(0))
    assert x[:, :, 0].tolist() == [[0, 1, 0], [0, 0, 0]]
    assert z[:, :, 0].tolist() == [[1, 0, 0], [0, 0, 1]]
    model = model_from_json('{"variant": "bounded_gate", "rate": 0.25, "n": 2}')
    assert model.rate == 0.25
    model = model_from_json(
        '{"variant": "composite", "pauli": {"variant": "noiseless"}, '
        '"gate": {"variant": "bounded_gate", "rate": 0.1, "n": 1}}')
    assert isinstance(model, CompositeModel) and model.gate_part.rate == 0.1
    with pytest.raises(ValueError, match="variant"):
        model_from_json('{"variant": "bogus"}')


def test_independent_error_bits_match_rates():
    rates = {"X": 0.1, "Y": 0.2, "Z": 0.3}
    model = IndependentLocationChannels(default_rates=rates,
                                        rates={(1, 2): {"Y": 0.5}})
    v, n, m, draws = 2, 4, 3, 4000
    x = np.empty((draws, v + 1, m + 1, n), np.uint8)
    z = np.empty_like(x)
    rng = np.random.default_rng(13)
    for i in range(draws):
        x[i], z[i] = model.sample_error_bits(v, n, m, rng)

    def freqs(sel):
        xs, zs = x[(slice(None),) + sel], z[(slice(None),) + sel]
        return {"X": (xs & ~zs).mean(), "Y": (xs & zs).mean(),
                "Z": (~xs & zs).mean()}

    samples = draws * n
    for sel, expected in (((0, 1), rates), ((2, 2), rates),
                          ((1, 2), {"X": 0.0, "Y": 0.5, "Z": 0.0}),
                          ((0, 0), {"X": 0.0, "Y": 0.0, "Z": 0.3}),
                          ((1, m), {"X": 0.0, "Y": 0.0, "Z": 0.3})):
        for letter, f in freqs(sel).items():
            p = expected[letter]
            assert abs(f - p) <= 5 * np.sqrt(p * (1 - p) / samples) + 1e-12
    # X and Y never fire at the end locations
    assert not x[:, :, 0].any() and not x[:, :, m].any()


def test_error_bits_agree_with_collections():
    coll = PauliErrorCollection(tuple(
        tuple(pauli.from_text(s) for s in locs)
        for locs in (["Z", "X", "I"], ["I", "Y", "Z"])))
    model = ExplicitCollectionDistribution([(coll, 1.0)])
    x, z = model.sample_error_bits(1, 1, 2, np.random.default_rng(0))
    assert x[:, :, 0].tolist() == [[0, 1, 0], [0, 1, 0]]
    assert z[:, :, 0].tolist() == [[1, 0, 0], [0, 1, 1]]
    # the bits are the collection's own, handed out read-only
    assert np.array_equal((x, z), coll.to_bits())
    with pytest.raises(ValueError, match="read-only"):
        x[0, 1] = 0
    with pytest.raises(ValueError, match="shape"):
        model.sample_error_bits(1, 2, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="shape"):
        model.sample_error_bits(2, 1, 2, np.random.default_rng(0))
    x, z = noiseless().sample_error_bits(3, 2, 4, np.random.default_rng(0))
    assert x.shape == z.shape == (4, 5, 2) and not x.any() and not z.any()
    # a composite multiplies into new arrays, never into the read-only ones
    gate = BoundedGateNoise(rate=1 - 1e-12, n=1)
    composite = CompositeModel(pauli_part=model, gate_part=gate)
    cx, cz = composite.sample_error_bits(1, 1, 2, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    x, z = model.sample_error_bits(1, 1, 2, rng)
    gx, gz = gate.sample_error_bits(1, 1, 2, rng)
    assert gx.any() or gz.any()
    assert np.array_equal(cx, x ^ gx) and np.array_equal(cz, z ^ gz)
    assert np.array_equal((x, z), coll.to_bits())


@pytest.mark.parametrize("n", [1, 8, 63, 64, 100])
def test_to_bits_matches_per_string_reference(n):
    rng = np.random.default_rng(n)
    m = 3

    def mask():
        return int.from_bytes(rng.bytes(16), "little") % (1 << n)

    circuits = tuple(
        tuple(PauliString(n, 0 if loc in (0, m) else mask(), mask())
              for loc in range(m + 1))
        for _ in range(4))
    x, z = PauliErrorCollection(circuits).to_bits()
    for bits, attr in ((x, "x_bits"), (z, "z_bits")):
        want = [[simulator.index_to_bits(getattr(p, attr), n) for p in locs]
                for locs in circuits]
        assert bits.dtype == np.uint8 and bits.shape == (4, m + 1, n)
        assert np.array_equal(bits, want)
    # high qubits are reached: some bit above 62 is set at n >= 64
    if n >= 64:
        assert z[..., 63:].any()


def test_rates_and_probabilities_must_be_real_numbers():
    coll = identity_collection(4, 1, 2)
    for bad in (True, "1", None):
        with pytest.raises(TypeError, match="probability must be a real"):
            ExplicitCollectionDistribution([(coll, bad)])
        with pytest.raises(TypeError, match="rate X must be a real"):
            IndependentLocationChannels(default_rates={"X": bad})
        with pytest.raises(TypeError, match="rate Z must be a real"):
            IndependentLocationChannels(rates={(0, 1): {"Z": bad}})
    with pytest.raises(TypeError, match="must map X, Y, Z"):
        IndependentLocationChannels(default_rates=[("X", 0.1)])
    # NaN is a real number but no probability
    with pytest.raises(ValueError, match="nonnegative"):
        ExplicitCollectionDistribution([(coll, float("nan")), (coll, 1.0)])
    # numpy numbers are real numbers
    model = ExplicitCollectionDistribution([(coll, np.float32(1.0))])
    assert model.probs.tolist() == [1.0]
    model = IndependentLocationChannels(
        default_rates={"Z": np.float64(1.0)}, rates={(0, 1): {"X": np.int64(1)}})
    x, z = model.sample_error_bits(3, 1, 2, np.random.default_rng(0))
    assert z[:, [0, 2]].all() and x[0, 1].all() and not z[0, 1].any()


def test_independent_channels_reject_unknown_rate_keys():
    for bad in ({"x": 0.5}, {"X": 0.1, "Q": 0.1}):
        with pytest.raises(ValueError, match="unknown"):
            IndependentLocationChannels(default_rates=bad)
        with pytest.raises(ValueError, match="unknown"):
            IndependentLocationChannels(rates={(0, 1): bad})
    for doc in ('{"variant": "independent", "default_rates": {"x": 0.5}}',
                '{"variant": "independent", "rates": '
                '[{"k": 0, "loc": 1, "x": 0.5}]}',
                '{"variant": "independent", "rates": '
                '[{"k": 0, "loc": 1, "Z": 0.5, "prob": 1}]}'):
        with pytest.raises(ValueError, match="unknown"):
            model_from_json(doc)
    model = model_from_json('{"variant": "independent", "rates": '
                            '[{"k": 0, "loc": 1, "X": 1.0}]}')
    x, _ = model.sample_error_bits(1, 2, 2, np.random.default_rng(0))
    assert x[0, 1].all() and not x[1].any()


def _touched(coll):
    """Slots of a collection that carry a non-identity Pauli."""
    return [k for k, locs in enumerate(coll.circuits)
            if any(not p.is_identity for p in locs)]


def test_random_adversary_touches_one_location_per_slot():
    rng = np.random.default_rng(8)
    for _ in range(50):
        adv = noise.random_adversary(3, 4, 3, rng)
        assert 1 <= len(adv.entries) <= 3
        assert abs(sum(p for _, p in adv.entries) - 1.0) < 1e-12
        touched = None
        for coll, _ in adv.entries:
            slots = _touched(coll)
            assert touched is None or slots == touched
            touched = slots
            for k in slots:
                assert sum(not p.is_identity for p in coll.circuits[k]) == 1
        assert 1 <= len(touched) <= 4


def test_random_adversary_min_slots():
    rng = np.random.default_rng(9)
    for _ in range(50):
        adv = noise.random_adversary(2, 2, 3, rng, min_slots=2)
        assert all(len(_touched(coll)) >= 2
                   for coll, _ in adv.entries)
    for bad in (0, 5):
        with pytest.raises(ValueError, match="min_slots"):
            noise.random_adversary(2, 2, 3, rng, min_slots=bad)
