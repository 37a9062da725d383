import numpy as np
import pytest

from qaccredit import noise, pauli, simulator
from qaccredit.noise import (BoundedGateNoise, CompositeModel,
                             ExplicitCollectionDistribution,
                             IndependentLocationChannels,
                             PauliErrorCollection, identity_collection,
                             model_from_json, noiseless)
from qaccredit.pauli import PauliString


def _one_run(model, v, n, m, rng):
    """One run's (x, z) bits of shape (v+1, m+1, n): the sampler at R = 1."""
    x, z = model.sample_error_bits(1, v, n, m, rng)
    assert x.shape == z.shape == (1, v + 1, m + 1, n)
    return x[0], z[0]


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
    x, z = model.sample_error_bits(5, 3, 2, 2, np.random.default_rng(0))
    assert x.shape == z.shape == (5, 4, 3, 2) and not x.any() and not z.any()


def test_explicit_distribution_frequencies():
    c1 = _uniform_collection(2, 1, 1)
    c2 = identity_collection(2, 1, 1)
    model = ExplicitCollectionDistribution([(c1, 0.3), (c2, 0.7)])
    rng = np.random.default_rng(1)
    draws = 10 ** 4
    # c1 puts Z at every location, c2 nothing; one draw picks every run's
    z = model.sample_error_bits(draws, 1, 1, 1, rng)[1]
    hits = z.all(axis=(1, 2, 3)).sum()
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
    x, z = _one_run(model, 1, 3, 2, rng)
    assert z[1, 2].all() and not x[1, 2].any()
    # untouched circuits stay identity
    assert not x[0].any() and not z[0].any()


def test_independent_channels_respect_z_only_ends():
    model = IndependentLocationChannels(default_rates={"X": 0.9, "Z": 0.05})
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, _ = _one_run(model, 1, 2, 2, rng)
        assert not x[:, [0, -1]].any()


def test_gate_deviation_rates():
    # one circuit of one band: one round that may fire
    rng = np.random.default_rng(4)
    zero = BoundedGateNoise(rate=0.0, n=2)
    assert not np.any(zero.sample_error_bits(100, 0, 2, 1, rng))
    hot = BoundedGateNoise(rate=1 - 1e-9, n=2)
    x, z = hot.sample_error_bits(10 ** 4, 0, 2, 1, rng)
    fired = (x | z).any(axis=(1, 2, 3)).sum()
    assert fired >= 9990
    a = BoundedGateNoise(rate=0.5, n=2).sample_error_bits(
        3, 0, 2, 8, np.random.default_rng(9))
    b = BoundedGateNoise(rate=0.5, n=2).sample_error_bits(
        3, 0, 2, 8, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_gate_deviation_is_nonidentity_pauli():
    model = BoundedGateNoise(rate=1 - 1e-12, n=3)
    rng = np.random.default_rng(5)
    letters = set()
    for _ in range(100):
        x, z = _one_run(model, 0, 3, 1, rng)
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
            _one_run(model, 3, 2, 2, rng)
    # the same key is fine where it lies inside the run
    model = IndependentLocationChannels(rates={(9, 1): {"Z": 1.0}})
    x, z = _one_run(model, 9, 2, 2, rng)
    assert z[9, 1].all() and not z.sum() - z[9, 1].sum()
    with pytest.raises(ValueError, match="integers"):
        model_from_json('{"variant": "independent", "rates": '
                        '[{"k": 0, "loc": -1, "Z": 1.0}]}')


def test_gate_noise_draws_band_by_band_at_the_next_location():
    model = BoundedGateNoise(rate=0.5, n=3)
    bits = model.sample_error_bits(2, 2, 3, 4, np.random.default_rng(12))
    # one firing uniform per (run, circuit, band), then the qubits and then
    # the letters of the rounds that fire, in that order; band j's
    # deviation sits at location j+1
    rng = np.random.default_rng(12)
    fires = rng.random((2, 3, 4)) < 0.5
    qubits = iter(rng.integers(0, 3, size=fires.sum()).tolist())
    letters = iter(rng.integers(0, 3, size=fires.sum()).tolist())
    expected = np.zeros((2, 2, 3, 5, 3), dtype=np.uint8)
    for r, k, j in zip(*np.nonzero(fires)):
        expected[:, r, k, j + 1, next(qubits)] = \
            [(1, 0), (1, 1), (0, 1)][next(letters)]
    assert expected[:, :, :, 4].any() and not expected[:, :, :, 0].any()
    assert np.array_equal(bits, expected)


def test_gate_noise_rejects_another_qubit_count():
    model = BoundedGateNoise(rate=0.5, n=6)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for sampler in (model, CompositeModel(gate_part=model),
                    CompositeModel(pauli_part=model)):
        with pytest.raises(ValueError, match="n=6 .* n=2"):
            sampler.sample_error_bits(4, 3, 2, 2, rng)
        # raised before any draw
        assert rng.bit_generator.state == state


def test_composite_model():
    pauli_part = IndependentLocationChannels(default_rates={"X": 0.1,
                                                            "Z": 0.2})
    gate = BoundedGateNoise(rate=0.2, n=2)
    model = CompositeModel(pauli_part=pauli_part, gate_part=gate)
    x, z = model.sample_error_bits(4, 3, 2, 9, np.random.default_rng(7))
    # the XOR of the parts' bits, drawn from one generator, Pauli part first
    rng = np.random.default_rng(7)
    px, pz = pauli_part.sample_error_bits(4, 3, 2, 9, rng)
    gx, gz = gate.sample_error_bits(4, 3, 2, 9, rng)
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
        x, z = model.sample_error_bits(6, 3, 1, 1, rng)
        assert x.shape == z.shape == (6, 4, 2, 1) and not x.any() \
            and not z.any()
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
    x, z = _one_run(model, 1, 1, 2, np.random.default_rng(0))
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
    x, z = model.sample_error_bits(draws, v, n, m, np.random.default_rng(13))

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


def _location_rates(default, overrides, v, m):
    """(v+1, m+1, 3) X, Y, Z rates as the model reads them: the default,
    a location's own override, and X = Y = 0 at the end locations."""
    rates = np.empty((v + 1, m + 1, 3))
    rates[...] = [default.get(p, 0.0) for p in "XYZ"]
    for (k, loc), r in overrides.items():
        rates[k, loc] = [r.get(p, 0.0) for p in "XYZ"]
    rates[:, [0, m], :2] = 0.0
    return rates


def _gap_reference(rates, runs, n, rng):
    """The sampler's draw, one candidate at a time: geometric gaps in
    chunks of int(r p + 4 sqrt(r p)) + 16 (r positions left) until a
    position reaches the end, then one uniform in [0, p) per candidate,
    compared with its own location's cumulative rates."""
    v1, m1, _ = rates.shape
    cum = np.cumsum(rates, axis=-1)
    size, p = runs * v1 * m1 * n, min(cum[..., 2].max(), 1.0)
    x, z = np.zeros(size, dtype=np.uint8), np.zeros(size, dtype=np.uint8)
    if p == 0:
        return x, z
    candidates, last = [], -1
    while last < size - 1:
        left = (size - 1 - last) * p
        for gap in rng.geometric(p, size=int(left + 4 * left ** 0.5) + 16):
            last += int(gap)
            candidates.append(last)
    candidates = [c for c in candidates if c < size]
    for c, u in zip(candidates, rng.random(len(candidates)) * p):
        k, loc = divmod(c // n % (v1 * m1), m1)
        below_x, below_y, below_z = cum[k, loc]
        if u < below_z:
            x[c], z[c] = u < below_y, u >= below_x
    return x, z


@pytest.mark.parametrize("default, overrides", [
    ({"X": 0.1, "Y": 0.2, "Z": 0.3}, {}),
    ({"X": 0.002, "Y": 0.002, "Z": 0.002}, {}),
    ({"X": 0.05, "Z": 0.1}, {(1, 2): {"Y": 0.5}, (0, 0): {"Z": 0.9},
                             (2, 1): {"X": 0.4, "Y": 0.6},
                             (3, 3): {"X": 1.0}}),
    ({}, {(2, 2): {"X": 0.3, "Y": 0.3, "Z": 0.3}}),
    ({}, {}),
    ({"X": 0.5, "Y": 0.25, "Z": 0.25}, {}),
])
def test_independent_error_bits_follow_the_three_comparisons(default,
                                                             overrides):
    # from one generator state: candidates by geometric gaps at the largest
    # X + Y + Z rate p, one uniform u in [0, p) each; u < X + Y sets x and
    # X <= u < X + Y + Z sets z, with a location's own rates and X = Y = 0
    # at the end locations
    model = IndependentLocationChannels(default_rates=default,
                                        rates=overrides)
    runs, v, n, m = 300, 3, 4, 3
    rates = _location_rates(default, overrides, v, m)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x, z = model.sample_error_bits(runs, v, n, m, rng)
        ref = np.random.default_rng(seed)
        want_x, want_z = _gap_reference(rates, runs, n, ref)
        assert x.dtype == z.dtype == np.uint8
        assert np.array_equal(x.reshape(-1), want_x)
        assert np.array_equal(z.reshape(-1), want_z)
        # the sampler draws nothing more than the reference
        assert rng.bit_generator.state == ref.bit_generator.state


def _explicit_reference(model, runs, rng):
    """One entry per run by ``rng.choice``, its (x, z) bits copied."""
    picked = rng.choice(len(model.probs), size=runs, p=model.probs)
    return tuple(np.stack(part)[picked] for part in zip(*model.bits))


def _gate_reference(model, runs, v, m, rng):
    """Firing rounds, then their qubits and letters, set one at a time."""
    fires = rng.random((runs, v + 1, m)) < model.rate
    qubits = rng.integers(0, model.n, size=fires.sum())
    letters = rng.integers(0, 3, size=fires.sum())
    bits = np.zeros((2, runs, v + 1, m + 1, model.n), dtype=np.uint8)
    for (r, k, j), q, letter in zip(zip(*np.nonzero(fires)), qubits,
                                    letters):
        bits[:, r, k, j + 1, q] = [(1, 0), (1, 1), (0, 1)][letter]
    return bits[0], bits[1]


def _collection(n, m, paulis):
    """Two circuits of identities but ``paulis`` {(k, loc): text}."""
    return PauliErrorCollection(tuple(
        tuple(pauli.from_text(paulis.get((k, loc), "I" * n))
              for loc in range(m + 1)) for k in range(2)))


def _hit_cases():
    """(model, dense reference) pairs by name; a reference maps (runs,
    rng) to the (x, z) bits of shape (runs, v+1, m+1, n) at v = 1, n = 3,
    m = 3."""
    v, n, m = 1, 3, 3
    shape = (v + 1, m + 1, n)

    def independent(default, overrides):
        rates = _location_rates(default, overrides, v, m)
        return (IndependentLocationChannels(default, overrides),
                lambda runs, rng: tuple(
                    bits.reshape((runs,) + shape)
                    for bits in _gap_reference(rates, runs, n, rng)))

    per_location = independent({"X": 0.05, "Z": 0.1},
                               {(1, 2): {"Y": 0.5}, (0, 1): {"X": 1.0}})
    gate = BoundedGateNoise(rate=0.3, n=n)
    mixture = ExplicitCollectionDistribution([
        (_collection(n, m, {(0, 1): "XYI", (1, 3): "ZIZ"}), 0.25),
        (identity_collection(2, n, m), 0.25),
        (_collection(n, m, {(1, 0): "IIZ", (1, 2): "YYY"}), 0.5)])
    # both parts hit qubit 0 at (0, 1), Y then X, which makes Z, and qubit
    # 1 at (1, 2), Z twice, which cancels
    first = ExplicitCollectionDistribution(
        [(_collection(n, m, {(0, 1): "YII", (1, 2): "IZX"}), 1.0)])
    second = ExplicitCollectionDistribution(
        [(_collection(n, m, {(0, 1): "XIZ", (1, 2): "IZI"}), 1.0)])

    def xor(*references):
        def draw(runs, rng):
            (ax, az), (bx, bz) = (ref(runs, rng) for ref in references)
            return ax ^ bx, az ^ bz
        return draw

    def explicit(model):
        return lambda runs, rng: _explicit_reference(model, runs, rng)

    def gates(runs, rng):
        return _gate_reference(gate, runs, v, m, rng)

    return {
        "per-location": per_location,
        "rate-1": independent({"X": 1.0}, {}),
        "gate": (gate, gates),
        "mixture": (mixture, explicit(mixture)),
        "composite": (CompositeModel(pauli_part=per_location[0],
                                     gate_part=gate),
                      xor(per_location[1], gates)),
        "cancelling": (CompositeModel(pauli_part=first, gate_part=second),
                       xor(explicit(first), explicit(second))),
        "noiseless": (noiseless(), lambda runs, rng: (np.zeros(
            (runs,) + shape, dtype=np.uint8),) * 2),
    }


@pytest.mark.parametrize("case", list(_hit_cases()))
def test_hits_scatter_to_the_dense_bits(case):
    # every model's hits are ascending positions with non-zero codes, and
    # scattered they are the dense bits of a reference that draws the same
    # numbers and sets bits one by one, leaving the generator as it does
    model, reference = _hit_cases()[case]
    v, n, m = 1, 3, 3
    for runs, seed in ((1, 0), (7, 1), (200, 2)):
        rng = np.random.default_rng(seed)
        positions, codes = model.sample_hits(runs, v, n, m, rng)
        assert positions.dtype == np.int64 and codes.dtype == np.uint8
        assert (np.diff(positions) > 0).all()
        assert ((codes >= 1) & (codes <= 3)).all()
        ref = np.random.default_rng(seed)
        want = reference(runs, ref)
        got = noise.scatter_hits((positions, codes),
                                 (runs, v + 1, m + 1, n))
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state
        # the sampler's dense bits are the same scatter
        dense = model.sample_error_bits(runs, v, n, m,
                                        np.random.default_rng(seed))
        assert np.array_equal(dense, want)


def test_zero_rates_draw_nothing():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    # X and Y at the end locations are rate 0 too
    for model in (IndependentLocationChannels(),
                  IndependentLocationChannels(rates={(1, 0): {"Y": 0.2},
                                                     (0, 2): {"X": 1.0}})):
        x, z = model.sample_error_bits(50, 2, 3, 2, rng)
        assert not x.any() and not z.any()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("top", [0.6, 1.0])
def test_independent_error_bits_follow_their_binomial_law(top):
    # firing counts per (circuit, location) over runs x n qubit draws are
    # Binomial(runs n, X + Y + Z), and given the count the letters split
    # by X, Y and Z over it; six standard deviations per check, so the
    # whole test fails by chance with probability below 1e-6. The largest
    # rate ``top`` is that of X at one location, below 1 or 1 itself
    default = {"X": 0.01, "Y": 0.02, "Z": 0.03}
    overrides = {(0, 1): {"X": 0.2}, (1, 2): {"Y": 0.5, "Z": 0.1},
                 (2, 3): {"X": top}, (3, 0): {"X": 0.4, "Z": 0.3},
                 (1, 4): {"Y": 0.2, "Z": 0.25}, (2, 1): {}}
    v, n, m, runs = 3, 5, 4, 2000
    model = IndependentLocationChannels(default_rates=default,
                                        rates=overrides)
    x, z = model.sample_error_bits(runs, v, n, m, np.random.default_rng(31))
    rates = _location_rates(default, overrides, v, m)
    letters = np.stack((x & ~z, x & z, ~x & z), axis=-1).astype(np.int64)
    counts = letters.sum(axis=(0, 3))  # (v+1, m+1, 3)

    def within(count, trials, p):
        return abs(count - trials * p) \
            <= 6 * np.sqrt(trials * p * (1 - p)) + 1e-9

    for k in range(v + 1):
        for loc in range(m + 1):
            fired, total = counts[k, loc].sum(), rates[k, loc].sum()
            assert within(fired, runs * n, total), (k, loc)
            for letter in range(3):
                share = rates[k, loc, letter] / total if total else 0.0
                assert within(counts[k, loc, letter], fired, share), \
                    (k, loc, letter)
    # a rate-1 location always fires; X and Y never fire at the ends
    if top == 1.0:
        assert counts[2, 3].tolist() == [runs * n, 0, 0]
    assert not counts[:, [0, m], :2].any()
    assert counts[3, 0, 2] > 0 and not x[:, 3, 0].any()


def test_error_bits_agree_with_collections():
    coll = PauliErrorCollection(tuple(
        tuple(pauli.from_text(s) for s in locs)
        for locs in (["Z", "X", "I"], ["I", "Y", "Z"])))
    model = ExplicitCollectionDistribution([(coll, 1.0)])
    x, z = _one_run(model, 1, 1, 2, np.random.default_rng(0))
    assert x[:, :, 0].tolist() == [[0, 1, 0], [0, 1, 0]]
    assert z[:, :, 0].tolist() == [[1, 0, 0], [0, 1, 1]]
    assert np.array_equal((x, z), coll.to_bits())
    # a draw is a copy the caller owns; the model's own bits stay read-only
    x[0, 1] = 0
    assert np.array_equal(model.bits[0], coll.to_bits())
    for part in model.bits[0]:
        with pytest.raises(ValueError, match="read-only"):
            part[0, 1] = 0
    with pytest.raises(ValueError, match="shape"):
        model.sample_error_bits(1, 1, 2, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="shape"):
        model.sample_error_bits(1, 2, 1, 2, np.random.default_rng(0))
    x, z = _one_run(noiseless(), 3, 2, 4, np.random.default_rng(0))
    assert x.shape == z.shape == (4, 5, 2) and not x.any() and not z.any()
    # a composite XORs its parts' draws of every run
    gate = BoundedGateNoise(rate=1 - 1e-12, n=1)
    composite = CompositeModel(pauli_part=model, gate_part=gate)
    cx, cz = composite.sample_error_bits(3, 1, 1, 2, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    x, z = model.sample_error_bits(3, 1, 1, 2, rng)
    gx, gz = gate.sample_error_bits(3, 1, 1, 2, rng)
    assert (gx | gz).any(axis=(1, 2, 3)).all()
    assert np.array_equal(cx, x ^ gx) and np.array_equal(cz, z ^ gz)
    assert np.array_equal(model.bits[0], coll.to_bits())


def test_one_call_of_r_runs_equals_r_calls_of_one_run():
    # an explicit mixture draws one entry per run in order, so the run
    # axis leaves its stream as it was run by run
    coll = [_uniform_collection(3, 2, 2), identity_collection(3, 2, 2)]
    model = ExplicitCollectionDistribution([(coll[0], 0.4), (coll[1], 0.6)])
    rng = np.random.default_rng(21)
    many = model.sample_error_bits(50, 2, 2, 2, rng)
    rng = np.random.default_rng(21)
    ones = [_one_run(model, 2, 2, 2, rng) for _ in range(50)]
    assert np.array_equal(many, np.stack(ones, axis=1))
    assert many[1].any() and not many[1].all()


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
    x, z = _one_run(model, 3, 1, 2, np.random.default_rng(0))
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
    x, _ = _one_run(model, 1, 2, 2, np.random.default_rng(0))
    assert x[0, 1].all() and not x[1].any()


def _touched(x, z):
    """Slots of a collection's (x, z) bits that carry a non-identity Pauli."""
    return np.flatnonzero((x | z).any(axis=(1, 2))).tolist()


def test_random_adversary_touches_one_location_per_slot():
    rng = np.random.default_rng(8)
    for _ in range(50):
        adv = noise.random_adversary(3, 4, 3, rng)
        assert 1 <= len(adv.bits) == len(adv.probs) <= 3
        assert abs(adv.probs.sum() - 1.0) < 1e-12
        touched = None
        for x, z in adv.bits:
            slots = _touched(x, z)
            assert touched is None or slots == touched
            touched = slots
            for k in slots:
                assert (x[k] | z[k]).any(axis=1).sum() == 1
        assert 1 <= len(touched) <= 4


def test_random_adversary_min_slots():
    rng = np.random.default_rng(9)
    for _ in range(50):
        adv = noise.random_adversary(2, 2, 3, rng, min_slots=2)
        assert all(len(_touched(x, z)) >= 2 for x, z in adv.bits)
    for bad in (0, 5):
        with pytest.raises(ValueError, match="min_slots"):
            noise.random_adversary(2, 2, 3, rng, min_slots=bad)
