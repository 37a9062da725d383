import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaccredit import families, noise, protocol, qotp, simulator, traps
from qaccredit.mesothetic import BobStrategy, run_session
from qaccredit.noise import (BoundedGateNoise, CompositeModel,
                             ExplicitCollectionDistribution,
                             IndependentLocationChannels,
                             PauliErrorCollection, noiseless)
from qaccredit.pauli import PauliString
from qaccredit.simulator import SimLimitError
from qaccredit.protocol import (AccreditationReport, DomainError,
                                OperationCounts, ProtocolConfig, RunOutcome,
                                confidence, curve_to_csv, delta_bound,
                                epsilon_theorem1, epsilon_theorem2, eq1_bound,
                                figure8_curve, plan_run, run_rng,
                                single_run)


def test_epsilon_theorem1_values():
    assert epsilon_theorem1(3) == Fraction(27, 64)
    assert float(epsilon_theorem1(3)) == 0.421875
    assert epsilon_theorem1(15) == Fraction(27, 256)
    assert protocol.KAPPA == Fraction(27, 16)
    with pytest.raises(DomainError):
        epsilon_theorem1(2)


def test_epsilon_theorem2_values():
    assert epsilon_theorem2(3, 1) == epsilon_theorem1(3)
    assert epsilon_theorem2(5, 1) == epsilon_theorem1(5)
    assert epsilon_theorem2(3, 0) == 1
    assert epsilon_theorem2(3, Fraction(9, 10)) == \
        Fraction(9, 10) * Fraction(27, 64) + Fraction(1, 10)
    assert abs(float(epsilon_theorem2(3, 0.9)) - 0.4796875) < 1e-12
    with pytest.raises(DomainError):
        epsilon_theorem2(2, 1)
    with pytest.raises(DomainError):
        epsilon_theorem2(3, 1.5)


def test_delta_bound():
    assert delta_bound([]) == 1.0
    assert abs(delta_bound([0.01] * 10) - 0.99 ** 10) < 1e-15
    with pytest.raises(DomainError):
        delta_bound([1.0])


def test_eq1_arithmetic():
    # bound(eps=27/64, N_acc/d=0.9, theta=0.05) = 0.421875/0.85
    assert abs(eq1_bound(0.421875, 90, 100, 0.05)
               - 0.421875 / 0.85) < 1e-12
    assert eq1_bound(0.4, 0, 10, 0.1) is None
    assert abs(confidence(100, 0.05)
               - (1 - 2 * math.exp(-2 * 100 * 0.05 ** 2))) < 1e-15


def _z_everywhere_model(v, n, m):
    """Puts Z^n at the measurement location of every circuit."""
    zfull = PauliString(n, 0, (1 << n) - 1)
    ident = PauliString(n)
    circuits = tuple(
        tuple([ident] * m + [zfull]) for _ in range(v + 1))
    return ExplicitCollectionDistribution(
        [(PauliErrorCollection(circuits), 1.0)])


def test_single_run_noiseless_accepts():
    target = families.ghz_circuit(2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        out = single_run(target, 3, noiseless(), rng)
        assert out.flag == "acc"
        assert len(out.trap_outputs) == 3
        # GHZ X-measurement outputs have even parity
        assert int(out.target_output.sum()) % 2 == 0


def test_single_run_always_rejecting_noise():
    target = families.ghz_circuit(2)
    model = _z_everywhere_model(3, 2, target.m)
    rng = np.random.default_rng(1)
    for _ in range(10):
        out = single_run(target, 3, model, rng)
        assert out.flag == "rej"
        assert all(o.any() for o in out.trap_outputs)


def test_single_run_deterministic():
    target = families.random_generic_circuit(2, 2, np.random.default_rng(2))
    a = single_run(target, 3, noiseless(), np.random.default_rng(77))
    b = single_run(target, 3, noiseless(), np.random.default_rng(77))
    assert a.v0 == b.v0 and a.flag == b.flag
    assert np.array_equal(a.target_output, b.target_output)


def test_single_run_v0_uniform():
    target = families.ghz_circuit(2)
    rng = np.random.default_rng(3)
    counts = np.zeros(4)
    reps = 4000
    for _ in range(reps):
        counts[single_run(target, 3, noiseless(), rng).v0] += 1
    sigma = np.sqrt(0.25 * 0.75 / reps)
    assert (abs(counts / reps - 0.25) < 4 * sigma).all()


def test_plan_run_hides_target_among_traps():
    target = families.ghz_circuit(3)
    v0, plan = plan_run(target, 5, np.random.default_rng(4))
    assert len(plan) == 6 and 0 <= v0 <= 5
    rng = np.random.default_rng(5)
    for k, (circuit, key) in enumerate(plan):
        out = qotp.postprocess(
            simulator.run_statevector(circuit, rng=rng), key)
        if k == v0:  # GHZ X-measurement outputs have even parity
            assert int(out.sum()) % 2 == 0
        else:  # a noiseless trap outputs all zeros
            assert not out.any()
    # the direct run and the two-party session draw the same plan first
    session = run_session(target, 5, BobStrategy(honest=True),
                          np.random.default_rng(4))
    run = single_run(target, 5, noiseless(), np.random.default_rng(4))
    assert session.v0 == run.v0 == v0


def test_run_outcome_rejects_inconsistent_flag():
    zeros, ones = np.zeros(2, np.uint8), np.ones(2, np.uint8)
    RunOutcome(v0=0, target_output=zeros, trap_outputs=(zeros,), flag="acc")
    with pytest.raises(ValueError):
        RunOutcome(v0=0, target_output=zeros, trap_outputs=(ones,),
                   flag="acc")
    with pytest.raises(ValueError):
        RunOutcome(v0=0, target_output=zeros, trap_outputs=(zeros,),
                   flag="rej")


def test_accredit_noiseless():
    cfg = ProtocolConfig(v=3, d=10, theta=0.05, master_seed=11,
                         noise=noiseless())
    rep = protocol.accredit(cfg, families.ghz_circuit(2))
    assert rep.n_acc == 10
    assert abs(rep.bound - 0.421875 / (1 - 0.05)) < 1e-12
    assert abs(rep.confidence
               - (1 - 2 * math.exp(-2 * 10 * 0.05 ** 2))) < 1e-15
    assert len(rep.accepted_outputs) == 10


def test_accredit_always_rejecting():
    target = families.ghz_circuit(2)
    cfg = ProtocolConfig(v=3, d=5, theta=0.05, master_seed=12,
                         noise=_z_everywhere_model(3, 2, target.m))
    rep = protocol.accredit(cfg, target)
    assert rep.n_acc == 0
    assert rep.bound is None
    assert "unavailable" in rep.to_json()


def test_report_json_keys_and_vacuous_flags():
    # the README's command-line example: d=100 and theta=0.05 give
    # confidence 1 - 2 exp(-0.5) = -0.21
    cfg = ProtocolConfig(v=3, d=100, theta=0.05, master_seed=1,
                         noise=noiseless())
    doc = json.loads(protocol.accredit(cfg, families.ghz_circuit(3)).to_json())
    assert set(doc) == {"n_acc", "d", "theta", "epsilon", "confidence",
                        "bound", "bound_vacuous", "confidence_vacuous",
                        "accepted_outputs", "seed"}
    assert round(doc["confidence"], 2) == -0.21
    assert doc["confidence_vacuous"] is True and doc["bound_vacuous"] is False
    flags = []
    for bound, conf in ((None, 0.5), (1.0, 0.0), (1.01, 1e-9)):
        rep = AccreditationReport(n_acc=5, d=10, theta=0.1, epsilon=0.5,
                                  confidence=conf, bound=bound)
        flags.append((rep.bound_vacuous, rep.confidence_vacuous))
    assert flags == [(True, False), (False, True), (True, False)]


def test_accredit_deterministic_report():
    target = families.ghz_circuit(2)
    cfg = ProtocolConfig(v=3, d=8, theta=0.1, master_seed=99,
                         noise=noiseless())
    assert protocol.accredit(cfg, target).to_json() \
        == protocol.accredit(cfg, target).to_json()


def test_accredit_with_gate_noise_mode():
    target = families.ghz_circuit(2)
    model = CompositeModel(pauli_part=noiseless(),
                           gate_part=BoundedGateNoise(rate=0.0, n=2))
    cfg = ProtocolConfig(v=3, d=5, theta=0.05, master_seed=13, noise=model,
                         epsilon_mode="theorem2")
    rep = protocol.accredit(cfg, target)
    # r=0 means g=1, so theorem2 epsilon collapses to the theorem1 value
    assert rep.epsilon == 0.421875
    assert rep.n_acc == 5


def test_theorem1_epsilon_under_gate_noise_is_rejected(monkeypatch):
    target = families.ghz_circuit(3)
    gate = CompositeModel(
        pauli_part=IndependentLocationChannels(default_rates={"Z": 0.01}),
        gate_part=BoundedGateNoise(rate=0.05, n=3))
    cfg = ProtocolConfig(v=7, d=2000, theta=0.05, master_seed=1, noise=gate)

    def no_runs(*args):
        raise AssertionError("a run started")

    with monkeypatch.context() as patch:
        patch.setattr(protocol, "_pad_free_runs", no_runs)
        with pytest.raises(DomainError, match="theorem2"):
            protocol.accredit(cfg, target)
    # under theorem 2 the same model gives g * kappa / 8 + 1 - g
    cfg = ProtocolConfig(v=7, d=20, theta=0.05, master_seed=1, noise=gate,
                         epsilon_mode="theorem2")
    g = 0.95 ** (8 * target.m)
    assert protocol.accredit(cfg, target).epsilon == pytest.approx(
        g * 27 / 128 + 1 - g)
    # rate 0 means g = 1, where Theorem 1 still holds
    zero = CompositeModel(gate_part=BoundedGateNoise(rate=0.0, n=3))
    cfg = ProtocolConfig(v=7, d=5, theta=0.05, master_seed=1, noise=zero)
    assert protocol.accredit(cfg, target).epsilon == 27 / 128


def _hoeffding(d: int, delta: float = 1e-9) -> float:
    """t with P(|difference of two d-run frequencies| >= t) <= delta."""
    return math.sqrt(math.log(2.0 / delta) / d)


def test_pad_free_runs_match_padded_runs():
    target, v, d = families.ghz_circuit(2), 3, 3000
    pauli_only = IndependentLocationChannels(
        default_rates={"X": 0.03, "Y": 0.03, "Z": 0.03})
    gate_noise = CompositeModel(
        pauli_part=IndependentLocationChannels(
            default_rates={"X": 0.02, "Y": 0.02, "Z": 0.02}),
        gate_part=BoundedGateNoise(rate=0.08, n=target.n))
    for model in (pauli_only, gate_noise):
        cfg = ProtocolConfig(v=v, d=d, theta=0.05, master_seed=41,
                             noise=model, epsilon_mode="theorem2")
        fast = protocol.accredit(cfg, target).accepted_outputs
        slow = []
        for r in range(d):
            out = single_run(target, v, model, run_rng(42, r))
            if out.flag == "acc":
                slow.append(out.target_output)
        assert abs(len(fast) - len(slow)) / d <= _hoeffding(d)
        # TV between the two empirical distributions over k = 4 outcomes:
        # its mean is at most sum_i sqrt(k / N_i) / 2, and McDiarmid (one
        # sample moves it by at most 1/N_i) adds t with
        # exp(-2t^2 / sum_i 1/N_i) = 1e-9
        hist = [np.bincount([int(o[0]) + 2 * int(o[1]) for o in outs],
                            minlength=4) / len(outs) for outs in (fast, slow)]
        inv = 1 / len(fast) + 1 / len(slow)
        tol = (math.sqrt(4 / len(fast)) + math.sqrt(4 / len(slow))) / 2 \
            + math.sqrt(math.log(1e9) * inv / 2)
        assert 0.5 * np.abs(hist[0] - hist[1]).sum() <= tol
        # the noise is visible in the target: odd-parity GHZ outputs occur
        assert hist[0][1] + hist[0][2] > 0


def test_pad_free_slots_see_their_own_errors():
    # Z on qubit 0 before measurement, in slot 2 only: a trap there always
    # rejects, and a target there always outputs odd GHZ parity
    target, v, d = families.ghz_circuit(2), 3, 400
    ident, z0 = PauliString(2), PauliString(2, 0, 1)
    circuits = [(ident,) * (target.m + 1)] * (v + 1)
    circuits[2] = (ident,) * target.m + (z0,)
    model = ExplicitCollectionDistribution(
        [(PauliErrorCollection(tuple(circuits)), 1.0)])
    cfg = ProtocolConfig(v=v, d=d, theta=0.05, master_seed=43, noise=model)
    report = protocol.accredit(cfg, target)
    # exactly the runs that hide the target at slot 2 accept
    assert abs(report.n_acc / d - 1 / (v + 1)) \
        <= math.sqrt(math.log(2e9) / (2 * d))
    assert all(int(out.sum()) % 2 == 1 for out in report.accepted_outputs)


def test_accredit_report_repeats_under_pauli_noise(monkeypatch):
    target = families.ghz_circuit(3)
    model = IndependentLocationChannels(
        default_rates={"X": 0.02, "Y": 0.02, "Z": 0.02})

    def report(d):
        cfg = ProtocolConfig(v=3, d=d, theta=0.1, master_seed=98,
                             noise=model)
        return protocol.accredit(cfg, target)

    first = report(300)
    assert 0 < first.n_acc < 300
    assert report(300).to_json() == first.to_json()
    # each run draws from its own generator, so neither the block size of
    # the batched frame nor the number of runs changes a run's outcome
    monkeypatch.setattr(protocol, "RUN_BLOCK", 7)
    assert report(300).to_json() == first.to_json()
    short = report(100)
    assert [o.tolist() for o in short.accepted_outputs] == \
        [o.tolist() for o in first.accepted_outputs[:short.n_acc]]


def test_accredit_checks_target_size_before_running(allocates_at_most):
    target = families.ghz_circuit(simulator.MAX_STATEVECTOR_QUBITS + 1)
    cfg = ProtocolConfig(v=3, d=5, theta=0.05, master_seed=12,
                         noise=_z_everywhere_model(3, target.n, target.m))
    # no run accepts, yet the target could never have been simulated
    with allocates_at_most(2 ** 16), pytest.raises(SimLimitError):
        protocol.accredit(cfg, target)


def test_gate_noise_bits_in_trap_frame_match_padded_statevector():
    rng = np.random.default_rng(17)
    for _ in range(150):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        topo = families.random_clifford_circuit(n, m, rng)
        trap = traps.generate_trap(topo, traps.sample_choice(topo, rng))
        gates = trap.gates[None]
        dressed, key = qotp.dress(trap, qotp.sample_pads(n, m, rng))
        err_x = rng.integers(0, 2, size=(m + 1, n), dtype=np.uint8)
        err_x[[0, m]] = 0
        err_z = rng.integers(0, 2, size=(m + 1, n), dtype=np.uint8)
        # single-qubit deviations as the model draws them, times one
        # arbitrary Pauli at a random location after a round
        gate_x, gate_z = BoundedGateNoise(rate=0.5, n=n).sample_error_bits(
            0, n, m, rng)
        err_x ^= gate_x[0]
        err_z ^= gate_z[0]
        j = int(rng.integers(1, m + 1))
        err_x[j] ^= simulator.index_to_bits(int(rng.integers(0, 2 ** n)), n)
        err_z[j] ^= simulator.index_to_bits(int(rng.integers(0, 2 ** n)), n)
        frame = simulator.frame_flips(topo, gates, err_x[None], err_z[None])
        dense = qotp.postprocess(simulator.run_statevector(
            dressed, (err_x, err_z), rng=rng), key)
        assert np.array_equal(frame[0], dense)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(2, 4), generic=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pad_invariance_under_paulis_at_every_location(n, m, generic, seed):
    # Lemma 1: padding changes nothing observable under any Pauli at any
    # location, gate deviations included, so the pad-free engine may run
    # the bare target under the same error bits
    rng = np.random.default_rng(seed)
    make = (families.random_generic_circuit if generic
            else families.random_clifford_circuit)
    target = make(n, m, rng)
    dressed, key = qotp.dress(target, qotp.sample_pads(n, m, rng))
    errors = (rng.integers(0, 2, size=(m + 1, n), dtype=np.uint8),
              rng.integers(0, 2, size=(m + 1, n), dtype=np.uint8))
    padded = simulator.statevector_distribution(dressed, errors)
    bare = simulator.statevector_distribution(target, errors)
    # post-processing XORs every outcome with the key
    key = simulator.bits_to_index(key)
    assert np.abs(padded[np.arange(2 ** n) ^ key] - bare).max() <= 1e-12


def test_config_invariants():
    with pytest.raises(DomainError):
        ProtocolConfig(v=2, d=1, theta=0.1, master_seed=0, noise=noiseless())
    with pytest.raises(DomainError):
        ProtocolConfig(v=3, d=0, theta=0.1, master_seed=0, noise=noiseless())
    with pytest.raises(DomainError):
        ProtocolConfig(v=3, d=1, theta=0.0, master_seed=0, noise=noiseless())


def test_config_rejects_non_finite_theta():
    # a NaN theta slipped past "theta <= 0" and printed NaN bounds
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            ProtocolConfig(v=3, d=1, theta=theta, master_seed=0,
                           noise=noiseless())


def test_gate_noise_for_another_qubit_count_is_rejected():
    target = families.ghz_circuit(2)
    model = BoundedGateNoise(rate=0.5, n=6)
    cfg = ProtocolConfig(v=3, d=20, theta=0.05, master_seed=1,
                         noise=CompositeModel(gate_part=model),
                         epsilon_mode="theorem2")
    with pytest.raises(ValueError, match="n=6 .* n=2"):
        protocol.accredit(cfg, target)
    with pytest.raises(ValueError, match="n=6 .* n=2"):
        single_run(target, 3, model, np.random.default_rng(0))
    with pytest.raises(ValueError, match="n=6 .* n=2"):
        run_session(target, 3, BobStrategy(honest=True),
                    np.random.default_rng(0), alice_noise=model)


def _counts():
    return OperationCounts.for_protocol(7, 7, 3, cz_per_circuit=18)


def test_figure8_noiseless_limit():
    points = figure8_curve(3, [0.0], _counts())
    assert points[0].bound == float(epsilon_theorem1(3))
    assert points[0].delta == 1.0
    assert not points[0].vacuous


def test_figure8_monotone_and_vacuous_flag():
    grid = np.linspace(0.0, 0.02, 40)
    points = figure8_curve(3, grid, _counts())
    bounds = [p.bound for p in points]
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert points[-1].vacuous == (points[-1].bound > 1.0)
    big = figure8_curve(3, [0.5], _counts())
    assert big[0].vacuous


def test_figure8_csv_contract():
    csv = curve_to_csv(figure8_curve(3, [0.0, 0.001], _counts()))
    assert csv.splitlines()[0] == "r0,epsilon,delta,bound"
    assert len(csv.splitlines()) == 3


def test_figure8_rejects_bad_rate():
    with pytest.raises(DomainError):
        figure8_curve(3, [1.0], _counts())
