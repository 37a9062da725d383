import json
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaccredit import families, noise, protocol, qotp, simulator, traps
from qaccredit.circuit import Circuit, identity_circuit
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


def test_single_run_builds_no_circuit(monkeypatch):
    # the planned slots walk as one batch of band unitaries
    target = families.random_generic_circuit(3, 3, np.random.default_rng(6))
    model = CompositeModel(
        IndependentLocationChannels(
            default_rates={"X": 0.1, "Y": 0.1, "Z": 0.1}),
        BoundedGateNoise(0.5, 3))

    def no_circuit(self):
        raise AssertionError("a circuit was built")
    monkeypatch.setattr(Circuit, "__post_init__", no_circuit)
    rng = np.random.default_rng(7)
    for _ in range(5):
        out = single_run(target, 3, model, rng)
        assert len(out.trap_outputs) == 3


def test_single_run_rejects_oversize_target_before_any_draw():
    target = families.ghz_circuit(17)
    rng = np.random.default_rng(8)
    before = rng.bit_generator.state
    with pytest.raises(SimLimitError):
        single_run(target, 3, noiseless(), rng)
    assert rng.bit_generator.state == before


def test_plan_run_hides_target_among_traps(plain_walk):
    target = families.ghz_circuit(3)
    plan = plan_run(target, 5, noiseless(), np.random.default_rng(4))
    v0 = plan.v0
    assert plan.gates.shape == (6, target.m, 3) and 0 <= v0 <= 5
    rng = np.random.default_rng(5)
    for k, (gates, key) in enumerate(zip(plan.gates, plan.keys)):
        circuit = Circuit(3, target.m, gates, target.cz)
        out = qotp.postprocess(
            simulator.sample_bits(plain_walk(circuit), 3, rng), key)
        if k == v0:  # GHZ X-measurement outputs have even parity
            assert int(out.sum()) % 2 == 0
        else:  # a noiseless trap outputs all zeros
            assert not out.any()
    # the direct run and the two-party session draw the same plan first
    session = run_session(target, 5, BobStrategy(honest=True),
                          np.random.default_rng(4))
    run = single_run(target, 5, noiseless(), np.random.default_rng(4))
    assert session.v0 == run.v0 == v0


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(2, 5), v=st.integers(1, 6),
       generic=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_plan_run_equals_generate_trap_and_dress(n, m, v, generic, seed):
    # the array plan against the per-circuit reference: redo its draws by
    # hand, then build every slot with generate_trap and dress
    make = (families.random_generic_circuit if generic
            else families.random_clifford_circuit)
    target = make(n, m, np.random.default_rng([seed, 1]))
    plan = plan_run(target, v, noiseless(), np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    v0, choice, _, _ = protocol._dense_runs(target, v, noiseless(), 1, rng)
    pads = rng.integers(0, 2, size=(v + 1, qotp.pad_width(n, m)),
                        dtype=np.uint8)
    assert plan.v0 == v0[0]
    slots = [k for k in range(v + 1) if k != plan.v0]
    unitaries = plan.unitaries()
    for k, row in zip(slots, choice[0]):
        dressed, key = qotp.dress(traps.generate_trap(target, row), pads[k])
        assert np.array_equal(plan.gates[k], dressed.gates)
        assert np.array_equal(plan.keys[k], key)
        assert np.array_equal(unitaries[k], simulator.band_unitaries(
            dressed.gates, dressed.matrices))
    dressed, key = qotp.dress(target, pads[plan.v0])
    assert np.array_equal(plan.gates[plan.v0], dressed.gates)
    assert np.array_equal(plan.keys[plan.v0], key)
    assert np.array_equal(unitaries[plan.v0], simulator.band_unitaries(
        dressed.gates, dressed.matrices))
    assert plan.matrices.keys() == dressed.matrices.keys()
    for at, u in dressed.matrices.items():
        assert np.array_equal(plan.matrices[at], u)
    assert plan.gates.dtype == plan.keys.dtype == np.uint8


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(2, 4), v=st.integers(1, 4),
       generic=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_noisy_plan_runs_each_dressed_slot_under_its_drawn_errors(
        pauli_kraus, plain_walk, n, m, v, generic, seed):
    # the plan folds its drawn Paulis into the gates: redo its draws by
    # hand, and each slot as planned has the law of the dressed slot with
    # the drawn Paulis as Kraus lists at their locations
    make = (families.random_generic_circuit if generic
            else families.random_clifford_circuit)
    target = make(n, m, np.random.default_rng([seed, 1]))
    model = CompositeModel(
        IndependentLocationChannels(
            default_rates={"X": 0.2, "Y": 0.2, "Z": 0.2}),
        BoundedGateNoise(0.5, n))
    plan = plan_run(target, v, model, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    v0, choice, err_x, err_z = protocol._dense_runs(target, v, model, 1, rng)
    pads = rng.integers(0, 2, size=(v + 1, qotp.pad_width(n, m)),
                        dtype=np.uint8)
    assert plan.v0 == v0[0]
    bases = [traps.generate_trap(target, row) for row in choice[0]]
    bases.insert(plan.v0, target)
    for k, base in enumerate(bases):
        dressed, key = qotp.dress(base, pads[k])
        assert np.array_equal(plan.keys[k], key)
        planned = Circuit(n, m, plan.gates[k], target.cz,
                          plan.matrices if k == plan.v0 else None)
        channels = {loc: pauli_kraus(err_x[0, k, loc], err_z[0, k, loc])
                    for loc in range(m + 1)}
        assert np.abs(plain_walk(planned)
                      - simulator.run_density(dressed, channels)
                      ).max() <= 1e-12


def test_draw_runs_choice_rows_deterministic_and_uniform():
    topo = identity_circuit(3, 3, cz_layout=[{(0, 1)}, {(1, 2)}, set()])
    a, b = (protocol._dense_runs(topo, 3, noiseless(), 2,
                                 np.random.default_rng(4)) for _ in range(2))
    assert a[1].dtype == np.uint8 and a[1].shape == (2, 3, 5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    reps = 10 ** 4
    # band 0's pair and unpaired bits, band 1's, then t
    means = protocol._dense_runs(topo, 3, noiseless(), reps,
                                 np.random.default_rng(5))[1].mean(axis=0)
    assert ((means > 0.48) & (means < 0.52)).all()


def test_draw_runs_unpack_packed_choice_bytes():
    # from one generator state: v0, then ceil(width / 8) random bytes per
    # trap, bit i of a row being bit i % 8 of byte i // 8
    target = families.random_clifford_circuit(4, 5,
                                              np.random.default_rng(2))
    v, runs, width = 3, 40, traps.choice_width(target)
    assert width % 8 and width > 8  # several bytes, the last one partial
    v0, choice, _, _ = protocol._dense_runs(target, v, noiseless(), runs,
                                            np.random.default_rng(6))
    rng = np.random.default_rng(6)
    want_v0 = rng.integers(0, v + 1, size=runs)
    raw = rng.integers(0, 256, size=(runs, v, (width + 7) // 8),
                       dtype=np.uint8)
    want = [[[raw[r, t, i // 8] >> i % 8 & 1 for i in range(width)]
             for t in range(v)] for r in range(runs)]
    assert np.array_equal(v0, want_v0)
    assert choice.dtype == np.uint8 and np.array_equal(choice, want)


def test_plan_run_keys_deterministic():
    # the keys are band m's alpha rows of the v+1 pad rows, drawn as one
    # array right after the run's draws
    target, v = families.ghz_circuit(3), 3
    n, m = target.n, target.m
    keys = plan_run(target, v, noiseless(), np.random.default_rng(42)).keys
    rng = np.random.default_rng(42)
    protocol._draw_runs(target, v, noiseless(), 1, rng)
    pads = rng.integers(0, 2, size=(v + 1, qotp.pad_width(n, m)),
                        dtype=np.uint8)
    assert keys[0].dtype == np.uint8
    assert np.array_equal(keys, pads[:, n * (m - 1):n * m])


def test_plan_run_key_bit_means():
    target = families.ghz_circuit(2)
    rng = np.random.default_rng(7)
    reps = 10 ** 4
    keys = np.array([plan_run(target, 3, noiseless(), rng).keys
                     for _ in range(reps)])
    for mean in keys.mean(axis=0).reshape(-1):
        assert 0.48 <= mean <= 0.52


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
    # a generic target then samples no slice at all
    for target in (families.ghz_circuit(2), families.random_generic_circuit(
            3, 3, np.random.default_rng(12))):
        cfg = ProtocolConfig(v=3, d=5, theta=0.05, master_seed=12,
                             noise=_z_everywhere_model(3, target.n, target.m))
        rep = protocol.accredit(cfg, target)
        assert rep.n_acc == 0
        assert rep.accepted_outputs == []
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
    v, d = 3, 3000
    ghz = families.ghz_circuit(2)
    clifford = families.random_clifford_circuit(3, 4,
                                                np.random.default_rng(40))
    for target in (ghz, clifford):
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
            # TV between the two empirical distributions over k = 2^n
            # outcomes: its mean is at most sum_i sqrt(k / N_i) / 2, and
            # McDiarmid (one sample moves it by at most 1/N_i) adds t with
            # exp(-2t^2 / sum_i 1/N_i) = 1e-9
            k = 2 ** target.n
            hist = [np.bincount([simulator.bits_to_index(o) for o in outs],
                                minlength=k) / len(outs)
                    for outs in (fast, slow)]
            inv = 1 / len(fast) + 1 / len(slow)
            tol = (math.sqrt(k / len(fast)) + math.sqrt(k / len(slow))) / 2 \
                + math.sqrt(math.log(1e9) * inv / 2)
            assert 0.5 * np.abs(hist[0] - hist[1]).sum() <= tol
            if target is ghz:
                # the noise is visible in the target: odd-parity GHZ
                # outputs occur
                assert hist[0][1] + hist[0][2] > 0


def test_padded_runs_match_frame_run_by_run(traps_accept):
    # from one seed the padded run draws what a pad-free run draws, so its
    # slot, flag and every trap output equal the frame's, run by run; the
    # traps are built independently (generate_trap, dress, statevector
    # against trap_cliffords and frame_flips). Deciding all seeds' draws in
    # one walk gives every run its own flag too
    v, seeds = 3, 75
    ghz = families.ghz_circuit(3)
    clifford = families.random_clifford_circuit(3, 4,
                                                np.random.default_rng(44))
    flags = []
    for target in (ghz, clifford):
        n, m = target.n, target.m
        pauli_rates = IndependentLocationChannels(
            default_rates={"X": 0.01, "Y": 0.01, "Z": 0.01})
        models = (pauli_rates, BoundedGateNoise(rate=0.08, n=n),
                  CompositeModel(pauli_part=pauli_rates,
                                 gate_part=BoundedGateNoise(rate=0.04, n=n)),
                  noise.random_adversary(n, m, v, np.random.default_rng(45)))
        for model in models:
            drawn = []
            for seed in range(seeds):
                out = single_run(target, v, model,
                                 np.random.default_rng(seed))
                v0, choice, err_x, err_z = protocol._dense_runs(
                    target, v, model, 1, np.random.default_rng(seed))
                drawn.append((v0, choice, err_x, err_z))
                slots = [k for k in range(v + 1) if k != v0[0]]
                flips = simulator.frame_flips(
                    target, traps.trap_cliffords(target, choice[0]),
                    simulator.frame_hits(err_x[0, slots], err_z[0, slots]))
                accepted = traps_accept(target, v0, choice, err_x, err_z)
                assert out.v0 == v0[0]
                assert (out.flag == "acc") == accepted[0]
                assert np.array_equal(out.trap_outputs, flips)
                flags.append(out.flag)
            together = traps_accept(
                target, *(np.concatenate(part) for part in zip(*drawn)))
            assert together.tolist() == [
                flag == "acc" for flag in flags[-seeds:]]
    # both decisions occur, so the check says something about each
    assert 0.2 < flags.count("acc") / len(flags) < 0.8


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


def test_accredit_report_repeats_under_pauli_noise():
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
    # each stream block draws all its runs, so the number of runs changes
    # no run's outcome
    short = report(100)
    assert [o.tolist() for o in short.accepted_outputs] == \
        [o.tolist() for o in first.accepted_outputs[:short.n_acc]]


def _run_flags(target, v, model, seed, d, traps_accept):
    """Acceptance of each of d runs, every stream block decided alone."""
    flags = []
    for block, start in enumerate(range(0, d, protocol.STREAM_BLOCK)):
        drawn = protocol._dense_runs(target, v, model, protocol.STREAM_BLOCK,
                                     run_rng(seed, block))
        flags.append(traps_accept(
            target, *(a[:d - start] for a in drawn)))
    return np.concatenate(flags)


def test_reports_are_prefixes_whatever_the_walks(monkeypatch,
                                                  traps_accept):
    # a report of d runs is a prefix of a longer one, whether its blocks
    # are decided in one walk or in several, and each run is decided as
    # its block alone decides it
    target, v, seed = families.ghz_circuit(5), 3, 17
    model = IndependentLocationChannels(
        default_rates={"X": 0.01, "Y": 0.01, "Z": 0.01})
    walks, accepted_slices = [], protocol._accepted_slices

    def recording(target, blocks):
        walks.append(len(blocks))
        return accepted_slices(target, blocks)

    def outputs(d):
        cfg = ProtocolConfig(v=v, d=d, theta=0.05, master_seed=seed,
                             noise=model)
        return [o.tolist() for o in protocol.accredit(cfg, target)
                .accepted_outputs]

    monkeypatch.setattr(protocol, "_accepted_slices", recording)
    d = 6 * protocol.STREAM_BLOCK + 50
    flags = _run_flags(target, v, model, seed, d, traps_accept)
    full = outputs(d)
    assert walks == [7] and len(full) == flags.sum()
    assert 0.2 < flags.mean() < 0.8
    # a budget that about two blocks pass: several walks, one of them
    # holding the last, partial block
    monkeypatch.setattr(protocol, "WALK_BYTES", 40_000)
    for short in (1, 127, 128, 129, 300, 640, d):
        walks.clear()
        got = outputs(short)
        assert len(got) == flags[:short].sum()
        assert got == full[:len(got)]
    assert len(walks) >= 3 and max(walks) > 1


def test_small_report_is_one_walk(monkeypatch):
    # GHZ n=8, v=7, d=1000 under 0.002 X/Y/Z: the live trap rows of all
    # eight blocks take one trap walk, and the accepted targets one frame
    walks = []
    for name in ("trap_flips", "frame_flips"):
        def recording(topology, rows, *args, name=name,
                      walk=getattr(simulator, name)):
            walks.append((name, len(rows)))
            return walk(topology, rows, *args)
        monkeypatch.setattr(simulator, name, recording)
    model = IndependentLocationChannels(
        default_rates={"X": 0.002, "Y": 0.002, "Z": 0.002})
    cfg = ProtocolConfig(v=7, d=1000, theta=0.05, master_seed=4,
                         noise=model)
    report = protocol.accredit(cfg, families.ghz_circuit(8))
    assert [name for name, _ in walks] == ["trap_flips", "frame_flips"]
    assert walks[1][1] == report.n_acc > 0
    assert walks[0][1] > 1000


def test_merged_walk_memory_is_bounded_by_the_budget(allocates_at_most):
    # pending blocks are decided once they hold more than WALK_BYTES. A
    # block of noisy GHZ n=32 hands on about 1.4 MB, so each block is
    # decided alone, and a long report allocates at most what a one-block
    # report does (its draws and its walk) plus the budget; one walk over
    # all 32 blocks would hold every block's live rows at once, ~45 MB
    target = families.ghz_circuit(32)
    model = IndependentLocationChannels(
        default_rates={"X": 0.002, "Y": 0.002, "Z": 0.002})

    def report(d):
        return protocol.accredit(ProtocolConfig(
            v=3, d=d, theta=0.05, master_seed=9, noise=model), target)

    tracemalloc.start()
    try:
        report(protocol.STREAM_BLOCK)
        one_block = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert one_block < 16 * 2 ** 20
    with allocates_at_most(one_block + protocol.WALK_BYTES):
        report(32 * protocol.STREAM_BLOCK)


def test_noisy_walk_memory_counts_hits_as_live_rows(allocates_at_most):
    # GHZ n=32, v=7 under 0.002 X/Y/Z: a block draws about 6,000 hits on
    # its 896 trap slots, each counted at a live row's 129 bytes of packed
    # choice and frame bits, so with its target slices a block counts
    # about 1.2 MB and is decided alone, peaking at about 1.3 MiB. All
    # eight blocks in one walk would peak at about 8 MiB
    model = IndependentLocationChannels(
        default_rates={"X": 0.002, "Y": 0.002, "Z": 0.002})
    cfg = ProtocolConfig(v=7, d=1000, theta=0.05, master_seed=3,
                         noise=model)
    with allocates_at_most(8 * 2 ** 20):
        protocol.accredit(cfg, families.ghz_circuit(32))


def test_heavy_noise_walk_counts_each_hit_at_its_live_row(allocates_at_most):
    # GHZ n=32, v=7 under 0.01 X/Y/Z: a block draws about 30k hits, which
    # count about 4 MB in the budget as live rows, against about 0.7 MB
    # for the block's draws and target slices, so each block is decided
    # alone and peaks at about 4.5 MiB. Counting only the draws and slices
    # would decide two blocks in one walk, which peaks at about 8.5 MiB
    model = IndependentLocationChannels(
        default_rates={"X": 0.01, "Y": 0.01, "Z": 0.01})
    cfg = ProtocolConfig(v=7, d=3 * protocol.STREAM_BLOCK, theta=0.05,
                         master_seed=5, noise=model)
    with allocates_at_most(6 * 2 ** 20):
        protocol.accredit(cfg, families.ghz_circuit(32))


def test_accredit_checks_target_size_before_running(allocates_at_most):
    # only a generic target needs a statevector, so only it meets the limit
    target = families.random_generic_circuit(
        simulator.MAX_STATEVECTOR_QUBITS + 1, 3, np.random.default_rng(12))
    cfg = ProtocolConfig(v=3, d=5, theta=0.05, master_seed=12,
                         noise=_z_everywhere_model(3, target.n, target.m))
    # no run accepts, yet the target could never have been simulated
    with allocates_at_most(2 ** 16), pytest.raises(SimLimitError):
        protocol.accredit(cfg, target)


def test_clifford_accredit_memory_is_bounded_by_a_block(allocates_at_most):
    # a report keeps n bits per accepted run: keeping each run's (2, m+1, n)
    # error slice instead, 2112 bytes a run here, would pass 16 MiB
    target, d = families.ghz_circuit(32), 8192
    cfg = ProtocolConfig(v=3, d=d, theta=0.05, master_seed=7,
                         noise=noiseless())
    with allocates_at_most(8 * 2 ** 20):
        report = protocol.accredit(cfg, target)
    assert report.n_acc == d
    # noiseless GHZ outputs in the X basis have even parity
    assert all(int(out.sum()) % 2 == 0 for out in report.accepted_outputs)


def test_error_free_traps_build_no_gates(monkeypatch):
    # a trap's flips are linear in its error bits, so only the trap slots
    # that hold an error are walked; a noiseless report walks none
    built, trap_flips = [], simulator.trap_flips

    def recording(target, packed, hits):
        built.append(protocol._choice_rows(target, packed))
        return trap_flips(target, packed, hits)

    monkeypatch.setattr(simulator, "trap_flips", recording)
    target, v, d, seed = families.ghz_circuit(4), 3, 300, 5
    cfg = ProtocolConfig(v=v, d=d, theta=0.05, master_seed=seed,
                         noise=noiseless())
    assert protocol.accredit(cfg, target).n_acc == d
    assert sum(len(rows) for rows in built) == 0
    model = IndependentLocationChannels(
        default_rates={"X": 0.01, "Y": 0.01, "Z": 0.01})
    built.clear()
    protocol.accredit(ProtocolConfig(v=v, d=d, theta=0.05, master_seed=seed,
                                     noise=model), target)
    expected = []
    for block, start in enumerate(range(0, d, protocol.STREAM_BLOCK)):
        v0, choice, err_x, err_z = (
            a[:d - start] for a in protocol._dense_runs(
                target, v, model, protocol.STREAM_BLOCK, run_rng(seed, block)))
        for i in range(len(v0)):
            slots = [k for k in range(v + 1) if k != v0[i]]
            expected += [choice[i, t].tobytes()
                         for t, k in enumerate(slots)
                         if err_x[i, k].any() or err_z[i, k].any()]
    rows = [row.tobytes() for block in built for row in block]
    assert 0 < len(rows) < d * v
    assert sorted(rows) == sorted(expected)


def test_generic_report_builds_each_cz_layer_once():
    # a report walks the target's cZ layers once, in its noiseless walk;
    # the light cones build their own sign rows, so they evict none of the
    # target's and a second report builds no layer again
    target = families.random_generic_circuit(6, 12, np.random.default_rng(3))
    layers = set(target.cz) - {()}
    assert 4 < len(layers) <= simulator._cz_parity.cache_info().maxsize
    model = IndependentLocationChannels(
        default_rates={"X": 0.002, "Y": 0.002, "Z": 0.002})
    simulator._cz_parity.cache_clear()
    for seed in (1, 2):
        protocol.accredit(ProtocolConfig(v=3, d=200, theta=0.05,
                                         master_seed=seed, noise=model),
                          target)
        assert simulator._cz_parity.cache_info().misses == len(layers)
    assert simulator._cz_parity.cache_info().hits >= len(layers)


def test_clifford_accredit_builds_no_statevector(monkeypatch):
    def no_statevector(*args, **kwargs):
        raise AssertionError("a statevector was built")

    # every statevector walk starts from plus_state
    for name in ("plus_state", "sample_slices"):
        monkeypatch.setattr(simulator, name, no_statevector)
    model = IndependentLocationChannels(
        default_rates={"X": 0.02, "Y": 0.02, "Z": 0.02})
    for target in (families.ghz_circuit(3),
                   families.random_clifford_circuit(
                       4, 3, np.random.default_rng(5))):
        cfg = ProtocolConfig(v=3, d=300, theta=0.05, master_seed=7,
                             noise=model)
        assert protocol.accredit(cfg, target).n_acc > 0


def _slices_at_every_location(n, m, count, rng):
    """``count`` (2, m+1, n) error slices with their first error spread
    over every location 0..m, then an error-free slice and repeats."""
    slices = np.zeros((count, 2, m + 1, n), dtype=np.uint8)
    for i in range(count):
        f = i % (m + 1)
        slices[i, :, f:] = rng.random((2, m + 1 - f, n)) < 0.3
        if not slices[i, :, f].any():
            slices[i, rng.integers(2), f, rng.integers(n)] = 1
    repeats = slices[rng.integers(0, count, size=count // 2)]
    return np.concatenate((slices, np.zeros_like(slices[:1]), repeats))


def _cz_dense(target, rng):
    """``target`` with as many cZ pairs as its qubits allow in every band
    but the last, on fresh random pairings."""
    n, m = target.n, target.m
    cz = []
    for _ in range(m - 1):
        qubits = rng.permutation(n).tolist()
        cz.append([(qubits[i], qubits[i + 1]) for i in range(0, n - 1, 2)])
    return Circuit(n, m, target.gates, cz + [()], target.matrices)


def _light_cone(target, x, z):
    """(first, cone) of a slice of error bits x, z (m+1, n), by sets: the
    first band its Paulis touch (m when none), and the qubits in the light
    cone of its Paulis before the rounds, after the last band. A
    location-j error (0 < j < m) is moved through band j-1's cZ layer
    first, where a qubit's Z picks up its partner's X."""
    n, m = target.n, target.m
    first, cone = m, set()
    for j in range(m):
        partner = {}
        for lo, hi in target.cz[j - 1] if j else ():
            partner[lo], partner[hi] = hi, lo
        touched = {q for q in range(n) if x[j, q] or z[j, q]
                   ^ (x[j, partner[q]] if q in partner else 0)}
        if touched and first == m:
            first = j
        cone |= touched
        for lo, hi in target.cz[j]:
            if lo in cone or hi in cone:
                cone |= {lo, hi}
    return first, cone


def _slices_with_single_errors(n, m, rng):
    """One slice per location j < m with one random Pauli on one random
    qubit, and random bits at location m."""
    slices = np.zeros((m, 2, m + 1, n), dtype=np.uint8)
    for j in range(m):
        slices[j, :, j, rng.integers(n)] = [(1, 0), (0, 1), (1, 1)][
            rng.integers(3)]
        slices[j, :, m] = rng.random((2, n)) < 0.3
    return slices


def test_sample_targets_pick_from_each_slice_distribution(plain_walk,
                                                           sampler_law):
    # each slice's law, in closed form from the noiseless law and its cone
    # law, against the plain walk of its bands with its Paulis folded in
    # (density_distribution, no light cone), on cZ-dense targets, the edge
    # locations 0 and m included, location m alone too, on cones from none
    # to every qubit; then the outputs of every slice, repeated R times
    # and drawn in batches, in L1 at risk 1e-6: the (slice, outcome) pairs
    # against each slice's law over K slices, E[L1] <= sqrt(2^n / R), and
    # the outputs alone against the mean law, E[L1] <= sqrt(2^n / (K R));
    # one of the N draws moves either L1 by at most 2 / N (McDiarmid)
    rng = np.random.default_rng(23)
    targets, repeats, sizes = 12, 400, set()
    for _ in range(targets):
        n, m = int(rng.integers(1, 11)), int(rng.integers(2, 6))
        target = _cz_dense(families.random_generic_circuit(n, m, rng), rng)
        slices = np.concatenate((
            _slices_at_every_location(n, m, 4 * (m + 1), rng),
            _slices_with_single_errors(n, m, rng)))
        laws = np.array([sampler_law(target, bits) for bits in slices])
        assert np.abs(laws - plain_walk(target, (slices[:, 0], slices[:, 1]))
                      ).max() <= 1e-12
        sizes |= {len(_light_cone(target, *bits)[1]) / n for bits in slices}
        runs = rng.permutation(np.repeat(np.arange(len(slices)), repeats))
        picks = np.concatenate([protocol._sample_targets(
            target, slices[part], rng.random(len(part)))
            for part in np.array_split(runs, 10)])
        outcomes = picks @ (1 << np.arange(n))
        spread = np.sqrt(2 * np.log(2 * targets / 1e-6) / len(runs))
        joint = np.bincount(runs << n | outcomes, minlength=len(slices) << n)
        assert (np.abs(joint / len(runs) - laws.ravel() / len(slices)).sum()
                <= np.sqrt(2 ** n / repeats) + spread)
        counts = np.bincount(outcomes, minlength=2 ** n)
        assert (np.abs(counts / len(runs) - laws.mean(axis=0)).sum()
                <= np.sqrt(2 ** n / len(runs)) + spread)
    assert {0, 1} < sizes


def test_sampler_picks_outcomes_of_positive_probability_at_cell_edges(
        plain_walk):
    # a uniform on an edge of the noiseless cdf leaves the cone draw a
    # residual of 0, and the largest uniform below 1 one at the top of its
    # cell: each picks an in-range outcome of positive probability, under
    # the noiseless law (the error-free slice) and under each slice's cone
    # law, on targets whose laws are exactly 0 on many outcomes and at
    # least 2^-n elsewhere; the walks' rounding leaves about 1e-35 where 0
    # is exact, so the exact law of the plain walk must exceed 1e-9; and
    # without errors, outcome k owns [cdf[k], cdf[k+1]), the rule of
    # Generator.choice, so a uniform on the lower edge of a cell picks it
    rng = np.random.default_rng(29)
    for target in (families.ghz_circuit(4), families.ghz_circuit(6),
                   families.random_clifford_circuit(5, 4, rng)):
        n, m = target.n, target.m
        _, _, cdf = simulator._noiseless_law(target)
        owners = np.flatnonzero(np.diff(cdf) > 1e-9)
        assert (simulator.sample_slices(
            target, np.zeros((len(owners), 2, m + 1, n), np.uint8),
            cdf[owners]) == owners).all()
        draws = np.append(cdf[:-1], np.nextafter(1.0, 0.0))
        slices = np.concatenate((np.zeros((1, 2, m + 1, n), np.uint8),
                                 _slices_at_every_location(n, m, m + 1, rng)))
        for bits in slices:
            picks = simulator.sample_slices(
                target, np.repeat(bits[None], len(draws), axis=0), draws)
            assert ((picks >= 0) & (picks < 2 ** n)).all()
            assert (plain_walk(target, bits)[picks] > 1e-9).all()


def _sampler_rounds(target, cdf, slices, draws):
    """Counter of the sizes of the rounds sample_slices walks, by the
    batch rule: m of 2^n for the noiseless walk, then the states, each
    distinct cone (slices that differ only at location m share one) with
    each distinct column its runs drew by the noiseless ``cdf`` (their
    bits off the cone S), walk by width class ceil(|S| / BLOCK), ordered
    by width, then first band, in chunks of at most 2^n // (2^s + 8 (m -
    f0) s + the entries of one round's blocks) states, at least one, s the
    class's widest cone and f0 its earliest first band; a chunk of C states
    walks 2 (m - f) rounds of C 2^w, w its widest cone and f its earliest
    first band."""
    n, m = target.n, target.m
    states = {}
    for bits, x in zip(slices, (cdf.searchsorted(draws, side="right")
                                - 1).tolist()):
        first, cone = _light_cone(target, *bits)
        if cone:
            states[bits[:, :m].tobytes(), x & ~sum(1 << q for q in cone)] = (
                first, len(cone))
    classes = {}
    for first, s in states.values():
        classes.setdefault(-(-s // simulator.BLOCK), []).append((first, s))
    rounds = Counter({2 ** n: m})
    for members in classes.values():
        members.sort(key=lambda state: state[::-1])
        f0 = min(first for first, _ in members)
        s = max(width for _, width in members)
        blocks = sum(4 ** min(simulator.BLOCK, s - k)
                     for k in range(0, s, simulator.BLOCK))
        step = max(1, 2 ** n // (2 ** s + 8 * (m - f0) * s + blocks))
        for c in range(0, len(members), step):
            chunk = members[c:c + step]
            width = max(width for _, width in chunk)
            rounds[len(chunk) << width] += 2 * (m - min(f for f, _ in chunk))
    return rounds


def test_report_walks_full_size_rounds_only_for_whole_state_cones(
        monkeypatch):
    # the sizes of a report's rounds follow the batch rule: the cones
    # walk the distinct columns their runs drew, by width class, in chunks
    # of about one state, so only a cone as wide as the target walks
    # full-size rounds
    rounds, seen = [], []
    apply_round = simulator.apply_round
    sample_slices = simulator.sample_slices

    def counting_round(state, blocks, n):
        rounds.append(state.size)
        return apply_round(state, blocks, n)

    def seen_slices(circuit, slices, draws):
        seen.append((slices, draws))
        return sample_slices(circuit, slices, draws)

    rng = np.random.default_rng(41)
    n, m = 8, 5
    target = _cz_dense(families.random_generic_circuit(n, m, rng), rng)
    _, _, cdf = simulator._noiseless_law(target)
    monkeypatch.setattr(simulator, "apply_round", counting_round)
    monkeypatch.setattr(simulator, "sample_slices", seen_slices)
    model = CompositeModel(
        pauli_part=IndependentLocationChannels(
            default_rates={"X": 0.01, "Y": 0.01, "Z": 0.01}),
        gate_part=BoundedGateNoise(rate=0.05, n=n))
    report = protocol.accredit(ProtocolConfig(
        v=3, d=400, theta=0.05, master_seed=8, noise=model,
        epsilon_mode="theorem2"), target)
    ((slices, draws),) = seen
    assert len(slices) == report.n_acc
    walked = Counter(rounds)
    assert walked == _sampler_rounds(target, cdf, slices, draws)
    assert max(walked) == 2 ** n and walked[2 ** n] > m and len(walked) > 1

    # one error at location m-2 or m-1 reaches at most four qubits
    rounds.clear()
    slices = _slices_with_single_errors(n, m, rng)[-2:]
    relabelled = slices.copy()
    relabelled[:, :, m] ^= 1
    slices = np.concatenate((slices, relabelled))
    assert all(len(_light_cone(target, *bits)[1]) <= 4 for bits in slices)
    draws = rng.random(len(slices))
    protocol._sample_targets(target, slices, draws)
    assert Counter(rounds) == _sampler_rounds(target, cdf, slices, draws)
    assert rounds.count(2 ** n) == m

    # one more run than its cone has columns: the runs walk the distinct
    # columns they drew, in chunks of about one state, and no full-size
    # round even once they drew each one
    first, cone = _light_cone(target, *slices[0])
    runs = np.repeat(slices[:1], 2 ** (n - len(cone)) + 1, axis=0)
    probs = np.diff(cdf)
    mask = sum(1 << q for q in cone)
    best = {}
    for x in np.argsort(probs).tolist():  # each column's likeliest outcome
        best[x & ~mask] = x
    drawn = rng.random(len(runs)), np.append(cdf[list(best.values())], 0.5)
    for draws in drawn:
        rounds.clear()
        protocol._sample_targets(target, runs, draws)
        assert Counter(rounds) == _sampler_rounds(target, cdf, runs, draws)
    assert len(best) == 2 ** (n - len(cone))
    assert rounds.count(2 ** n) == m


def test_sample_targets_hold_a_few_states_at_any_m(allocates_at_most):
    # the sampler holds the noiseless state and one cone's columns on
    # their walk, not one state per location or per slice: m = 10 stays
    # within eight states at n = 12, wide cones too
    n, m = 12, 10
    rng = np.random.default_rng(31)
    target = families.random_generic_circuit(n, m, rng)
    slices = _slices_at_every_location(n, m, 3 * (m + 1), rng)
    draws = rng.random(len(slices))
    with allocates_at_most(8 * 2 ** n * 16):
        picks = protocol._sample_targets(target, slices, draws)
    assert picks.shape == (len(slices), n)

    # a slice with a full cone and one with a wide cone, each repeated
    # 3000 times: their runs' columns and cdf rows take at most a state at
    # a time, beyond twice the slices' own bytes, the size of the per-run
    # light cones and Pauli indices
    widths = [len(_light_cone(target, *bits)[1]) for bits in slices]
    wide = next(i for i, s in enumerate(widths) if n / 2 <= s < n)
    repeated = np.repeat(slices[[widths.index(n), wide]], 3000, axis=0)
    draws = rng.random(len(repeated))
    with allocates_at_most(8 * 2 ** n * 16 + 2 * repeated.nbytes):
        picks = protocol._sample_targets(target, repeated, draws)
    assert picks.shape == (len(repeated), n)

    # over 2,000 distinct slices whose cones span at most BLOCK qubits, one
    # width class: its chunks, with their gates and sign rows, take about
    # a state each, within the same bound
    narrow = {}
    while len(narrow) < 2000:
        bits = np.zeros((2, m + 1, n), dtype=np.uint8)
        j = int(rng.integers(m - 2, m))
        qubits = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        letters = rng.integers(1, 4, size=len(qubits))
        bits[:, j, qubits] = letters & 1, letters >> 1
        if len(_light_cone(target, *bits)[1]) <= simulator.BLOCK:
            narrow[bits.tobytes()] = bits
    narrow = np.array(list(narrow.values()))
    draws = rng.random(len(narrow))
    with allocates_at_most(8 * 2 ** n * 16 + 2 * narrow.nbytes):
        picks = protocol._sample_targets(target, narrow, draws)
    assert picks.shape == (len(narrow), n)


def test_batched_cone_walks_match_the_one_cone_reference(monkeypatch,
                                                         cone_law):
    # every batch of cone walks against the one-cone reference, state by
    # state: cdf rows within 1e-12 and exactly 1 over the dummy qubits'
    # entries; then every run's pick against the reference's pick, where
    # its residual lies more than 1e-9 from an edge of its cdf row; on
    # cZ-dense targets whose cones cover every width class from 1 to n,
    # with first bands at every location, and a group of one slice whose
    # runs draw more columns than one chunk holds
    rng = np.random.default_rng(43)
    batches, laws = [], simulator._cone_laws

    def recording(*args):
        batches.append((args, laws(*args)))
        return batches[-1][1]

    monkeypatch.setattr(simulator, "_cone_laws", recording)
    eps, classes = np.finfo(float).eps, set()
    for n, m in ((9, 4), (10, 5), (6, 3)):
        target = _cz_dense(families.random_generic_circuit(n, m, rng), rng)
        slices = np.concatenate((
            _slices_at_every_location(n, m, 6 * (m + 1), rng),
            _slices_with_single_errors(n, m, rng)))
        one = _slices_with_single_errors(n, m, rng)[-1:]
        slices = np.concatenate((slices, np.repeat(one, 200, axis=0)))
        draws = rng.random(len(slices))
        batches.clear()
        picks = simulator.sample_slices(target, slices, draws)
        bands, state, cdf = simulator._noiseless_law(target)
        chunks = Counter()  # the chunks each cone's columns walk in
        for (st, rows, bs, cz, paulis, first, cones, width), (spread, law) \
                in batches:
            chunks.update({(cones[c].tobytes(), paulis[c].tobytes())
                           for c in range(len(rows))})
            for c in range(len(rows)):
                qubits = np.flatnonzero(cones[c])
                f, s = first[c], len(qubits)
                classes.add(-(-s // simulator.BLOCK))
                ref_spread, ref = cone_law(state, rows[c:c + 1], bs[f:],
                                           cz[f:], paulis[c, f:], qubits)
                assert (spread[c, :2 ** s] == ref_spread).all()
                assert np.abs(law[c, :2 ** s] - ref[0]).max() <= 1e-12
                assert (law[c, 2 ** s:] == 1.0).all()
        # the reference picks, one run at a time
        paulis, starts, cones = simulator._light_cones(target, slices)
        u = np.maximum(draws, eps)
        out = cdf.searchsorted(u, side="right") - 1
        residual = np.clip((u - cdf[out]) / (cdf[out + 1] - cdf[out]), eps,
                           np.nextafter(1.0, 0.0))
        compared = 0
        for i, x in enumerate(out.tolist()):
            f, qubits = starts[i], np.flatnonzero(cones[i])
            if f < m:
                clear = x & ~int((1 << qubits).sum())
                spread, ref = cone_law(state, np.array([clear]), bands[f:],
                                       target.cz[f:], paulis[i, f:], qubits)
                if np.abs(ref[0] - residual[i]).min() <= 1e-9:
                    continue
                x = clear | spread[(ref[0] <= residual[i]).sum()]
            compared += 1
            assert picks[i] == x ^ slices[i, 1, m] @ (1 << np.arange(n))
        assert compared > 0.9 * len(slices)
        assert max(chunks.values()) > 1
    assert classes == {1, 2, 3}


def test_noiseless_ghz_beyond_the_statevector_limit_accepts_even_parity():
    target = families.ghz_circuit(24)
    cfg = ProtocolConfig(v=3, d=300, theta=0.05, master_seed=24,
                         noise=noiseless())
    report = protocol.accredit(cfg, target)
    assert report.n_acc == 300
    outputs = np.array(report.accepted_outputs)
    assert outputs.shape == (300, 24)
    assert not (outputs.sum(axis=1) % 2).any()
    # the X^a masks spread the outputs over the even-parity strings
    assert len({o.tobytes() for o in outputs}) > 250


def test_gate_noise_bits_in_trap_frame_match_padded_statevector(plain_walk):
    rng = np.random.default_rng(17)
    for _ in range(150):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        topo = families.random_clifford_circuit(n, m, rng)
        trap = traps.generate_trap(topo, rng.integers(
            0, 2, size=traps.choice_width(topo), dtype=np.uint8))
        gates = trap.gates[None]
        dressed, key = qotp.dress(trap, rng.integers(
            0, 2, size=qotp.pad_width(n, m), dtype=np.uint8))
        err_x = rng.integers(0, 2, size=(m + 1, n), dtype=np.uint8)
        err_x[[0, m]] = 0
        err_z = rng.integers(0, 2, size=(m + 1, n), dtype=np.uint8)
        # single-qubit deviations as the model draws them, times one
        # arbitrary Pauli at a random location after a round
        gate_x, gate_z = BoundedGateNoise(rate=0.5, n=n).sample_error_bits(
            1, 0, n, m, rng)
        err_x ^= gate_x[0, 0]
        err_z ^= gate_z[0, 0]
        j = int(rng.integers(1, m + 1))
        err_x[j] ^= simulator.index_to_bits(int(rng.integers(0, 2 ** n)), n)
        err_z[j] ^= simulator.index_to_bits(int(rng.integers(0, 2 ** n)), n)
        frame = simulator.frame_flips(
            topo, gates, simulator.frame_hits(err_x[None], err_z[None]))
        dense = qotp.postprocess(simulator.sample_bits(
            plain_walk(dressed, (err_x, err_z)), n, rng), key)
        assert np.array_equal(frame[0], dense)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(2, 4), generic=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pad_invariance_under_paulis_at_every_location(n, m, generic, seed,
                                                       plain_walk):
    # Lemma 1: padding changes nothing observable under any Pauli at any
    # location, gate deviations included, so the pad-free engine may run
    # the bare target under the same error bits
    rng = np.random.default_rng(seed)
    make = (families.random_generic_circuit if generic
            else families.random_clifford_circuit)
    target = make(n, m, rng)
    dressed, key = qotp.dress(target, rng.integers(
        0, 2, size=qotp.pad_width(n, m), dtype=np.uint8))
    errors = (rng.integers(0, 2, size=(m + 1, n), dtype=np.uint8),
              rng.integers(0, 2, size=(m + 1, n), dtype=np.uint8))
    padded = plain_walk(dressed, errors)
    bare = plain_walk(target, errors)
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
    # v and d are counts and the seed feeds SeedSequence: a float count
    # failed inside numpy, True ran one run and a negative seed failed in
    # the first stream block; theta is a real number: True passed and the
    # report printed "theta": true
    for bad in ({"v": 3.5}, {"d": 2.5}, {"v": 4.0}, {"d": True},
                {"master_seed": -1}, {"master_seed": 1.5}, {"theta": True},
                {"theta": "0.1"}, {"theta": 0.1j}, {"theta": None}):
        with pytest.raises(DomainError):
            ProtocolConfig(**{"v": 3, "d": 1, "theta": 0.1, "master_seed": 0,
                              "noise": noiseless(), **bad})
    ProtocolConfig(v=np.int64(3), d=np.uint8(1), theta=0.1,
                   master_seed=2 ** 63, noise=noiseless())


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


@pytest.mark.parametrize("counts", [_counts(), OperationCounts(3, 5, 0, 11),
                                    OperationCounts(0, 0, 0, 0)])
def test_figure8_closed_form_matches_rate_product(counts):
    """delta is delta_bound of the explicit per-operation rate list."""
    others = counts.preparations + counts.measurements + counts.cz_gates
    for r0 in np.linspace(0.0, 0.05, 11):
        rates = ([r0] * others + [r0 / protocol.GATE_RATE_DIVISOR]
                 * counts.single_qubit_rounds)
        (point,) = figure8_curve(3, [r0], counts)
        assert point.delta == pytest.approx(delta_bound(rates), rel=1e-12)


def test_figure8_at_size_takes_no_time():
    """10^9 operations of each kind cost one power per grid point, and a
    delta that underflows gives an infinite, vacuous bound."""
    counts = OperationCounts(*[10 ** 9] * 4)
    start = time.perf_counter()
    points = figure8_curve(3, [0.0, 1e-12, 1e-3], counts)
    assert time.perf_counter() - start < 0.1
    assert points[0].delta == 1.0
    expected = math.exp(3e9 * math.log1p(-1e-12) + 1e9 * math.log1p(-1e-13))
    assert points[1].delta == pytest.approx(expected, rel=1e-6)
    assert points[2].delta == 0.0
    assert points[2].bound == math.inf and points[2].vacuous


@pytest.mark.parametrize("theta", [1, 0.1, np.float64(0.1), np.float32(0.1),
                                   Fraction(1, 10)])
def test_report_writes_json_for_every_real_theta(theta):
    # the report holds plain Python numbers whatever real type theta has;
    # an integer theta is written as an integer
    model = IndependentLocationChannels(
        default_rates={"X": 0.01, "Y": 0.01, "Z": 0.01})
    report = protocol.accredit(ProtocolConfig(
        v=3, d=200, theta=theta, master_seed=3, noise=model),
        families.ghz_circuit(3))
    data = json.loads(report.to_json())
    assert data["theta"] == float(theta)
    assert type(data["theta"]) is (int if theta == 1 else float)
    assert type(data["confidence_vacuous"]) is bool
    assert type(data["bound_vacuous"]) is bool
