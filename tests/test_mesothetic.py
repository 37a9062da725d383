import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaccredit import families, mesothetic, protocol, qotp, simulator
from qaccredit.circuit import Circuit, identity_circuit
from qaccredit.mesothetic import (ALICE, BOB, BobStrategy, OwnershipError,
                                  ProtocolViolation, QubitRegister, Transport,
                                  Message, run_session, soundness_estimate)
from qaccredit.noise import (BoundedGateNoise, CompositeModel,
                             IndependentLocationChannels, noiseless)
from qaccredit.pauli import PauliString
from qaccredit.protocol import DomainError, plan_run
from qaccredit.simulator import SimLimitError


def test_honest_sessions_accept_and_never_abort():
    target = families.ghz_circuit(2)
    rng = np.random.default_rng(0)
    bob = BobStrategy(honest=True)
    for _ in range(50):
        rep = run_session(target, 3, bob, rng)
        assert rep.flag == "acc"
        assert not rep.aborted
        assert int(rep.target_output.sum()) % 2 == 0  # GHZ parity


def test_z_everywhere_bob_aborts():
    target = families.ghz_circuit(2)
    rng = np.random.default_rng(1)
    devs = {(k, target.m): [PauliString(2, 0, 0b11)] for k in range(4)}
    bob = BobStrategy(honest=False, deviations=devs)
    for _ in range(20):
        rep = run_session(target, 3, bob, rng)
        assert rep.flag == "rej"
        assert rep.aborted


def test_bob_who_cannot_act_is_rejected_before_any_draw():
    target = families.ghz_circuit(2)  # m = 2
    yy = PauliString(2, 0b11, 0b11)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for devs, match in (({(9, 1): [yy]}, "k=9, stage=1"),
                        ({(0, 7): [yy]}, "k=0, stage=7"),
                        ({(-1, 1): [yy]}, "k=-1, stage=1"),
                        ({(0, 1): [PauliString(3, 0, 0b100)]}, "2 qubits"),
                        ({(0, 1): [yy, PauliString(3, 0b100, 0)]},
                         "2 qubits")):
        bob = BobStrategy(honest=False, deviations=devs)
        with pytest.raises(ValueError, match=match):
            run_session(target, 3, bob, rng)
        with pytest.raises(ValueError, match=match):
            soundness_estimate(target, 3, bob, 10, rng)
    assert rng.bit_generator.state == state
    # the edges of the run are fine
    edges = {(0, 0): [yy], (3, target.m): [yy]}
    run_session(target, 3, BobStrategy(honest=False, deviations=edges), rng)


def test_register_ownership_enforced():
    reg = QubitRegister(2, owner=BOB)
    with pytest.raises(OwnershipError):
        reg.apply(ALICE, simulator.apply_pauli, 1, 0)
    reg.transfer(BOB, ALICE)
    reg.apply(ALICE, simulator.apply_pauli, 0, 1)  # Z on qubit 0 flips it
    with pytest.raises(OwnershipError):
        reg.apply(BOB, simulator.apply_cz, ((0, 1),))
    with pytest.raises(OwnershipError):
        reg.transfer(BOB, ALICE)
    rng = np.random.default_rng(0)
    assert reg.measure_x(ALICE, rng).tolist() == [1, 0]


def test_transport_ordering():
    channel = Transport()
    with pytest.raises(ProtocolViolation):
        channel.receive("qubits_to_alice")
    channel.send(Message("qubits_to_bob"))
    with pytest.raises(ProtocolViolation):
        channel.receive("measurement_results")


def test_information_barrier():
    """Bob's strategy interface exposes nothing that could leak v0, pads,
    or trap choices: its only fields are the honesty flag and his own
    deviation policy, and his callback receives only (k, stage)."""
    fields = set(vars(BobStrategy(honest=True)))
    assert fields == {"honest", "deviations"}
    sig = inspect.signature(BobStrategy.deviations_for)
    assert list(sig.parameters) == ["self", "k", "stage"]


def test_honest_strategy_rejects_deviations():
    with pytest.raises(ValueError):
        BobStrategy(honest=True, deviations={(0, 0): [PauliString(1, 1, 0)]})


def test_soundness_estimate_honest_is_zero():
    target = families.ghz_circuit(2)
    rep = soundness_estimate(target, 3, BobStrategy(honest=True), 200,
                             np.random.default_rng(2))
    assert rep.probability == 0.0
    assert rep.passed


def test_soundness_estimate_pauli_bob():
    target = families.ghz_circuit(2)
    # middle-stage X on qubit 0: caught by half the trap dressings
    devs = {(k, 1): [PauliString(2, 1, 0)] for k in range(4)}
    bob = BobStrategy(honest=False, deviations=devs)
    rep = soundness_estimate(target, 3, bob, 2000, np.random.default_rng(3))
    assert rep.bound == 0.421875
    assert rep.passed


def test_soundness_estimate_with_alice_noise_bound():
    target = families.ghz_circuit(2)
    bob = BobStrategy(honest=True)
    alice = BoundedGateNoise(rate=0.01, n=2)
    g = 0.99 ** (4 * target.m)  # survival over (v+1)*m rounds
    rep = soundness_estimate(target, 3, bob, 100, np.random.default_rng(4),
                             alice_noise=alice)
    assert abs(rep.bound - (g * 0.421875 + 1 - g)) < 1e-12
    assert rep.passed


def test_alice_noise_other_than_gate_noise_is_rejected_before_any_draw():
    target = families.ghz_circuit(2)
    bob = BobStrategy(honest=True)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for model in (IndependentLocationChannels(default_rates={"Z": 0.5}),
                  CompositeModel(gate_part=BoundedGateNoise(rate=0.1, n=2)),
                  noiseless()):
        with pytest.raises(ValueError, match="BoundedGateNoise"):
            run_session(target, 3, bob, rng, alice_noise=model)
        with pytest.raises(ValueError, match="BoundedGateNoise"):
            soundness_estimate(target, 3, bob, 10, rng, alice_noise=model)
    assert rng.bit_generator.state == state


def test_alice_noise_for_another_n_is_rejected_before_any_draw():
    target = families.ghz_circuit(2)
    bob = BobStrategy(honest=True)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    alice = BoundedGateNoise(0.5, 6)
    with pytest.raises(ValueError, match="n=6 qubits"):
        run_session(target, 3, bob, rng, alice_noise=alice)
    with pytest.raises(ValueError, match="n=6 qubits"):
        soundness_estimate(target, 3, bob, 10, rng, alice_noise=alice)
    assert rng.bit_generator.state == state


def test_soundness_estimate_needs_a_session(monkeypatch):
    def no_session(*args, **kwargs):
        raise AssertionError("a session ran")

    monkeypatch.setattr(mesothetic, "run_session", no_session)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for sessions in (0, -3):
        with pytest.raises(ValueError,
                           match=f"sessions must be >= 1, not {sessions}"):
            soundness_estimate(families.ghz_circuit(2), 3,
                               BobStrategy(honest=True), sessions, rng)
    assert rng.bit_generator.state == state


def test_session_rejects_no_traps():
    with pytest.raises(ValueError, match="v must be >= 1"):
        run_session(families.ghz_circuit(2), 0, BobStrategy(honest=True),
                    np.random.default_rng(0))


def test_session_rejects_one_band_target_before_any_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="traps need at least 2 bands"):
        run_session(identity_circuit(2, 1), 3, BobStrategy(honest=True), rng)
    assert rng.bit_generator.state == state


def test_session_rejects_oversize_target_before_any_draw():
    target = families.ghz_circuit(17)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(SimLimitError, match="17 qubits exceeds"):
        run_session(target, 3, BobStrategy(honest=True), rng)
    with pytest.raises(SimLimitError, match="17 qubits exceeds"):
        soundness_estimate(target, 3, BobStrategy(honest=True), 10, rng)
    assert rng.bit_generator.state == state


def test_session_deterministic():
    target = families.ghz_circuit(2)
    bob = BobStrategy(honest=True)
    a = run_session(target, 3, bob, np.random.default_rng(55))
    b = run_session(target, 3, bob, np.random.default_rng(55))
    assert a.flag == b.flag and a.v0 == b.v0
    assert np.array_equal(a.target_output, b.target_output)
    assert a.transcript_length == b.transcript_length


def test_session_builds_no_circuit(monkeypatch):
    # the plan and the register read index arrays; only the target exists
    target = families.random_generic_circuit(2, 3, np.random.default_rng(8))

    def no_circuit(self):
        raise AssertionError("a circuit was built")

    monkeypatch.setattr(Circuit, "__post_init__", no_circuit)
    devs = {(k, 1): [PauliString(2, 0b11, 0b11)] for k in range(4)}
    for bob in (BobStrategy(honest=True),
                BobStrategy(honest=False, deviations=devs)):
        run_session(target, 3, bob, np.random.default_rng(8))


def _replay(target, v, bob, rng, alice_noise, plain_walk):
    """A session's outcome without the register: each slot of the plan,
    which holds Alice's gate noise, sampled from its distribution by
    ``plain_walk`` with Bob's stage-s Paulis as the location-s error bits.
    Returns (flag, v0, target output, transcript length)."""
    n, m = target.n, target.m
    plan = plan_run(
        target, v, noiseless() if alice_noise is None else alice_noise, rng)
    v0 = plan.v0
    output, sent = None, 0
    for k, (gates, key) in enumerate(zip(plan.gates, plan.keys)):
        circuit = Circuit(n, m, gates, target.cz,
                          plan.matrices if k == v0 else None)
        bits = np.zeros((2, m + 1, n), dtype=np.uint8)
        for stage in range(m + 1):
            for p in bob.deviations_for(k, stage):
                bits[0, stage] ^= simulator.index_to_bits(p.x_bits, n)
                bits[1, stage] ^= simulator.index_to_bits(p.z_bits, n)
        probs = plain_walk(circuit, bits)
        out = qotp.postprocess(simulator.sample_bits(probs, n, rng), key)
        sent += 2 * m + 1  # m round trips of the register, one measurement
        if k == v0:
            output = out
        elif out.any():
            return "rej", v0, output, sent + 1  # the abort message
    return "acc", v0, output, sent


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(2, 4), v=st.integers(1, 4),
       generic=st.booleans(), alice_gate_noise=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_session_matches_statevector_replay(n, m, v, generic,
                                            alice_gate_noise, seed,
                                            plain_walk):
    """The register walk equals the simulator's walk at BobStrategy's
    stage-to-location rule: stage s is noise location s."""
    rng = np.random.default_rng(seed)
    make = (families.random_generic_circuit if generic
            else families.random_clifford_circuit)
    target = make(n, m, rng)
    deviations = {}
    for k in range(v + 1):
        for stage in range(m + 1):
            count = int(rng.integers(0, 4)) if rng.random() < 0.3 else 0
            if count:
                deviations[k, stage] = [
                    PauliString(n, int(rng.integers(0, 2 ** n)),
                                int(rng.integers(0, 2 ** n)))
                    for _ in range(count)]
    bob = BobStrategy(honest=not deviations, deviations=deviations)
    alice = BoundedGateNoise(rate=0.3, n=n) if alice_gate_noise else None
    session_rng = np.random.default_rng(seed + 1)
    replay_rng = np.random.default_rng(seed + 1)
    rep = run_session(target, v, bob, session_rng, alice_noise=alice)
    flag, v0, output, sent = _replay(target, v, bob, replay_rng, alice,
                                     plain_walk)
    assert (rep.flag, rep.v0, rep.transcript_length) == (flag, v0, sent)
    assert rep.aborted == (flag == "rej")
    if output is None:
        assert rep.target_output is None
    else:
        assert np.array_equal(rep.target_output, output)
    assert session_rng.bit_generator.state == replay_rng.bit_generator.state


def test_session_decision_matches_frame_run_by_run():
    # from one seed a session draws what a pad-free run draws, so its slot
    # and decision equal the frame's with Bob's bits in the drawn errors
    v, seeds = 3, 150
    accepted = 0
    for target in (families.ghz_circuit(2), families.random_clifford_circuit(
            3, 3, np.random.default_rng(46))):
        n, m = target.n, target.m
        for alice in (None, BoundedGateNoise(rate=0.1, n=n)):
            for seed in range(seeds):
                bob_rng = np.random.default_rng([seed, 1])
                deviations = {}
                for k in range(v + 1):
                    for stage in range(m + 1):
                        if bob_rng.random() < 0.05:
                            deviations[k, stage] = [PauliString(
                                n, int(bob_rng.integers(0, 2 ** n)),
                                int(bob_rng.integers(0, 2 ** n)))]
                bob = BobStrategy(honest=not deviations,
                                  deviations=deviations)
                rep = run_session(target, v, bob, np.random.default_rng(seed),
                                  alice_noise=alice)
                v0, choice, err_x, err_z = protocol._dense_runs(
                    target, v, noiseless() if alice is None else alice, 1,
                    np.random.default_rng(seed))
                for (k, stage), devs in deviations.items():
                    for dev in devs:
                        err_x[0, k, stage] ^= simulator.index_to_bits(
                            dev.x_bits, n)
                        err_z[0, k, stage] ^= simulator.index_to_bits(
                            dev.z_bits, n)
                frame_accepts = protocol._traps_accept(target, v0, choice,
                                                       err_x, err_z)
                assert rep.v0 == v0[0]
                assert (rep.flag == "acc") == frame_accepts[0]
                accepted += rep.flag == "acc"
    # both decisions occur, so the check says something about each
    assert 0.2 < accepted / (4 * seeds) < 0.8
