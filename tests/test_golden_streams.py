"""Golden random streams: every draw of accredit, single_run and run_session,
and the reports of the oracles.

The digests below pin the exact reports, run outcomes and session outcomes
for fixed seeds, plus the generators' final states. The least-squares twirl
fit enters the ``oracles`` digest rounded, so the digest pins the fit rather
than the last bits of one LAPACK build. A change that draws differently on
purpose updates them and says so in CHANGES.md; any other change must leave
them as they are. ``python tests/test_golden_streams.py``
(with ``src`` on PYTHONPATH) prints the current digests.
"""

import hashlib
import json

import numpy as np

from qaccredit import families, noise, oracles, protocol
from qaccredit.mesothetic import BobStrategy, run_session
from qaccredit.pauli import PauliString

GOLDEN = {
    "accredit":
        "b1c50d5a5db62ef8021895d512178e85a6710dff194f4c5b75a090b6f2a628eb",
    "single_run":
        "6750d171e2917df953c7d6d445e7629b6ee4e5024395468286c72ab998a8fbd7",
    "run_session":
        "40eff3ba689e20d7fc3d8e96e53db17766947b061028e8522261056deb2803a1",
    "oracles":
        "0e6349936045dc908c42ce94db4cb58431fa397290ec0ad5757e7599e984befa",
}


def _pauli_rates():
    return noise.IndependentLocationChannels(
        default_rates={"X": 0.02, "Y": 0.02, "Z": 0.02})


def _accredit_stream(h):
    for n in (2, 3, 5):
        target = families.ghz_circuit(n)
        v = 3
        models = {
            "pauli": (_pauli_rates(), "theorem1"),
            "pauli+gate": (noise.CompositeModel(
                pauli_part=_pauli_rates(),
                gate_part=noise.BoundedGateNoise(0.05, n)), "theorem2"),
            "gate": (noise.CompositeModel(
                gate_part=noise.BoundedGateNoise(0.1, n)), "theorem2"),
            "adversary": (noise.random_adversary(
                n, target.m, v, np.random.default_rng(n)), "theorem1"),
            "noiseless": (noise.noiseless(), "theorem1"),
        }
        for i, (name, (model, mode)) in enumerate(models.items()):
            cfg = protocol.ProtocolConfig(
                v=v, d=100, theta=0.05, master_seed=10 * n + i, noise=model,
                epsilon_mode=mode)
            h.update(f"{n} {name}\n".encode())
            h.update(protocol.accredit(cfg, target).to_json().encode())


def _state(rng):
    return json.dumps(rng.bit_generator.state, sort_keys=True).encode()


def _single_run_stream(h):
    target = families.ghz_circuit(2)
    model = noise.CompositeModel(pauli_part=_pauli_rates(),
                                 gate_part=noise.BoundedGateNoise(0.2, 2))
    rng = np.random.default_rng(5)
    for _ in range(200):
        out = protocol.single_run(target, 3, model, rng)
        h.update(f"{out.v0} {out.flag}".encode())
        h.update(out.target_output.tobytes())
        for trap in out.trap_outputs:
            h.update(trap.tobytes())
    h.update(_state(rng))


def _session_stream(h):
    target = families.ghz_circuit(2)
    v = 3
    yy = PauliString(2, 0b11, 0b11)
    bobs = {"honest": BobStrategy(honest=True),
            "yy": BobStrategy(honest=False,
                              deviations={(k, 1): [yy] for k in range(v + 1)})}
    alices = {"none": None, "gate": noise.BoundedGateNoise(0.3, 2)}
    for i, (bob_name, bob) in enumerate(bobs.items()):
        for j, (alice_name, alice) in enumerate(alices.items()):
            rng = np.random.default_rng(2 * i + j)
            h.update(f"{bob_name} {alice_name}\n".encode())
            for _ in range(60):
                rep = run_session(target, v, bob, rng, alice_noise=alice)
                h.update(f"{rep.flag} {rep.v0} {rep.aborted} "
                         f"{rep.transcript_length}".encode())
                if rep.target_output is not None:
                    h.update(rep.target_output.tobytes())
            h.update(_state(rng))


def _oracle_stream(h):
    rng = np.random.default_rng(11)
    for n, m in ((1, 3), (2, 2), (2, 3)):
        topology = families.random_clifford_circuit(n, m, rng)
        for band_class in ("single", "two", "all"):
            h.update(f"{n} {m} {band_class}\n".encode())
            for rep in oracles.lemma2_sweep(
                    topology, band_class, rng=np.random.default_rng(n + m)):
                h.update(rep.to_json().encode())
    target = families.random_clifford_circuit(2, 2, rng)
    adversary = noise.random_adversary(2, 2, 3, rng)
    rep = oracles.theorem1_empirical(target, 3, adversary, runs=10 ** 4,
                                     rng=np.random.default_rng(12))
    h.update(rep.to_json().encode())
    for n in (1, 2):
        # the cross terms are zero up to rounding, so only counts and flags
        rep = oracles.pauli_twirl_identity_check(n, np.random.default_rng(n))
        h.update(f"{rep.samples} {rep.passed} {rep.detail}\n".encode())
    circ = families.random_generic_circuit(1, 2, rng)
    channels = {1: [families.random_unitary(2, rng)]}
    twirl = oracles.twirl_channel(circ, channels)
    h.update(f"{twirl.passed} {round(twirl.residual, 9)}\n".encode())
    h.update(np.round(twirl.weights, 6).tobytes())
    h.update(_state(rng))


def _digests():
    out = {}
    for name, stream in (("accredit", _accredit_stream),
                         ("single_run", _single_run_stream),
                         ("run_session", _session_stream),
                         ("oracles", _oracle_stream)):
        h = hashlib.sha256()
        stream(h)
        out[name] = h.hexdigest()
    return out


def test_random_streams_match_golden_digests():
    assert _digests() == GOLDEN


if __name__ == "__main__":
    print(json.dumps(_digests(), indent=4))
