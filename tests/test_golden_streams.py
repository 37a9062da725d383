"""Golden random streams: every draw of accredit, single_run and run_session.

The digests below pin the exact reports, run outcomes and session outcomes
for fixed seeds, plus the generators' final states. A change that draws
differently on purpose updates them and says so in CHANGES.md; any other
change must leave them as they are. ``python tests/test_golden_streams.py``
(with ``src`` on PYTHONPATH) prints the current digests.
"""

import hashlib
import json

import numpy as np

from qaccredit import families, noise, protocol
from qaccredit.mesothetic import BobStrategy, run_session
from qaccredit.pauli import PauliString

GOLDEN = {
    "accredit":
        "b1c50d5a5db62ef8021895d512178e85a6710dff194f4c5b75a090b6f2a628eb",
    "single_run":
        "490c00ad4c7ba330ad37ae9b9c87771f573107156c75f6b8131ab671e22dbb5b",
    "run_session":
        "40eff3ba689e20d7fc3d8e96e53db17766947b061028e8522261056deb2803a1",
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


def _digests():
    out = {}
    for name, stream in (("accredit", _accredit_stream),
                         ("single_run", _single_run_stream),
                         ("run_session", _session_stream)):
        h = hashlib.sha256()
        stream(h)
        out[name] = h.hexdigest()
    return out


def test_random_streams_match_golden_digests():
    assert _digests() == GOLDEN


if __name__ == "__main__":
    print(json.dumps(_digests(), indent=4))
