"""Two-party (verifier/prover) session engine for the interactive variant.

Alice (verifier) privately prepares trap choices and one-time pads, then the
qubit register shuttles between the parties: Bob (prover) prepares the
qubits, applies every cZ round, and measures; Alice applies only the padded
single-qubit rounds. Bob never learns the target's slot, the pads, or the
trap choices — his strategy interface receives only (circuit index, stage).
The register only checks ownership: a party acts on it by the simulator's
band steps (``apply_round``, ``apply_cz``, ``apply_pauli``), the steps of
the statevector walk.

Alice checks each trap's post-processed output as it arrives and aborts the
session at the first failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

import numpy as np

from . import pauli, qotp, simulator
from .circuit import Circuit
from .noise import BoundedGateNoise
from .oracles import LemmaReport, corrupts_target, three_sigma_report
from .pauli import PauliString
from .protocol import epsilon_theorem1, epsilon_theorem2, plan_run

ALICE = "alice"
BOB = "bob"


class OwnershipError(RuntimeError):
    """A party tried to act on the register without holding it."""


class ProtocolViolation(RuntimeError):
    """Message arrived out of order; distinct from a rejection."""


class QubitRegister:
    """n simulated qubits; only the current owner may act on them, and it
    acts by the simulator's band steps."""

    def __init__(self, n: int, owner: str):
        self.n = n
        self.owner = owner
        self._state = simulator.plus_state(n)

    def _check(self, party: str):
        if party != self.owner:
            raise OwnershipError(f"{party} does not hold the register")

    def transfer(self, from_party: str, to_party: str):
        self._check(from_party)
        self.owner = to_party

    def apply(self, party: str, step, *args):
        """Set the state to ``step(state, *args, n)``, a simulator step
        such as ``apply_round``, ``apply_cz`` or ``apply_pauli``."""
        self._check(party)
        self._state = step(self._state, *args, self.n)

    def measure_x(self, party: str, rng: np.random.Generator) -> np.ndarray:
        self._check(party)
        probs = simulator.x_distribution(self._state, self.n)
        return simulator.sample_bits(probs, self.n, rng)


@dataclass(frozen=True)
class Message:
    kind: str  # qubits_to_alice | qubits_to_bob | measurement_results | abort
    register: Optional[QubitRegister] = None
    bits: Optional[np.ndarray] = None


class Transport:
    """In-process FIFO, lossless, typed; swappable for a networked one."""

    def __init__(self):
        self._queue: List[Message] = []
        self.sent = 0

    def send(self, message: Message):
        self._queue.append(message)
        self.sent += 1

    def receive(self, expected_kind: str) -> Message:
        if not self._queue:
            raise ProtocolViolation("no message pending")
        msg = self._queue.pop(0)
        if msg.kind != expected_kind:
            raise ProtocolViolation(
                f"expected {expected_kind}, got {msg.kind}")
        return msg


@dataclass
class BobStrategy:
    """Prover behavior. Stage s of circuit k marks where Bob holds the
    register: s=0 right after preparation, s=j+1 right after Alice's round
    of band j and before its cZ round; the last band has no cZ round, so
    s=m is right before measurement.

    The deviation policy maps (k, stage) to Pauli insertions; honest Bob has
    an empty policy. The interface deliberately exposes nothing else: no
    slot index, pads, or trap choices exist on this object.
    """

    honest: bool = True
    deviations: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.honest and self.deviations:
            raise ValueError("honest strategy must have no deviations")

    def deviations_for(self, k: int, stage: int) -> list:
        return self.deviations.get((k, stage), [])

    def check_fits(self, v: int, n: int, m: int):
        """Raise ValueError unless every deviation lies in circuits 0..v and
        stages 0..m and acts on n qubits."""
        for (k, stage), devs in self.deviations.items():
            where = f"Bob deviation at (k={k}, stage={stage})"
            if not (0 <= k <= v and 0 <= stage <= m):
                raise ValueError(f"{where} lies outside circuits 0..{v} "
                                 f"and stages 0..{m}")
            if any(dev.n != n for dev in devs):
                raise ValueError(f"{where} does not act on the target's "
                                 f"{n} qubits")


@dataclass
class SessionReport:
    flag: str  # "acc" | "rej"
    target_output: Optional[np.ndarray]
    transcript_length: int
    aborted: bool
    v0: int


def _hand_over(channel: Transport, register: QubitRegister, sender: str,
               receiver: str, kind: str) -> QubitRegister:
    """Pass the register from sender to receiver as one ``kind`` message."""
    register.transfer(sender, receiver)
    channel.send(Message(kind, register=register))
    return channel.receive(kind).register


def run_session(target: Circuit, v: int, bob: BobStrategy,
                rng: np.random.Generator,
                alice_noise: Optional[BoundedGateNoise] = None
                ) -> SessionReport:
    """One interactive session over all v+1 circuits.

    Alice's preliminary work (``protocol.plan_run``: slot choice, trap
    sampling, padding) happens before any message is exchanged.
    ``alice_noise`` (None or a BoundedGateNoise): Alice draws one circuit's
    error bits from it per circuit and applies location j+1 after her band-j
    round. Bob's deviations (:meth:`BobStrategy.check_fits`), n against the
    statevector limit (SimLimitError) and the noise's type are checked
    before any draw.
    """
    n, m = target.n, target.m
    bob.check_fits(v, n, m)
    simulator.check_statevector_size(n)
    if not isinstance(alice_noise, (BoundedGateNoise, type(None))):
        raise ValueError("Alice's noise must be None or a BoundedGateNoise, "
                         f"not {type(alice_noise).__name__}")
    v0, prepared = plan_run(target, v, rng)
    channel = Transport()
    target_output = None
    for k, (circuit, key) in enumerate(prepared):
        alice = simulator.row_masks(None if alice_noise is None else [
            b[0] for b in alice_noise.sample_error_bits(0, n, m, rng)], m + 1)
        reg = QubitRegister(n, owner=BOB)
        for dev in bob.deviations_for(k, 0):
            reg.apply(BOB, simulator.apply_pauli, dev.x_bits, dev.z_bits)
        for j, pairs in enumerate(circuit.cz):
            reg = _hand_over(channel, reg, BOB, ALICE, "qubits_to_alice")
            reg.apply(ALICE, simulator.apply_round, circuit, j)
            reg.apply(ALICE, simulator.apply_pauli, *alice[j + 1])
            reg = _hand_over(channel, reg, ALICE, BOB, "qubits_to_bob")
            for dev in bob.deviations_for(k, j + 1):
                reg.apply(BOB, simulator.apply_pauli, dev.x_bits, dev.z_bits)
            reg.apply(BOB, simulator.apply_cz, pairs)
        channel.send(Message("measurement_results",
                             bits=reg.measure_x(BOB, rng)))
        msg = channel.receive("measurement_results")
        out = qotp.postprocess(msg.bits, key)
        if k == v0:
            target_output = out
        elif out.any():
            channel.send(Message("abort"))
            return SessionReport(flag="rej", target_output=target_output,
                                 transcript_length=channel.sent,
                                 aborted=True, v0=v0)
    return SessionReport(flag="acc", target_output=target_output,
                         transcript_length=channel.sent, aborted=False, v0=v0)


def _corrupts_target(target: Circuit, bob: BobStrategy, k: int) -> bool:
    """Would Bob's slot-k insertions flip the target's output distribution?"""
    if not target.all_clifford:
        raise ValueError("corruption proxy needs a Clifford target")
    n, m = target.n, target.m
    errs = []
    for loc in range(m + 1):
        p = PauliString(n)
        for dev in bob.deviations_for(k, loc):
            p = pauli.multiply(dev, p)
        errs.append(p)
    return corrupts_target(target, errs)


def soundness_estimate(target: Circuit, v: int, bob: BobStrategy,
                       sessions: int, rng: np.random.Generator,
                       alice_noise: Optional[BoundedGateNoise] = None
                       ) -> LemmaReport:
    """Monte Carlo frequency of {accept AND target corrupted}.

    Bound: kappa/(v+1), or g*kappa/(v+1) + 1 - g when Alice-side gate noise
    is configured, with g its survival factor over all (v+1)*m rounds.
    """
    if v < 3:
        raise ValueError("v >= 3 required")
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, not {sessions}")
    bob.check_fits(v, target.n, target.m)
    corrupt_by_slot = [_corrupts_target(target, bob, k) for k in range(v + 1)]
    bad = 0
    for _ in range(sessions):
        rep = run_session(target, v, bob, rng, alice_noise=alice_noise)
        if rep.flag == "acc" and corrupt_by_slot[rep.v0]:
            bad += 1
    if alice_noise is None:
        bound = epsilon_theorem1(v)
    else:
        bound = epsilon_theorem2(v, Fraction(alice_noise.g_factor(v, target.m)))
    return three_sigma_report(f"mesothetic v={v} sessions={sessions}",
                              bad / sessions, float(bound), sessions)
