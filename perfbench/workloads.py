"""The four benchmark workloads: inputs from a seed, timed units, checks.

A workload is built from a freshly imported ``qaccredit`` (the namespace
``qa`` of its submodules) and the workload seed. ``inputs(i)`` derives the
inputs of unit ``i`` from ``(seed, i)``; ``call`` is the only timed part and
calls the library's public functions; ``check`` returns how many of the
unit's operations failed their correctness check. ``finish`` applies the
checks that need every unit of the run.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

KAPPA = Fraction(27, 16)
PAULI_RATES = {"X": 0.002, "Y": 0.002, "Z": 0.002}
THETA = 0.05
# Chance that a correct report's acceptance frequency leaves its Hoeffding
# interval; small enough that a correct program never trips it in practice.
HOEFFDING_DELTA = 1e-9
EPS_ATOL = 1e-12
# Unit index of the warm-up inputs, far above any measured unit.
WARM_UNIT = 1 << 31
TWIRL_RESIDUAL_MAX = 1e-9


def unit_rng(seed: int, *tags) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def hoeffding_halfwidth(d: int, delta: float = HOEFFDING_DELTA) -> float:
    """t with P(|freq - p| >= t) <= delta over d independent runs."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * d))


@dataclass(frozen=True)
class AccreditSize:
    n: int
    m: int  # bands of a generic target; GHZ targets use max(n, 2)
    v: int
    d: int  # runs per report in the end-to-end run
    trace_d: int  # runs in the single report of the traced run
    gate_rate: float  # 0 for Pauli-only noise and theorem 1
    # Acceptance probability measured on the seed commit, and the slack
    # added to the Hoeffding interval for its own error and, for generic
    # targets, its spread over cZ topologies.
    p_ref: float
    p_slack: float


class AccreditWorkload:
    """``protocol.accredit`` reports; one operation is one protocol run."""

    def __init__(self, qa, seed: int, size: AccreditSize, trace: bool):
        self.qa, self.seed, self.size = qa, seed, size
        self.d = size.trace_d if trace else size.d
        self.ops_per_unit = self.d
        self.stats = Counter()
        pauli_part = qa.noise.IndependentLocationChannels(
            default_rates=PAULI_RATES)
        if size.gate_rate:
            self.noise = qa.noise.CompositeModel(
                pauli_part=pauli_part,
                gate_part=qa.noise.BoundedGateNoise(rate=size.gate_rate,
                                                    n=size.n))
            self.mode = "theorem2"
        else:
            self.noise = pauli_part
            self.mode = "theorem1"
        self.ghz = None if size.gate_rate else qa.families.ghz_circuit(size.n)
        self.epsilon = self._expected_epsilon()

    def _expected_epsilon(self) -> float:
        v, m = self.size.v, (self.size.m if self.ghz is None else self.ghz.m)
        if self.mode == "theorem1":
            return float(KAPPA / (v + 1))
        g = (1.0 - self.size.gate_rate) ** ((v + 1) * m)
        return g * float(KAPPA) / (v + 1) + 1.0 - g

    def inputs(self, i: int, d: int = 0):
        rng = unit_rng(self.seed, i)
        target = self.ghz if self.ghz is not None else \
            self.qa.families.random_generic_circuit(self.size.n, self.size.m,
                                                    rng)
        config = self.qa.protocol.ProtocolConfig(
            v=self.size.v, d=d or self.d, theta=THETA,
            master_seed=int(rng.integers(2 ** 63)), noise=self.noise,
            epsilon_mode=self.mode)
        return config, target

    def warm(self):
        self.qa.protocol.accredit(*self.inputs(WARM_UNIT, d=2))

    def call(self, inputs):
        return self.qa.protocol.accredit(*inputs)

    def check(self, inputs, report) -> int:
        config, target = inputs
        d = config.d
        self.stats["runs"] += d
        self.stats["accepted"] += report.n_acc
        outputs_ok = len(report.accepted_outputs) == report.n_acc and all(
            out.shape == (target.n,) and ((out == 0) | (out == 1)).all()
            for out in report.accepted_outputs)
        freq = report.n_acc / d
        ok = (report.d == d and outputs_ok
              and abs(report.epsilon - self.epsilon) <= EPS_ATOL
              and report.bound == self.qa.protocol.eq1_bound(
                  report.epsilon, report.n_acc, d, config.theta)
              and abs(freq - self.size.p_ref)
              <= hoeffding_halfwidth(d) + self.size.p_slack)
        return 0 if ok else d

    def finish(self) -> int:
        return 0

    def layer_values(self, calls) -> dict:
        traps = self.size.v * calls["protocol.single_run"]
        return {
            "protocol.accept_ratio":
                self.stats["accepted"] / max(self.stats["runs"], 1),
            "simulator.trap_frame_ratio":
                calls["simulator.trap_output"] / traps if traps else 0.0,
        }


@dataclass(frozen=True)
class MesotheticSize:
    cycles: int  # per unit; a cycle is one honest then ten deviating sessions
    trace_cycles: int


class MesotheticWorkload:
    """Two-party sessions on GHZ(2), v=3; one operation is one session.

    The deviating prover inserts Y (x) Y at stage 1 of every circuit, which
    corrupts the target, so its sessions exercise the abort rule.
    """

    N, V, DEVIATING_PER_HONEST = 2, 3, 10

    def __init__(self, qa, seed: int, size: MesotheticSize, trace: bool):
        self.qa, self.seed = qa, seed
        self.cycles = size.trace_cycles if trace else size.cycles
        self.ops_per_unit = self.cycles * (1 + self.DEVIATING_PER_HONEST)
        self.stats = Counter()
        meso, n = qa.mesothetic, self.N
        self.target = qa.families.ghz_circuit(n)
        yy = qa.pauli.PauliString(n, (1 << n) - 1, (1 << n) - 1)
        self.honest = meso.BobStrategy(honest=True)
        self.deviating = meso.BobStrategy(
            honest=False,
            deviations={(k, 1): [yy] for k in range(self.V + 1)})
        errors = [qa.pauli.PauliString(n)] * (self.target.m + 1)
        errors[1] = yy
        self.corrupts = qa.pauli.z_mask(
            qa.simulator.propagate_frame(self.target, errors)) != 0
        self.schedule = ([self.honest]
                         + [self.deviating] * self.DEVIATING_PER_HONEST)

    def inputs(self, i: int):
        return unit_rng(self.seed, i)

    def warm(self):
        rng = self.inputs(WARM_UNIT)
        for bob in self.schedule:
            self.qa.mesothetic.run_session(self.target, self.V, bob, rng)

    def call(self, rng):
        run = self.qa.mesothetic.run_session
        return [run(self.target, self.V, bob, rng)
                for _ in range(self.cycles) for bob in self.schedule]

    def check(self, rng, reports) -> int:
        failed = 0
        for bob, rep in zip(self.schedule * self.cycles, reports):
            self.stats["sessions"] += 1
            self.stats["messages"] += rep.transcript_length
            self.stats["aborted"] += rep.aborted
            if bob is self.honest:
                failed += rep.flag != "acc" or rep.aborted
            else:
                self.stats["deviating"] += 1
                self.stats["bad"] += rep.flag == "acc" and self.corrupts
        return failed

    def finish(self) -> int:
        """Deviating sessions all fail if freq(acc AND corrupted) is too high."""
        runs = self.stats["deviating"]
        if not runs:
            return 0
        bound = float(KAPPA / (self.V + 1))
        sigma = math.sqrt(max(bound * (1 - bound), 0.25 / runs) / runs)
        return 0 if self.stats["bad"] / runs <= bound + 3 * sigma else runs

    def layer_values(self, calls) -> dict:
        return {
            "mesothetic.messages": self.stats["messages"],
            "mesothetic.abort_ratio":
                self.stats["aborted"] / max(self.stats["sessions"], 1),
        }


@dataclass(frozen=True)
class OracleSize:
    lemma_n: int
    lemma_m: int
    lemma_choices: int
    t1_n: int
    t1_m: int
    t1_choices: int
    t1_runs: int
    twirl_n: int
    twirl_m: int


def clifford_with_choice_space(qa, rng, n: int, m: int, choices: int):
    """A random Clifford circuit whose trap-choice space has a fixed size.

    Fixing the size keeps each oracle check's cost the same from unit to
    unit; the random gates make every topology a distinct cache key.
    """
    while True:
        circ = qa.families.random_clifford_circuit(n, m, rng)
        if qa.traps.choice_space_size(circ) == choices:
            return circ


def adversary(qa, rng, n: int, m: int, v: int):
    """One to three collections, each with one error on v_hat >= 2 slots.

    With a single touched slot the per-v_hat bound is met with equality by
    a corrupting error, so a 3-sigma rule would fail about one check in 700
    by chance; two or more touched slots keep the true frequency well below
    the bound.
    """
    PauliString = qa.pauli.PauliString
    n_entries = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(n_entries))
    slots = rng.choice(v + 1, size=int(rng.integers(2, v + 2)), replace=False)
    entries = []
    for w in weights:
        circuits = []
        for k in range(v + 1):
            locs = [PauliString(n)] * (m + 1)
            if k in slots:
                loc = int(rng.integers(0, m + 1))
                x = 0 if loc in (0, m) else int(rng.integers(0, 2 ** n))
                z = int(rng.integers(0, 2 ** n))
                if x == 0 and z == 0:
                    z = int(rng.integers(1, 2 ** n))
                locs[loc] = PauliString(n, x, z)
            circuits.append(tuple(locs))
        entries.append((qa.noise.PauliErrorCollection(tuple(circuits)),
                        float(w)))
    return qa.noise.ExplicitCollectionDistribution(entries)


def haar_unitary(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


class OracleWorkload:
    """A rotation of three exact or Monte Carlo oracle checks per unit.

    Inputs are fresh in every unit, so ``oracles``' flip-table cache never
    turns a check into a cache hit.
    """

    V = 3
    ops_per_unit = 3

    def __init__(self, qa, seed: int, size: OracleSize, trace: bool):
        self.qa, self.seed, self.size = qa, seed, size

    def inputs(self, i: int):
        qa, s, rng = self.qa, self.size, unit_rng(self.seed, i)
        topology = clifford_with_choice_space(
            qa, rng, s.lemma_n, s.lemma_m, s.lemma_choices)
        target = clifford_with_choice_space(
            qa, rng, s.t1_n, s.t1_m, s.t1_choices)
        adv = adversary(qa, rng, s.t1_n, s.t1_m, self.V)
        t1_rng = unit_rng(self.seed, i, 1)
        circ = qa.families.random_generic_circuit(s.twirl_n, s.twirl_m, rng)
        channels = {loc: [haar_unitary(rng, 2 ** s.twirl_n)]
                    for loc in range(s.twirl_m + 1)}
        return topology, (target, adv, t1_rng), (circ, channels)

    def warm(self):
        # One theorem-1 check on a fresh target: it builds a flip table and
        # runs the vectorised sampler, the two costs shared by the rotation.
        _, (target, adv, rng), _ = self.inputs(WARM_UNIT)
        self.qa.oracles.theorem1_empirical(target, self.V, adv, runs=1000,
                                           rng=rng)

    def call(self, inputs):
        topology, (target, adv, rng), (circ, channels) = inputs
        oracles = self.qa.oracles
        return (oracles.lemma2_sweep(topology, "single"),
                oracles.theorem1_empirical(target, self.V, adv,
                                           runs=self.size.t1_runs, rng=rng),
                oracles.twirl_channel(circ, channels))

    def check(self, inputs, results) -> int:
        sweep, credibility, twirl = results
        return ((not sweep or not all(r.passed for r in sweep))
                + (not credibility.passed)
                + (not twirl.passed or not twirl.residual < TWIRL_RESIDUAL_MAX))

    def finish(self) -> int:
        return 0

    def layer_values(self, calls) -> dict:
        return {}


# The p_ref values were measured on the commit that added this benchmark:
# 20000 runs of the GHZ report (standard error 0.003) and 250 runs on each
# of 20 generic targets (standard error 0.007, no spread across targets
# beyond sampling). p_slack is three standard errors, rounded up.
FULL = {
    "accredit_clifford": (AccreditWorkload, AccreditSize(
        n=8, m=8, v=7, d=1000, trace_d=100, gate_rate=0.0,
        p_ref=0.170, p_slack=0.01)),
    "accredit_dense": (AccreditWorkload, AccreditSize(
        n=14, m=4, v=3, d=200, trace_d=20, gate_rate=0.05,
        p_ref=0.341, p_slack=0.03)),
    "mesothetic_sessions": (MesotheticWorkload, MesotheticSize(
        cycles=100, trace_cycles=50)),
    "oracle_exact": (OracleWorkload, OracleSize(
        lemma_n=4, lemma_m=4, lemma_choices=256,
        t1_n=3, t1_m=4, t1_choices=128, t1_runs=10 ** 5,
        twirl_n=2, twirl_m=2)),
}

# Toy sizes for the harness self-check: same code paths, seconds not minutes.
# Their p_ref values come from 20000 runs (GHZ) and 40 targets x 500 runs.
TINY = {
    "accredit_clifford": (AccreditWorkload, AccreditSize(
        n=3, m=3, v=3, d=40, trace_d=20, gate_rate=0.0,
        p_ref=0.895, p_slack=0.01)),
    "accredit_dense": (AccreditWorkload, AccreditSize(
        n=4, m=3, v=3, d=20, trace_d=10, gate_rate=0.05,
        p_ref=0.64, p_slack=0.05)),
    "mesothetic_sessions": (MesotheticWorkload, MesotheticSize(
        cycles=2, trace_cycles=2)),
    "oracle_exact": (OracleWorkload, OracleSize(
        lemma_n=2, lemma_m=3, lemma_choices=8,
        t1_n=2, t1_m=2, t1_choices=4, t1_runs=2000,
        twirl_n=1, twirl_m=2)),
}


def build(name: str, qa, seed: int, tiny: bool = False, trace: bool = False):
    cls, size = (TINY if tiny else FULL)[name]
    return cls(qa, seed, size, trace)
