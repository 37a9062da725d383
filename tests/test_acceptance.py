"""End-to-end acceptance criteria.

Each test prints one pass/fail line (visible under ``pytest -s`` / on
failure) and asserts the criterion at its stated tolerance.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from qaccredit import families, oracles, pauli, protocol, qotp, simulator, traps
from qaccredit.circuit import identity_circuit
from qaccredit.mesothetic import BobStrategy, run_session, soundness_estimate
from qaccredit.noise import (BoundedGateNoise, CompositeModel,
                             PauliErrorCollection, noiseless,
                             random_adversary)
from qaccredit.pauli import PauliString
from qaccredit.protocol import (OperationCounts, ProtocolConfig,
                                epsilon_theorem1, epsilon_theorem2,
                                figure8_curve)

TV_TOL = 1e-10


def _report(num: int, desc: str, ok: bool):
    print(f"\ncriterion {num:2d} [{'PASS' if ok else 'FAIL'}]: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _tv(a, b):
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


def test_criterion_1_constants():
    ok = (epsilon_theorem1(3) == Fraction(27, 64)
          and float(epsilon_theorem1(3)) == 0.421875
          and all(epsilon_theorem1(v) == Fraction(27, 16) / (v + 1)
                  for v in range(3, 40)))
    _report(1, "epsilon = (27/16)/(v+1) exactly; 27/64 at v=3", ok)


def test_criterion_2_qotp_transparency():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        circ = families.random_generic_circuit(n, m, rng)
        bare = simulator.run_density(circ)
        pad_bits = 2 * n * m + n
        if pad_bits <= 12:
            pad_iter = (simulator.index_to_bits(code, pad_bits)
                        for code in range(2 ** pad_bits))
        else:
            pad_iter = (rng.integers(0, 2, size=qotp.pad_width(n, m),
                                     dtype=np.uint8) for _ in range(200))
        total = np.zeros(2 ** n)
        count = 0
        for pads in pad_iter:
            dressed, key = qotp.dress(circ, pads)
            outputs = np.arange(2 ** n) ^ simulator.bits_to_index(key)
            total += simulator.run_density(dressed)[outputs]
            count += 1
        worst = max(worst, _tv(bare, total / count))
    _report(2, f"QOTP pad average leaves 50 random circuits unchanged "
               f"(worst TV {worst:.2e} < 1e-10)", worst < TV_TOL)


def test_criterion_3_trap_completeness(plain_walk):
    rng = np.random.default_rng(30)
    all_zero = True
    for _ in range(10 ** 3):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(2, 7))
        topo = families.random_clifford_circuit(n, m, rng)
        trap = traps.generate_trap(topo, rng.integers(
            0, 2, size=traps.choice_width(topo), dtype=np.uint8))
        dist = plain_walk(trap)
        if dist[0] <= 1 - 1e-10:
            all_zero = False
            break
    cfg = ProtocolConfig(v=3, d=20, theta=0.05, master_seed=31,
                         noise=noiseless())
    rep = protocol.accredit(cfg, families.ghz_circuit(3))
    ok = all_zero and rep.n_acc == rep.d
    _report(3, "1000 random traps output all-zeros noiselessly; "
               "noiseless protocol accepts with frequency 1", ok)


def _grid_topology(n, m):
    layouts = []
    for j in range(m - 1):
        if n >= 2:
            pair = (j % (n - 1), j % (n - 1) + 1) if n > 2 else (0, 1)
            layouts.append({pair})
        else:
            layouts.append(set())
    layouts.append(set())
    return identity_circuit(n, m, cz_layout=layouts)


def test_criterion_4_lemma2_exhaustive():
    worst_single = Fraction(0)
    worst_two = Fraction(0)
    count = 0
    trivial = 0
    for n in (1, 2, 3):
        for m in (2, 3, 4):
            topo = _grid_topology(n, m)
            singles = oracles.lemma2_sweep(topo, "single")
            twos = oracles.lemma2_sweep(topo, "two")
            assert all(r.passed for r in singles)
            assert all(r.passed for r in twos)
            # pairs of errors that cancel exactly (identity action on the
            # trap for every dressing) are harmless and fall outside the
            # detection bound; everything acting non-trivially must obey it
            assert not any(r.detail.get("acts_trivially") for r in singles)
            trivial += sum(bool(r.detail.get("acts_trivially"))
                           for r in twos)
            worst_single = max(worst_single,
                               max(r.probability for r in singles))
            worst_two = max(worst_two,
                            max((r.probability for r in twos
                                 if not r.detail.get("acts_trivially")),
                                default=Fraction(0)))
            count += len(singles) + len(twos)
    ok = worst_single <= Fraction(1, 2) and worst_two <= Fraction(3, 4)
    _report(4, f"{count} exact collections over n in {{1,2,3}}, m in "
               f"{{2,3,4}}: single <= 1/2 (max {worst_single}), "
               f"non-trivially acting two <= 3/4 (max {worst_two}; "
               f"{trivial} exact cancellations excluded)", ok)


def test_criterion_5_lemma1_twirl():
    rng = np.random.default_rng(50)

    def haar(dim):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(z)
        return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))

    circ = families.random_generic_circuit(2, 2, rng)
    channels = {loc: [haar(4)] for loc in range(3)}
    twirl = oracles.twirl_channel(circ, channels)
    cross = [oracles.pauli_twirl_identity_check(n, rng) for n in (1, 2)]
    worst_cross = max(float(r.probability) for r in cross)
    ok = twirl.residual < 1e-9 and worst_cross < 1e-12
    _report(5, f"pad twirl fits a Pauli-collection mixture (residual "
               f"{twirl.residual:.2e} < 1e-9); twirl cross terms "
               f"{worst_cross:.2e} < 1e-12", ok)


def test_criterion_6_theorem1_empirical():
    rng = np.random.default_rng(60)
    worst_margin = -1.0
    for i in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        target = families.random_clifford_circuit(
            n, m, np.random.default_rng(600 + i))
        adv = random_adversary(n, m, 3, rng)
        rep = oracles.theorem1_empirical(target, 3, adv, runs=10 ** 5, rng=rng)
        assert rep.passed, (i, rep.probability, rep.bound)
        assert float(rep.probability) <= 0.421875 + rep.detail["three_sigma"]
        worst_margin = max(worst_margin,
                           float(rep.probability) - float(rep.bound))
    _report(6, f"50 adversaries x 1e5 runs: freq(accept AND corrupted) <= "
               f"27/64 and per-v-hat bounds (worst margin over bound "
               f"{worst_margin:+.4f} <= 3 sigma)", True)


def test_criterion_7_theorem2_consistency():
    exact = (epsilon_theorem2(3, 1) == epsilon_theorem1(3)
             and epsilon_theorem2(7, 1) == epsilon_theorem1(7)
             and epsilon_theorem2(3, 0) == 1)
    # zero-rate gate noise must reproduce the Pauli-only statistics:
    # the bound collapses exactly and the empirical check still passes
    rng = np.random.default_rng(70)
    target = families.random_clifford_circuit(2, 2,
                                              np.random.default_rng(70))
    adv = random_adversary(2, 2, 3, rng)
    rep = oracles.theorem1_empirical(target, 3, adv, runs=10 ** 5, rng=rng)
    bound2 = float(epsilon_theorem2(3, 1))
    empirical_ok = (rep.passed
                    and float(rep.probability)
                    <= bound2 + rep.detail["three_sigma"])
    model = CompositeModel(pauli_part=noiseless(),
                           gate_part=BoundedGateNoise(rate=0.0, n=2))
    cfg = ProtocolConfig(v=3, d=50, theta=0.05, master_seed=71, noise=model,
                         epsilon_mode="theorem2")
    run = protocol.accredit(cfg, families.ghz_circuit(2))
    runner_ok = run.epsilon == 0.421875 and run.n_acc == run.d
    _report(7, "theorem-2 epsilon exact at g=1 and g=0; r=0 gate noise "
               "reproduces the Pauli-only statistics",
            exact and empirical_ok and runner_ok)


def test_criterion_8_eq1_arithmetic():
    bound = protocol.eq1_bound(0.421875, 90, 100, 0.05)
    conf = protocol.confidence(100, 0.05)
    ok = (abs(bound - 0.421875 / 0.85) < 1e-12
          and abs(conf - (1 - 2 * math.exp(-2 * 100 * 0.05 ** 2))) < 1e-12)
    _report(8, "variation-distance bound and confidence arithmetic "
               "within 1e-12", ok)


def test_criterion_9_figure8_shape():
    counts = OperationCounts.for_protocol(7, 7, 3, cz_per_circuit=6 * 3)
    grid = np.linspace(0.0, 0.05, 60)
    points = figure8_curve(3, grid, counts)
    csv = protocol.curve_to_csv(points)
    bounds = [p.bound for p in points]
    ok = (bounds[0] == float(epsilon_theorem1(3))
          and all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
          and any(p.vacuous for p in points)
          and all(p.vacuous == (p.bound > 1.0) for p in points)
          and csv.splitlines()[0] == "r0,epsilon,delta,bound"
          and len(csv.splitlines()) == 61)
    _report(9, "bound curve: kappa/(v+1) at r0=0, nondecreasing, vacuous "
               "values flagged, CSV emitted for the n=m=7 counting rule", ok)


def test_criterion_10_mesothetic_soundness():
    target = families.ghz_circuit(2)
    rng = np.random.default_rng(100)
    honest = BobStrategy(honest=True)
    honest_ok = True
    for _ in range(10 ** 4):
        rep = run_session(target, 3, honest, rng)
        if rep.flag != "acc" or rep.aborted:
            honest_ok = False
            break
    y0 = PauliString(2, 1, 1)
    devs = {(k, 1): [y0] for k in range(4)}
    bob = BobStrategy(honest=False, deviations=devs)
    sessions = 10 ** 5
    sound = soundness_estimate(target, 3, bob, sessions,
                               np.random.default_rng(101))
    # exact value: Y on qubit 0 at location 1 corrupts the target in every
    # slot, so a session accepts a corrupted output when its 3 traps pass,
    # each with Lemma 2's exact probability A; Hoeffding at risk 1e-6
    ident = PauliString(2)
    slot = (ident, y0, ident)
    assert oracles.corrupts_target(target, slot)
    bits = PauliErrorCollection((slot,)).to_bits()
    accept = oracles.lemma2_exact_prob(target, (bits[0][0], bits[1][0]))
    exact = float(accept ** 3)
    half_width = math.sqrt(math.log(2 / 1e-6) / (2 * sessions))
    ok = (honest_ok and sound.passed and sound.bound == 0.421875
          and abs(sound.probability - exact) <= half_width)
    _report(10, f"1e4 honest sessions all accept without abort; deviating "
                f"prover: freq(acc AND corrupted) = "
                f"{float(sound.probability):.4f} <= 27/64 + 3 sigma, and "
                f"within {half_width:.4f} of the exact A^3 = {exact:.6f}",
            ok)


def test_criterion_11_backend_cross_check(plain_walk):
    rng = np.random.default_rng(110)
    agree = True
    for _ in range(10 ** 3):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        topo = families.random_clifford_circuit(n, m, rng)
        trap = traps.generate_trap(topo, rng.integers(
            0, 2, size=traps.choice_width(topo), dtype=np.uint8))
        errs = []
        for loc in range(m + 1):
            z_only = loc in (0, m)
            x = 0 if z_only else int(rng.integers(0, 2 ** n))
            errs.append(PauliString(n, x, int(rng.integers(0, 2 ** n))))
        frame_bits = simulator.trap_output(trap, errs)
        err_x, err_z = PauliErrorCollection((errs,)).to_bits()
        sv_bits = simulator.sample_bits(
            plain_walk(trap, (err_x[0], err_z[0])), n, rng)
        if not np.array_equal(frame_bits, sv_bits):
            agree = False
            break
    _report(11, "frame and statevector backends agree bit-for-bit on 1e3 "
                "random (Clifford circuit, Pauli collection) instances",
            agree)


def test_demos_run():
    """Demos 01-03 run to completion; 04 is left out for its run time."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    demos = sorted((root / "demos").glob("0[1-3]_*.py"))
    assert len(demos) == 3
    for demo in demos:
        result = subprocess.run([sys.executable, str(demo)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, f"{demo.name}: {result.stderr}"
        assert result.stdout
