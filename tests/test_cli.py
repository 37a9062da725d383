import json
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from qaccredit import families, oracles
from qaccredit.cli import main
from qaccredit.circuit import identity_circuit, parse, serialize


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def ghz_file(tmp_path, runner):
    path = tmp_path / "ghz.json"
    result = runner.invoke(main, ["gen", "--family", "ghz", "--n", "3",
                                  "--seed", "1", "--out", str(path)])
    assert result.exit_code == 0
    return str(path)


def test_gen_families_valid(runner, tmp_path):
    for family in ("ghz", "random-clifford", "random-generic"):
        args = ["gen", "--family", family, "--n", "3", "--seed", "5"]
        if family != "ghz":
            args += ["--m", "3"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        circ = parse(result.output)
        assert circ.n == 3


def test_gen_reproducible(runner):
    args = ["gen", "--family", "random-clifford", "--n", "3", "--m", "3",
            "--seed", "9"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


def test_gen_generic_contains_matrix_gate(runner):
    result = runner.invoke(main, ["gen", "--family", "random-generic",
                                  "--n", "2", "--m", "2", "--seed", "2"])
    assert '"matrix"' in result.output


def test_gen_bad_params(runner):
    result = runner.invoke(main, ["gen", "--family", "random-clifford",
                                  "--n", "2", "--m", "1", "--seed", "1"])
    assert result.exit_code == 2


def test_accredit_noiseless(runner, ghz_file):
    result = runner.invoke(main, ["accredit", "--circuit", ghz_file,
                                  "--v", "3", "--d", "10", "--theta", "0.05",
                                  "--seed", "3"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert doc["n_acc"] == 10
    assert doc["seed"] == 3
    # d=10 at theta=0.05 leaves confidence -0.90: flagged, not hidden
    assert doc["confidence_vacuous"] and not doc["bound_vacuous"]
    assert result.stderr.splitlines() == \
        ["note: vacuous confidence -0.9025 (at most 0)"]


def test_accredit_rejects_small_v(runner, ghz_file):
    result = runner.invoke(main, ["accredit", "--circuit", ghz_file,
                                  "--v", "2", "--d", "1", "--theta", "0.1"])
    assert result.exit_code == 2
    assert "v >= 3" in result.output


def test_accredit_rejects_non_finite_theta(runner, ghz_file):
    for theta in ("nan", "inf"):
        result = runner.invoke(main, ["accredit", "--circuit", ghz_file,
                                      "--v", "3", "--d", "5",
                                      "--theta", theta, "--seed", "1"])
        assert result.exit_code == 2, result.output
        assert "theta must be finite" in result.stderr


def test_accredit_rejects_gate_noise_for_another_qubit_count(
        runner, tmp_path):
    path = tmp_path / "ghz2.json"
    runner.invoke(main, ["gen", "--family", "ghz", "--n", "2", "--seed", "1",
                         "--out", str(path)])
    noise_path = tmp_path / "noise.json"
    noise_path.write_text('{"variant": "bounded_gate", "rate": 0.5, "n": 6}')
    result = runner.invoke(main, ["accredit", "--circuit", str(path),
                                  "--v", "3", "--d", "400", "--theta", "0.05",
                                  "--noise", str(noise_path),
                                  "--epsilon-mode", "theorem2",
                                  "--seed", "1"])
    assert result.exit_code == 2, result.output
    assert "n=6" in result.stderr and "n=2" in result.stderr


def test_accredit_gate_noise_needs_theorem2(runner, ghz_file, tmp_path):
    noise_path = tmp_path / "noise.json"
    noise_path.write_text('{"variant": "bounded_gate", "rate": 0.05, "n": 3}')
    args = ["accredit", "--circuit", ghz_file, "--v", "7", "--theta", "0.05",
            "--noise", str(noise_path), "--seed", "1"]
    # Theorem 1 covers Pauli noise only, so its epsilon is refused
    result = runner.invoke(main, args + ["--d", "2000"])
    assert result.exit_code == 2, result.output
    assert "--epsilon-mode theorem2" in result.stderr
    assert result.stdout == ""
    result = runner.invoke(main, args + ["--d", "200",
                                         "--epsilon-mode", "theorem2"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["epsilon"] == pytest.approx(0.7696,
                                                                 abs=1e-4)


def test_gate_model_reads_the_same_in_every_composite_slot(runner, ghz_file,
                                                           tmp_path):
    # a composite multiplies its parts' errors, whichever slot holds which
    gate = '{"variant": "bounded_gate", "rate": 0.1, "n": 3}'
    docs = ['{"variant": "composite", "pauli": %s}' % gate,
            '{"variant": "composite", "gate": %s}' % gate, gate]
    reports = []
    for i, doc in enumerate(docs):
        noise_path = tmp_path / f"noise{i}.json"
        noise_path.write_text(doc)
        args = ["accredit", "--circuit", ghz_file, "--v", "3", "--d", "200",
                "--theta", "0.05", "--noise", str(noise_path), "--seed", "1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "--epsilon-mode theorem2" in result.stderr
        result = runner.invoke(main, args + ["--epsilon-mode", "theorem2"])
        assert result.exit_code == 0, result.output
        reports.append(result.stdout)
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["n_acc"] < 200


def test_accredit_seed_reproducible(runner, ghz_file):
    args = ["accredit", "--circuit", ghz_file, "--v", "3", "--d", "5",
            "--theta", "0.1", "--seed", "42"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


def test_accredit_echoes_entropy_seed(runner, ghz_file):
    result = runner.invoke(main, ["accredit", "--circuit", ghz_file,
                                  "--v", "3", "--d", "2", "--theta", "0.1"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["seed"] is not None


def test_accredit_limits_exit_code(runner, tmp_path):
    # only a generic target needs a statevector; a Clifford one of the same
    # size runs on the frame
    for family, code in (("random-generic", 3), ("random-clifford", 0)):
        path = tmp_path / f"{family}.json"
        result = CliRunner().invoke(main, ["gen", "--family", family,
                                           "--n", "20", "--m", "2",
                                           "--seed", "1", "--out", str(path)])
        assert result.exit_code == 0
        result = runner.invoke(main, ["accredit", "--circuit", str(path),
                                      "--v", "3", "--d", "1", "--theta",
                                      "0.1", "--seed", "1"])
        assert result.exit_code == code, result.output


def test_accredit_with_noise_file(runner, ghz_file, tmp_path):
    noise_path = tmp_path / "noise.json"
    noise_path.write_text('{"variant": "noiseless"}')
    result = runner.invoke(main, ["accredit", "--circuit", ghz_file,
                                  "--v", "3", "--d", "3", "--theta", "0.1",
                                  "--noise", str(noise_path), "--seed", "1"])
    assert result.exit_code == 0


def test_accredit_rejects_bad_noise_rates(runner, ghz_file, tmp_path):
    noise_path = tmp_path / "noise.json"
    noise_path.write_text('{"variant": "independent", "default_rates": '
                          '{"X": 0.8, "Y": 0.8, "Z": -0.3}}')
    result = runner.invoke(main, ["accredit", "--circuit", ghz_file,
                                  "--v", "3", "--d", "3", "--theta", "0.1",
                                  "--noise", str(noise_path), "--seed", "1"])
    assert result.exit_code == 2
    assert "X + Y + Z <= 1" in result.output


def test_accredit_rejects_unknown_rate_keys(runner, ghz_file, tmp_path):
    noise_path = tmp_path / "noise.json"
    for doc in ('{"variant": "independent", "default_rates": {"x": 0.5}}',
                '{"variant": "independent", "rates": '
                '[{"k": 0, "loc": 1, "z": 0.5}]}'):
        noise_path.write_text(doc)
        result = runner.invoke(main, ["accredit", "--circuit", ghz_file,
                                      "--v", "3", "--d", "3", "--theta", "0.1",
                                      "--noise", str(noise_path),
                                      "--seed", "1"])
        assert result.exit_code == 2
        assert "unknown" in result.output


def test_accredit_notes_unavailable_bound(runner, tmp_path):
    path = tmp_path / "ghz2.json"
    runner.invoke(main, ["gen", "--family", "ghz", "--n", "2", "--seed", "1",
                         "--out", str(path)])
    noise_path = tmp_path / "noise.json"
    # Z on both qubits before every measurement (GHZ(2) has m = 2): every
    # trap flips both outputs, so every run rejects
    rates = ", ".join(f'{{"k": {k}, "loc": 2, "Z": 1.0}}' for k in range(4))
    noise_path.write_text(f'{{"variant": "independent", "rates": [{rates}]}}')
    result = runner.invoke(main, ["accredit", "--circuit", str(path),
                                  "--v", "3", "--d", "400", "--theta", "0.1",
                                  "--noise", str(noise_path), "--seed", "1"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert doc["n_acc"] == 0 and doc["bound"] == "unavailable"
    assert doc["bound_vacuous"] and not doc["confidence_vacuous"]
    assert result.stderr.splitlines() == ["note: vacuous bound unavailable"]


_RATE_MAP = '{"variant": "bounded_gate", "rate": {"0,0": 0.5}, "n": 3}'
_MALFORMED = "malformed noise model document"
_ENTRY = '{"variant": "explicit", "entries": [{"prob": %s, "collection": ' \
    '[["I", "I", "I"], ["I", "I", "I"], ["I", "I", "I"], ["I", "I", "I"]]}]}'
_DEFAULT = '{"variant": "independent", "default_rates": %s}'


@pytest.mark.parametrize("doc, message", [
    (_RATE_MAP, "gate rate must be a number"),
    ('{"variant": "composite", "gate": %s}' % _RATE_MAP,
     "gate rate must be a number"),
    ('{"variant": "bounded_gate", "rate": null, "n": 3}',
     "gate rate must be a number"),
    ('{"variant": "bounded_gate", "rate": [0.1], "n": 3}',
     "gate rate must be a number"),
    ('{"variant": "independent", "default_rates": 5}', _MALFORMED),
    ('{"variant": "independent", "default_rates": {"X": null}}', _MALFORMED),
    ('{"variant": "explicit", "entries": 5}', _MALFORMED),
    ('{"variant": "explicit", "entries": [{"prob": 1.0, "collection": 5}]}',
     _MALFORMED),
    ('{"variant": "explicit", "entries": '
     '[{"prob": 1.0, "collection": [[1, 2]]}]}', _MALFORMED),
    ('{"variant": "bounded_gate", "rate": 0.1, "n": "3"}', "integer n >= 1"),
    ('{"variant": "independent", "rates": [{"k": true, "loc": true, '
     '"Z": 1.0}]}', "needs integers"),
    ('{"variant": "bounded_gate", "n": 3}', f"{_MALFORMED}: missing key 'rate'"),
    ('{"variant": "explicit", "entries": [{"prob": 1.0}]}',
     f"{_MALFORMED}: missing key 'collection'"),
    ('{"variant": "independent", "rates": [{"k": 0, "Z": 1.0}]}',
     f"{_MALFORMED}: missing key 'loc'"),
    (_ENTRY % "true", f"{_MALFORMED}: probability must be a real number"),
    (_ENTRY % '"1"', f"{_MALFORMED}: probability must be a real number"),
    (_DEFAULT % '{"X": true}', f"{_MALFORMED}: rate X must be a real number"),
    (_DEFAULT % '{"X": "0.1"}',
     f"{_MALFORMED}: rate X must be a real number"),
    ('{"variant": "independent", "rates": [{"k": 0, "loc": 1, "Z": false}]}',
     f"{_MALFORMED}: rate Z must be a real number"),
    (_DEFAULT % '[["X", 0.1]]', f"{_MALFORMED}: default rates must map"),
], ids=["rate-map", "composite-rate-map", "rate-null", "rate-list",
        "default-rates-int", "default-rate-null", "entries-int",
        "collection-int", "collection-ints", "n-string", "location-bools",
        "missing-rate", "missing-collection", "missing-loc", "prob-bool",
        "prob-string", "default-rate-bool", "default-rate-string",
        "location-rate-bool", "default-rates-pairs"])
def test_accredit_rejects_malformed_noise_documents(runner, ghz_file,
                                                    tmp_path, doc, message):
    noise_path = tmp_path / "noise.json"
    noise_path.write_text(doc)
    result = runner.invoke(main, ["accredit", "--circuit", ghz_file,
                                  "--v", "3", "--d", "200", "--theta", "0.1",
                                  "--noise", str(noise_path),
                                  "--epsilon-mode", "theorem2",
                                  "--seed", "1"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ") and message in result.stderr
    assert result.stdout == ""


def test_accredit_rejects_rates_outside_the_run(runner, ghz_file, tmp_path):
    noise_path = tmp_path / "noise.json"
    # GHZ(3) has m = 3: circuit 9 and location -1 or 4 are not sampled
    for k, loc in ((9, 1), (0, -1), (0, 4)):
        noise_path.write_text('{"variant": "independent", "rates": '
                              f'[{{"k": {k}, "loc": {loc}, "Z": 1.0}}]}}')
        result = runner.invoke(main, ["accredit", "--circuit", ghz_file,
                                      "--v", "3", "--d", "3", "--theta", "0.1",
                                      "--noise", str(noise_path),
                                      "--seed", "1"])
        assert result.exit_code == 2, result.output
        assert "error: rate location" in result.stderr


def test_bounds_csv(runner):
    result = runner.invoke(main, ["bounds", "--v", "3", "--n", "7", "--m", "7",
                                  "--r0-grid", "0:0.01:10"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    lines = [l for l in lines if not l.startswith("note:")]
    assert lines[0] == "r0,epsilon,delta,bound"
    bounds = [float(l.split(",")[3]) for l in lines[1:]]
    assert bounds[0] == 0.421875
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_bounds_bad_grid(runner):
    result = runner.invoke(main, ["bounds", "--v", "3", "--n", "2", "--m", "2",
                                  "--r0-grid", "0.5:0.1:5"])
    assert result.exit_code == 2


_COUNTS = {"preparations": 4, "measurements": 4, "cz_gates": 4,
           "single_qubit_rounds": 4}


@pytest.mark.parametrize("doc, message", [
    ({**_COUNTS, "cz_gates": 1.5}, "cz_gates must be an integer >= 0"),
    ({**_COUNTS, "preparations": -40}, "preparations must be an integer"),
    ({**_COUNTS, "measurements": True}, "measurements must be an integer"),
    ([4, 4, 4, 4], "counts document must be an object"),
    (4, "counts document must be an object"),
    ({**_COUNTS, "preparations": 10 ** 400},
     "preparations is too large for a float"),
], ids=["float", "negative", "boolean", "list", "number", "past-float"])
def test_bounds_rejects_bad_counts(runner, tmp_path, doc, message):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["bounds", "--v", "3", "--n", "2", "--m", "2",
                                  "--r0-grid", "0:0.01:5",
                                  "--counts", str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ") and message in result.stderr
    assert result.stdout == ""


def test_bounds_n_past_float_is_usage_error(runner):
    # the default counts scale with n, so no float holds them
    result = runner.invoke(main, ["bounds", "--v", "3", "--n", str(10 ** 400),
                                  "--m", "2", "--r0-grid", "0:0.5:3"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert "too large for a float" in result.stderr
    assert result.stdout == ""


def test_bounds_counts_summing_past_float_are_vacuous(runner, tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({**_COUNTS, "preparations": 10 ** 308,
                                "measurements": 10 ** 308,
                                "cz_gates": 10 ** 308}))
    result = runner.invoke(main, ["bounds", "--v", "3", "--n", "2", "--m",
                                  "2", "--r0-grid", "0:0.5:3",
                                  "--counts", str(path)])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[2:] == [
        "0.25,0.4775554382,0,inf", "0.5,0.5291135742,0,inf"]


def test_oracle_rejects_flip_table_over_cap(runner):
    # 2^16 trap choices x 156 basis errors: refused before any table work
    result = runner.invoke(main, ["oracle", "--which", "lemma2", "--n", "26",
                                  "--m", "2", "--seed", "1"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "too large to build" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("args, message", [
    (["twirl", "--n", "2", "--m", "4"], "too large to run"),
    (["twirl", "--n", "3", "--m", "3"], "too large to run"),
    (["pauli-twirl", "--n", "4"], "too large to sum"),
], ids=["twirl-n2-m4", "twirl-n3-m3", "pauli-twirl-n4"])
def test_oracle_rejects_twirl_over_cap(runner, args, message):
    result = runner.invoke(main, ["oracle", "--which"] + args
                           + ["--seed", "1"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.stderr
    assert result.stdout == ""


def test_mesothetic_limits_exit_code(runner, tmp_path):
    path = tmp_path / "ghz17.json"
    path.write_text(serialize(families.ghz_circuit(17)))
    result = runner.invoke(main, ["mesothetic", "--circuit", str(path),
                                  "--v", "3", "--seed", "1"])
    assert result.exit_code == 3, result.output
    assert "17 qubits exceeds statevector limit 16" in result.stderr
    assert result.stdout == ""


def test_oracle_lemma2_passes(runner):
    result = runner.invoke(main, ["oracle", "--which", "lemma2", "--n", "1",
                                  "--m", "3", "--band-class", "single",
                                  "--seed", "4"])
    assert result.exit_code == 0, result.output
    for line in result.output.strip().splitlines():
        assert json.loads(line)["passed"]


def test_oracle_circuit_and_samples_use_independent_streams(runner):
    # the topology and the sampled collections come from two children of
    # the seed, not from two generators on the same stream
    result = runner.invoke(main, ["oracle", "--which", "lemma2", "--n", "2",
                                  "--m", "3", "--band-class", "all",
                                  "--seed", "4"])
    assert result.exit_code == 0, result.output
    circuit_rng, sample_rng = map(np.random.default_rng,
                                  np.random.SeedSequence(4).spawn(2))
    topology = families.random_clifford_circuit(2, 3, circuit_rng)
    expected = oracles.lemma2_sweep(topology, "all", rng=sample_rng)
    assert result.stdout == "\n".join(r.to_json() for r in expected) + "\n"


def test_oracle_twirl_passes(runner):
    result = runner.invoke(main, ["oracle", "--which", "twirl", "--n", "2",
                                  "--m", "2", "--seed", "5"])
    assert result.exit_code == 0, result.output
    rep = json.loads(result.output.strip().splitlines()[0])
    assert rep["probability"] < 1e-9


def test_oracle_pauli_twirl_passes(runner):
    result = runner.invoke(main, ["oracle", "--which", "pauli-twirl",
                                  "--n", "2", "--seed", "6"])
    assert result.exit_code == 0, result.output


def test_oracle_theorem1_passes(runner):
    result = runner.invoke(main, ["oracle", "--which", "theorem1", "--n", "2",
                                  "--m", "2", "--v", "3", "--runs", "20000",
                                  "--adversaries", "8", "--seed", "7"])
    assert result.exit_code == 0, result.output
    # one touched slot meets the bound with equality; the CLI draws >= 2
    reports = [json.loads(line) for line in result.output.splitlines()]
    assert len(reports) == 8
    assert all(r["detail"]["v_hat"] >= 2 for r in reports)


@pytest.mark.parametrize("v", ["-1", "0", "1", "2"])
def test_oracle_theorem1_rejects_small_v(runner, v):
    # refused by the bound's own rule, before any adversary is drawn
    result = runner.invoke(main, ["oracle", "--which", "theorem1", "--v", v,
                                  "--seed", "1"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == \
        "error: v >= 3 required for the credibility bound\n"
    assert result.stdout == ""


def test_oracle_corrupted_bound_hook(runner, monkeypatch):
    failing = oracles.LemmaReport(instance="loc1:Z", probability=Fraction(1),
                                  bound=Fraction(1, 2), passed=False,
                                  samples=4)
    monkeypatch.setattr(oracles, "lemma2_sweep", lambda *a, **k: [failing])
    result = runner.invoke(main, ["oracle", "--which", "lemma2", "--n", "1",
                                  "--m", "2", "--band-class", "single",
                                  "--seed", "8"])
    assert result.exit_code == 4
    assert "1 lemma check(s) failed" in result.stderr
    assert json.loads(result.stdout)["passed"] is False


def test_mesothetic_honest(runner, ghz_file):
    result = runner.invoke(main, ["mesothetic", "--circuit", ghz_file,
                                  "--v", "3", "--sessions", "3", "--seed", "9"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert all(s["flag"] == "acc" and not s["aborted"]
               for s in doc["sessions"])


def test_mesothetic_dishonest(runner, ghz_file):
    result = runner.invoke(main, ["mesothetic", "--circuit", ghz_file,
                                  "--v", "3", "--sessions", "3",
                                  "--dishonest", "--seed", "10"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert all(s["flag"] == "rej" for s in doc["sessions"])


@pytest.mark.parametrize("args", [
    ["oracle", "--which", "lemma2", "--n", "2", "--m", "3",
     "--band-class", "single"],
    ["oracle", "--which", "twirl", "--n", "1", "--m", "2"],
    ["oracle", "--which", "pauli-twirl", "--n", "1"],
    ["oracle", "--which", "theorem1", "--n", "2", "--m", "2", "--v", "3",
     "--runs", "2000", "--adversaries", "2"],
    ["mesothetic", "--v", "3", "--sessions", "4"],
    ["mesothetic", "--v", "3", "--sessions", "4", "--dishonest"],
], ids=["lemma2", "twirl", "pauli-twirl", "theorem1", "mesothetic-honest",
        "mesothetic-dishonest"])
def test_same_seed_same_output(runner, ghz_file, args):
    if args[0] == "mesothetic":
        args = args + ["--circuit", ghz_file]
    first, second = (runner.invoke(main, args + ["--seed", "21"])
                     for _ in range(2))
    assert first.exit_code == 0, first.output
    assert first.stdout == second.stdout


def test_mesothetic_rejects_one_band_circuit(runner, tmp_path):
    path = tmp_path / "one_band.json"
    path.write_text(serialize(identity_circuit(2, 1)))
    for command in (["mesothetic", "--v", "3"],
                    ["accredit", "--v", "3", "--d", "5", "--theta", "0.1"]):
        result = runner.invoke(main, command + ["--circuit", str(path),
                                                "--seed", "1"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "traps need at least 2 bands" in result.stderr


def test_accredit_rejects_duplicate_cz_pair(runner, tmp_path):
    path = tmp_path / "duplicate_cz.json"
    path.write_text(json.dumps({"n": 2, "m": 2, "bands": [
        {"singles": [{"clifford": "I"}, {"clifford": "I"}],
         "cz": [[0, 1], [1, 0]]},
        {"singles": [{"clifford": "I"}, {"clifford": "H"}], "cz": []}]}))
    result = runner.invoke(main, ["accredit", "--circuit", str(path),
                                  "--v", "3", "--d", "5", "--theta", "0.1",
                                  "--seed", "1"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "qubit 0 in two pairs" in result.stderr


@pytest.mark.parametrize("args", [
    ["oracle", "--which", "theorem1", "--runs", "0"],
    ["oracle", "--which", "twirl", "--n", "0"],
    ["oracle", "--which", "twirl", "--m", "0"],
    ["oracle", "--which", "pauli-twirl", "--n", "0"],
    ["oracle", "--which", "lemma2", "--n", "0"],
    ["oracle", "--which", "theorem1", "--adversaries", "0"],
    ["mesothetic", "--v", "3", "--sessions", "0"],
], ids=["theorem1-runs", "twirl-n", "twirl-m", "pauli-twirl-n", "lemma2-n",
        "theorem1-adversaries", "mesothetic-sessions"])
def test_counts_below_one_are_usage_errors(runner, ghz_file, args):
    if args[0] == "mesothetic":
        args = args + ["--circuit", ghz_file]
    result = runner.invoke(main, args + ["--seed", "1"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Invalid value" in result.stderr
    assert result.stdout == ""
