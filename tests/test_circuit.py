import json
from pathlib import Path

import numpy as np
import pytest

from qaccredit import cliffords
from qaccredit.circuit import (Band, Circuit, CircuitParseError, Gate,
                               clifford_gate, compose_singles,
                               identity_circuit, parse, serialize, validate)

H = clifford_gate("H")
S = clifford_gate("S")
I = clifford_gate("I")


def test_validate_minimal_legal():
    circ = Circuit(n=2, m=2, bands=(
        Band(singles=(I, I), cz_pairs=frozenset({(0, 1)})),
        Band(singles=(I, I)),
    ))
    assert validate(circ).ok


def test_validate_double_pairing():
    circ = Circuit(n=3, m=2, bands=(
        Band(singles=(I, I, I), cz_pairs=frozenset({(0, 1), (1, 2)})),
        Band(singles=(I, I, I)),
    ))
    report = validate(circ)
    assert not report.ok
    assert any("qubit 1 in two pairs" in v for v in report.violations)


def test_validate_final_band_cz():
    circ = Circuit(n=2, m=1, bands=(
        Band(singles=(I, I), cz_pairs=frozenset({(0, 1)})),
    ))
    report = validate(circ)
    assert any("final band must have no cZ" in v for v in report.violations)


def test_compose_examples():
    assert compose_singles(H, H) == I
    assert compose_singles(S, S) == clifford_gate("Z")
    # H then S recompiled into the single Clifford with matrix S @ H
    sh = compose_singles(H, S)
    assert sh.clifford == cliffords.index_of(
        cliffords.matrix(cliffords.C_S) @ cliffords.matrix(cliffords.C_H))


def test_compose_generic_stays_generic():
    t_gate = Gate(matrix=np.diag([1.0, np.exp(1j * np.pi / 4)]))
    out = compose_singles(t_gate, H)
    assert not out.is_clifford
    assert np.allclose(out.to_matrix(),
                       cliffords.matrix(cliffords.C_H) @ t_gate.to_matrix())


def test_gate_unitarity_tolerance():
    with pytest.raises(ValueError, match="unitary"):
        Gate(matrix=np.array([[1.0, 0.0], [0.0, 1.0 + 1e-3]]))


def test_gate_needs_exactly_one_representation():
    with pytest.raises(ValueError):
        Gate()
    with pytest.raises(ValueError):
        Gate(clifford=0, matrix=np.eye(2))


EXAMPLE_DOC = """{
  "n": 2,
  "m": 2,
  "bands": [
    {
      "singles": [
        {
          "clifford": "H"
        },
        {
          "matrix": [
            [
              [
                1.0,
                0.0
              ],
              [
                0.0,
                0.0
              ]
            ],
            [
              [
                0.0,
                0.0
              ],
              [
                0.7071067811865476,
                0.7071067811865476
              ]
            ]
          ]
        }
      ],
      "cz": [
        [
          0,
          1
        ]
      ]
    },
    {
      "singles": [
        {
          "clifford": "S"
        },
        {
          "clifford": "I"
        }
      ],
      "cz": []
    }
  ]
}
"""


def test_round_trip_serialize_parse():
    assert serialize(parse(EXAMPLE_DOC)) == EXAMPLE_DOC


def test_round_trip_shipped_example_file():
    path = Path(__file__).resolve().parent.parent / "demos" / \
        "example_circuit.json"
    text = path.read_text()
    assert serialize(parse(text)) == text


def test_round_trip_values():
    circ = parse(EXAMPLE_DOC)
    assert parse(serialize(circ)) == circ


def test_parse_missing_bands():
    with pytest.raises(CircuitParseError) as exc:
        parse(json.dumps({"n": 1, "m": 1}))
    assert exc.value.path == "$.bands"


def test_parse_bad_matrix_unitarity():
    doc = {"n": 1, "m": 1, "bands": [{"singles": [
        {"matrix": [[[1.0, 0], [0, 0]], [[0, 0], [1.001, 0]]]}], "cz": []}]}
    with pytest.raises(CircuitParseError, match="unitary"):
        parse(json.dumps(doc))


def test_parse_reports_gate_path():
    doc = {"n": 1, "m": 1,
           "bands": [{"singles": [{"bogus": 1}], "cz": []}]}
    with pytest.raises(CircuitParseError) as exc:
        parse(json.dumps(doc))
    assert exc.value.path == "$.bands[0].singles[0]"


def test_parse_validates_invariants():
    doc = {"n": 2, "m": 1,
           "bands": [{"singles": [{"clifford": "I"}, {"clifford": "I"}],
                      "cz": [[0, 1]]}]}
    with pytest.raises(CircuitParseError, match="final band"):
        parse(json.dumps(doc))


_DUPLICATE_CZ = {"n": 2, "m": 2, "bands": [
    {"singles": [{"clifford": "I"}, {"clifford": "I"}],
     "cz": [[0, 1], [1, 0]]},
    {"singles": [{"clifford": "I"}, {"clifford": "H"}], "cz": []}]}


def test_parse_rejects_duplicate_cz_pair():
    # cZ·cZ = I: merging the two pairs into one would change the circuit
    with pytest.raises(CircuitParseError, match="qubit 0 in two pairs"):
        parse(json.dumps(_DUPLICATE_CZ))


def test_band_pairs_are_an_ascending_tuple():
    assert Band(singles=(I, I), cz_pairs={(1, 0)}) \
        == Band(singles=(I, I), cz_pairs=[(0, 1)])
    band = Band(singles=(I,) * 4, cz_pairs=[(3, 2), (1, 0), (0, 1)])
    assert band.cz_pairs == ((0, 1), (0, 1), (2, 3))


def test_ck_names_round_trip():
    # indices without a one-letter name serialize as "C<k>" and parse back
    circ = Circuit(n=1, m=1, bands=(
        Band(singles=(Gate(clifford=compose_singles(H, S).clifford),)),))
    assert parse(serialize(circ)) == circ


def test_generators_produce_valid_circuits():
    from qaccredit import families
    rng = np.random.default_rng(11)
    circs = [families.ghz_circuit(n) for n in (1, 2, 3, 5)]
    circs += [families.random_clifford_circuit(3, 4, rng) for _ in range(20)]
    circs += [families.random_generic_circuit(3, 3, rng) for _ in range(20)]
    circs += [identity_circuit(2, 2)]
    for circ in circs:
        assert validate(circ).ok


def test_compose_associativity_property():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        gates = [Gate(clifford=int(g)) for g in rng.integers(0, 24, size=3)]
        left = compose_singles(compose_singles(gates[0], gates[1]), gates[2])
        right = compose_singles(gates[0], compose_singles(gates[1], gates[2]))
        assert left == right
        dense = (gates[2].to_matrix() @ gates[1].to_matrix()
                 @ gates[0].to_matrix())
        got = left.to_matrix()
        k = int(np.argmax(np.abs(dense.ravel()) > 1e-9))
        phase = got.ravel()[k] / dense.ravel()[k]
        assert np.allclose(got, phase * dense, atol=1e-10)
