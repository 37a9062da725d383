import json
from pathlib import Path

import numpy as np
import pytest

from qaccredit import cliffords
from qaccredit.circuit import (GENERIC, Circuit, CircuitParseError,
                               identity_circuit, parse, serialize)

H, S, I = cliffords.C_H, cliffords.C_S, cliffords.C_I
T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


def test_validate_minimal_legal():
    circ = Circuit(2, 2, [[I, I], [I, I]], [frozenset({(0, 1)}), ()])
    assert circ.cz == (((0, 1),), ())


def test_validate_double_pairing():
    with pytest.raises(ValueError, match="band 0: qubit 1 in two pairs"):
        Circuit(3, 2, [[I, I, I], [I, I, I]],
                [frozenset({(0, 1), (1, 2)}), ()])


def test_validate_final_band_cz():
    with pytest.raises(ValueError, match="band 0: final band must have no cZ"):
        Circuit(2, 1, [[I, I]], [frozenset({(0, 1)})])
    # one error lists every violation
    with pytest.raises(ValueError) as exc:
        Circuit(2, 1, [[I, I]], [[(0, 5)]])
    assert str(exc.value) == ("band 0: qubit 5 out of range; "
                              "band 0: final band must have no cZ")


_EMPTY = np.zeros((2, 3), dtype=np.uint8)


@pytest.mark.parametrize("n, m, gates, cz, message", [
    (3, 2, _EMPTY, [[(0, 5)], ()], "band 0: qubit 5 out of range"),
    (3, 2, _EMPTY, [[(1, 1)], ()], r"band 0: cZ pair \(1,1\) is degenerate"),
    (3, 2, _EMPTY, [[(0, 1), (1, 0)], ()], "band 0: qubit 0 in two pairs"),
    (3, 2, _EMPTY, [[(0, 1), (1, 2)], ()], "band 0: qubit 1 in two pairs"),
    (3, 2, _EMPTY, [(), [(0, 2)]], "band 1: final band must have no cZ"),
    (3, 2, _EMPTY, [[(0, 1, 2)], ()], "band 0: cZ pair .* is not two qubits"),
    (0, 2, np.zeros((2, 0), np.uint8), None, "qubit count must be >= 1"),
    (3, 0, np.zeros((0, 3), np.uint8), None, "band count must be >= 1"),
], ids=["out-of-range", "degenerate", "pair-twice", "qubit-in-two-pairs",
        "last-band-cz", "three-qubit-pair", "no-qubits", "no-bands"])
def test_construction_rejects_invalid_band_structure(n, m, gates, cz, message):
    with pytest.raises(ValueError, match=message):
        Circuit(n, m, gates, cz)


def test_gate_unitarity_tolerance():
    with pytest.raises(ValueError, match="unitary"):
        Circuit(1, 1, [[GENERIC]], matrices={
            (0, 0): np.array([[1.0, 0.0], [0.0, 1.0 + 1e-3]])})


def test_gate_needs_exactly_one_representation():
    # a GENERIC entry needs its matrix; a Clifford index takes none
    with pytest.raises(ValueError, match="GENERIC"):
        Circuit(1, 1, [[GENERIC]])
    with pytest.raises(ValueError, match="GENERIC"):
        Circuit(1, 1, [[I]], matrices={(0, 0): np.eye(2)})


def test_construction_rejects_bad_gate_arrays():
    for bad in ([[GENERIC + 1]], [[-1]], [[0.5]], [[True]]):
        with pytest.raises(ValueError, match="integers in"):
            Circuit(1, 1, bad)
    for shape in ((1, 2), (2, 1), (2,)):
        with pytest.raises(ValueError, match="shape"):
            Circuit(1, 1, np.zeros(shape, dtype=np.uint8))
    with pytest.raises(ValueError, match="2x2"):
        Circuit(1, 1, [[GENERIC]], matrices={(0, 0): np.eye(3)})
    with pytest.raises(ValueError, match="cZ layers"):
        Circuit(1, 2, [[I], [I]], [()])


def test_gates_and_matrices_are_read_only():
    circ = Circuit(1, 2, [[H], [GENERIC]], matrices={(1, 0): T_GATE})
    key = hash(circ)
    with pytest.raises(ValueError):
        circ.gates[0, 0] = S
    with pytest.raises(ValueError):
        circ.matrices[1, 0][0, 0] = 0
    with pytest.raises(TypeError):
        circ.matrices[0, 0] = T_GATE
    with pytest.raises(ValueError):
        circ.unitary(0, 0)[0, 0] = 0
    # the circuit holds copies, so the caller's arrays stay writable
    gates, u = np.array([[H], [GENERIC]]), T_GATE.copy()
    copied = Circuit(1, 2, gates, matrices={(1, 0): u})
    gates[0, 0], u[0, 0] = S, -1
    assert copied == circ and hash(circ) == key


def test_unitary_reads_the_table_or_the_matrix():
    circ = Circuit(1, 2, [[H], [GENERIC]], matrices={(1, 0): T_GATE})
    assert np.array_equal(circ.unitary(0, 0), cliffords.MATRICES[H])
    assert np.array_equal(circ.unitary(1, 0), T_GATE)
    assert not circ.all_clifford
    assert identity_circuit(2, 2).all_clifford


def test_equal_circuits_built_two_ways_hash_equal():
    half = complex(0.7071067811865476, 0.7071067811865476)
    built = Circuit(2, 2, np.array([[H, GENERIC], [S, I]], dtype=np.int64),
                    [[(1, 0)], []], {(0, 1): [[1, 0], [0, half]]})
    parsed = parse(EXAMPLE_DOC)
    assert built == parsed and hash(built) == hash(parsed)
    layout = identity_circuit(3, 2, cz_layout=[{(2, 1)}, set()])
    assert layout == Circuit(3, 2, np.zeros((2, 3), dtype=np.uint8),
                             [((1, 2),), ()])
    assert hash(layout) == hash(identity_circuit(3, 2, [[(1, 2)], []]))


def test_one_index_or_one_matrix_entry_makes_circuits_unequal():
    base = parse(EXAMPLE_DOC)
    gates = base.gates.copy()
    gates[1, 1] = cliffords.C_Z
    assert Circuit(2, 2, gates, base.cz, base.matrices) != base
    u = base.matrices[0, 1].copy()
    u[1, 1] = -u[1, 1]
    assert Circuit(2, 2, base.gates, base.cz, {(0, 1): u}) != base
    assert Circuit(2, 2, base.gates, None, base.matrices) != base


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_rejected(bad):
    u = np.eye(2, dtype=complex)
    u[1, 1] = bad
    with pytest.raises(ValueError, match="not unitary"):
        Circuit(1, 1, [[GENERIC]], None, {(0, 0): u})
    # the JSON module reads NaN and Infinity literals as floats
    doc = {"n": 1, "m": 1, "bands": [{"singles": [
        {"matrix": [[[1.0, 0], [0, 0]], [[0, 0], [bad, 0]]]}], "cz": []}]}
    with pytest.raises(CircuitParseError, match="not unitary") as exc:
        parse(json.dumps(doc))
    assert exc.value.path == "$.bands[0].singles[0]"


def test_parse_rejects_singles_row_of_wrong_length():
    for singles in ([{"clifford": "I"}], [{"clifford": "I"}] * 3):
        doc = {"n": 2, "m": 1, "bands": [{"singles": singles, "cz": []}]}
        with pytest.raises(CircuitParseError) as exc:
            parse(json.dumps(doc))
        assert exc.value.path == "$.bands[0].singles"


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
    assert Circuit(2, 2, [[I, I]] * 2, [{(1, 0)}, ()]) \
        == Circuit(2, 2, [[I, I]] * 2, [[(0, 1)], ()])
    circ = Circuit(4, 2, [[I] * 4] * 2, [[(3, 2), (1, 0)], ()])
    assert circ.cz == (((0, 1), (2, 3)), ())
    # a pair given twice is refused, never merged into one cZ (cZ.cZ = I)
    with pytest.raises(ValueError, match="qubit 0 in two pairs"):
        Circuit(4, 2, [[I] * 4] * 2, [[(3, 2), (1, 0), (0, 1)], ()])


def test_ck_names_round_trip():
    # indices without a one-letter name serialize as "C<k>" and parse back
    circ = Circuit(1, 1, [[cliffords.COMPOSE[H, S]]])
    assert '"C' in serialize(circ)
    assert parse(serialize(circ)) == circ


def test_generators_produce_valid_circuits():
    from qaccredit import families
    rng = np.random.default_rng(11)
    circs = [families.ghz_circuit(n) for n in (1, 2, 3, 5)]
    circs += [families.random_clifford_circuit(3, 4, rng) for _ in range(20)]
    circs += [families.random_generic_circuit(3, 3, rng) for _ in range(20)]
    circs += [identity_circuit(2, 2)]
    for circ in circs:
        # the generators built them, so the constructor accepted them
        assert not circ.cz[-1]
        assert Circuit(circ.n, circ.m, circ.gates, circ.cz,
                       circ.matrices) == circ

