import numpy as np
import pytest

from qaccredit import cliffords, families, simulator, traps
from qaccredit.circuit import identity_circuit
from qaccredit.noise import identity_collection
from qaccredit.traps import (choice_space_size, choice_width,
                             enumerate_choices, generate_trap)


def test_single_qubit_trap_gates():
    topo = identity_circuit(1, 2)
    trap = generate_trap(topo, [1, 0])  # S, t=0
    assert trap.gates[0, 0] == cliffords.C_S
    assert trap.gates[1, 0] == cliffords.C_SDG


def test_pair_orientation():
    topo = identity_circuit(2, 2, cz_layout=[{(0, 1)}, set()])
    trap = generate_trap(topo, [0, 0])
    assert trap.gates[0, 0] == cliffords.C_S
    assert trap.gates[0, 1] == cliffords.C_H
    flipped = generate_trap(topo, [1, 0])
    assert flipped.gates[0, 0] == cliffords.C_H
    assert flipped.gates[0, 1] == cliffords.C_S


def test_sandwich_bit():
    topo = identity_circuit(1, 2)
    plain = generate_trap(topo, [1, 0])
    wrapped = generate_trap(topo, [1, 1])
    # first band gate becomes S*H, last band H*Sdg
    s_then_nothing = plain.gates[0, 0]
    h_then_s = cliffords.COMPOSE[cliffords.C_H, s_then_nothing]
    assert wrapped.gates[0, 0] == h_then_s
    sdg_then_h = cliffords.COMPOSE[cliffords.C_SDG, cliffords.C_H]
    assert wrapped.gates[1, 0] == sdg_then_h


def test_traps_always_output_zero_noiseless(plain_walk):
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        topo = families.random_clifford_circuit(n, m, rng)
        # a trap exists only as a valid circuit: the constructor checks it
        trap = generate_trap(topo, rng.integers(
            0, 2, size=choice_width(topo), dtype=np.uint8))
        assert trap.all_clifford
        dist = plain_walk(trap)
        assert dist[0] > 1 - 1e-10
        errs = identity_collection(1, n, m).circuits[0]
        assert not simulator.trap_output(trap, errs).any()


def test_trap_is_oriented_cx_sequence():
    # t=0 trap unitary equals the corresponding cX product on |+>^n
    topo = identity_circuit(2, 3, cz_layout=[{(0, 1)}, {(0, 1)}, set()])
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        trap = generate_trap(topo, [*bits, 0])
        state = simulator.plus_state(2)
        for j, pairs in enumerate(trap.cz):
            state = simulator.apply_round(state, simulator.fuse_round(
                [trap.unitary(j, i) for i in range(2)]), 2)
            state = simulator.apply_cz(state, pairs, 2)
        # cX on |++> is |++>, so the whole trap must fix |+>^n
        overlap = abs(np.vdot(np.full(4, 0.5), state))
        assert overlap > 1 - 1e-10


def test_choice_space_sizes():
    assert choice_space_size(identity_circuit(1, 2)) == 4
    one_pair = identity_circuit(2, 2, cz_layout=[{(0, 1)}, set()])
    assert choice_space_size(one_pair) == 4
    no_pairs = identity_circuit(2, 2)
    assert choice_space_size(no_pairs) == 8


def test_enumerate_choices_complete_and_unique():
    topo = identity_circuit(2, 3, cz_layout=[{(0, 1)}, set(), set()])
    choices = enumerate_choices(topo)
    assert len(choices) == choice_space_size(topo)
    assert len({tuple(c) for c in choices}) == len(choices)
    # code c = 0b1010: t = 0, band 1's unpaired bits (1, 0), band 0's pair 1
    assert choices[0b1010].tolist() == [1, 1, 0, 0]


def test_enumerate_cap(allocates_at_most):
    assert traps.ENUMERATION_CAP == 2 ** 24
    topo = identity_circuit(26, 2)  # 26 unpaired bits and t: 2**27 choices
    with allocates_at_most(2 ** 16), \
            pytest.raises(ValueError, match="too large to enumerate"):
        enumerate_choices(topo)


def test_choice_topology_mismatch():
    topo = identity_circuit(2, 2, cz_layout=[{(0, 1)}, set()])
    with pytest.raises(ValueError, match="shape"):
        generate_trap(topo, [0, 0, 1])
    with pytest.raises(ValueError, match="0 or 1"):
        generate_trap(topo, [2, 0])


@pytest.mark.parametrize("n, m, seed", [(n, m, 7 * n + m)
                                         for n in range(1, 5)
                                         for m in range(2, 6)])
def test_batched_trap_gates_equal_one_row_builds(n, m, seed):
    # every choice at once against one generate_trap per row, and against
    # the engine's batched builder, on random cZ bands and on bands that
    # pair as many qubits as they can (at odd n >= 3, paired and unpaired
    # qubits share every band)
    rng = np.random.default_rng(seed)
    topos = [families.random_clifford_circuit(n, m, rng)]
    pairs = [tuple(zip(p[0::2], p[1::2]))
             for p in (rng.permutation(n).tolist() for _ in range(m - 1))]
    topos.append(identity_circuit(n, m, cz_layout=[set(p) for p in pairs]
                                  + [set()]))
    for topo in topos:
        if choice_width(topo) > 10:
            continue
        choices = enumerate_choices(topo)
        gates = traps._trap_gates(topo, choices)
        assert gates.shape == (len(choices), m, n)
        assert np.array_equal(gates, [generate_trap(topo, row).gates
                                      for row in choices])
        assert np.array_equal(gates, traps.trap_cliffords(topo, choices))
