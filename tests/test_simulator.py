import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaccredit import cliffords, families, pauli, simulator, traps
from qaccredit.circuit import Circuit, identity_circuit
from qaccredit.noise import identity_collection
from qaccredit.pauli import PauliString
from qaccredit.simulator import (MAX_DENSITY_QUBITS, MAX_STATEVECTOR_QUBITS,
                                 NonCliffordError, SimLimitError,
                                 propagate_frame, run_density, trap_output)
from qaccredit.traps import generate_trap


def _ident_errors(n, m):
    return identity_collection(1, n, m).circuits[0]


def _bits(errs):
    """The (x, z) bit arrays of a slice of PauliStrings."""
    n = errs[0].n
    return (np.array([simulator.index_to_bits(p.x_bits, n) for p in errs]),
            np.array([simulator.index_to_bits(p.z_bits, n) for p in errs]))


def _paulis(x, z):
    """The PauliStrings of the rows of (x, z) bit arrays."""
    return [PauliString(x.shape[-1], simulator.bits_to_index(xr),
                        simulator.bits_to_index(zr)) for xr, zr in zip(x, z)]


def test_frame_identity_errors():
    circ = families.random_clifford_circuit(3, 3, np.random.default_rng(0))
    q = propagate_frame(circ, _ident_errors(3, 3))
    assert q.x_bits == 0 and q.z_bits == 0


def test_frame_terminal_error_passes_through():
    circ = families.random_clifford_circuit(2, 2, np.random.default_rng(1))
    errs = list(_ident_errors(2, 2))
    errs[2] = PauliString(2, 0, 0b01)  # Z on qubit 0 right before measurement
    q = propagate_frame(circ, errs)
    assert pauli.z_mask(q) == 0b01 and q.x_bits == 0


def test_frame_detection_depends_on_cx_orientation():
    # a middle-location Z on qubit 0 is caught by one cX orientation only
    topo = identity_circuit(2, 2, cz_layout=[{(0, 1)}, set()])
    errs = list(_ident_errors(2, 2))
    errs[1] = PauliString(2, 0, 0b01)
    masks = []
    for bit in (0, 1):
        trap = generate_trap(topo, [bit, 0])
        masks.append(pauli.z_mask(propagate_frame(trap, errs)))
    assert sorted(m != 0 for m in masks) == [False, True]


def test_frame_rejects_non_clifford():
    circ = families.random_generic_circuit(2, 2, np.random.default_rng(2))
    with pytest.raises(NonCliffordError):
        propagate_frame(circ, _ident_errors(2, 2))


def test_trap_output_flips():
    topo = identity_circuit(2, 2, cz_layout=[{(0, 1)}, set()])
    trap = generate_trap(topo, [0, 0])
    assert not trap_output(trap, _ident_errors(2, 2)).any()
    errs = list(_ident_errors(2, 2))
    errs[2] = PauliString(2, 0, 0b10)
    assert np.array_equal(trap_output(trap, errs), [0, 1])


def test_statevector_identity_circuit():
    circ = identity_circuit(3, 2)
    [(_, weights)] = simulator.slice_distributions(
        circ, np.zeros((1, 2, 3, 3), dtype=np.uint8))
    assert np.abs(weights - np.eye(8)[0]).max() <= 1e-12


def test_statevector_hadamard_split():
    circ = Circuit(1, 1, [[cliffords.C_H]])
    [(_, dist)] = simulator.slice_distributions(
        circ, np.zeros((1, 2, 2, 1), dtype=np.uint8))
    assert np.allclose(dist, [0.5, 0.5])
    rng = np.random.default_rng(4)
    ones = sum(int(simulator.sample_bits(dist, 1, rng)[0])
               for _ in range(10 ** 4))
    sigma = np.sqrt(0.25 / 10 ** 4)
    assert abs(ones / 10 ** 4 - 0.5) < 3 * sigma


def test_statevector_matches_frame_on_traps(plain_walk):
    rng = np.random.default_rng(5)
    for _ in range(200):
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        topo = families.random_clifford_circuit(n, m, rng)
        trap = generate_trap(topo, rng.integers(
            0, 2, size=traps.choice_width(topo), dtype=np.uint8))
        errs = []
        for loc in range(m + 1):
            z_only = loc in (0, m)
            x = 0 if z_only else int(rng.integers(0, 2 ** n))
            errs.append(PauliString(n, x, int(rng.integers(0, 2 ** n))))
        expected = trap_output(trap, errs)
        sampled = simulator.sample_bits(plain_walk(trap, _bits(errs)), n,
                                        rng)
        assert np.array_equal(sampled, expected)


def test_apply_pauli_matches_basis_state_loop():
    # X^x Z^z sends |b> to (-1)^popcount(b & z) |b ^ x>, one basis state
    # at a time
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        x, z = int(rng.integers(0, 2 ** n)), int(rng.integers(0, 2 ** n))
        expected = np.empty_like(state)
        for b in range(2 ** n):
            sign = -1 if bin(b & z).count("1") % 2 else 1
            expected[b ^ x] = sign * state[b]
        assert np.array_equal(simulator.apply_pauli(state, x, z, n),
                              expected)
        # the sign and permutation are cached per (n, x, z), read-only
        assert not any(table.flags.writeable
                       for table in simulator._pauli_action(n, x, z))


def test_statevector_frame_exhaustive_small(plain_walk):
    # all single-location errors on all 2-qubit, <=3-band trap dressings
    rng = np.random.default_rng(6)
    topo = identity_circuit(2, 3, cz_layout=[{(0, 1)}, {(0, 1)}, set()])
    for choice in traps.enumerate_choices(topo):
        trap = generate_trap(topo, choice)
        for loc in range(4):
            z_only = loc in (0, 3)
            for x in ([0] if z_only else range(4)):
                for z in range(4):
                    errs = list(_ident_errors(2, 3))
                    errs[loc] = PauliString(2, x, z)
                    expected = trap_output(trap, errs)
                    got = simulator.sample_bits(
                        plain_walk(trap, _bits(errs)), 2, rng)
                    assert np.array_equal(got, expected)


def test_statevector_limits(allocates_at_most):
    assert (MAX_STATEVECTOR_QUBITS, MAX_DENSITY_QUBITS) == (16, 6)
    with allocates_at_most(2 ** 16), pytest.raises(SimLimitError):
        run_density(identity_circuit(7, 1))


def test_density_identity_point_mass():
    dist = run_density(identity_circuit(2, 2))
    assert np.allclose(dist, [1, 0, 0, 0], atol=1e-12)


def test_density_depolarizing_uniform():
    circ = identity_circuit(1, 1)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    kraus = [0.5 * p.astype(complex) for p in paulis]
    dist = run_density(circ, channels={1: kraus})
    assert np.allclose(dist, [0.5, 0.5], atol=1e-12)


def test_density_rejects_non_trace_preserving():
    circ = identity_circuit(1, 1)
    with pytest.raises(ValueError, match="trace-preserving"):
        run_density(circ, channels={1: [0.5 * np.eye(2, dtype=complex)]})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_rejects_non_finite_kraus(bad):
    circ = identity_circuit(1, 1)
    kraus = np.eye(2, dtype=complex)
    kraus[0, 1] = bad
    with pytest.raises(ValueError, match="trace-preserving"):
        run_density(circ, channels={1: [kraus]})


def test_density_rejects_channel_outside_locations():
    circ = identity_circuit(1, 2)
    z = np.diag([1, -1]).astype(complex)
    assert np.allclose(run_density(circ, channels={2: [z]}), [0, 1])
    for loc in (7, -1, 3):
        with pytest.raises(ValueError, match=f"location {loc} lies outside"):
            run_density(circ, channels={loc: [z]})


def test_density_matches_statevector_sampling():
    rng = np.random.default_rng(7)
    circ = families.random_generic_circuit(2, 2, rng)
    dist = run_density(circ)
    [(_, probs)] = simulator.slice_distributions(
        circ, np.zeros((1, 2, 3, 2), dtype=np.uint8))
    reps = 10 ** 4
    counts = np.zeros(4)
    for _ in range(reps):
        counts[simulator.bits_to_index(
            simulator.sample_bits(probs, 2, rng))] += 1
    for k in range(4):
        sigma = np.sqrt(max(dist[k] * (1 - dist[k]), 1e-4) / reps)
        assert abs(counts[k] / reps - dist[k]) < 3 * sigma


def _kron_density(circ, channels):
    """Dense reference: every gate as a full 2^n x 2^n Kronecker product."""
    n, m = circ.n, circ.m
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)

    def full(u, q):
        ops = [np.eye(2, dtype=complex)] * n
        ops[q] = np.asarray(u, dtype=complex)
        out = np.array([[1.0]], dtype=complex)
        for op in reversed(ops):  # qubit 0 is the rightmost factor
            out = np.kron(out, op)
        return out

    def channel(rho, loc):
        kraus = channels.get(loc, [np.eye(2 ** n)])
        return sum(k @ rho @ k.conj().T for k in kraus)

    plus = np.full(2 ** n, 2 ** (-n / 2), dtype=complex)
    rho = channel(np.outer(plus, plus.conj()), 0)
    idx = np.arange(2 ** n)
    for j, pairs in enumerate(circ.cz):
        for i in range(n):
            u = full(circ.unitary(j, i), i)
            rho = u @ rho @ u.conj().T
        if 0 < j + 1 < m:
            rho = channel(rho, j + 1)
        for a, b in pairs:
            cz = np.diag(1.0 - 2.0 * (((idx >> a) & 1) & ((idx >> b) & 1)))
            rho = cz @ rho @ cz
    rho = channel(rho, m)
    for q in range(n):
        u = full(had, q)
        rho = u @ rho @ u.conj().T
    return np.real(np.diag(rho))


def test_density_matches_kronecker_reference():
    rng = np.random.default_rng(13)
    for n in range(1, 7):
        for _ in range(3):
            m = int(rng.integers(1, 4))
            circ = families.random_generic_circuit(n, m, rng)
            channels = {loc: [families.random_unitary(2 ** n, rng)]
                        for loc in range(m + 1) if rng.random() < 0.5}
            assert np.abs(run_density(circ, channels)
                          - _kron_density(circ, channels)).max() < 1e-12


def test_folded_errors_match_kronecker_reference_at_every_location(
        pauli_kraus):
    # a non-identity Pauli at every location, the edge locations 0 and m
    # included, each folded into the gate next to it
    rng = np.random.default_rng(15)
    for n in range(1, 4):
        for m in range(1, 5):
            for _ in range(3):
                circ = families.random_generic_circuit(n, m, rng)
                codes = rng.integers(1, 4 ** n, size=(m + 1, 1))
                bits = (codes >> np.arange(2 * n) & 1).astype(np.uint8)
                x, z = bits[:, :n], bits[:, n:]
                channels = {loc: pauli_kraus(x[loc], z[loc])
                            for loc in range(m + 1)}
                [(_, weights)] = simulator.slice_distributions(
                    circ, np.array((x, z))[None])
                assert np.abs(weights - _kron_density(circ, channels)
                              ).max() <= 1e-12


def _kron_round(states, unitaries):
    """Dense reference of a round on (B, 2^n) states with (n, B, 2, 2)
    unitaries: state b times the Kronecker product of its n 2x2s, qubit 0
    the rightmost factor, held as its high and low halves, U_hi (x) U_lo,
    applied to the state as a 2^(n-h) x 2^h matrix."""
    n = len(unitaries)
    h = n // 2

    def kron(us):
        out = np.eye(1)
        for u in reversed(us):
            out = np.kron(out, u)
        return out

    out = []
    for b, state in enumerate(states):
        hi, lo = kron(unitaries[h:, b]), kron(unitaries[:h, b])
        out.append((hi @ state.reshape(2 ** (n - h), 2 ** h) @ lo.T)
                   .reshape(-1))
    return np.array(out)


@pytest.mark.parametrize("n", range(1, 13))
def test_apply_round_matches_kronecker_reference(n):
    # fused blocks of at most simulator.BLOCK qubits at every n, a last
    # block of n % 4 qubits included, in every form a caller passes:
    # shared 2x2s, one stack per state under one or two batch axes, a list
    # of 2x2s and the cached Hadamard round
    rng = np.random.default_rng(n)
    states = rng.normal(size=(3, 2 ** n)) + 1j * rng.normal(size=(3, 2 ** n))
    stack = np.array([[families.random_unitary(2, rng) for _ in range(3)]
                      for _ in range(n)])
    shared = np.broadcast_to(stack[:, :1], stack.shape)
    hadamard = cliffords.MATRICES[cliffords.C_H]
    hadamards = np.broadcast_to(hadamard, (n, 1, 2, 2))
    cases = [
        (states[0], stack[:, 0], states[:1], shared[:, :1]),
        (states, stack[:, 0], states, shared),
        (states, stack, states, stack),
        (states.reshape(3, 1, -1), stack[:, :, None], states, stack),
        (states[0], [hadamard] * n, states[:1], hadamards),
    ]
    for state, unitaries, ref_states, ref_unitaries in cases:
        blocks = simulator.fuse_round(unitaries)
        # highest qubits first: every block holds BLOCK qubits but the last
        assert [b.shape[-1] for b in blocks] == [
            2 ** min(simulator.BLOCK, n - lo)
            for lo in range(0, n, simulator.BLOCK)]
        out = simulator.apply_round(state, blocks, n)
        ref = _kron_round(ref_states, ref_unitaries)
        assert out.shape == state.shape
        assert np.abs(out.reshape(ref.shape) - ref).max() <= 1e-12
    out = simulator.apply_round(states[0], simulator._hadamard_round(n), n)
    assert np.abs(out - _kron_round(states[:1], hadamards)[0]).max() <= 1e-12


def _amplitude_damping(n, q, gamma):
    """The two Kraus operators of amplitude damping on qubit q of n."""
    kraus = [np.diag([1.0, np.sqrt(1 - gamma)]),
             np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])]
    return [np.kron(np.kron(np.eye(2 ** (n - 1 - q)), k), np.eye(2 ** q))
            .astype(complex) for k in kraus]


def test_density_matches_kronecker_reference_on_kraus_paths():
    # two operators at every location, so every Kraus path is summed
    rng = np.random.default_rng(14)
    for n in range(1, 4):
        for _ in range(3):
            m = int(rng.integers(1, 4))
            circ = families.random_generic_circuit(n, m, rng)
            channels = {loc: _amplitude_damping(n, int(rng.integers(n)),
                                                rng.uniform(0.1, 0.9))
                        for loc in range(m + 1)}
            assert np.abs(run_density(circ, channels)
                          - _kron_density(circ, channels)).max() < 1e-12


def test_density_normalization_random_channels():
    rng = np.random.default_rng(8)
    for _ in range(10):
        circ = families.random_generic_circuit(2, 2, rng)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        dist = run_density(circ, channels={1: [q]})
        assert abs(dist.sum() - 1.0) < 1e-10


def test_sample_bits_draws_as_generator_choice():
    # the pad-free engine takes a run's uniform draw before its target's
    # distribution exists; the outcome must be the one choice() would pick
    meta = np.random.default_rng(10)
    for _ in range(2000):
        n = int(meta.integers(1, 7))
        probs = meta.random(2 ** n) ** 4
        probs[meta.random(2 ** n) < 0.3] = 0.0
        probs[0] += probs.sum() == 0
        probs /= probs.sum()
        seed = int(meta.integers(2 ** 32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = a.choice(2 ** n, p=probs)
        assert simulator.bits_to_index(
            simulator.sample_bits(probs, n, b)) == expected
        assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(2, 6), traps_count=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, m=2, traps_count=4, seed=0)
@example(n=1, m=5, traps_count=8, seed=1)
@example(n=2, m=2, traps_count=1, seed=2)
def test_frame_flips_match_per_trap_frames(n, m, traps_count, seed):
    rng = np.random.default_rng(seed)
    topo = families.random_clifford_circuit(n, m, rng)
    bits = rng.integers(0, 2, size=(traps_count, traps.choice_width(topo)),
                        dtype=np.uint8)
    bits[0, -1] = 1  # at least one Hadamard-sandwiched trap
    err_x = rng.integers(0, 2, size=(traps_count, m + 1, n), dtype=np.uint8)
    err_z = rng.integers(0, 2, size=(traps_count, m + 1, n), dtype=np.uint8)
    gates = traps.trap_cliffords(topo, bits)
    flips = simulator.frame_flips(
        topo, gates, simulator.frame_hits(err_x, err_z))
    assert flips.shape == (traps_count, n)
    for r in range(traps_count):
        trap = generate_trap(topo, bits[r])
        assert np.array_equal(trap.gates, gates[r])
        errors = _paulis(err_x[r], err_z[r])
        assert np.array_equal(flips[r], trap_output(trap, errors))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(2, 6), rows=st.integers(4, 24),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, m=2, rows=4, seed=0)
def test_frame_flips_from_first_error_location_match_full_walk(n, m, rows,
                                                               seed):
    # each row starts at its first error location; rows 0 and 1 hold errors
    # only at location m, rows 2 and 3 only at location 0, the rest sparse
    # random errors, some none at all
    rng = np.random.default_rng(seed)
    topo = families.random_clifford_circuit(n, m, rng)
    bits = rng.integers(0, 2, size=(rows, traps.choice_width(topo)),
                        dtype=np.uint8)
    err_x, err_z = (rng.random((2, rows, m + 1, n)) < 0.1).astype(np.uint8)
    err_x[:, [0, m]] = 0  # the end locations are Z-only
    err_x[:4] = err_z[:4] = 0
    err_z[:2, m] = err_z[2:4, 0] = 1
    touched = (err_x | err_z).any(axis=2)
    first = np.where(touched.any(axis=1), touched.argmax(axis=1), m + 1)
    order = np.argsort(first, kind="stable")
    gates = traps.trap_cliffords(topo, bits[order])
    ex, ez = err_x[order], err_z[order]
    hits = simulator.frame_hits(ex, ez)
    flips = simulator.frame_flips(topo, gates, hits, first[order])
    assert np.array_equal(flips, simulator.frame_flips(topo, gates, hits))
    # a location-m Z flips its qubits' outcomes in every trap
    assert np.array_equal(flips[order < 2], err_z[:2, m])


def test_trap_cliffords_rejects_bad_input():
    with pytest.raises(ValueError, match="2 bands"):
        traps.trap_cliffords(identity_circuit(2, 1), np.zeros((1, 1)))
    topo = families.ghz_circuit(3)
    with pytest.raises(ValueError, match="choice_width"):
        traps.trap_cliffords(topo, np.zeros((1, traps.choice_width(topo) + 1)))
    bits = np.zeros((2, traps.choice_width(topo)))
    bits[1, 0] = 2
    with pytest.raises(ValueError, match="0 or 1"):
        traps.trap_cliffords(topo, bits)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_masks_at_location_zero_give_the_exact_clifford_law(n, m, seed,
                                                          plain_walk):
    # X^a stabilises |+>^n, so a Clifford circuit's outputs under a slice
    # are r XOR the flips of the slice with X^a at location 0: every mask
    # a once weighs each output by its exact probability
    rng = np.random.default_rng(seed)
    circuit = families.random_clifford_circuit(n, m, rng)
    err_x = rng.integers(0, 2, size=(m + 1, n), dtype=np.uint8)
    err_z = rng.integers(0, 2, size=(m + 1, n), dtype=np.uint8)
    masks = 2 ** n
    xs = np.repeat(err_x[None], masks, axis=0)
    xs[:, 0] ^= (np.arange(masks)[:, None] >> np.arange(n) & 1).astype(
        np.uint8)
    flips = simulator.frame_flips(
        circuit, np.broadcast_to(circuit.gates, (masks, m, n)),
        simulator.frame_hits(xs, np.broadcast_to(err_z, xs.shape)))
    outputs = simulator.reference_outcome(circuit) ^ flips
    law = np.bincount(outputs.astype(np.int64) @ (1 << np.arange(n)),
                      minlength=masks) / masks
    exact = plain_walk(circuit, (err_x, err_z))
    assert np.abs(law - exact).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), m=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_reference_outcome_is_a_possible_noiseless_output(n, m, seed,
                                                         plain_walk):
    circuit = families.random_clifford_circuit(n, m,
                                               np.random.default_rng(seed))
    r = simulator.reference_outcome(circuit)
    # cached per circuit, so a caller cannot change it for the next one
    assert r.shape == (n,) and r.dtype == np.uint8 and not r.flags.writeable
    assert plain_walk(circuit)[simulator.bits_to_index(r)] > 1e-9


def test_reference_outcome_rejects_non_clifford():
    circuit = families.random_generic_circuit(2, 2,
                                              np.random.default_rng(0))
    with pytest.raises(NonCliffordError):
        simulator.reference_outcome(circuit)
