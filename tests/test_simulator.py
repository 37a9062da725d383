import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaccredit import families, pauli, simulator, traps
from qaccredit.circuit import Band, Circuit, clifford_gate, identity_circuit
from qaccredit.noise import identity_collection
from qaccredit.pauli import PauliString
from qaccredit.simulator import (MAX_DENSITY_QUBITS, MAX_STATEVECTOR_QUBITS,
                                 NonCliffordError, SimLimitError,
                                 propagate_frame, run_density,
                                 run_statevector, statevector_distribution,
                                 trap_output)
from qaccredit.traps import generate_trap


def _ident_errors(n, m):
    return identity_collection(1, n, m).slice_for(0)


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
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert not run_statevector(circ, rng=rng).any()


def test_statevector_hadamard_split():
    circ = Circuit(n=1, m=1, bands=(Band(singles=(clifford_gate("H"),)),))
    dist = statevector_distribution(circ)
    assert np.allclose(dist, [0.5, 0.5])
    rng = np.random.default_rng(4)
    ones = sum(int(run_statevector(circ, rng=rng)[0]) for _ in range(10 ** 4))
    sigma = np.sqrt(0.25 / 10 ** 4)
    assert abs(ones / 10 ** 4 - 0.5) < 3 * sigma


def test_statevector_matches_frame_on_traps():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        topo = families.random_clifford_circuit(n, m, rng)
        trap = generate_trap(topo, traps.sample_choice(topo, rng))
        errs = []
        for loc in range(m + 1):
            z_only = loc in (0, m)
            x = 0 if z_only else int(rng.integers(0, 2 ** n))
            errs.append(PauliString(n, x, int(rng.integers(0, 2 ** n))))
        expected = trap_output(trap, errs)
        sampled = run_statevector(trap, errors=_bits(errs), rng=rng)
        assert np.array_equal(sampled, expected)


def test_statevector_frame_exhaustive_small():
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
                    got = run_statevector(trap, errors=_bits(errs), rng=rng)
                    assert np.array_equal(got, expected)


def test_statevector_limits(allocates_at_most):
    assert (MAX_STATEVECTOR_QUBITS, MAX_DENSITY_QUBITS) == (16, 6)
    with allocates_at_most(2 ** 16), pytest.raises(SimLimitError):
        statevector_distribution(identity_circuit(17, 1))
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
    reps = 10 ** 4
    counts = np.zeros(4)
    for _ in range(reps):
        counts[simulator.bits_to_index(run_statevector(circ, rng=rng))] += 1
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
    for j, band in enumerate(circ.bands):
        for i, gate in enumerate(band.singles):
            u = full(gate.to_matrix(), i)
            rho = u @ rho @ u.conj().T
        if 0 < j + 1 < m:
            rho = channel(rho, j + 1)
        for a, b in band.cz_pairs:
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


def test_run_statevector_deterministic_given_seed():
    circ = families.random_generic_circuit(3, 3, np.random.default_rng(9))
    a = run_statevector(circ, rng=np.random.default_rng(123))
    b = run_statevector(circ, rng=np.random.default_rng(123))
    assert np.array_equal(a, b)


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
    flips = simulator.frame_flips(topo, gates, err_x, err_z)
    assert flips.shape == (traps_count, n)
    for r in range(traps_count):
        trap = generate_trap(topo, bits[r])
        assert [[g.clifford for g in band.singles] for band in trap.bands] \
            == gates[r].tolist()
        errors = _paulis(err_x[r], err_z[r])
        assert np.array_equal(flips[r], trap_output(trap, errors))


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
