import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from qaccredit import qotp, simulator


@pytest.fixture
def allocates_at_most():
    """Context manager factory: the block's peak traced allocation stays
    within ``limit`` bytes, so a size check fired before any buffer. With
    ``beyond_result``, the limit is on the peak beyond what the block still
    holds at its end, so a block that returns a large result may only have
    held a bounded amount more on the way."""

    @contextmanager
    def check(limit: int, beyond_result: bool = False):
        tracemalloc.start()
        try:
            yield
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if beyond_result:
            peak -= current
        assert peak <= limit, f"peak allocation {peak} B exceeds {limit} B"

    return check


@pytest.fixture(scope="session")
def pauli_kraus():
    """Function of (n,) bit rows x, z: X^x Z^z as a one-element Kraus list
    of one 2^n x 2^n matrix, qubit 0 the rightmost factor."""

    def kraus(x, z):
        flip, phase = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
        full = np.eye(1, dtype=complex)
        for xq, zq in zip(x[::-1], z[::-1]):
            full = np.kron(full, np.linalg.matrix_power(flip, xq)
                           @ np.linalg.matrix_power(phase, zq))
        return [full]

    return kraus


@pytest.fixture(scope="session")
def plain_walk():
    """Function of a circuit and its errors, an (x, z) pair of (..., m+1,
    n) bit arrays or None: the exact X-measurement distributions (...,
    2^n) of the plain walk of its bands (density_distribution, no light
    cone), each slice's errors folded into the gates' Paulis as a run
    folds them (qotp.pad_paulis with zero pads)."""

    def walk(circuit, errors=None):
        n, m = circuit.n, circuit.m
        x, z = np.zeros((2, m + 1, n), np.uint8) if errors is None \
            else np.asarray(errors, np.uint8)
        shape = x.shape[:-2]
        x, z = x.reshape(-1, m + 1, n), z.reshape(-1, m + 1, n)
        pre, post, _ = qotp.pad_paulis(circuit, np.zeros(
            (len(x), qotp.pad_width(n, m)), np.uint8), (x, z))
        bands = qotp.pad_unitaries(simulator.band_unitaries(
            circuit.gates, circuit.matrices), pre, post)
        return simulator.density_distribution(
            bands.transpose(1, 2, 0, 3, 4), circuit.cz, {}
        ).reshape(shape + (2 ** n,))

    return walk


@pytest.fixture(scope="session")
def sampler_law():
    """Function of a circuit and one error slice, an (x, z) pair of (m+1,
    n) bit arrays: the exact law (2^n,) of simulator.sample_slices's
    outcomes under the slice, in closed form from the noiseless law
    |phi|^2 and the cone law: every row of bits off the slice's light cone
    keeps its noiseless marginal and spreads it over the cone's bits by the
    conditional cdf of _cone_law; location-m Z bits XOR the index."""

    def law(circuit, errors):
        n, m = circuit.n, circuit.m
        slices = np.asarray(errors, np.uint8)[None]
        paulis, first, cones = simulator._light_cones(circuit, slices)
        bands, state, cdf = simulator._noiseless_law(circuit)
        probs, f = np.diff(cdf), first[0]
        if f < m:
            qubits = np.flatnonzero(cones[0])
            mask = int((1 << qubits).sum())
            rows = np.flatnonzero(np.arange(2 ** n) & mask == 0)
            # the rows a draw can reach, as the sampler walks only those
            spread = (np.arange(2 ** len(qubits))[:, None] >> np.arange(
                len(qubits)) & 1) @ (1 << qubits)
            rows = rows[probs[rows[:, None] | spread].sum(axis=1) > 0]
            spread, cone = simulator._cone_law(
                state, rows, bands[f:], circuit.cz[f:], paulis[0, f:], qubits)
            cells = rows[:, None] | spread
            marginal = probs[cells].sum(axis=1, keepdims=True)
            probs = np.zeros(2 ** n)
            probs[cells] = marginal * np.diff(cone, axis=1, prepend=0.0)
        flips = slices[0, 1, m] @ (1 << np.arange(n))
        return probs[np.arange(2 ** n) ^ flips]

    return law
