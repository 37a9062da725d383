import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from qaccredit import cliffords, protocol, qotp, simulator


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
def traps_accept():
    """Function of a target and runs drawn densely (protocol._dense_runs:
    v0, choice, err_x, err_z): the acceptance flags (runs,), a run
    accepting when all its v traps' flips are zero, from the walk of a
    report on the hits of the error bits and the packed choice rows
    (protocol._decide)."""

    def accept(target, v0, choice, err_x, err_z):
        codes = (err_z << 1 | err_x).reshape(-1)
        positions = np.flatnonzero(codes)
        packed = np.packbits(choice, axis=-1, bitorder="little")
        return protocol._decide(target, v0, packed, positions,
                                codes[positions])[0]

    return accept


@pytest.fixture(scope="session")
def cone_law():
    """The one-cone reference :func:`_cone_law` below."""
    return _cone_law


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
            spread, cone = _cone_law(
                state, rows, bands[f:], circuit.cz[f:], paulis[0, f:], qubits)
            cells = rows[:, None] | spread
            marginal = probs[cells].sum(axis=1, keepdims=True)
            probs = np.zeros(2 ** n)
            probs[cells] = marginal * np.diff(cone, axis=1, prepend=0.0)
        flips = slices[0, 1, m] @ (1 << np.arange(n))
        return probs[np.arange(2 ** n) ^ flips]

    return law


def _cone_law(state, rows, bands, cz, paulis, qubits):
    """The one-cone reference of simulator._cone_laws: (spread, cdf) of O =
    W_slice W_noiseless† on the s ascending ``qubits`` of one light cone,
    for the R columns of ``state`` whose bits off the cone are ``rows``
    (R,) and whose cone bits are 0: ``spread`` (2^s,) maps cone index c,
    bit i qubit qubits[i], to its outcome bits, and row r of ``cdf`` (R,
    2^s) is the normalised cumulative law of |O state[rows[r] |
    spread]|^2. W walks ``bands`` (b, n, 2, 2) and the ``cz`` pairs inside
    the cone, W_slice with the Pauli indices ``paulis`` (b, n) before each
    round; the columns walk W_noiseless† backwards, then W_slice."""
    s = len(qubits)
    spread = np.zeros(1, dtype=np.int64)
    for q in qubits.tolist():
        spread = np.concatenate((spread, spread | 1 << q))
    at = dict(zip(qubits.tolist(), range(s)))
    signs = [simulator._cz_parity(s, pairs) if pairs else None for pairs in (
        tuple((at[lo], at[hi]) for lo, hi in layer if lo in at and hi in at)
        for layer in cz)]
    plain = bands[:, qubits]
    amps = simulator._walk(
        state[rows[:, None] | spread],
        map(simulator.fuse_round, plain[::-1].conj().mT),
        signs[-2::-1] + [None], s)
    amps = simulator._walk(
        amps, map(simulator.fuse_round,
                  plain @ cliffords.MATRICES[paulis[:, qubits]]), signs, s)
    cdf = np.square(amps.real) + np.square(amps.imag)
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    return spread, cdf
