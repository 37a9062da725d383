import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest


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
