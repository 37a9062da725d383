import tracemalloc
from contextlib import contextmanager

import pytest


@pytest.fixture
def allocates_at_most():
    """Context manager factory: the block's peak traced allocation stays
    within ``limit`` bytes, so a size check fired before any buffer."""

    @contextmanager
    def check(limit: int):
        tracemalloc.start()
        try:
            yield
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, f"peak allocation {peak} B exceeds {limit} B"

    return check
