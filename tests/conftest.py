import tracemalloc
from contextlib import contextmanager

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
