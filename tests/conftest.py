"""Fixtures shared by the test modules."""

import contextlib
import tracemalloc

import pytest


@pytest.fixture()
def allocates_under():
    """``with allocates_under(limit):`` fails unless the block's traced peak is below ``limit``."""

    @contextlib.contextmanager
    def bound(limit):
        tracemalloc.start()
        try:
            yield
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, f"peak allocation {peak} bytes, bound {limit}"

    return bound
