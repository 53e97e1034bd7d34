"""Fixtures shared by the test modules."""

import contextlib
import os
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


@pytest.fixture()
def usable_cpus(monkeypatch):
    """``usable_cpus(k)`` makes ``training.evaluate`` see k usable CPUs, so it
    scores in min(k, bags) forked workers, or in this process at 1."""

    def set_count(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    return set_count
