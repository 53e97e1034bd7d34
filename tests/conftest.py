"""Fixtures shared by the test modules."""

import contextlib
import math
import os
import types
import tracemalloc

import pytest


@pytest.fixture()
def allocates_under():
    """``with allocates_under(limit) as traced:`` fails unless the block's traced
    peak is below ``limit``; afterwards ``traced.peak`` is that peak in bytes, so
    ``allocates_under()`` (no limit) measures a block for a relative bound."""

    @contextlib.contextmanager
    def bound(limit=math.inf):
        traced = types.SimpleNamespace(peak=None)
        tracemalloc.start()
        try:
            yield traced
            traced.peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traced.peak < limit, f"peak allocation {traced.peak} bytes, bound {limit}"

    return bound


@pytest.fixture()
def usable_cpus(monkeypatch):
    """``usable_cpus(k)`` makes ``cli.fork_map``, the scoring commands' map, see k
    usable CPUs, so it runs in min(k, items) forked workers, or in this process at 1."""

    def set_count(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    return set_count
