"""Order statistics used by the benchmark and its reports."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
"""A percentile is reported only when at least this many samples lie above it."""


def _rank(n: int, pct: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile of ``n`` samples: ceil(pct * n / 100)."""
    return -(-pct * n // 100)


def percentile(samples, pct: int) -> float:
    """Nearest-rank ``pct``-th percentile of ``samples``.

    Raises ValueError unless at least ``MIN_BEYOND`` samples are larger in
    rank than the one returned, so a tail figure always rests on ten
    observations beyond it.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    xs = sorted(samples)
    rank = _rank(len(xs), pct)
    if rank < 1 or len(xs) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{pct} of {len(xs)} samples has {len(xs) - rank} beyond it; need {MIN_BEYOND}"
        )
    return xs[rank - 1]


def min_samples(pct: int) -> int:
    """Smallest sample count for which ``percentile(samples, pct)`` is defined."""
    n = 1
    while n - _rank(n, pct) < MIN_BEYOND:
        n += 1
    return n


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else math.inf
