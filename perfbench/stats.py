"""Order statistics for latency samples.

Percentiles use the nearest-rank rule, so every reported latency is one
that a task actually had.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
MIN_BEYOND = 10


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of the pct-th percentile among n samples."""
    return max(1, math.ceil(pct / 100.0 * n))


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    return sorted_values[rank(len(sorted_values), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """Number of samples ranked strictly after the pct-th percentile."""
    return n - rank(n, pct)


def tail_percentile(n: int, cap: float) -> float | None:
    """The highest ladder percentile, at most ``cap``, that still has at
    least MIN_BEYOND samples beyond it; None when even the median has not.

    The cap is the percentile the rule picks at the workload's baseline
    sample count.  Without it a faster program, which completes more
    tasks in the same time, would be measured at a higher percentile and
    could look slower in the tail.
    """
    best = None
    for pct in TAIL_LADDER:
        if pct <= cap and beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def tail(values: Sequence[float], cap: float) -> tuple[float, float]:
    """(latency, percentile) under :func:`tail_percentile`; the maximum,
    reported as percentile 100, when there are too few samples."""
    ordered = sorted(values)
    pct = tail_percentile(len(ordered), cap)
    if pct is None:
        return ordered[-1], 100.0
    return percentile(ordered, pct), pct


def median_quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile); needs two or more values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3
