"""Summary statistics for latency samples.

A timing is reported as its median and its *tail*: the highest whole
percentile that still has at least ten samples beyond it.  Below forty
samples that percentile would sit within the top quarter of a handful of
points, which is no tail, so the median is reported in its place.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10
#: fewest samples for which a tail is reported at all
TAIL_MIN_SAMPLES = 40


def tail_percentile(n: int) -> int:
    """The tail percentile for ``n`` samples (50, the median, below
    :data:`TAIL_MIN_SAMPLES`)."""
    if n < TAIL_MIN_SAMPLES:
        return 50
    return math.floor(100 * (n - TAIL_BEYOND) / n)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float], pct: int) -> float:
    """The ``pct`` percentile, or the median when ``pct`` is 50."""
    if pct == 50:
        return statistics.median(samples)
    return percentile(samples, pct)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
