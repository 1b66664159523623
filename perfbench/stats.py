"""Order statistics shared by the benchmark driver, its steadiness
command and its tests.  Standard library only: the driver imports this
before it knows whether the program under test is even present.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: A tail percentile needs at least this many samples strictly beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0 <= q <= 1) by linear interpolation between
    closest ranks (numpy's default ``linear`` method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly above the *q*-quantile's
    rank position (ties aside)."""
    position = q * (n - 1)
    return n - 1 - math.floor(position)


def tail_ok(n: int, q: float) -> bool:
    """True when *n* samples leave at least ten beyond quantile *q*."""
    return n >= 1 and samples_beyond(n, q) >= TAIL_MIN_BEYOND


def highest_tail_quantile(
    n: int, candidates: Sequence[float] = (0.999, 0.99, 0.95, 0.9, 0.75)
) -> Optional[float]:
    """The highest candidate quantile with at least ten samples beyond
    it, or ``None`` when even the lowest has fewer (then there is no
    tail to report, only a median)."""
    for q in sorted(candidates, reverse=True):
        if tail_ok(n, q):
            return q
    return None


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the inter-quartile distance as a share of
    the median, the way ``statistics.quantiles(values, n=4)`` gives
    them."""
    if len(values) < 2:
        raise ValueError("need at least two values for quartiles")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}
