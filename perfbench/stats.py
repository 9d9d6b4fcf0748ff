"""Sample statistics for the benchmark: one percentile rule for every timing.

A tail percentile is only worth reporting when enough samples lie beyond
it to pin it down: with ten samples past the p90, one outlier moves the
p90 by one rank, not by the whole tail.  :func:`percentile` therefore
refuses (returns ``None``) whenever fewer than :data:`MIN_BEYOND` samples
lie strictly past the requested rank.  The median is the exception the
benchmark needs for small closed-loop workloads (two group dumps are two
samples): :func:`median` always reports, and both return the sample count
beside the value so a reader can judge it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10


class Summary(NamedTuple):
    """One reported statistic and the number of samples behind it."""

    value: float
    n: int


def _rank(n: int, q: float) -> int:
    """Nearest-rank index of quantile *q* (0 < q < 1) in *n* sorted items."""
    return max(0, math.ceil(q * n) - 1)


def beyond(n: int, q: float) -> int:
    """How many of *n* sorted samples lie past the rank of quantile *q*."""
    return n - 1 - _rank(n, q)


def percentile(samples: Sequence[float], q: float) -> Optional[Summary]:
    """Nearest-rank quantile *q* of *samples*, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = len(samples)
    if n == 0 or beyond(n, q) < MIN_BEYOND:
        return None
    return Summary(sorted(samples)[_rank(n, q)], n)


def median(samples: Sequence[float]) -> Summary:
    """The median of a non-empty sample (mean of the middle pair)."""
    if not samples:
        raise ValueError("median of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    mid = n // 2
    value = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return Summary(value, n)
