"""Latency populations and the percentile rule.

A percentile is reported only when at least ``MIN_ABOVE`` samples lie
above it, so a p90 needs at least 100 samples; with fewer it is
``None`` and the sample count says why.  Percentiles use the
nearest-rank definition: the value at rank ``ceil(q * n)``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

MIN_ABOVE = 10


def _rank(q: float, n: int) -> int:
    # Rounded first: 0.9 * 100 is 90.00000000000001 in binary floating point.
    return max(1, math.ceil(round(q * n, 9)))


def nearest_rank(
    values: Sequence[float], q: float, min_above: int = MIN_ABOVE
) -> Optional[float]:
    """The ``q`` quantile by nearest rank, or ``None`` when fewer than
    ``min_above`` samples lie above it."""
    n = len(values)
    rank = _rank(q, n)
    if n == 0 or n - rank < min_above:
        return None
    return sorted(values)[rank - 1]


def min_samples_for(q: float) -> int:
    """The smallest population whose ``q`` quantile may be reported."""
    n = 1
    while n - _rank(q, n) < MIN_ABOVE:
        n += 1
    return n


def population(values_ms: Sequence[float]) -> Dict[str, Optional[float]]:
    """The median (whenever there are samples), p90 (by the rule) and
    the sample count."""
    return {
        "n": len(values_ms),
        "p50": nearest_rank(values_ms, 0.5, min_above=0),
        "p90": nearest_rank(values_ms, 0.9),
    }
