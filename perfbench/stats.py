"""Small statistics shared by the benchmark and its self-test."""

from __future__ import annotations

import math
from typing import Sequence, Tuple


def percentile(values: Sequence[float], p: float) -> Tuple[float, int]:
    """Nearest-rank percentile of *values* and the number of samples above it.

    ``p`` is a fraction in (0, 1]. The value returned is the smallest sample
    with at least ``p`` of the samples at or below it, so the second item
    counts the samples that lie strictly beyond the reported rank.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0
