"""Small summary statistics shared by the workloads."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1]); 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def overhead_pct(treated: Sequence[float], baseline: Sequence[float]) -> float:
    """Percent by which the median of ``treated`` exceeds that of ``baseline``."""
    if not treated or not baseline:
        return 0.0
    return (median(treated) / median(baseline) - 1.0) * 100.0
