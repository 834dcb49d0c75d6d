"""Order statistics shared by the parent and the child processes."""

from __future__ import annotations


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)
