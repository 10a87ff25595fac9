"""Percentiles as the benchmark reports them."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    # Rounding first keeps 99.9% of 10 000 at rank 9990, not 9991.
    rank = max(1, math.ceil(round(p * len(ordered) / 100.0, 9)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns (p, value), or None when even the median has fewer than ten
    samples above it.
    """
    best = None
    for p in TAIL_LADDER:
        value = percentile(values, p)
        if sum(1 for v in values if v > value) >= MIN_BEYOND:
            best = (p, value)
    return best


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def describe(values: list[float]) -> str:
    """``p50=… p95=… (n=…)`` for a detail line."""
    if not values:
        return "n=0"
    text = f"p50={median(values):.6g}"
    t = tail(values)
    if t is not None and t[0] > 50:
        text += f" p{t[0]:g}={t[1]:.6g}"
    return text + f" (n={len(values)})"
