"""Order statistics shared by the runner, the worker and the comparison."""

from __future__ import annotations

import math
import statistics

TAIL_MIN_BEYOND = 10
TAIL_MAX_Q = 0.90


def tail_quantile(count: int) -> float:
    """The highest quantile, at most p90, that leaves >= 10 samples beyond it."""
    return max(0.5, min(TAIL_MAX_Q, 1.0 - TAIL_MIN_BEYOND / count))


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def latency_summary(latencies_s: list) -> dict:
    values = sorted(latencies_s)
    q = tail_quantile(len(values))
    return {
        "count": len(values),
        "p50": statistics.median(values),
        "tail": nearest_rank(values, q),
        "tail_q": q,
    }


def quartiles(values: list) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
