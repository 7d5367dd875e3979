"""Crossover finding.

The paper's shape claims are about *crossovers*: where PIM overtakes a
baseline, or loses to one, as a parameter moves. This module bisects a
comparison of the cost models to the parameter where it changes sign.
"""

from __future__ import annotations

import math

from repro.errors import ParameterError


def bisect_crossover(
    metric,
    low: float,
    high: float,
    tolerance: float = 1.0,
    max_iterations: int = 64,
) -> float:
    """Bisect a monotone ``metric`` to its zero in ``[low, high]``.

    ``metric(low)`` and ``metric(high)`` must have opposite signs.
    Returns the parameter where the metric changes sign, to within
    ``tolerance``.
    """
    if low >= high:
        raise ParameterError(f"need low < high, got [{low}, {high}]")
    f_low = metric(low)
    f_high = metric(high)
    if f_low == 0:
        return low
    if f_high == 0:
        return high
    if f_low * f_high > 0:
        raise ParameterError(
            f"metric does not change sign on [{low}, {high}]: "
            f"{f_low:.4g} and {f_high:.4g}"
        )
    for _ in range(max_iterations):
        if high - low <= tolerance:
            break
        mid = (low + high) / 2
        f_mid = metric(mid)
        if f_mid == 0:
            return mid
        if f_mid * f_low < 0:
            high = mid
        else:
            low, f_low = mid, f_mid
    return (low + high) / 2


def ratio_metric(numerator, denominator):
    """A metric ``log(numerator(p) / denominator(p))`` whose zero is
    the crossover point where the two quantities are equal."""
    def metric(p: float) -> float:
        return math.log(numerator(p) / denominator(p))

    return metric
