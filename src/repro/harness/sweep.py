"""Parameter sweeps and crossover finding.

The paper's shape claims are about *crossovers*: where PIM overtakes a
baseline, or loses to one, as a parameter moves. This module provides
the small generic machinery for asking such questions of the cost
models — sweep a callable over a parameter, locate sign changes of a
comparison, bisect continuous parameters to a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError


@dataclass(frozen=True)
class SweepPoint:
    """One sample of a sweep: parameter value and metric value."""

    parameter: float
    value: float


def sweep(metric, parameters) -> list:
    """Evaluate ``metric(p)`` over the given parameter values."""
    points = [SweepPoint(float(p), float(metric(p))) for p in parameters]
    if not points:
        raise ParameterError("sweep needs at least one parameter value")
    return points


def find_sign_change(points) -> tuple | None:
    """First adjacent pair of sweep points where the value crosses zero.

    Returns ``(left, right)`` :class:`SweepPoint` objects bracketing the
    crossover, or ``None`` if the sign never changes. Exact zeros count
    as crossings.
    """
    points = list(points)
    for left, right in zip(points, points[1:]):
        if left.value == 0 or left.value * right.value < 0:
            return left, right
    if points and points[-1].value == 0:
        return points[-1], points[-1]
    return None


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
    import math

    def metric(p: float) -> float:
        return math.log(numerator(p) / denominator(p))

    return metric
