"""Process-global metrics: counters, gauges, and histograms.

Where spans (:mod:`repro.obs.trace`) answer "where did the time go for
this run", metrics answer "how much of everything happened": kernel
launches, DPUs engaged, compute-vs-DMA-bound outcomes, limb-operation
counts folded in from :class:`repro.mpint.cost.OpTally`. Everything is
in-process and zero-dependency; exporters serialize
:meth:`MetricsRegistry.snapshot` as JSON.

Like tracing, metrics are off by default: the global registry is a
:class:`NullMetricsRegistry` whose instruments swallow updates, so
instrumentation sites never need their own "is observability on?"
checks.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Default histogram bucket upper bounds (log-spaced; +inf is implicit).
DEFAULT_BUCKETS = (
    1e-6,
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
    100.0,
    1000.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, n=1) -> None:
        if n < 0:
            raise ParameterError(f"counter increments must be >= 0: {n}")
        self.value += n

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value

    def inc(self, n=1) -> None:
        self.value += n

    def dec(self, n=1) -> None:
        self.value -= n

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """A distribution summary: count/sum/min/max plus bucket counts.

    Buckets are cumulative-style upper bounds (values land in the first
    bucket whose bound is >= the observation; larger values land in the
    implicit +inf bucket).
    """

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count", "sum", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets=None):
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ParameterError(f"histogram buckets must be sorted: {bounds}")
        self.name = name
        self.help = help
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # The first bound >= value, else len(bounds): the +inf bucket.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def observe_many(self, values) -> None:
        """:meth:`observe` each of a sequence in order, in one call.

        Takes a list or an array; the state is exactly that of the
        sequential calls. Buckets come from one ``searchsorted`` (the
        ``bisect_left`` of :meth:`observe`), ``sum`` from one
        ``cumsum`` seeded with the old sum (a strict left-to-right
        accumulate, so it is bit-identical), and min/max keep the first
        of equal extremes, as the strict comparisons in :meth:`observe`
        do.
        """
        values = np.asarray(values)
        if not len(values):
            return
        slots = np.searchsorted(self.bounds, values, "left")
        counts = self.bucket_counts
        for slot, n in enumerate(
            np.bincount(slots, minlength=len(counts)).tolist()
        ):
            counts[slot] += n
        self.sum = np.cumsum(np.append(self.sum, values))[-1].item()
        self.count += len(values)
        low = values[values.argmin()].item()
        high = values[values.argmax()].item()
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float):
        """Estimated value at percentile ``p`` (0-100), or ``None``.

        Linear interpolation inside the containing bucket, with the
        recorded ``min``/``max`` tightening the first and last occupied
        buckets (so a single sample — or all-equal samples — return the
        exact value, and p0/p100 are exactly ``min``/``max``). Estimates
        are always clamped to the observed ``[min, max]`` range.
        """
        if not 0.0 <= p <= 100.0:
            raise ParameterError(f"percentile must be in [0, 100]: {p}")
        if self.count == 0:
            return None
        if p == 0.0:
            return self.min
        if p == 100.0:
            return self.max
        target = p / 100.0 * self.count
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            below = cumulative
            cumulative += n
            if cumulative >= target:
                lo = self.bounds[i - 1] if i > 0 else self.min
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return min(max(lo, self.min), self.max)
                value = lo + (target - below) / n * (hi - lo)
                return min(max(value, self.min), self.max)
        return self.max

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical bounds into this one."""
        if self.bounds != other.bounds:
            raise ParameterError(
                f"cannot merge histograms with different buckets: "
                f"{len(self.bounds)} vs {len(other.bounds)} bounds"
            )
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                (f"le_{bound:g}" if i < len(self.bounds) else "le_inf"): n
                for i, (bound, n) in enumerate(
                    zip(self.bounds + (float("inf"),), self.bucket_counts)
                )
            },
        }


class MetricsRegistry:
    """Name-addressed instruments with get-or-create semantics.

    Asking twice for the same name returns the same instrument; asking
    for an existing name with a different instrument kind raises
    :class:`~repro.errors.ParameterError`.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict = {}

    def _get_or_create(self, cls, name: str, *args, **kwargs):
        if not name:
            raise ParameterError("metric name must be non-empty")
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, *args, **kwargs)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise ParameterError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, not {cls.kind}"
                )
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "", buckets=None) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets)

    def record_tally(self, tally, prefix: str = "limb_ops") -> None:
        """Fold an :class:`~repro.mpint.cost.OpTally` into counters.

        Each abstract limb operation (``add``, ``addc``, ``lsr``, ...)
        becomes a ``<prefix>.<op>`` counter increment, aggregating the
        exact data-dependent work of functional device executions.
        """
        for op, n in tally.counts.items():
            self.counter(f"{prefix}.{op}").inc(n)

    def snapshot(self) -> dict:
        """All instruments as plain JSON-able data, sorted by name."""
        with self._lock:
            return {
                name: self._instruments[name].snapshot()
                for name in sorted(self._instruments)
            }

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        return len(self._instruments)


class _NullInstrument:
    """Shared sink satisfying all three instrument interfaces."""

    __slots__ = ()

    value = 0
    count = 0
    sum = 0.0
    mean = 0.0
    min = None
    max = None

    def inc(self, n=1) -> None:
        pass

    def dec(self, n=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """The disabled registry: every instrument is a shared no-op."""

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", buckets=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def record_tally(self, tally, prefix: str = "limb_ops") -> None:
        pass

    def snapshot(self) -> dict:
        return {}

    def clear(self) -> None:
        pass


#: The process-wide disabled registry (also the default).
NULL_REGISTRY = NullMetricsRegistry()

_default_registry = NULL_REGISTRY
_default_lock = threading.Lock()


def get_registry():
    """The process-global metrics registry (null by default)."""
    return _default_registry


def set_registry(registry) -> None:
    """Install ``registry`` (or :data:`NULL_REGISTRY`) globally."""
    global _default_registry
    with _default_lock:
        _default_registry = (
            registry if registry is not None else NULL_REGISTRY
        )


class use_registry:
    """Context manager installing a registry for a scoped region."""

    def __init__(self, registry):
        self.registry = registry
        self._previous = None

    def __enter__(self):
        self._previous = get_registry()
        set_registry(self.registry)
        return self.registry

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_registry(self._previous)
        return False
