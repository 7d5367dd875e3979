"""Seeded open-loop arrivals on the modelled clock.

An **open-loop** arrival process issues requests at its own rate
regardless of how the server is doing — the standard discipline for
capacity questions ("what QPS can this node sustain?"), because a
closed loop would throttle itself exactly when the queue is the story.

Draws follow the :mod:`repro.pim.faults` determinism discipline:
SHA-256 over ``(channel, seed, class, index)`` scaled to the unit
interval, never :mod:`random` state — so a spec + seed yields
bit-identical arrival times across processes, machines, and Python
versions. Interarrivals are exponential (inverse-CDF transform), i.e.
the process is Poisson with the class's configured rate.

The draws depend on ``(seed, class)`` and the index only, not on the
rate, so :meth:`OpenLoopArrivals.times_until` reads them from
:func:`repro.pim.faults.unit_draws`: one memoized stream per
``(seed, class)``, computed once per process and shared by every rate.
So are their unit-rate gaps ``-log(1 - u)``: each is one
:func:`math.log` call per process, and a rate only divides them. Each
memo holds at most 16 streams at 8 bytes per draw computed (the
RESILIENCE gate's grid keeps 4 streams of about 18k draws, ~0.6 MB
each for the draws and the gaps).
"""

from __future__ import annotations

import functools
import math
import threading
from array import array

import numpy as np

from repro.errors import ParameterError
from repro.pim.faults import _STREAM_CACHE, _unit_hash, unit_draws

__all__ = ["OpenLoopArrivals"]


class _GapStream:
    """The unit-rate exponential gaps ``-log(1 - u)`` of one arrival
    stream, in index order.

    Grows only as far as a caller has asked, one :func:`math.log` per
    new draw; gaps already computed are never recomputed.
    """

    __slots__ = ("_prefix", "_gaps", "_lock")

    def __init__(self, seed, class_key: str):
        self._prefix = ("serve.arrival", seed, class_key)
        self._gaps = array("d")
        # Shared process-wide, like the draw streams it reads.
        self._lock = threading.Lock()

    def first(self, count: int) -> np.ndarray:
        """Gaps ``0 .. count - 1``, as a fresh array."""
        gaps = self._gaps
        if len(gaps) < count:
            with self._lock:
                start = len(gaps)
                draws = unit_draws(*self._prefix).first(count)
                # u is in [0, 1); 1-u is in (0, 1], so log never sees
                # zero.
                gaps.extend(-math.log(1.0 - u) for u in draws[start:])
        return np.frombuffer(gaps[:count])


@functools.lru_cache(maxsize=_STREAM_CACHE, typed=True)
def _gap_stream(seed, class_key: str) -> _GapStream:
    """The memoized gap stream of one ``(seed, class)``."""
    return _GapStream(seed, class_key)


class OpenLoopArrivals:
    """Deterministic Poisson arrivals for one request class.

    ``rate_qps`` requests per modelled second on average, starting at
    modelled time zero, for ``duration_s`` seconds. ``class_key`` salts
    the hash stream so concurrent classes draw independently under one
    seed.
    """

    def __init__(self, class_key: str, rate_qps: float, seed: int = 0):
        if rate_qps <= 0:
            raise ParameterError(f"rate_qps must be positive: {rate_qps}")
        self.class_key = class_key
        self.rate_qps = rate_qps
        self.seed = seed

    def interarrival(self, index: int) -> float:
        """The exponential gap before arrival ``index`` (seconds)."""
        u = _unit_hash("serve.arrival", self.seed, self.class_key, index)
        # u is in [0, 1); 1-u is in (0, 1], so log never sees zero.
        return -math.log(1.0 - u) / self.rate_qps

    def times_until(self, duration_s: float) -> np.ndarray:
        """All arrival times in ``[0, duration_s)``, strictly ordered,
        as a float64 array."""
        if duration_s <= 0:
            raise ParameterError(
                f"duration must be positive: {duration_s}"
            )
        rate = self.rate_qps
        gaps = _gap_stream(self.seed, self.class_key)
        # Poisson: about rate * duration arrivals, give or take a few
        # square roots of that.
        expected = rate * duration_s
        margin = int(4.0 * math.sqrt(expected)) + 8
        count = int(expected) + margin
        while True:
            # steps[0] = 0.0 is the sum's start, so cumsum (a strict
            # left-to-right accumulate) does the same IEEE operations
            # as adding interarrival(index) for index = 0, 1, …
            steps = np.zeros(count + 1)
            np.divide(gaps.first(count), rate, out=steps[1:])
            times = np.cumsum(steps)
            if times[-1] >= duration_s:
                end = int(np.searchsorted(times, duration_s))
                return times[1:end]
            count += margin
