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
The memo holds at most 16 streams at 8 bytes per draw computed (the
RESILIENCE gate's grid keeps 4 streams of about 18k draws, ~0.6 MB).
"""

from __future__ import annotations

import math

from repro.errors import ParameterError
from repro.pim.faults import _unit_hash, unit_draws

__all__ = ["OpenLoopArrivals"]


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

    def times_until(self, duration_s: float) -> list:
        """All arrival times in ``[0, duration_s)``, strictly ordered."""
        if duration_s <= 0:
            raise ParameterError(
                f"duration must be positive: {duration_s}"
            )
        # The same sum as adding interarrival(index) for index = 0, 1, …
        rate = self.rate_qps
        times = []
        t = 0.0
        for u in unit_draws("serve.arrival", self.seed, self.class_key):
            t += -math.log(1.0 - u) / rate
            if t >= duration_s:
                return times
            times.append(t)
