"""Reference seconds: wall time corrected for the host's current speed.

On a shared virtual machine a busy neighbour slows this process by about
half, for seconds to minutes at a time, and CPU time slows with wall
time, so no statistic of raw wall times stays put from one run to the
next. While a region is timed, a fixed integer loop, the probe, also
runs every :data:`SAMPLE_INTERVAL_S` from a timer signal, and once on
each side. The region is reported in reference seconds: its wall time,
without the probes, times :data:`PROBE_REF_S` over the probe's median
time. On a host that runs the probe in :data:`PROBE_REF_S`, reference
seconds are wall seconds. The probe is benchmark code, so a change to
the program cannot move it; raw wall seconds stay in the result files.
"""

from __future__ import annotations

import signal
import statistics
import time

#: The probe's time on the reference host.
PROBE_REF_S = 0.0005

#: Seconds between probes inside a timed region.
SAMPLE_INTERVAL_S = 0.05

_MODULUS = (1 << 109) - 1


def probe() -> float:
    """Seconds one run of the probe loop takes now."""
    # Integers only: they are not tracked by the cyclic garbage
    # collector, so a probe never triggers a collection of the
    # program's garbage inside the timer handler.
    start = time.perf_counter()
    x = 3**200
    acc = 1
    for i in range(1000):
        acc = (acc * x + i) % _MODULUS
    return time.perf_counter() - start


def reference_s(seconds: float, probes) -> float:
    """``seconds`` of wall time, given the probe times seen meanwhile."""
    return seconds * PROBE_REF_S / statistics.median(probes)


class Timed:
    """Time a region in wall and reference seconds.

    Uses ``SIGALRM``, so it must run on the main thread and regions must
    not nest.
    """

    def __enter__(self) -> "Timed":
        self.probes = [probe()]
        self._probe_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.start = time.perf_counter()
        return self

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self._probe_s += time.perf_counter() - start

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self.start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = elapsed - self._probe_s
        self.probes.append(probe())
        return False

    @property
    def reference_s(self) -> float:
        return reference_s(self.seconds, self.probes)
