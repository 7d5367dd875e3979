"""Batch formation and the serial device timeline, in modelled time.

The scheduler is deliberately minimal and fully deterministic:

* **Batch formation** is per request class (one class = one workload
  kind at one security level — requests with different kernels or
  parameters cannot share a launch). A batch opens at its first
  request's arrival and seals when it reaches ``max_batch`` requests
  or when the formation timer (``max_wait_s`` after the first
  request) expires, whichever is earlier. Formation depends only on
  the arrival stream, so it is independent of device load — the
  timer runs while the device serves earlier batches.
* **Service** is a single serial device timeline: sealed batches
  across all classes are served in ``(seal time, class, index)``
  order; each launch occupies the device for its priced modelled
  duration (kernel + launch overhead + any fault/retry seconds)
  plus the host<->DPU transfer for the batch.

Serving points run :meth:`BatchScheduler.form_batches` inside the one
serving loop (:mod:`repro.serve.resilience`). The serial
:meth:`BatchScheduler.schedule` and :class:`BatchLaunch` are on no
production path: they are the reference that loop's one-shard case is
differentially tested against.

Every completed request has a :class:`RequestTimeline` decomposing
its modelled latency into the phases the dashboard reports (the
serving loop keeps a :class:`ServedBatches` record and builds them on
first read)::

    arrival --queue--> sealed --dispatch--> service start
            --launch--> --kernel--> --transfer--> complete

``queue`` is batch-formation wait, ``dispatch`` is time spent sealed
but behind earlier launches (the head-of-line signal that saturation
produces), and launch/kernel/transfer come from the priced
:class:`~repro.backends.base.TimingBreakdown` detail — the same
numbers the perf baselines gate, so the decomposition cannot drift
from the cost model.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "RequestTimeline",
    "ServedBatches",
    "BatchLaunch",
    "BatchScheduler",
]


@dataclass(slots=True)
class RequestTimeline:
    """One request's modelled lifecycle (all times in modelled seconds).

    Phase durations (``launch_s``/``kernel_s``/``fault_s``/
    ``transfer_s``) are the whole batch's — a request's latency
    includes its batch's full service, which is what a user of the
    service experiences.
    """

    request_id: str
    class_key: str
    arrival_s: float
    batch_formed_s: float
    service_start_s: float
    launch_s: float
    kernel_s: float
    fault_s: float
    transfer_s: float
    complete_s: float
    batch_index: int
    batch_size: int

    @property
    def queue_s(self) -> float:
        """Batch-formation wait: arrival until the batch sealed."""
        return self.batch_formed_s - self.arrival_s

    @property
    def dispatch_s(self) -> float:
        """Sealed-but-waiting: the device was busy with earlier work."""
        return self.service_start_s - self.batch_formed_s

    @property
    def latency_s(self) -> float:
        """End-to-end modelled latency (arrival to completion)."""
        return self.complete_s - self.arrival_s

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "class": self.class_key,
            "arrival_s": self.arrival_s,
            "batch_formed_s": self.batch_formed_s,
            "service_start_s": self.service_start_s,
            "queue_s": self.queue_s,
            "dispatch_s": self.dispatch_s,
            "launch_s": self.launch_s,
            "kernel_s": self.kernel_s,
            "fault_s": self.fault_s,
            "transfer_s": self.transfer_s,
            "complete_s": self.complete_s,
            "latency_s": self.latency_s,
            "batch_index": self.batch_index,
            "batch_size": self.batch_size,
        }


class ServedBatches:
    """The serving loop's per-batch record; request timelines on demand.

    ``records`` holds one ``(launch index, batch index, members)`` per
    served batch, in service order: the launch in ``launches`` that
    served it (a hedged batch's winning copy), the batch's index in its
    formation stream, and its members' indices into
    ``arrivals[class key]`` (an ``intp`` array; ``arrivals`` maps class
    key -> float64 arrival times). :attr:`timelines` builds every request's
    :class:`RequestTimeline` from them on first read, so a run nobody
    reads timelines from never makes one.
    """

    __slots__ = ("launches", "records", "arrivals", "_timelines")

    def __init__(self, launches: list, records: list, arrivals: dict):
        self.launches = launches
        self.records = records
        self.arrivals = arrivals
        self._timelines = None

    @property
    def timelines(self) -> list:
        """Every served request's timeline: service order, then arrival
        order within a batch. Built once, on first read."""
        if self._timelines is None:
            self._timelines = self._build()
        return self._timelines

    def _build(self) -> list:
        timelines = []
        for launch_index, batch_index, members in self.records:
            launch = self.launches[launch_index]
            class_key = launch.class_key
            arrivals = self.arrivals[class_key]
            fields = (
                launch.seal_s,
                launch.service_start_s,
                launch.launch_s,
                launch.kernel_s,
                launch.fault_s,
                launch.transfer_s,
                launch.complete_s,
                batch_index,
                launch.batch_size,
            )
            timelines.extend(
                RequestTimeline(
                    f"{class_key}/{member}", class_key, arrival_s, *fields
                )
                for member, arrival_s in zip(
                    members.tolist(), arrivals[members].tolist()
                )
            )
        return timelines


@dataclass
class BatchLaunch:
    """One shared kernel launch: a sealed batch's trip through the device."""

    index: int
    class_key: str
    batch_size: int
    ops: int
    seal_s: float
    service_start_s: float
    complete_s: float
    service_seconds: float
    launch_s: float
    kernel_s: float
    fault_s: float
    transfer_s: float
    bound: str
    dpus_used: int

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "class": self.class_key,
            "batch_size": self.batch_size,
            "ops": self.ops,
            "seal_s": self.seal_s,
            "service_start_s": self.service_start_s,
            "complete_s": self.complete_s,
            "service_seconds": self.service_seconds,
            "launch_s": self.launch_s,
            "kernel_s": self.kernel_s,
            "fault_s": self.fault_s,
            "transfer_s": self.transfer_s,
            "bound": self.bound,
            "dpus_used": self.dpus_used,
        }


class BatchScheduler:
    """Deterministic batch formation + serial service scheduling."""

    def __init__(self, max_batch: int = 64, max_wait_s: float = 2e-3):
        if max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1: {max_batch}")
        if max_wait_s < 0:
            raise ParameterError(
                f"max_wait_s must be non-negative: {max_wait_s}"
            )
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s

    def form_batches(self, arrivals) -> list:
        """Group one class's arrival times into sealed batches.

        Returns ``[(seal_time, range(first, stop)), ...]`` in seal
        order, each range the batch's arrival indices. A batch seals at
        the arrival of its ``max_batch``-th request, or ``max_wait_s``
        after its first request — the timer fires even when no later
        request arrives to observe it. An arrival exactly at the
        deadline still joins the batch.

        The walk steps batch by batch, not arrival by arrival: each
        batch's end is one bisection over at most ``max_batch`` arrival
        times after its first.
        """
        times = memoryview(np.ascontiguousarray(arrivals, dtype=np.float64))
        count = len(times)
        max_batch = self.max_batch
        batches = []
        first = 0
        while first < count:
            deadline = times[first] + self.max_wait_s
            stop = bisect_right(
                times, deadline, first, min(first + max_batch, count)
            )
            # Full: sealed by its max_batch-th arrival; else by the timer.
            seal = times[stop - 1] if stop - first == max_batch else deadline
            batches.append((seal, range(first, stop)))
            first = stop
        return batches

    def schedule(self, class_arrivals: dict, pricer) -> tuple:
        """Serve every class's batches on one serial device timeline.

        ``class_arrivals`` maps class key -> list of arrival times;
        ``pricer(class_key, batch_size)`` returns the
        :class:`~repro.backends.base.TimingBreakdown` for one shared
        launch of that many requests. Returns ``(timelines,
        launches)``, both in deterministic order (service order; within
        a batch, arrival order).
        """
        sealed = []
        for class_key in sorted(class_arrivals):
            arrivals = class_arrivals[class_key]
            for batch_index, (seal, members) in enumerate(
                self.form_batches(arrivals)
            ):
                sealed.append((seal, class_key, batch_index, members))
        # Device order: earliest-sealed first; class key then per-class
        # index break ties deterministically.
        sealed.sort(key=lambda item: (item[0], item[1], item[2]))

        timelines = []
        launches = []
        device_free = 0.0
        for launch_index, (seal, class_key, batch_index, members) in enumerate(
            sealed
        ):
            breakdown = pricer(class_key, len(members))
            detail = breakdown.detail
            launch_s = float(detail.get("launch_s", 0.0))
            kernel_s = float(detail.get("kernel_s", 0.0))
            transfer_s = float(detail.get("transfer_s", 0.0))
            fault_s = breakdown.seconds - launch_s - kernel_s
            start = max(seal, device_free)
            complete = start + breakdown.seconds + transfer_s
            device_free = complete
            launches.append(
                BatchLaunch(
                    index=launch_index,
                    class_key=class_key,
                    batch_size=len(members),
                    ops=int(detail.get("ops", len(members))),
                    seal_s=seal,
                    service_start_s=start,
                    complete_s=complete,
                    service_seconds=breakdown.seconds,
                    launch_s=launch_s,
                    kernel_s=kernel_s,
                    fault_s=fault_s,
                    transfer_s=transfer_s,
                    bound=str(detail.get("bound", "?")),
                    dpus_used=int(detail.get("dpus_used", 0)),
                )
            )
            arrivals = class_arrivals[class_key]
            for member in members:
                timelines.append(
                    RequestTimeline(
                        request_id=f"{class_key}/{member}",
                        class_key=class_key,
                        arrival_s=arrivals[member],
                        batch_formed_s=seal,
                        service_start_s=start,
                        launch_s=launch_s,
                        kernel_s=kernel_s,
                        fault_s=fault_s,
                        transfer_s=transfer_s,
                        complete_s=complete,
                        batch_index=batch_index,
                        batch_size=len(members),
                    )
                )
        return timelines, launches
