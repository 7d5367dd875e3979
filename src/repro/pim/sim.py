"""Cycle-level DPU simulation: validating the analytic pipeline model.

The runtime prices kernels with two closed forms — the pipeline bound
``max(total_instructions, 11 * slowest_tasklet)`` and the DMA streaming
cost — combined as ``max(compute, dma)``. Those forms are standard, but
they are *models*; this module provides the ground truth they are
checked against: an event-driven simulation of one DPU executing
multiple tasklets, with

* a dispatcher issuing at most one instruction per cycle, round-robin
  among ready tasklets;
* the revolve constraint: a tasklet may issue again only ``revolve``
  cycles after its previous issue;
* a single shared DMA engine: a tasklet reaching a DMA phase enqueues
  its transfer (fixed cost + per-byte cost) and *blocks* until it
  completes, while other tasklets keep the pipeline busy.

The schedule is exact to the cycle, but the simulator does not step
cycle by cycle. Between events (a phase ending, a DMA completion letting
a tasklet rejoin, the watchdog limit) round-robin issue is periodic, so
:class:`DPUSimulator` advances whole rounds in closed form, and a
phase of ``k`` instructions costs a few rounds of Python work rather
than ``k``. ``tests/pim/reference_sim.py`` keeps the per-instruction
stepper as the differential oracle.

Kernels are simulated as **streaming programs**: alternating
(DMA-in, compute, DMA-out) phases over WRAM-sized blocks — the shape of
every real UPMEM streaming kernel. ``tests/pim/test_sim.py`` and the
``ext_sim_validation`` experiment assert the analytic model tracks the
simulation within a few percent across kernels and tasklet counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ParameterError, TransientDeviceError
from repro.obs.export import chrome_complete, chrome_document, chrome_metadata
from repro.pim.config import UPMEMConfig

#: Phase kinds.
COMPUTE = "compute"
DMA = "dma"

#: Largest idle gap, in cycles, bridged when a tasklet's issue segments
#: are banded for the Chrome export. A saturated round-robin turn is at
#: most ``max_tasklets`` cycles, so twice that merges the turns of a
#: busy tasklet while every DMA block (over a thousand cycles for a
#: 2 KB transfer) still shows as a break.
CHROME_BAND_GAP = 2 * UPMEMConfig().max_tasklets


@dataclass(frozen=True)
class Phase:
    """One tasklet phase: either compute (instructions) or DMA (bytes)."""

    kind: str
    amount: int  # instructions for COMPUTE, bytes for DMA

    def __post_init__(self):
        if self.kind not in (COMPUTE, DMA):
            raise ParameterError(f"unknown phase kind {self.kind!r}")
        if self.amount < 0:
            raise ParameterError(f"phase amount must be >= 0: {self.amount}")


@dataclass(frozen=True)
class TaskletProgram:
    """A tasklet's life: an ordered list of phases."""

    phases: tuple

    @classmethod
    def streaming(
        cls,
        n_elements: int,
        instructions_per_element: float,
        in_bytes_per_element: int,
        out_bytes_per_element: int,
        block_elements: int,
    ) -> "TaskletProgram":
        """The canonical streaming kernel: per WRAM block, DMA the
        operands in, compute, DMA the results out."""
        if n_elements < 0 or block_elements <= 0:
            raise ParameterError("bad streaming program shape")
        phases = []
        remaining = n_elements
        while remaining > 0:
            block = min(block_elements, remaining)
            if in_bytes_per_element:
                phases.append(Phase(DMA, block * in_bytes_per_element))
            phases.append(
                Phase(COMPUTE, max(1, round(block * instructions_per_element)))
            )
            if out_bytes_per_element:
                phases.append(Phase(DMA, block * out_bytes_per_element))
            remaining -= block
        return cls(tuple(phases))

    @property
    def total_instructions(self) -> int:
        return sum(p.amount for p in self.phases if p.kind == COMPUTE)

    @property
    def total_dma_bytes(self) -> int:
        return sum(p.amount for p in self.phases if p.kind == DMA)


@dataclass
class SimTrace:
    """Optional per-issue event trace of one simulated DPU run.

    Records every dispatcher issue (cycle, tasklet) and every DMA
    transfer (tasklet, request, start, completion, bytes); issues of
    rounds the simulator skips are appended in bulk, in issue order.
    ``request`` is when the tasklet reached its DMA phase and enqueued
    the transfer; ``start`` is when the shared engine actually began
    it, so ``start - request`` is the queue wait contention adds.
    Exportable two ways:

    * :meth:`events` — compacted dict records (consecutive issues by
      one tasklet merge into segments) suitable for
      :func:`repro.obs.export.write_jsonl`;
    * :meth:`to_chrome_trace` — a ``chrome://tracing`` / Perfetto
      document with one timeline row per tasklet plus a DMA-engine
      row. The time axis is **modelled cycles** (1 cycle rendered as
      1 µs), not wall time — this is the device's schedule, not the
      simulator's.

    :meth:`tasklet_activity` classifies every tasklet's cycles into
    issue / DMA-blocked / revolve-stall / dispatch-wait / idle — the
    occupancy story :mod:`repro.obs.profile` builds on.
    """

    issues: list = field(default_factory=list)  # (cycle, tasklet)
    dmas: list = field(
        default_factory=list
    )  # (tasklet, request, start, end, bytes)

    def record_issue(self, cycle: int, tasklet: int) -> None:
        self.issues.append((cycle, tasklet))

    def record_dma(
        self,
        tasklet: int,
        request: float,
        start: float,
        end: float,
        n_bytes: int,
    ) -> None:
        self.dmas.append((tasklet, request, start, end, n_bytes))

    def queue_waits(self) -> list:
        """Per-transfer engine queue waits, in cycles (issue order)."""
        return [start - request for _, request, start, _, _ in self.dmas]

    def issue_segments(self) -> list:
        """Issue events compacted into (tasklet, first, last, count) runs.

        A segment covers consecutive cycles in which the dispatcher
        kept issuing for the same tasklet — the pipeline-occupancy
        picture at a glance.
        """
        segments = []
        for cycle, tasklet in sorted(self.issues):
            if (
                segments
                and segments[-1][0] == tasklet
                and segments[-1][2] == cycle - 1
            ):
                last = segments[-1]
                segments[-1] = (tasklet, last[1], cycle, last[3] + 1)
            else:
                segments.append((tasklet, cycle, cycle, 1))
        return segments

    def events(self) -> list:
        """All activity as JSON-able records (for JSONL export)."""
        records = [
            {
                "kind": "issue",
                "tasklet": tasklet,
                "start_cycle": first,
                "end_cycle": last,
                "instructions": count,
            }
            for tasklet, first, last, count in self.issue_segments()
        ]
        records.extend(
            {
                "kind": "dma",
                "tasklet": tasklet,
                "request_cycle": request,
                "start_cycle": start,
                "end_cycle": end,
                "queue_wait_cycles": start - request,
                "bytes": n_bytes,
            }
            for tasklet, request, start, end, n_bytes in self.dmas
        )
        return records

    def _banded_segments(self) -> list:
        """Issue segments merged across gaps of :data:`CHROME_BAND_GAP`.

        In a saturated interleave every tasklet issues once per
        round-robin turn, so raw segments are one instruction each —
        per-instruction events at millions per run. Merging segments of
        one tasklet whose separation is at most the gap turns them into
        *activity bands* broken only by real pauses (DMA blocks, long
        starvation), which is what a timeline should show.
        """
        merged: dict = {}
        for tasklet, first, last, count in self.issue_segments():
            runs = merged.setdefault(tasklet, [])
            if runs and first - runs[-1][1] - 1 <= CHROME_BAND_GAP:
                prev_first, _prev_last, prev_count = runs[-1]
                runs[-1] = (prev_first, last, prev_count + count)
            else:
                runs.append((first, last, count))
        return [
            (tasklet, first, last, count)
            for tasklet, runs in merged.items()
            for first, last, count in runs
        ]

    def to_chrome_trace(
        self, process_name: str = "DPU (modelled cycles)"
    ) -> dict:
        """The run as a Chrome-trace document (cycles as microseconds).

        ``process_name`` labels the lanes' process group, so several
        simulated DPUs (or a host-span trace) can be merged into one
        document with :func:`repro.obs.export.merge_chrome_traces`.
        Issue events are banded (:meth:`_banded_segments`), one event
        per activity band rather than per instruction.
        """
        events = [
            chrome_metadata("process_name", process_name),
            chrome_metadata("thread_name", "dma engine"),
        ]
        seen_tasklets = set()
        for tasklet, first, last, count in self._banded_segments():
            seen_tasklets.add(tasklet)
            events.append(
                chrome_complete(
                    "issue",
                    "pipeline",
                    tasklet + 1,
                    float(first),
                    float(last - first + 1),
                    {"instructions": count},
                )
            )
        for tasklet, request, start, end, n_bytes in self.dmas:
            events.append(
                chrome_complete(
                    f"dma t{tasklet}",
                    "dma",
                    0,
                    float(start),
                    float(end - start),
                    {
                        "tasklet": tasklet,
                        "bytes": n_bytes,
                        "queue_wait_cycles": start - request,
                    },
                )
            )
        events.extend(
            chrome_metadata("thread_name", f"tasklet {tasklet}", tasklet + 1)
            for tasklet in sorted(seen_tasklets)
        )
        return chrome_document(events)

    def tasklet_activity(
        self, revolve_cycles: int, total_cycles: int
    ) -> dict:
        """Classify each tasklet's cycles from the recorded events.

        Returns ``{tasklet: {"issue", "dma_blocked", "revolve_stall",
        "dispatch_wait", "idle"}}`` partitioning ``[0, total_cycles)``:

        * **issue** — dispatcher slots this tasklet won;
        * **dma_blocked** — waiting on its own MRAM transfer, engine
          queue wait included;
        * **revolve_stall** — ineligible after its previous issue (at
          most ``revolve_cycles - 1`` per inter-issue gap is charged
          here);
        * **dispatch_wait** — eligible, but another tasklet won the
          slot (only possible with more tasklets than the revolve
          depth);
        * **idle** — before the program produced work or after it
          finished.

        Purely derived — calling this never changes the trace.
        """
        if revolve_cycles <= 0:
            raise ParameterError(
                f"revolve_cycles must be positive: {revolve_cycles}"
            )
        import bisect
        from collections import defaultdict

        issues_by_tasklet: dict = defaultdict(list)
        for cycle, tasklet in self.issues:
            issues_by_tasklet[tasklet].append(cycle)
        blocks_by_tasklet: dict = defaultdict(list)
        for tasklet, request, _start, end, _n in self.dmas:
            blocks_by_tasklet[tasklet].append((request, end))

        activity = {}
        for tasklet in sorted(set(issues_by_tasklet) | set(blocks_by_tasklet)):
            cycles = sorted(issues_by_tasklet[tasklet])
            dma_blocked = sum(
                end - request for request, end in blocks_by_tasklet[tasklet]
            )
            revolve_stall = dispatch_wait = idle = 0.0
            if cycles:
                # Attribute each DMA block to the inter-issue gap it
                # occupies (a blocked tasklet cannot issue, so every
                # block falls entirely inside one gap).
                gap_dma: dict = defaultdict(float)
                head_dma = tail_dma = 0.0
                for request, end in blocks_by_tasklet[tasklet]:
                    index = bisect.bisect_right(cycles, request)
                    if index == 0:
                        head_dma += end - request
                    elif index == len(cycles):
                        tail_dma += end - request
                    else:
                        gap_dma[index] += end - request
                # Head: no prior issue, so no revolve constraint — any
                # non-DMA wait is lost arbitration.
                dispatch_wait += max(0.0, cycles[0] - head_dma)
                for index in range(1, len(cycles)):
                    gap = cycles[index] - cycles[index - 1] - 1
                    non_dma = max(0.0, gap - gap_dma.get(index, 0.0))
                    stalled = min(non_dma, float(revolve_cycles - 1))
                    revolve_stall += stalled
                    dispatch_wait += non_dma - stalled
                tail = total_cycles - cycles[-1] - 1
                idle = max(0.0, tail - tail_dma)
            else:
                idle = max(0.0, total_cycles - dma_blocked)
            activity[tasklet] = {
                "issue": len(cycles),
                "dma_blocked": dma_blocked,
                "revolve_stall": revolve_stall,
                "dispatch_wait": dispatch_wait,
                "idle": idle,
            }
        return activity


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated DPU run."""

    cycles: int
    instructions_issued: int
    dma_busy_cycles: float
    tasklets: int

    @property
    def issue_utilization(self) -> float:
        """Fraction of cycles with an instruction dispatched."""
        return self.instructions_issued / self.cycles if self.cycles else 0.0

    @property
    def dma_utilization(self) -> float:
        return self.dma_busy_cycles / self.cycles if self.cycles else 0.0


@dataclass
class _TaskletState:
    program: TaskletProgram
    phase_index: int = 0
    remaining: int = 0
    next_issue: int = 0
    blocked_until: float = 0.0
    done: bool = False

    def current_phase(self):
        if self.phase_index >= len(self.program.phases):
            return None
        return self.program.phases[self.phase_index]


class DPUSimulator:
    """Single-DPU simulator that advances whole round-robin rounds.

    Between events — a phase ending, a DMA completion letting a
    blocked tasklet rejoin, the watchdog limit — the dispatcher's issue
    schedule is periodic with period ``max(m, revolve)`` for ``m``
    active tasklets. :meth:`run` steps issue by issue until one period
    has repeated (same active set, same round-robin pointer, same
    ``next_issue - clock`` offsets), then advances as many whole
    periods as the next event allows in closed form. Results and
    traces equal the per-instruction stepper's exactly;
    ``tests/pim/reference_sim.py`` keeps that stepper as the
    differential oracle.
    """

    def __init__(self, config: UPMEMConfig | None = None):
        self.config = config if config is not None else UPMEMConfig()

    def run(
        self,
        programs,
        trace: SimTrace | None = None,
        max_cycles: int | None = None,
    ) -> SimResult:
        """Simulate the given tasklet programs to completion.

        Pass a :class:`SimTrace` to record every dispatcher issue and
        DMA transfer; tracing is off by default and does not change
        the simulated outcome. Skipped rounds are recorded in bulk, so
        the trace lists the same events in the same order as stepping
        each instruction would.

        ``max_cycles`` arms a watchdog: if any tasklet is still running
        (issuing, or waiting on a DMA) past it, the run aborts with a
        :class:`~repro.errors.TransientDeviceError` — the cycle-level
        analogue of the stuck-tasklet timeout the fault layer
        (:mod:`repro.pim.faults`) models analytically.
        """
        programs = list(programs)
        if not programs:
            raise ParameterError("need at least one tasklet program")
        if len(programs) > self.config.max_tasklets:
            raise ParameterError(
                f"{len(programs)} tasklets exceed the hardware maximum "
                f"{self.config.max_tasklets}"
            )
        if max_cycles is not None and max_cycles <= 0:
            raise ParameterError(
                f"max_cycles must be positive: {max_cycles}"
            )
        revolve = self.config.pipeline_revolve_cycles

        states = [_TaskletState(p) for p in programs]
        n = len(states)
        dma_free = [0.0]  # shared engine: time it becomes available
        dma_busy = 0.0
        issued = 0
        clock = 0
        last_issued = -1  # round-robin pointer
        for index, state in enumerate(states):
            dma_busy += self._advance_into_phase(
                state, 0.0, dma_free, index, trace
            )
        running = sum(not s.done for s in states)
        # Round skipping: a loop top snapshots the active tasklets. If
        # the loop top one period later, at ``mark``, has the same active
        # set, pointer and next_issue offsets, that period repeats until
        # the next event. A phase end sets ``mark = -1``, so the next
        # loop top takes a fresh snapshot.
        mark = -1
        snap_clock = snap_last = snap_trace = 0
        snap_active = snap_offsets = snap_remaining = None

        while running:
            if max_cycles is not None and clock > max_cycles:
                raise _watchdog(
                    [i for i, s in enumerate(states) if not s.done],
                    max_cycles,
                )
            if clock >= mark:
                # Active: in a compute phase and not blocked on DMA.
                active = [
                    i
                    for i, s in enumerate(states)
                    if s.remaining > 0 and s.blocked_until <= clock
                ]
                offsets = [states[i].next_issue - clock for i in active]
                if (
                    clock == mark
                    and last_issued == snap_last
                    and active == snap_active
                    and offsets == snap_offsets
                ):
                    period = clock - snap_clock
                    rounds = self._rounds_to_next_event(
                        states, active, snap_remaining, clock, period,
                        max_cycles,
                    )
                    if rounds:
                        for i, before in zip(active, snap_remaining):
                            state = states[i]
                            per_round = before - state.remaining
                            state.remaining -= rounds * per_round
                            state.next_issue += rounds * period
                            issued += rounds * per_round
                        if trace is not None:
                            pattern = trace.issues[snap_trace:]
                            trace.issues.extend(
                                [
                                    (cycle + shift, tasklet)
                                    for shift in range(
                                        period, (rounds + 1) * period, period
                                    )
                                    for cycle, tasklet in pattern
                                ]
                            )
                        clock += rounds * period
                snap_clock, snap_last = clock, last_issued
                snap_active, snap_offsets = active, offsets
                snap_remaining = [states[i].remaining for i in active]
                snap_trace = len(trace.issues) if trace is not None else 0
                mark = clock + max(len(active), revolve) if active else -1
            # Round-robin: the first ready tasklet after the last issuer.
            choice = last_issued
            for _ in range(n):
                choice = choice + 1 if choice + 1 < n else 0
                state = states[choice]
                if (
                    state.remaining > 0
                    and state.next_issue <= clock
                    and state.blocked_until <= clock
                ):
                    state.remaining -= 1
                    state.next_issue = clock + revolve
                    issued += 1
                    last_issued = choice
                    if trace is not None:
                        trace.record_issue(clock, choice)
                    if state.remaining == 0:
                        state.phase_index += 1
                        dma_busy += self._advance_into_phase(
                            state, float(clock + 1), dma_free, choice, trace
                        )
                        running -= state.done
                        mark = -1
                    clock += 1
                    break
            else:
                # Nothing issuable: jump to the next event.
                upcoming = None
                for s in states:
                    if s.done:
                        continue
                    if s.remaining > 0 and s.blocked_until <= clock:
                        event = s.next_issue
                    elif s.blocked_until > clock:
                        event = s.blocked_until
                    else:
                        continue
                    if upcoming is None or event < upcoming:
                        upcoming = event
                if upcoming is None:
                    break  # only stalled tasklets are left
                clock = max(clock + 1, math.ceil(upcoming))

        # Account for a trailing DMA that finishes after the last issue.
        trailing = max((s.blocked_until for s in states), default=0.0)
        total_cycles = max(clock, math.ceil(trailing))
        if max_cycles is not None and total_cycles > max_cycles:
            # Still running past the budget: the tasklet's last issue or
            # its trailing DMA ends after it.
            raise _watchdog(
                [
                    i
                    for i, s in enumerate(states)
                    if not s.done
                    or s.next_issue - revolve >= max_cycles
                    or s.blocked_until > max_cycles
                ],
                max_cycles,
            )
        return SimResult(
            cycles=total_cycles,
            instructions_issued=issued,
            dma_busy_cycles=dma_busy,
            tasklets=len(programs),
        )

    @staticmethod
    def _rounds_to_next_event(
        states, active, remaining_before, clock, period, max_cycles
    ) -> int:
        """Whole periods that can be skipped from ``clock`` with no event.

        Every active tasklet keeps at least one instruction of its
        phase, no blocked tasklet's DMA completes inside a skipped
        cycle, and the clock does not pass ``max_cycles``.
        """
        rounds = min(
            (states[i].remaining - 1) // (before - states[i].remaining)
            for i, before in zip(active, remaining_before)
        )
        for s in states:
            if not s.done and s.blocked_until > clock:
                rounds = min(
                    rounds, (math.ceil(s.blocked_until) - clock) // period
                )
        if max_cycles is not None:
            rounds = min(rounds, (max_cycles - clock) // period)
        return rounds

    def _advance_into_phase(
        self,
        state: _TaskletState,
        now: float,
        dma_free: list,
        tasklet: int = 0,
        trace: SimTrace | None = None,
    ) -> float:
        """Move a tasklet into its next runnable phase.

        Consumes consecutive DMA phases (enqueueing them on the shared
        engine and blocking the tasklet) until a compute phase or the
        program's end is reached. Returns the DMA busy time added.
        """
        busy_added = 0.0
        while True:
            phase = state.current_phase()
            if phase is None:
                state.done = True
                state.remaining = 0
                return busy_added
            if phase.kind == COMPUTE:
                state.remaining = phase.amount
                return busy_added
            # DMA phase: serialize on the shared engine. The tasklet
            # requests the transfer as soon as it is unblocked; the
            # engine starts it when free — the difference is queue wait.
            cost = (
                self.config.dma_fixed_cycles
                + phase.amount * self.config.dma_cycles_per_byte
            )
            request = max(now, state.blocked_until)
            start = max(request, dma_free[0])
            completion = start + cost
            dma_free[0] = completion
            state.blocked_until = completion
            busy_added += cost
            if trace is not None:
                trace.record_dma(
                    tasklet, request, start, completion, phase.amount
                )
            state.phase_index += 1
            now = completion


def _watchdog(stuck: list, max_cycles: int) -> TransientDeviceError:
    """The watchdog's abort, naming the tasklets still running."""
    return TransientDeviceError(
        f"watchdog: {len(stuck)} tasklet(s) still running "
        f"past {max_cycles} cycles (first stuck: tasklet {stuck[0]})",
        attempts=1,
    )


def simulate_kernel(
    kernel,
    n_elements: int,
    tasklets: int,
    config: UPMEMConfig | None = None,
    block_elements: int = 64,
    trace: SimTrace | None = None,
) -> SimResult:
    """Simulate a device kernel's streaming execution on one DPU.

    Elements are split evenly across tasklets; each tasklet streams its
    share through WRAM blocks. Uses the kernel's measured
    ``cycles_per_element`` and memory layout — the same inputs the
    analytic model uses, so differences isolate the *combination* step
    (max-of-rooflines vs real interleaving).
    """
    from repro.pim.tasklet import split_evenly

    if tasklets <= 0:
        raise ParameterError(f"tasklets must be positive: {tasklets}")
    cpe = kernel.cycles_per_element()
    out_bytes = _kernel_out_bytes(kernel)
    in_bytes = kernel.mram_bytes_per_element() - out_bytes
    programs = [
        TaskletProgram.streaming(
            share, cpe, in_bytes, out_bytes, block_elements
        )
        for share in split_evenly(n_elements, tasklets)
        if share > 0
    ]
    return DPUSimulator(config).run(programs, trace=trace)


def _kernel_out_bytes(kernel) -> int:
    from repro.pim.runtime import _output_bytes

    return min(_output_bytes(kernel), kernel.mram_bytes_per_element())
