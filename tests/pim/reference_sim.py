"""Per-instruction DPU simulator: the differential oracle for ``repro.pim.sim``.

One Python iteration per issued instruction: find the ready tasklets,
pick the round-robin winner, issue, and jump the clock over idle
stretches. This is the loop :class:`repro.pim.sim.DPUSimulator`
replaces with whole-round skipping. :class:`ReferenceSimTrace` is the
per-issue trace, with the per-issue readers :class:`repro.pim.sim.SimTrace`
replaces with closed forms over periodic segments. Both are test
oracles only; production code never calls them.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import ParameterError, TransientDeviceError
from repro.obs.export import chrome_complete, chrome_document, chrome_metadata
from repro.pim.config import UPMEMConfig
from repro.pim.sim import CHROME_BAND_GAP, COMPUTE, SimResult, _TaskletState


@dataclass
class ReferenceSimTrace:
    """Per-issue trace: one ``(cycle, tasklet)`` tuple per instruction.

    The representation :class:`repro.pim.sim.SimTrace` replaced with
    periodic segments, kept with its per-issue readers as the oracle
    for theirs.
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

        """
        if revolve_cycles <= 0:
            raise ParameterError(
                f"revolve_cycles must be positive: {revolve_cycles}"
            )
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


class ReferenceDPUSimulator:
    """Single-DPU simulator stepping one issued instruction at a time."""

    def __init__(self, config: UPMEMConfig | None = None):
        self.config = config if config is not None else UPMEMConfig()

    def run(
        self,
        programs,
        trace: ReferenceSimTrace | None = None,
        max_cycles: int | None = None,
    ) -> SimResult:
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
        dma_free = [0.0]  # shared engine: time it becomes available
        dma_busy = 0.0
        issued = 0
        clock = 0
        last_issued = -1  # round-robin pointer
        for index, state in enumerate(states):
            dma_busy += self._advance_into_phase(
                state, 0.0, dma_free, index, trace
            )

        while any(not s.done for s in states):
            if max_cycles is not None and clock > max_cycles:
                stuck = [i for i, s in enumerate(states) if not s.done]
                raise TransientDeviceError(
                    f"watchdog: {len(stuck)} tasklet(s) still running "
                    f"past {max_cycles} cycles (first stuck: tasklet "
                    f"{stuck[0]})",
                    attempts=1,
                )
            # Find ready tasklets: in a compute phase, revolve satisfied,
            # not blocked on DMA.
            ready = [
                i
                for i, s in enumerate(states)
                if not s.done
                and s.remaining > 0
                and s.next_issue <= clock
                and s.blocked_until <= clock
            ]
            if ready:
                # Round-robin starting after the last issuer.
                choice = min(
                    ready,
                    key=lambda i: ((i - last_issued - 1) % len(states)),
                )
                state = states[choice]
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
                clock += 1
                continue
            # Nothing issuable: jump to the next event.
            candidates = []
            for s in states:
                if s.done:
                    continue
                if s.remaining > 0 and s.blocked_until <= clock:
                    candidates.append(s.next_issue)
                elif s.blocked_until > clock:
                    candidates.append(s.blocked_until)
            if not candidates:
                break  # all done
            clock = max(clock + 1, int(-(-min(candidates) // 1)))

        total_cycles = clock
        # Account for a trailing DMA that finishes after the last issue.
        trailing = max(
            (s.blocked_until for s in states), default=0.0
        )
        total_cycles = max(total_cycles, int(-(-trailing // 1)))
        if max_cycles is not None and total_cycles > max_cycles:
            # A tasklet is still running past the budget when its last
            # issue or its trailing DMA ends after it.
            stuck = [
                i
                for i, s in enumerate(states)
                if not s.done
                or s.next_issue - revolve >= max_cycles
                or s.blocked_until > max_cycles
            ]
            raise TransientDeviceError(
                f"watchdog: {len(stuck)} tasklet(s) still running "
                f"past {max_cycles} cycles (first stuck: tasklet "
                f"{stuck[0]})",
                attempts=1,
            )
        return SimResult(
            cycles=total_cycles,
            instructions_issued=issued,
            dma_busy_cycles=dma_busy,
            tasklets=len(programs),
        )

    def _advance_into_phase(
        self,
        state: _TaskletState,
        now: float,
        dma_free: list,
        tasklet: int = 0,
        trace: ReferenceSimTrace | None = None,
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
