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
a tasklet rejoin, the watchdog limit) round-robin issue is periodic.
:class:`DPUSimulator` finds the period — directly from the tasklets'
next-issue offsets, or by stepping one period and checking that it
repeats — and then applies every issue before the next event in one
closed-form step: the whole rounds and the partial round before the
event. A phase of ``k`` instructions costs a few steps of Python work
rather than ``k``, and so does each event. ``tests/pim/reference_sim.py``
keeps the per-instruction stepper as the differential oracle.

Kernels are simulated as **streaming programs**: alternating
(DMA-in, compute, DMA-out) phases over WRAM-sized blocks — the shape of
every real UPMEM streaming kernel. ``tests/pim/test_sim.py`` and the
``ext_sim_validation`` experiment assert the analytic model tracks the
simulation within a few percent across kernels and tasklet counts.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from itertools import compress
from dataclasses import dataclass, field

from repro.errors import ParameterError, TransientDeviceError
from repro.obs.export import chrome_complete, chrome_document, chrome_metadata
from repro.pim.config import UPMEMConfig
from repro.pim.kernels.base import result_bytes
from repro.pim.tasklet import split_evenly

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
        operands in, compute, DMA the results out.

        Every full block's phases are the same three objects (phases are
        frozen), so a long program costs one tuple, not one ``Phase``
        per block.
        """
        if n_elements < 0 or block_elements <= 0:
            raise ParameterError("bad streaming program shape")

        def block(elements: int) -> tuple:
            instructions = max(1, round(elements * instructions_per_element))
            phases = (Phase(COMPUTE, instructions),)
            if in_bytes_per_element:
                phases = (Phase(DMA, elements * in_bytes_per_element),) + phases
            if out_bytes_per_element:
                phases += (Phase(DMA, elements * out_bytes_per_element),)
            return phases

        whole, tail = divmod(n_elements, block_elements)
        phases = block(block_elements) * whole
        if tail:
            phases += block(tail)
        return cls(phases)

    @property
    def total_instructions(self) -> int:
        return sum(p.amount for p in self.phases if p.kind == COMPUTE)

    @property
    def total_dma_bytes(self) -> int:
        return sum(p.amount for p in self.phases if p.kind == DMA)


def streaming_programs(
    n_elements: int,
    tasklets: int,
    instructions_per_element: float,
    in_bytes_per_element: int,
    out_bytes_per_element: int,
    block_elements: int,
) -> list:
    """The streaming programs of ``n_elements`` split evenly over
    ``tasklets`` (see :func:`repro.pim.tasklet.split_evenly`), one per
    tasklet with work.

    An even split has at most two share sizes, so at most two programs
    are built; tasklets with equal shares share one.
    """
    built: dict = {}
    programs = []
    for share in split_evenly(n_elements, tasklets):
        if share:
            program = built.get(share)
            if program is None:
                program = built[share] = TaskletProgram.streaming(
                    share,
                    instructions_per_element,
                    in_bytes_per_element,
                    out_bytes_per_element,
                    block_elements,
                )
            programs.append(program)
    return programs


@dataclass
class SimTrace:
    """Event trace of one simulated DPU run, stored as periodic segments.

    Between events the dispatcher's schedule is periodic (see
    :class:`DPUSimulator`), so issues are kept the way the simulator
    produces them: each segment ``(start, period, rounds, pattern)``
    says that the issues of one period, ``pattern`` as ``(offset,
    tasklet)`` pairs with ``0 <= offset < period``, happen at ``start +
    r * period + offset`` for every ``r < rounds``. Segments are in time
    order and equal patterns are stored once, so a trace grows with the
    run's events and distinct patterns, not with its instructions.

    DMA transfers are kept one record each, ``(tasklet, request, start,
    end, bytes)``: ``request`` is when the tasklet reached its DMA phase
    and enqueued the transfer; ``start`` is when the shared engine
    actually began it, so ``start - request`` is the queue wait
    contention adds.

    Every reader computes from the segments: :meth:`tasklet_activity`
    and :meth:`to_chrome_trace` in closed form per segment, while
    :attr:`issues`, :meth:`issue_segments` and :meth:`events`
    materialize per-issue records only when asked for. Exportable two
    ways:

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

    segments: list = field(default_factory=list)  # (start, period, rounds, pattern)
    dmas: list = field(
        default_factory=list
    )  # (tasklet, request, start, end, bytes)
    _patterns: dict = field(default_factory=dict, repr=False, compare=False)

    def record_segment(
        self, start: int, period: int, rounds: int, issues
    ) -> None:
        """Record one period's ``(cycle, tasklet)`` issues from ``start``,
        repeated ``rounds`` times; a repeat of the previous segment's
        pattern extends it."""
        pattern = tuple((cycle - start, tasklet) for cycle, tasklet in issues)
        pattern = self._patterns.setdefault(pattern, pattern)
        if self.segments:
            first, last_period, last_rounds, last_pattern = self.segments[-1]
            if (
                last_pattern is pattern
                and last_period == period
                and first + last_rounds * period == start
            ):
                self.segments[-1] = (first, period, last_rounds + rounds, pattern)
                return
        self.segments.append((start, period, rounds, pattern))

    def record_dma(
        self,
        tasklet: int,
        request: float,
        start: float,
        end: float,
        n_bytes: int,
    ) -> None:
        self.dmas.append((tasklet, request, start, end, n_bytes))

    @property
    def issues(self) -> list:
        """Every issue as ``(cycle, tasklet)``, in issue order.

        Expanded from the segments on each access: one tuple per
        instruction.
        """
        return [
            (shift + offset, tasklet)
            for start, period, rounds, pattern in self.segments
            for shift in range(start, start + rounds * period, period)
            for offset, tasklet in pattern
        ]

    def queue_waits(self) -> list:
        """Per-transfer engine queue waits, in cycles (issue order)."""
        return [start - request for _, request, start, _, _ in self.dmas]

    def issue_segments(self) -> list:
        """Issue events compacted into (tasklet, first, last, count) runs.

        A segment covers consecutive cycles in which the dispatcher
        kept issuing for the same tasklet — the pipeline-occupancy
        picture at a glance. Each pattern's runs are found once and
        shifted per round; the list itself has one entry per run.
        """
        segments = []
        for start, period, rounds, pattern in self.segments:
            runs = _pattern_runs(pattern)
            for shift in range(start, start + rounds * period, period):
                for tasklet, first, last, count in runs:
                    if (
                        segments
                        and segments[-1][0] == tasklet
                        and segments[-1][2] == shift + first - 1
                    ):
                        prev = segments[-1]
                        segments[-1] = (
                            tasklet, prev[1], shift + last, prev[3] + count
                        )
                    else:
                        segments.append(
                            (tasklet, shift + first, shift + last, count)
                        )
        return segments

    def events(self) -> list:
        """All activity as JSON-able records (for JSONL export).

        Issue records come from :meth:`issue_segments`, so a saturated
        interleave yields one record per instruction.
        """
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
        starvation), which is what a timeline should show. A segment
        whose every gap is within the band is one chain, in closed form.
        """
        merged: dict = {}
        for start, period, rounds, pattern in self.segments:
            for tasklet, offsets in _offsets_by_tasklet(pattern):
                runs = merged.setdefault(tasklet, [])
                for first, last, count in _chains(offsets, period, rounds):
                    first += start
                    if runs and first - runs[-1][1] - 1 <= CHROME_BAND_GAP:
                        prev_first, _prev_last, prev_count = runs[-1]
                        runs[-1] = (prev_first, start + last, prev_count + count)
                    else:
                        runs.append((first, start + last, count))
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

        Each DMA block is charged to the inter-issue gap it occupies (a
        blocked tasklet cannot issue, so every block falls entirely
        inside one gap). A segment's DMA-free gaps repeat every round
        and are summed per round in closed form, with the same float
        result as adding them one gap at a time. Purely derived —
        calling this never changes the trace.
        """
        if revolve_cycles <= 0:
            raise ParameterError(
                f"revolve_cycles must be positive: {revolve_cycles}"
            )
        pieces: dict = defaultdict(list)
        grouped: dict = {}  # patterns are stored once: group each once
        for start, period, rounds, pattern in self.segments:
            by_tasklet = grouped.get(id(pattern))
            if by_tasklet is None:
                by_tasklet = grouped[id(pattern)] = _offsets_by_tasklet(pattern)
            for tasklet, offsets in by_tasklet:
                pieces[tasklet].append((start, period, rounds, offsets))
        blocks: dict = defaultdict(list)
        for tasklet, request, _start, end, _n in self.dmas:
            blocks[tasklet].append((request, end))
        charges: dict = {}
        return {
            tasklet: _activity(
                pieces[tasklet],
                blocks[tasklet],
                float(revolve_cycles - 1),
                total_cycles,
                charges,
            )
            for tasklet in sorted(set(pieces) | set(blocks))
        }


def _pattern_runs(pattern) -> list:
    """A pattern's issues as (tasklet, first, last, count) offset runs."""
    runs = []
    for offset, tasklet in pattern:
        if runs and runs[-1][0] == tasklet and runs[-1][2] == offset - 1:
            runs[-1] = (tasklet, runs[-1][1], offset, runs[-1][3] + 1)
        else:
            runs.append((tasklet, offset, offset, 1))
    return runs


def _offsets_by_tasklet(pattern) -> list:
    """``[(tasklet, offsets)]`` in order of each tasklet's first issue."""
    grouped: dict = {}
    for offset, tasklet in pattern:
        grouped.setdefault(tasklet, []).append(offset)
    return [(tasklet, tuple(offsets)) for tasklet, offsets in grouped.items()]


def _chains(offsets, period: int, rounds: int) -> list:
    """One tasklet's issues in a segment, split at gaps over the band.

    Returns ``(first, last, count)`` offset runs from the segment start
    in which consecutive issues are at most :data:`CHROME_BAND_GAP`
    cycles apart. When no gap of a round (the wrap into the next round
    included) exceeds the band, the segment is one chain.
    """
    wrap = period - offsets[-1] + offsets[0] - 1
    gaps = [b - a - 1 for a, b in zip(offsets, offsets[1:])]
    if rounds > 1:
        gaps.append(wrap)
    if all(gap <= CHROME_BAND_GAP for gap in gaps):
        return [
            (offsets[0], (rounds - 1) * period + offsets[-1], len(offsets) * rounds)
        ]
    chains = []
    for shift in range(0, rounds * period, period):
        for offset in offsets:
            cycle = shift + offset
            if chains and cycle - chains[-1][1] - 1 <= CHROME_BAND_GAP:
                chains[-1] = (chains[-1][0], cycle, chains[-1][2] + 1)
            else:
                chains.append((cycle, cycle, 1))
    return chains


def _activity(
    pieces, blocks, max_stall: float, total_cycles: int, charges: dict
) -> dict:
    """One tasklet's cycle classes (see :meth:`SimTrace.tasklet_activity`).

    ``pieces`` are the tasklet's ``(start, period, rounds, offsets)``
    issue runs, one per segment it issues in; ``blocks`` its DMA
    ``(request, end)`` pairs. The simulator ends a segment at every
    phase change, so each block lies before one piece (or after the
    last) and never between two issues of one piece. ``charges``
    caches each ``(period, offsets)`` shape's per-gap charges.
    """
    dma_blocked = sum(end - request for request, end in blocks)
    if not pieces:
        return {
            "issue": 0,
            "dma_blocked": dma_blocked,
            "revolve_stall": 0.0,
            "dispatch_wait": 0.0,
            "idle": max(0.0, total_cycles - dma_blocked),
        }
    firsts = [start + offsets[0] for start, _, _, offsets in pieces]
    gap_dma = [0.0] * len(pieces)  # index 0: before the first issue
    tail_dma = 0.0
    for request, end in blocks:
        index = bisect.bisect_right(firsts, request)
        if index == len(pieces):
            tail_dma += end - request
        else:
            gap_dma[index] += end - request

    revolve_stall = 0.0
    # Head: no prior issue, so no revolve constraint — any non-DMA wait
    # is lost arbitration.
    dispatch_wait = max(0.0, firsts[0] - gap_dma[0])
    issued = 0
    for index, (start, period, rounds, offsets) in enumerate(pieces):
        issued += rounds * len(offsets)
        if index:
            non_dma = max(0.0, firsts[index] - last - 1 - gap_dma[index])
            stalled = min(non_dma, max_stall)
            revolve_stall += stalled
            dispatch_wait += non_dma - stalled
        # The inner gaps of round 0, then every later round's wrap gap
        # and the same inner gaps: none holds a DMA block.
        shape = charges.get((period, offsets))
        if shape is None:
            inner = [b - a - 1 for a, b in zip(offsets, offsets[1:])]
            wrap = period - offsets[-1] + offsets[0] - 1
            shape = charges[(period, offsets)] = (
                _charge(inner, max_stall),
                _charge([wrap] + inner, max_stall),
            )
        (inner_stalls, inner_waits), (round_stalls, round_waits) = shape
        if inner_stalls:
            revolve_stall = _repeat_add(revolve_stall, inner_stalls, 1)
            dispatch_wait = _repeat_add(dispatch_wait, inner_waits, 1)
        if rounds > 1:
            revolve_stall = _repeat_add(revolve_stall, round_stalls, rounds - 1)
            dispatch_wait = _repeat_add(dispatch_wait, round_waits, rounds - 1)
        last = start + (rounds - 1) * period + offsets[-1]
    return {
        "issue": issued,
        "dma_blocked": dma_blocked,
        "revolve_stall": revolve_stall,
        "dispatch_wait": dispatch_wait,
        "idle": max(0.0, total_cycles - last - 1 - tail_dma),
    }


def _charge(gaps, max_stall: float) -> tuple:
    """DMA-free gaps split into (revolve stalls, dispatch waits)."""
    stalls = [min(float(gap), max_stall) for gap in gaps]
    return stalls, [gap - stalled for gap, stalled in zip(gaps, stalls)]


def _repeat_add(total: float, terms, times: int) -> float:
    """``total`` after adding the integer-valued ``terms``, in order,
    ``times`` over — the float a one-by-one loop gives, in closed form.

    A float sum with a fractional part only rounds where it crosses a
    power of two: inside one binade every partial sum is representable.
    So whole rounds that stay in the current binade are added at once,
    and the one round that crosses it is added term by term.
    """
    per_round = sum(terms)
    while times and per_round:
        if total.is_integer():
            return total + times * per_round  # every partial sum is exact
        bound = math.ldexp(1.0, math.frexp(total)[1])
        whole = min(times, int((bound - total) // per_round))
        while whole and total + whole * per_round >= bound:
            whole -= 1
        total += whole * per_round
        times -= whole
        if times:
            for term in terms:
                total += term
            times -= 1
    return total


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
    """A tasklet's place in its program.

    ``costs`` holds each phase's DMA engine cycles (0.0 for compute),
    priced once per distinct program.
    """

    phases: tuple
    costs: tuple
    phase_index: int = 0
    remaining: int = 0
    blocked_until: float = 0.0
    done: bool = False


class DPUSimulator:
    """Single-DPU simulator that advances to each event in closed form.

    Between events — a phase ending, a DMA completion letting a
    blocked tasklet rejoin, the watchdog limit — the dispatcher's issue
    schedule is periodic. At a decision point :meth:`run` takes the
    *members*, the tasklets with work that can issue within one revolve,
    and finds one period of their schedule:

    * **directly**, with no stepping: members whose offsets
      ``next_issue - clock`` are distinct and non-negative each issue
      exactly when ready, once every ``revolve`` cycles; and at least
      ``revolve`` members that are each ready by their turn in
      round-robin order issue in that order, one per cycle;
    * **verified**: otherwise it steps one period of ``max(members,
      revolve)`` cycles. If every member issued once in it, one per
      cycle, and in each turn no tasklet the round-robin scan meets
      before the turn's owner is ready again (:func:`_repeats`), the
      period repeats. A saturated pipeline can settle into a stable
      order that is not round-robin order, so this check cannot be
      skipped.

    Each member issues once per period. :meth:`run` applies every issue
    before the next event at once — whole rounds and the partial round
    before the event — and steps the event itself. The next event is a
    member's last instruction, a joiner's first issue (the first turn
    it wins, when the period issues in every cycle; else its first
    ready cycle) or the watchdog limit. A traced run records the whole
    rounds as one :class:`SimTrace` segment. Results and traces equal
    the per-instruction stepper's exactly; ``tests/pim/reference_sim.py``
    keeps that stepper as the differential oracle.
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
        the simulated outcome. Issues are recorded as segments — runs
        of whole rounds, and the issues between them — so the trace
        expands to the same events in the same order as stepping each
        instruction would.

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

        costs: dict = {}  # programs are frozen and often shared
        for program in programs:
            if id(program) not in costs:
                costs[id(program)] = self._dma_costs(program)
        states = [_TaskletState(p.phases, costs[id(p)]) for p in programs]
        n = len(states)
        dma_free = [0.0]  # shared engine: time it becomes available
        dma_busy = 0.0
        issued = 0  # instructions of the compute phases finished
        clock = 0
        last_issued = -1  # round-robin pointer
        limit = math.inf if max_cycles is None else max_cycles
        for index, state in enumerate(states):
            dma_busy += _advance_into_phase(state, 0.0, dma_free, index, trace)
        # The loop's per-tasklet state lives in flat lists; the
        # _TaskletState objects hold the phase bookkeeping and are
        # synced only when a tasklet changes phase. A tasklet entering
        # a compute phase gets ``next_issue`` no earlier than its DMA
        # completion, so issuing checks one time, not two.
        remaining = [s.remaining for s in states]
        blocked = [s.blocked_until for s in states]
        next_issue = [math.ceil(until) for until in blocked]
        done = [s.done for s in states]
        # Candidates in round-robin order after each last issuer; the
        # pointer's start value -1 picks the last row, which is 0..n-1.
        order = [list(range(i + 1, n)) + list(range(i + 1)) for i in range(n)]
        # Stuck for good on a zero-instruction compute phase.
        stalled = [i for i in range(n) if not remaining[i] and not done[i]]
        running = n - sum(done)
        # A loop top at or past ``mark`` is a decision point (see the
        # class docstring): it advances in closed form to just before
        # the next event and sets ``mark`` to the event's decision
        # point, or it takes a snapshot and sets ``mark`` one period
        # ahead and sets ``stepping``. A phase end sets ``mark = -1``.
        # ``pending`` holds the issues not yet in a trace segment; from
        # ``snap_index`` on they are the issues stepped since the
        # snapshot. An untraced run empties it at every decision, so it
        # never holds more than a period and the event's steps.
        mark = -1
        stepping = False
        snap_clock = snap_index = 0
        pending = []

        try:
            while running:
                if clock > limit:
                    raise _watchdog(
                        [i for i in range(n) if not done[i]], max_cycles
                    )
                if clock >= mark:
                    horizon = clock + revolve
                    members = [  # in round-robin order
                        i
                        for i in order[last_issued]
                        if remaining[i] and next_issue[i] < horizon
                    ]
                    offsets = [next_issue[i] - clock for i in members]
                    stepped = (  # the issues of a period stepped to ``mark``
                        [i for _, i in pending[snap_index:]]
                        if stepping and clock == mark
                        else ()
                    )
                    # Verified: the period stepped since the snapshot
                    # issued each member once, one per cycle, and repeats.
                    if (
                        members
                        and len(stepped) == clock - snap_clock == len(members)
                        and set(stepped) == set(members)
                        and _repeats(stepped, revolve, n)
                    ):
                        verified = True
                        period = clock - snap_clock
                        pattern = list(enumerate(stepped))
                    # Direct: a saturated pipeline whose members are each
                    # ready by their turn in round-robin order.
                    elif len(members) >= revolve and all(
                        offset <= turn for turn, offset in enumerate(offsets)
                    ):
                        verified = False
                        period = len(members)
                        pattern = list(enumerate(members))
                    # Direct: members that never compete for a cycle.
                    elif (
                        members
                        and min(offsets) >= 0
                        and len(set(offsets)) == len(offsets)
                    ):
                        verified = False
                        period = revolve
                        pattern = sorted(zip(offsets, members))
                    else:  # step one period from a snapshot
                        if trace is None:
                            pending.clear()
                        stepping, snap_index, snap_clock = True, len(pending), clock
                        mark = clock + max(len(members), revolve) if members else -1
                        pattern = None
                    if pattern:
                        # Each member issues once per period. Apply every
                        # issue before the next event: a member's last
                        # instruction, a joiner's first issue or the
                        # watchdog limit.
                        stepping = False
                        if trace is None:
                            pending.clear()
                        stop = clock + min(
                            offset + (remaining[i] - 1) * period
                            for offset, i in pattern
                        )
                        stop = min(stop, limit + 1)
                        mark = stop + 1  # the stepper takes the event
                        full = len(pattern) == period  # an issue every cycle
                        for i, due in enumerate(next_issue):
                            if horizon <= due < stop and remaining[i]:
                                # A joiner: decide again when it issues.
                                if full:
                                    due = _first_turn(pattern, period, clock, i, due, n)
                                if due < stop:
                                    stop = mark = due
                        rounds, cut = divmod(stop - clock, period)
                        start = clock + rounds * period  # the partial round's
                        if rounds:
                            if trace is not None:
                                _record_rounds(
                                    trace, pending, verified, clock, period,
                                    pattern, rounds,
                                )
                            for offset, i in pattern:
                                remaining[i] -= rounds
                                next_issue[i] = start - period + offset + revolve
                            last_issued = pattern[-1][1]
                            clock = start - period + pattern[-1][0] + 1
                        for offset, i in pattern:
                            if offset >= cut:
                                break
                            cycle = start + offset
                            pending.append((cycle, i))
                            remaining[i] -= 1
                            next_issue[i] = cycle + revolve
                            last_issued = i
                            clock = cycle + 1
                        continue
                # Round-robin: the first ready tasklet after the last issuer.
                for choice in order[last_issued]:
                    if next_issue[choice] <= clock and (left := remaining[choice]):
                        left -= 1
                        remaining[choice] = left
                        next_issue[choice] = clock + revolve
                        last_issued = choice
                        pending.append((clock, choice))
                        if not left:
                            state = states[choice]
                            issued += state.phases[state.phase_index].amount
                            state.phase_index += 1
                            dma_busy += _advance_into_phase(
                                state, float(clock + 1), dma_free, choice,
                                trace,
                            )
                            remaining[choice] = state.remaining
                            blocked[choice] = state.blocked_until
                            if state.remaining:
                                next_issue[choice] = max(
                                    clock + revolve, math.ceil(state.blocked_until)
                                )
                            if state.done:
                                done[choice] = True
                                running -= 1
                            elif not state.remaining:
                                stalled.append(choice)
                            # A segment boundary at every phase end: no
                            # DMA block lies between two issues of one
                            # segment.
                            _close_segment(trace, pending, clock + 1)
                            mark = -1
                        clock += 1
                        break
                else:
                    # Nothing issuable: jump to the next event, a
                    # tasklet's next issue or a stalled one's DMA end.
                    upcoming = min(
                        compress(next_issue, remaining), default=math.inf
                    )
                    for i in stalled:
                        if clock < blocked[i] < upcoming:
                            upcoming = blocked[i]
                    if upcoming == math.inf:
                        break  # only stalled tasklets are left
                    clock = max(clock + 1, math.ceil(upcoming))
        finally:
            _close_segment(trace, pending, clock)

        # Account for a trailing DMA that finishes after the last issue.
        trailing = max(blocked, default=0.0)
        total_cycles = max(clock, math.ceil(trailing))
        if max_cycles is not None and total_cycles > max_cycles:
            # Still running past the budget: the tasklet's last issue or
            # its trailing DMA ends after it.
            raise _watchdog(
                [
                    i
                    for i in range(n)
                    if not done[i]
                    or next_issue[i] - revolve >= max_cycles
                    or blocked[i] > max_cycles
                ],
                max_cycles,
            )
        return SimResult(
            cycles=total_cycles,
            instructions_issued=issued,
            dma_busy_cycles=dma_busy,
            tasklets=len(programs),
        )

    def _dma_costs(self, program: TaskletProgram) -> tuple:
        """Each phase's DMA engine cycles (fixed cost + per-byte cost),
        0.0 for a compute phase."""
        fixed = self.config.dma_fixed_cycles
        per_byte = self.config.dma_cycles_per_byte
        return tuple(
            fixed + phase.amount * per_byte if phase.kind == DMA else 0.0
            for phase in program.phases
        )


def _repeats(tasklets: list, revolve: int, n: int) -> bool:
    """Whether ``tasklets`` issuing in turn, one per cycle, is a period
    the dispatcher repeats from the state it leaves.

    In every turn the dispatcher scans round-robin from the previous
    issuer. The turn's owner issued a whole period ago, so it is ready;
    it wins if no tasklet the scan meets first is ready, that is, none
    of them issued ``revolve`` or more cycles before the turn.
    """
    period = len(tasklets)
    turn_of = {tasklet: turn for turn, tasklet in enumerate(tasklets)}
    previous = tasklets[-1]
    for turn, owner in enumerate(tasklets):
        other = (previous + 1) % n
        while other != owner:
            issued = turn_of.get(other)
            if issued is not None and (turn - issued) % period >= revolve:
                return False
            other = (other + 1) % n
        previous = owner
    return True


def _first_turn(pattern, period, clock, tasklet, ready, n) -> int:
    """The first cycle from ``ready`` at which a joining ``tasklet`` wins
    the dispatcher, in a schedule that issues ``pattern`` from ``clock``
    in every cycle.

    In each turn the dispatcher scans round-robin from the previous
    issuer and meets the turn's owner first, so the joiner wins the
    first turn whose previous issuer it follows before the owner.
    """
    first = math.inf
    previous = pattern[-1][1]
    for offset, owner in pattern:
        if (tasklet - previous - 1) % n < (owner - previous - 1) % n:
            first = min(first, ready + (clock + offset - ready) % period)
        previous = owner
    return first


def _record_rounds(
    trace, pending: list, verified: bool, clock: int, period: int,
    pattern: list, rounds: int,
) -> None:
    """Record ``rounds`` rounds of ``pattern`` from ``clock`` as one
    segment, and leave in ``pending`` the issues it cannot hold.

    The schedule is periodic before ``clock`` too: over the stepped
    period of a verified loop top (pending's last issues), and over as
    many issues before that as follow the pattern. The segment starts at
    the earliest of those, with the pattern rotated to start there; the
    issues of its last, incomplete rotated round stay pending, and the
    pending issues before it close a segment of their own.
    """
    count = len(pattern)
    grid = clock - period if verified else clock  # where round 0 starts
    known = len(pending) - count if verified else len(pending)
    total = (1 + rounds if verified else rounds) * count  # issues from grid
    back = 0
    while back < known:
        late, nth = divmod(back, count)
        offset, tasklet = pattern[count - 1 - nth]
        if pending[known - 1 - back] != (
            grid - (late + 1) * period + offset, tasklet
        ):
            break
        back += 1
    late, nth = divmod(-back, count)  # the first issue's round and turn
    shift = grid + late * period
    rotated = [(shift + offset, i) for offset, i in pattern[nth:]] + [
        (shift + period + offset, i) for offset, i in pattern[:nth]
    ]
    del pending[known - back:]
    _close_segment(trace, pending, rotated[0][0])
    trace.record_segment(rotated[0][0], period, (back + total) // count, rotated)
    left = (back + total) % count
    if left:
        shift = grid + (total // count - 1) * period
        pending.extend((shift + offset, i) for offset, i in pattern[-left:])


def _close_segment(trace, pending: list, end: int) -> None:
    """Record the ``pending`` issues as one segment from the first to
    ``end`` (a traced run) and empty the list."""
    if pending:
        if trace is not None:
            start = pending[0][0]
            trace.record_segment(start, end - start, 1, pending)
        pending.clear()


def _advance_into_phase(
    state: _TaskletState,
    now: float,
    dma_free: list,
    tasklet: int,
    trace: SimTrace | None,
) -> float:
    """Move a tasklet into its next runnable phase.

    Consumes consecutive DMA phases (enqueueing them on the shared
    engine and blocking the tasklet) until a compute phase or the
    program's end is reached. Returns the DMA busy time added.
    """
    busy_added = 0.0
    phases = state.phases
    while True:
        index = state.phase_index
        if index == len(phases):
            state.done = True
            state.remaining = 0
            return busy_added
        phase = phases[index]
        if phase.kind == COMPUTE:
            state.remaining = phase.amount
            return busy_added
        # DMA phase: serialize on the shared engine. The tasklet
        # requests the transfer as soon as it is unblocked; the engine
        # starts it when free — the difference is queue wait.
        cost = state.costs[index]
        request = max(now, state.blocked_until)
        start = max(request, dma_free[0])
        completion = start + cost
        dma_free[0] = completion
        state.blocked_until = completion
        busy_added += cost
        if trace is not None:
            trace.record_dma(tasklet, request, start, completion, phase.amount)
        state.phase_index = index + 1
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
    if tasklets <= 0:
        raise ParameterError(f"tasklets must be positive: {tasklets}")
    out_bytes = _kernel_out_bytes(kernel)
    programs = streaming_programs(
        n_elements,
        tasklets,
        kernel.cycles_per_element(),
        kernel.mram_bytes_per_element() - out_bytes,
        out_bytes,
        block_elements,
    )
    return DPUSimulator(config).run(programs, trace=trace)


def _kernel_out_bytes(kernel) -> int:
    return min(result_bytes(kernel), kernel.mram_bytes_per_element())
