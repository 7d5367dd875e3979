"""Per-instruction DPU simulator: the differential oracle for ``repro.pim.sim``.

One Python iteration per issued instruction: find the ready tasklets,
pick the round-robin winner, issue, and jump the clock over idle
stretches. This is the loop :class:`repro.pim.sim.DPUSimulator`
replaces with whole-round skipping. It is a test oracle only;
production code never calls it.
"""

from __future__ import annotations

from repro.errors import ParameterError, TransientDeviceError
from repro.pim.config import UPMEMConfig
from repro.pim.sim import COMPUTE, SimResult, SimTrace, _TaskletState


class ReferenceDPUSimulator:
    """Single-DPU simulator stepping one issued instruction at a time."""

    def __init__(self, config: UPMEMConfig | None = None):
        self.config = config if config is not None else UPMEMConfig()

    def run(
        self,
        programs,
        trace: SimTrace | None = None,
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
