"""Round-skipping simulator against the per-instruction stepper.

:class:`repro.pim.sim.DPUSimulator` advances whole round-robin periods
in closed form; :class:`tests.pim.reference_sim.ReferenceDPUSimulator`
is the one-instruction-per-iteration loop it replaced. Both must agree
exactly on the :class:`~repro.pim.sim.SimResult`, on every traced issue
and DMA transfer, and on the watchdog's abort message — including
programs with zero-length phases (a zero-instruction compute phase
stalls its tasklet for good) and budgets that cut a skippable stretch
short. The segment trace's readers must give what the per-issue
:class:`tests.pim.reference_sim.ReferenceSimTrace` gives, float for
float.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TransientDeviceError
from repro.pim.config import UPMEMConfig
from repro.pim.sim import (
    DPUSimulator,
    Phase,
    SimResult,
    SimTrace,
    TaskletProgram,
    _repeat_add,
)
from tests.pim.reference_sim import ReferenceDPUSimulator, ReferenceSimTrace

CFG = UPMEMConfig()


def _outcome(simulator, programs, max_cycles, trace):
    """Everything a run exposes: its result or abort, and its trace."""
    try:
        result = simulator.run(programs, trace=trace, max_cycles=max_cycles)
    except TransientDeviceError as exc:
        result = str(exc)
    return result, trace.issues, trace.dmas


def _readers(trace, total_cycles):
    """What the profiler and the exporters read from a trace."""
    return (
        trace.tasklet_activity(CFG.pipeline_revolve_cycles, total_cycles),
        trace.issue_segments(),
        trace.events(),
        trace.queue_waits(),
        trace.to_chrome_trace(),
    )


def _program(*phases) -> TaskletProgram:
    return TaskletProgram(tuple(Phase(kind, amount) for kind, amount in phases))


phases = st.one_of(
    st.builds(
        Phase,
        st.just("compute"),
        st.one_of(st.integers(1, 600), st.integers(0, 40)),
    ),
    st.builds(
        Phase, st.just("dma"), st.one_of(st.just(0), st.integers(0, 4096))
    ),
)
programs = st.builds(tuple, st.lists(phases, max_size=5)).map(TaskletProgram)
shared = st.builds(
    lambda program, count: [program] * count,
    programs,
    st.integers(1, CFG.max_tasklets),
)
distinct = st.lists(programs, min_size=1, max_size=CFG.max_tasklets)

#: Twelve compute tasklets saturate the pipeline; three more rejoin
#: from DMAs of different lengths in the middle of their phases.
STAGGERED = [_program(("compute", 400))] * 12 + [
    _program(("dma", size), ("compute", 300), ("dma", 64))
    for size in (100, 900, 2000)
]

#: Thirteen tasklets rejoin from DMAs of fractional cycles, so their
#: dispatch-wait sums carry a fraction across power-of-two boundaries:
#: adding a skipped run's gaps all at once rounds differently here than
#: adding them one at a time.
FRACTIONAL = [_program(("dma", 220), ("compute", 2431))] * 13


class TestRoundSkippingMatchesTheStepper:
    @settings(max_examples=150, deadline=None)
    @given(
        tasklet_programs=st.one_of(shared, distinct),
        max_cycles=st.one_of(st.none(), st.integers(1, 40_000)),
    )
    @example(tasklet_programs=STAGGERED, max_cycles=None)
    @example(tasklet_programs=STAGGERED, max_cycles=2_000)
    @example(
        tasklet_programs=[_program(("compute", 500))] * 4, max_cycles=3_000
    )
    @example(
        tasklet_programs=[_program(("compute", 1), ("dma", 2048))],
        max_cycles=10,
    )
    @example(tasklet_programs=FRACTIONAL, max_cycles=None)
    def test_results_traces_and_aborts_are_identical(
        self, tasklet_programs, max_cycles
    ):
        segments, reference = SimTrace(), ReferenceSimTrace()
        outcome = _outcome(
            DPUSimulator(CFG), tasklet_programs, max_cycles, segments
        )
        assert outcome == _outcome(
            ReferenceDPUSimulator(CFG), tasklet_programs, max_cycles, reference
        )
        result = outcome[0]
        total = result.cycles if isinstance(result, SimResult) else max_cycles
        assert _readers(segments, total) == _readers(reference, total)

    def test_long_phases_run_in_closed_form(self):
        """A million instructions per tasklet: stepping each one would
        take minutes; skipping rounds leaves a few periods per phase.

        Round-robin issue ends with the last tasklet's last instruction:
        one cycle per instruction when saturated, one revolve per
        instruction plus the tasklet's slot otherwise.
        """
        count, revolve = 1_000_000, CFG.pipeline_revolve_cycles
        for tasklets in (4, 11, 16):
            result = DPUSimulator(CFG).run(
                [_program(("compute", count))] * tasklets
            )
            assert result.instructions_issued == tasklets * count
            assert result.cycles == max(
                tasklets * count, revolve * (count - 1) + tasklets
            )


class TestRepeatAdd:
    @settings(max_examples=200, deadline=None)
    @given(
        total=st.one_of(
            st.integers(0, 10**6).map(float),
            # DMA costs in cycles: fractions with a full mantissa.
            st.integers(0, 10**6).map(lambda n: n * CFG.dma_cycles_per_byte),
        ),
        terms=st.lists(st.integers(0, 30).map(float), max_size=4),
        times=st.integers(0, 3000),
    )
    def test_matches_adding_one_term_at_a_time(self, total, terms, times):
        expected = total
        for _ in range(times):
            for term in terms:
                expected += term
        assert _repeat_add(total, terms, times) == expected
