"""Round-skipping simulator against the per-instruction stepper.

:class:`repro.pim.sim.DPUSimulator` advances whole round-robin periods
in closed form; :class:`tests.pim.reference_sim.ReferenceDPUSimulator`
is the one-instruction-per-iteration loop it replaced. Both must agree
exactly on the :class:`~repro.pim.sim.SimResult`, on every traced issue
and DMA transfer, and on the watchdog's abort message — including
programs with zero-length phases (a zero-instruction compute phase
stalls its tasklet for good) and budgets that cut a skippable stretch
short.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TransientDeviceError
from repro.pim.config import UPMEMConfig
from repro.pim.sim import DPUSimulator, Phase, SimTrace, TaskletProgram
from tests.pim.reference_sim import ReferenceDPUSimulator

CFG = UPMEMConfig()


def _outcome(simulator, programs, max_cycles):
    """Everything a run exposes: its result or abort, and its trace."""
    trace = SimTrace()
    try:
        result = simulator.run(programs, trace=trace, max_cycles=max_cycles)
    except TransientDeviceError as exc:
        result = str(exc)
    return result, trace.issues, trace.dmas


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
    def test_results_traces_and_aborts_are_identical(
        self, tasklet_programs, max_cycles
    ):
        assert _outcome(
            DPUSimulator(CFG), tasklet_programs, max_cycles
        ) == _outcome(ReferenceDPUSimulator(CFG), tasklet_programs, max_cycles)

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
