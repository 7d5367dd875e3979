"""Cycle-level DPU simulator: regimes, invariants, model validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.pim.config import UPMEMConfig
from repro.pim.dma import dma_cycles
from repro.pim.kernels import VecAddKernel, VecMulKernel
from repro.pim.sim import (
    DPUSimulator,
    Phase,
    TaskletProgram,
    simulate_kernel,
    streaming_programs,
)
from repro.pim.tasklet import pipeline_cycles
from repro.poly.modring import find_ntt_prime

CFG = UPMEMConfig()


def compute_program(instructions: int) -> TaskletProgram:
    return TaskletProgram((Phase("compute", instructions),))


class TestPureComputeRegimes:
    def test_single_tasklet_revolve_bound(self):
        result = DPUSimulator(CFG).run([compute_program(100)])
        # Last instruction needs no trailing revolve wait: 99*11 + 1.
        assert result.cycles == 99 * 11 + 1

    def test_eleven_tasklets_saturate(self):
        result = DPUSimulator(CFG).run([compute_program(100)] * 11)
        assert result.cycles == pytest.approx(1100, abs=11)
        assert result.issue_utilization == pytest.approx(1.0, abs=0.01)

    def test_sixteen_tasklets_dispatch_limited(self):
        result = DPUSimulator(CFG).run([compute_program(100)] * 16)
        assert result.cycles == 1600
        assert result.issue_utilization == 1.0

    @given(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=500))
    @settings(max_examples=25)
    def test_matches_analytic_pipeline_bound(self, tasklets, instructions):
        """Pure compute: simulation within one revolve period of the
        closed form, for every (tasklets, length) combination."""
        result = DPUSimulator(CFG).run(
            [compute_program(instructions)] * tasklets
        )
        analytic = pipeline_cycles([instructions] * tasklets)
        assert analytic - 11 <= result.cycles <= analytic + 11

    def test_all_instructions_issued(self):
        result = DPUSimulator(CFG).run([compute_program(37)] * 5)
        assert result.instructions_issued == 5 * 37


class TestPureDMARegimes:
    def test_single_transfer_cost(self):
        result = DPUSimulator(CFG).run(
            [TaskletProgram((Phase("dma", 2048),))]
        )
        assert result.cycles == pytest.approx(dma_cycles(2048, CFG), abs=2)

    def test_transfers_serialize_on_shared_engine(self):
        one = DPUSimulator(CFG).run([TaskletProgram((Phase("dma", 2048),))])
        four = DPUSimulator(CFG).run(
            [TaskletProgram((Phase("dma", 2048),))] * 4
        )
        assert four.cycles == pytest.approx(4 * one.cycles, rel=0.01)

    def test_dma_utilization_full_when_dma_only(self):
        result = DPUSimulator(CFG).run(
            [TaskletProgram((Phase("dma", 1024),))] * 3
        )
        assert result.dma_utilization == pytest.approx(1.0, abs=0.02)


class TestMixedRegimes:
    def test_compute_hides_dma_when_saturated(self):
        """With many tasklets and compute-heavy phases, total time is
        near the pure-compute bound: DMA hides behind the pipeline."""
        heavy = TaskletProgram(
            (Phase("dma", 64), Phase("compute", 5000), Phase("dma", 64))
        )
        result = DPUSimulator(CFG).run([heavy] * 16)
        compute_bound = pipeline_cycles([5000] * 16)
        assert result.cycles <= compute_bound * 1.05

    def test_dma_dominates_when_thin_compute(self):
        thin = TaskletProgram(
            (Phase("dma", 2048), Phase("compute", 10), Phase("dma", 2048))
        )
        result = DPUSimulator(CFG).run([thin] * 8)
        dma_bound = dma_cycles(8 * 4096, CFG)
        assert result.cycles >= dma_bound * 0.95

    def test_cycles_bounded_by_sum_and_max(self):
        """Sanity bracket: max(compute, dma) <= sim <= compute + dma."""
        program = TaskletProgram(
            (Phase("dma", 512), Phase("compute", 800), Phase("dma", 256))
        )
        result = DPUSimulator(CFG).run([program] * 12)
        compute = pipeline_cycles([800] * 12)
        dma = dma_cycles(12 * 768, CFG)
        assert result.cycles >= max(compute, dma) * 0.99
        assert result.cycles <= compute + dma


class TestStreamingPrograms:
    def test_phase_structure(self):
        program = TaskletProgram.streaming(
            100, 10.0, in_bytes_per_element=8, out_bytes_per_element=4,
            block_elements=32,
        )
        kinds = [p.kind for p in program.phases]
        assert kinds[:3] == ["dma", "compute", "dma"]
        assert program.total_dma_bytes == 100 * 12
        assert program.total_instructions == pytest.approx(1000, abs=4)

    def test_full_blocks_share_their_phases(self):
        program = TaskletProgram.streaming(100, 2.5, 8, 4, 32)
        assert program.phases == (
            Phase("dma", 256), Phase("compute", 80), Phase("dma", 128)
        ) * 3 + (Phase("dma", 32), Phase("compute", 10), Phase("dma", 16))
        first, second = program.phases[:3], program.phases[3:6]
        assert all(a is b for a, b in zip(first, second))

    def test_one_program_per_share_size(self):
        programs = streaming_programs(100, 16, 2.5, 8, 4, 32)
        assert len(programs) == 16
        assert [p.total_instructions for p in programs] == [18] * 4 + [15] * 12
        assert len({id(p) for p in programs}) == 2
        assert programs[0] == TaskletProgram.streaming(7, 2.5, 8, 4, 32)
        # Tasklets left without work get no program.
        assert len(streaming_programs(3, 16, 2.5, 8, 4, 32)) == 3

    def test_zero_output_streams_skip_dma(self):
        program = TaskletProgram.streaming(10, 5.0, 16, 0, 10)
        assert [p.kind for p in program.phases] == ["dma", "compute"]

    def test_validation(self):
        with pytest.raises(ParameterError):
            TaskletProgram.streaming(-1, 1.0, 1, 1, 10)
        with pytest.raises(ParameterError):
            Phase("io", 1)
        with pytest.raises(ParameterError):
            Phase("compute", -1)


class TestModelValidation:
    """The headline: the analytic runtime model tracks the simulation."""

    @pytest.mark.parametrize(
        "kernel,n_elements,tolerance",
        [
            (VecMulKernel(4), 512, 0.02),  # compute-bound: tight
            (VecAddKernel(4, find_ntt_prime(109, 4096)), 4096, 0.10),
        ],
    )
    def test_sixteen_tasklet_operating_point(
        self, kernel, n_elements, tolerance
    ):
        from repro.pim.tasklet import split_evenly

        sim = simulate_kernel(kernel, n_elements, tasklets=16, config=CFG)
        cpe = kernel.cycles_per_element()
        compute = pipeline_cycles(
            [round(s * cpe) for s in split_evenly(n_elements, 16)]
        )
        dma = dma_cycles(n_elements * kernel.mram_bytes_per_element(), CFG)
        analytic = max(compute, dma)
        assert sim.cycles == pytest.approx(analytic, rel=tolerance)

    def test_analytic_never_overestimates_much(self):
        """The closed form is optimistic (perfect overlap); simulation
        must never come in *below* it by more than scheduling noise."""
        kernel = VecAddKernel(2, find_ntt_prime(54, 2048))
        from repro.pim.tasklet import split_evenly

        for tasklets in (4, 8, 16):
            sim = simulate_kernel(kernel, 2048, tasklets, CFG)
            cpe = kernel.cycles_per_element()
            compute = pipeline_cycles(
                [round(s * cpe) for s in split_evenly(2048, tasklets)]
            )
            dma = dma_cycles(2048 * kernel.mram_bytes_per_element(), CFG)
            assert sim.cycles >= max(compute, dma) * 0.98

    def test_experiment_rows(self):
        from repro.harness.experiments import get_experiment

        rows = get_experiment("ext_sim_validation").run()
        assert len(rows) == 8
        for row in rows:
            # Analytic model within 20% everywhere, within 1% for the
            # compute-bound multiply kernels at saturation.
            assert abs(row.series["error %"]) < 20.0
        mul_16 = next(
            r for r in rows if r.label == "vec_mul 128-bit, 16 tasklets"
        )
        assert abs(mul_16.series["error %"]) < 1.0


class TestValidationErrors:
    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            DPUSimulator(CFG).run([])

    def test_too_many_tasklets_rejected(self):
        with pytest.raises(ParameterError):
            DPUSimulator(CFG).run([compute_program(1)] * 25)

    def test_simulate_kernel_validates_tasklets(self):
        with pytest.raises(ParameterError):
            simulate_kernel(VecMulKernel(1), 100, tasklets=0)


class TestSimTrace:
    def _mixed_programs(self):
        program = TaskletProgram(
            (Phase("dma", 256), Phase("compute", 50), Phase("dma", 256))
        )
        return [program] * 4

    def test_trace_records_issues_and_dmas(self):
        from repro.pim.sim import SimTrace

        trace = SimTrace()
        result = DPUSimulator(CFG).run(self._mixed_programs(), trace=trace)
        assert len(trace.issues) == result.instructions_issued
        assert len(trace.dmas) == 4 * 2  # two DMA phases per tasklet
        for tasklet, request, start, end, n_bytes in trace.dmas:
            assert 0 <= tasklet < 4
            assert end > start >= request >= 0.0
            assert n_bytes == 256

    def test_trace_does_not_change_cycles(self):
        from repro.pim.sim import SimTrace

        plain = DPUSimulator(CFG).run(self._mixed_programs())
        traced = DPUSimulator(CFG).run(
            self._mixed_programs(), trace=SimTrace()
        )
        assert traced.cycles == plain.cycles
        assert traced.instructions_issued == plain.instructions_issued

    def test_issue_segments_compact_consecutive_cycles(self):
        from repro.pim.sim import SimTrace

        trace = SimTrace()
        DPUSimulator(CFG).run([compute_program(20)], trace=trace)
        segments = trace.issue_segments()
        assert sum(count for _, _, _, count in segments) == len(trace.issues)
        for tasklet, first, last, count in segments:
            assert last - first + 1 >= count  # cycles cover the issues

    def test_events_are_jsonable_records(self):
        import json

        from repro.pim.sim import SimTrace

        trace = SimTrace()
        DPUSimulator(CFG).run(self._mixed_programs(), trace=trace)
        events = trace.events()
        json.dumps(events)  # must not raise
        kinds = {e["kind"] for e in events}
        assert kinds == {"issue", "dma"}

    def test_chrome_export_valid_and_has_tasklet_rows(self):
        from repro.obs.export import validate_chrome_trace
        from repro.pim.sim import SimTrace

        trace = SimTrace()
        DPUSimulator(CFG).run(self._mixed_programs(), trace=trace)
        document = trace.to_chrome_trace()
        validate_chrome_trace(document)
        names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "dma engine" in names
        assert any(name.startswith("tasklet") for name in names)

    def test_simulate_kernel_accepts_trace(self):
        from repro.pim.sim import SimTrace

        trace = SimTrace()
        simulate_kernel(
            VecAddKernel(4, find_ntt_prime(109, 4096)), 1024, tasklets=4, trace=trace
        )
        assert trace.issues
        assert trace.dmas

    def test_chrome_export_coalescing_shrinks_saturated_interleaves(self):
        """A saturated interleave has one raw issue segment per
        instruction; the export's banding must collapse that to one
        event per tasklet while preserving the instruction total."""
        from repro.obs.export import validate_chrome_trace
        from repro.pim.sim import SimTrace

        trace = SimTrace()
        DPUSimulator(CFG).run([compute_program(200)] * 16, trace=trace)
        raw = trace.issue_segments()
        banded = trace.to_chrome_trace()
        validate_chrome_trace(banded)
        banded_issues = [
            e for e in banded["traceEvents"] if e.get("cat") == "pipeline"
        ]
        assert len(raw) == 16 * 200  # one segment per instruction
        assert len(banded_issues) == 16  # one band per tasklet
        assert sum(e["args"]["instructions"] for e in banded_issues) == sum(
            count for _tasklet, _first, _last, count in raw
        )

    def test_chrome_export_coalescing_keeps_dma_breaks(self):
        """Banding must not bridge a real DMA block: a 2 KB transfer
        stalls its tasklet for ~1100 cycles, far beyond the gap."""
        from repro.pim.sim import SimTrace

        trace = SimTrace()
        DPUSimulator(CFG).run(
            [
                TaskletProgram(
                    (Phase("compute", 50), Phase("dma", 2048), Phase("compute", 50))
                )
            ],
            trace=trace,
        )
        banded = trace.to_chrome_trace()
        issues = [e for e in banded["traceEvents"] if e.get("cat") == "pipeline"]
        assert len(issues) == 2  # the DMA block splits the bands


class TestTraceEventOrdering:
    def test_issue_cycles_strictly_increase(self):
        """The dispatcher owns one issue slot: recorded issue cycles
        are strictly increasing, with no duplicates."""
        from repro.pim.sim import SimTrace

        trace = SimTrace()
        DPUSimulator(CFG).run(
            [
                TaskletProgram(
                    (Phase("dma", 128), Phase("compute", 64), Phase("dma", 64))
                )
            ]
            * 8,
            trace=trace,
        )
        cycles = [cycle for cycle, _ in trace.issues]
        assert cycles == sorted(cycles)
        assert len(cycles) == len(set(cycles))

    def test_dma_engine_never_overlaps(self):
        """Transfers serialize: in engine-start order, each transfer
        starts no earlier than the previous one ended."""
        from repro.pim.sim import SimTrace

        trace = SimTrace()
        DPUSimulator(CFG).run(
            [TaskletProgram((Phase("dma", 512), Phase("compute", 30)))] * 6,
            trace=trace,
        )
        ordered = sorted(trace.dmas, key=lambda d: d[2])
        for previous, current in zip(ordered, ordered[1:]):
            assert current[2] >= previous[3]  # start >= previous end

    def test_queue_waits_nonnegative_and_match_records(self):
        from repro.pim.sim import SimTrace

        trace = SimTrace()
        DPUSimulator(CFG).run(
            [TaskletProgram((Phase("dma", 1024),))] * 4, trace=trace
        )
        waits = trace.queue_waits()
        assert len(waits) == len(trace.dmas)
        assert all(wait >= 0.0 for wait in waits)
        # Four tasklets racing one engine: only the winner waits zero.
        assert sum(1 for wait in waits if wait > 0) == 3


class TestTaskletActivity:
    def test_partitions_every_cycle(self):
        """issue + dma_blocked + revolve_stall + dispatch_wait + idle
        covers [0, total) exactly, for every tasklet."""
        from repro.pim.sim import SimTrace

        trace = SimTrace()
        programs = [
            TaskletProgram(
                (Phase("dma", 256), Phase("compute", 100), Phase("dma", 128))
            )
        ] * 5
        result = DPUSimulator(CFG).run(programs, trace=trace)
        activity = trace.tasklet_activity(
            CFG.pipeline_revolve_cycles, result.cycles
        )
        assert set(activity) == set(range(5))
        for stats in activity.values():
            total = (
                stats["issue"]
                + stats["dma_blocked"]
                + stats["revolve_stall"]
                + stats["dispatch_wait"]
                + stats["idle"]
            )
            assert total == pytest.approx(result.cycles, abs=1.5)

    def test_single_tasklet_is_pure_revolve_stall(self):
        """One compute-only tasklet: every non-issue cycle is the
        revolve constraint, never dispatch arbitration."""
        from repro.pim.sim import SimTrace

        trace = SimTrace()
        result = DPUSimulator(CFG).run([compute_program(50)], trace=trace)
        stats = trace.tasklet_activity(11, result.cycles)[0]
        assert stats["issue"] == 50
        assert stats["dispatch_wait"] == 0.0
        assert stats["revolve_stall"] == pytest.approx(49 * 10)

    def test_sixteen_tasklets_show_dispatch_wait(self):
        """Above the revolve depth, tasklets lose arbitration: the
        extra wait is dispatch, not the revolve constraint."""
        from repro.pim.sim import SimTrace

        trace = SimTrace()
        result = DPUSimulator(CFG).run([compute_program(100)] * 16, trace=trace)
        activity = trace.tasklet_activity(11, result.cycles)
        assert sum(s["dispatch_wait"] for s in activity.values()) > 0
        for stats in activity.values():
            assert stats["dma_blocked"] == 0.0

    def test_rejects_bad_revolve(self):
        from repro.pim.sim import SimTrace

        with pytest.raises(ParameterError):
            SimTrace().tasklet_activity(0, 100)


class TestAnalyticBoundAgreement:
    """Satellite of the profiler PR: at 1, 8, and 16 tasklets the
    simulated cycle count tracks max(pipeline bound, DMA bound) for
    both paper kernels — the invariant the profiler's cross-check
    enforces at runtime.

    The agreement is regime-dependent and the tolerances record it
    honestly: the compute-bound multiply kernel agrees to ~1% at every
    tasklet count, while the DMA-bound add kernel overshoots the
    optimistic closed form — worst at 8 tasklets, where a tasklet
    blocked on its transfer also shrinks the pipeline's effective
    parallelism below the revolve depth (a convoy the max() of two
    independent rooflines cannot see)."""

    @pytest.mark.parametrize(
        "kernel,n_elements,tolerances",
        [
            (
                VecAddKernel(4, find_ntt_prime(109, 4096)),
                1024,
                {1: 0.20, 8: 0.55, 16: 0.20},
            ),
            (VecMulKernel(4), 128, {1: 0.02, 8: 0.02, 16: 0.02}),
        ],
        ids=["vec_add", "vec_mul"],
    )
    @pytest.mark.parametrize("tasklets", [1, 8, 16])
    def test_sim_tracks_analytic_bound(
        self, kernel, n_elements, tolerances, tasklets
    ):
        from repro.pim.tasklet import split_evenly

        sim = simulate_kernel(kernel, n_elements, tasklets=tasklets, config=CFG)
        cpe = kernel.cycles_per_element()
        compute = pipeline_cycles(
            [round(s * cpe) for s in split_evenly(n_elements, tasklets)],
            CFG.pipeline_revolve_cycles,
        )
        dma = dma_cycles(n_elements * kernel.mram_bytes_per_element(), CFG)
        analytic = max(compute, dma)
        assert sim.cycles == pytest.approx(analytic, rel=tolerances[tasklets])
        # Universal bracket: the closed form is a genuine lower bound
        # (perfect overlap), and compute + dma (no overlap) an upper —
        # modulo the fixed-cost granularity gap (dma_cycles charges one
        # fixed cost per 2 KB transaction, the simulator one per block
        # phase, which can be smaller than 2 KB).
        assert analytic * 0.98 <= sim.cycles <= (compute + dma) * 1.03
