"""Pipeline profiler: occupancy, contention, verdicts, cross-check."""

import pytest

from repro.errors import ModelValidationError, ParameterError
from repro.obs.profile import (
    DEFAULT_TOLERANCE,
    VERDICT_DISPATCH_STARVED,
    VERDICT_DMA_BOUND,
    VERDICT_PIPELINE_BOUND,
    classify_bottleneck,
    kernel_from_spec,
    profile_experiment,
    profile_kernel,
    profile_programs,
    render_profile_text,
    render_profiles_text,
)
from repro.pim.config import UPMEMConfig
from repro.pim.runtime import LoadBalance
from repro.pim.sim import Phase, TaskletProgram

CFG = UPMEMConfig()


def compute_programs(instructions: int, tasklets: int) -> list:
    return [TaskletProgram((Phase("compute", instructions),))] * tasklets


class TestClassifyBottleneck:
    def test_saturated_compute_is_pipeline_bound(self):
        assert (
            classify_bottleneck([100] * 16, 11, analytic_dma=0.0)
            == VERDICT_PIPELINE_BOUND
        )

    def test_few_tasklets_are_dispatch_starved(self):
        assert (
            classify_bottleneck([100] * 2, 11, analytic_dma=0.0)
            == VERDICT_DISPATCH_STARVED
        )

    def test_heavy_dma_wins(self):
        assert (
            classify_bottleneck([100] * 16, 11, analytic_dma=1e9)
            == VERDICT_DMA_BOUND
        )

    def test_exactly_revolve_tasklets_saturate(self):
        assert (
            classify_bottleneck([100] * 11, 11, analytic_dma=0.0)
            == VERDICT_PIPELINE_BOUND
        )

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            classify_bottleneck([], 11, 0.0)


class TestProfilePrograms:
    def test_pure_compute_profile(self):
        profile = profile_programs(
            compute_programs(200, 16), config=CFG, label="pure"
        )
        assert profile.verdict == VERDICT_PIPELINE_BOUND
        assert profile.instructions_issued == 200 * 16
        assert abs(profile.model_error) < 0.01
        assert len(profile.occupancy) == 16
        assert profile.dma.n_transfers == 0
        assert profile.dma.busy_fraction == 0.0

    def test_occupancy_partitions_all_cycles(self):
        programs = [
            TaskletProgram(
                (Phase("dma", 256), Phase("compute", 120), Phase("dma", 64))
            )
        ] * 8
        profile = profile_programs(programs, config=CFG, check=False)
        for occ in profile.occupancy:
            total = (
                occ.instructions
                + occ.dma_blocked_cycles
                + occ.revolve_stall_cycles
                + occ.dispatch_wait_cycles
                + occ.idle_cycles
            )
            assert total == pytest.approx(profile.simulated_cycles, abs=1.5)
            assert 0.0 <= occ.occupancy <= 1.0

    def test_cross_check_raises_on_disagreement(self):
        """A tolerance tighter than the scheduling noise trips the
        model-validation guard — the raise path, exercised."""
        programs = [
            TaskletProgram(
                (Phase("dma", 2048), Phase("compute", 50), Phase("dma", 2048))
            )
        ] * 8
        with pytest.raises(ModelValidationError, match="disagrees"):
            profile_programs(programs, config=CFG, tolerance=1e-6)

    def test_check_false_never_raises(self):
        programs = [
            TaskletProgram(
                (Phase("dma", 2048), Phase("compute", 50), Phase("dma", 2048))
            )
        ] * 8
        profile = profile_programs(
            programs, config=CFG, tolerance=1e-6, check=False
        )
        assert profile.model_error != 0.0

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ParameterError):
            profile_programs(compute_programs(10, 2), tolerance=0.0)

    def test_queue_wait_histogram_counts_every_transfer(self):
        programs = [TaskletProgram((Phase("dma", 1024),))] * 6
        profile = profile_programs(programs, config=CFG, check=False)
        histogram = profile.dma.wait_histogram()
        assert sum(count for _, count in histogram) == 6
        # Six transfers racing one engine: five wait, one goes first.
        assert profile.dma.max_queue_wait > 0.0
        assert min(profile.dma.queue_waits) == 0.0


class TestProfileKernel:
    def test_vecmul_128bit_pipeline_bound_within_5pct(self):
        """The ISSUE's acceptance bar: the 128-bit multiply kernel is
        pipeline-bound and the simulation lands within 5% of the
        analytic bound."""
        profile = profile_kernel(
            kernel_from_spec("vec_mul:128"), n_elements=256, tasklets=16
        )
        assert profile.verdict == VERDICT_PIPELINE_BOUND
        assert abs(profile.model_error) < 0.05
        assert profile.issue_utilization > 0.95

    def test_vecadd_is_dma_bound(self):
        profile = profile_kernel(
            kernel_from_spec("vec_add:128"), n_elements=256, tasklets=16
        )
        assert profile.verdict == VERDICT_DMA_BOUND
        assert profile.dma.busy_fraction > 0.9

    def test_two_tasklets_dispatch_starved(self):
        profile = profile_kernel(
            kernel_from_spec("vec_mul:128"), n_elements=64, tasklets=2
        )
        assert profile.verdict == VERDICT_DISPATCH_STARVED

    def test_work_units_attach_load_balance(self):
        profile = profile_kernel(
            kernel_from_spec("vec_mul:128"),
            n_elements=256,
            tasklets=16,
            work_units=640,
        )
        assert profile.load is not None
        assert profile.load.dpus_engaged == 640
        assert profile.load.idle_dpus == CFG.n_dpus - 640
        assert profile.load.ranks_engaged == 10

    def test_validation(self):
        kernel = kernel_from_spec("vec_mul:128")
        with pytest.raises(ParameterError):
            profile_kernel(kernel, n_elements=0)
        with pytest.raises(ParameterError):
            profile_kernel(kernel, n_elements=10, tasklets=0)


class TestTraceSize:
    def test_multiply_trace_grows_with_events_not_instructions(self):
        """tensor_mul at 1,024 elements issues 15.2 M instructions. Its
        trace keeps segments of whole rounds and of the issues between
        them: no more segments than DMA transfers plus phase changes,
        and no per-issue records at all."""
        from repro.pim.kernels import TensorMulKernel

        profile = profile_kernel(TensorMulKernel(4), 1024)
        trace = profile.trace
        assert profile.instructions_issued == 15_177_280
        assert profile.instructions_issued == sum(
            rounds * len(pattern) for _, _, rounds, pattern in trace.segments
        )
        # 64 elements per tasklet stream as one block: DMA in, compute,
        # DMA out.
        phase_changes = 3 * profile.tasklets
        assert len(trace.dmas) == 2 * profile.tasklets
        assert len(trace.segments) <= len(trace.dmas) + phase_changes
        assert sum(len(pattern) for pattern in trace._patterns) <= (
            CFG.max_tasklets * len(trace.segments)
        )

    def test_streaming_trace_grows_with_events_not_instructions(self):
        """vec_add at 65,536 elements streams 64 blocks through each of
        16 tasklets: 2,048 DMA transfers and 1,024 compute-phase ends
        for 1.1 M instructions. Each event costs at most one segment."""
        profile = profile_kernel(kernel_from_spec("vec_add:128"), 65536)
        trace = profile.trace
        blocks = 65536 // profile.tasklets // 64
        assert profile.tasklets == 16 and blocks == 64
        assert profile.instructions_issued == sum(
            rounds * len(pattern) for _, _, rounds, pattern in trace.segments
        )
        phase_changes = profile.tasklets * blocks  # compute phases ended
        assert len(trace.dmas) == 2 * profile.tasklets * blocks
        assert len(trace.segments) <= len(trace.dmas) + phase_changes


class TestKernelSpecs:
    def test_default_width_is_128_bit(self):
        kernel = kernel_from_spec("vec_mul")
        assert kernel.limbs == 4

    @pytest.mark.parametrize(
        "spec,name",
        [
            ("vec_add:64", "vec_add"),
            ("vec_mul:32", "vec_mul"),
            ("tensor_mul:128", "tensor_mul"),
            ("reduce_sum:64", "reduce_sum"),
        ],
    )
    def test_all_kernels_constructible(self, spec, name):
        assert kernel_from_spec(spec).name == name

    @pytest.mark.parametrize(
        "spec", ["nope:128", "vec_mul:banana", "vec_mul:48", "vec_mul:0"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ParameterError):
            kernel_from_spec(spec)


class TestLoadBalance:
    def test_even_distribution(self):
        load = LoadBalance.from_distribution(
            n_elements=1280, work_units=1280, dpus=640, config=CFG
        )
        assert load.min_elements == load.max_elements == 2
        assert load.imbalance == pytest.approx(1.0)

    def test_uneven_units_show_imbalance(self):
        load = LoadBalance.from_distribution(
            n_elements=650, work_units=650, dpus=640, config=CFG
        )
        assert load.max_elements == 2
        assert load.min_elements == 1
        assert load.imbalance > 1.0

    def test_rank_count(self):
        load = LoadBalance.from_distribution(
            n_elements=100, work_units=100, dpus=100, config=CFG
        )
        assert load.ranks_engaged == 2  # 100 DPUs over 64-DPU ranks

    def test_validation(self):
        with pytest.raises(ParameterError):
            LoadBalance.from_distribution(0, 1, 1, CFG)
        with pytest.raises(ParameterError):
            LoadBalance.from_distribution(10, 10, 0, CFG)


class TestProfileExperiment:
    def test_fig1a_profiles_every_launch_shape(self):
        spans, profiles = profile_experiment("fig1a", max_elements=128)
        assert profiles, "fig1a launches PIM kernels"
        assert any(s.name == "experiment.fig1a" for s in spans)
        for profile in profiles:
            assert profile.kernel_name == "vec_add"
            assert profile.verdict == VERDICT_DMA_BOUND
            assert abs(profile.model_error) <= DEFAULT_TOLERANCE
            assert profile.n_elements <= 128
            assert profile.subsampled  # fig1a shares are way above 128
            assert profile.load is not None
            assert profile.load.dpus_engaged == CFG.n_dpus

    def test_max_elements_validated(self):
        with pytest.raises(ParameterError):
            profile_experiment("fig1a", max_elements=0)


class TestRendering:
    def _profile(self):
        return profile_kernel(
            kernel_from_spec("vec_mul:128"), n_elements=64, tasklets=16
        )

    def test_text_report_contents(self):
        text = render_profile_text(self._profile())
        assert "verdict: pipeline-bound" in text
        assert "issue utilization" in text
        assert "dma engine" in text
        assert "t15" in text  # one row per tasklet

    def test_multi_profile_report(self):
        text = render_profiles_text(
            [self._profile()], header="pipeline profile"
        )
        assert text.startswith("pipeline profile")

    def test_empty_report_says_so(self):
        assert "no PIM kernel launches" in render_profiles_text([])
