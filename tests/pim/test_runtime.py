"""PIM runtime: work distribution, rooflines, and paper observations."""

import pytest

from repro.errors import DeviceError, ParameterError
from repro.pim.kernels import ReduceSumKernel, VecAddKernel, VecMulKernel
from repro.pim.runtime import PIMRuntime
from repro.poly.modring import find_ntt_prime

Q109 = find_ntt_prime(109, 4096)


@pytest.fixture(scope="module")
def runtime():
    return PIMRuntime()


@pytest.fixture(scope="module")
def add_kernel():
    return VecAddKernel(4, Q109)


@pytest.fixture(scope="module")
def mul_kernel():
    return VecMulKernel(4)


class TestWorkDistribution:
    def test_dpus_bounded_by_work_units(self, runtime):
        assert runtime.dpus_for(100) == 100
        assert runtime.dpus_for(10**6) == runtime.config.n_dpus

    def test_dpus_for_rejects_zero(self, runtime):
        with pytest.raises(ParameterError):
            runtime.dpus_for(0)

    def test_work_units_bound_fanout(self, runtime, add_kernel):
        t = runtime.time_kernel(add_kernel, 8192 * 640, work_units=640)
        assert t.dpus_used == 640

    def test_default_fully_divisible(self, runtime, add_kernel):
        t = runtime.time_kernel(add_kernel, 10_000)
        assert t.dpus_used == runtime.config.n_dpus

    def test_rejects_more_units_than_elements(self, runtime, add_kernel):
        with pytest.raises(ParameterError):
            runtime.time_kernel(add_kernel, 10, work_units=20)


class TestRooflines:
    def test_add_is_dma_bound(self, runtime, add_kernel):
        """Simple adds cannot keep up with the DMA stream — the
        PrIM-style streaming roofline."""
        t = runtime.time_kernel(add_kernel, 20480 * 8192, work_units=20480)
        assert not t.compute_bound

    def test_mul_is_compute_bound(self, runtime, mul_kernel):
        """Software multiplication is two orders of magnitude heavier,
        so the pipeline is the bottleneck."""
        t = runtime.time_kernel(mul_kernel, 20480 * 8192, work_units=20480)
        assert t.compute_bound

    def test_kernel_seconds_is_max_of_rooflines(self, runtime, add_kernel):
        t = runtime.time_kernel(add_kernel, 4096 * 1000, work_units=1000)
        expected = max(t.compute_cycles, t.dma_cycles) / runtime.config.frequency_hz
        assert t.kernel_seconds == pytest.approx(expected)


class TestTaskletSaturation:
    """Observation 1: performance saturates at >= 11 tasklets."""

    def test_mul_saturates_at_eleven(self, runtime, mul_kernel):
        times = {
            t: runtime.time_kernel(
                mul_kernel, 20480 * 8192, work_units=20480, tasklets=t
            ).kernel_seconds
            for t in (1, 4, 8, 11, 16, 24)
        }
        assert times[1] > times[4] > times[8] > times[11] * 1.001
        # Flat beyond 11 (up to <0.01% rounding from uneven splits).
        assert times[16] == pytest.approx(times[11], rel=1e-3)
        assert times[24] == pytest.approx(times[11], rel=1e-3)

    def test_single_tasklet_eleven_times_slower(self, runtime, mul_kernel):
        one = runtime.time_kernel(
            mul_kernel, 20480 * 8192, work_units=20480, tasklets=1
        ).kernel_seconds
        full = runtime.time_kernel(
            mul_kernel, 20480 * 8192, work_units=20480, tasklets=16
        ).kernel_seconds
        assert one / full == pytest.approx(11.0, rel=0.01)


class TestLaunchOverheadAndFlatness:
    def test_launch_overhead_included(self, runtime, add_kernel):
        t = runtime.time_kernel(add_kernel, 8192, work_units=1)
        assert t.launch_seconds == runtime.config.launch_overhead_s

    def test_multiple_launches(self, runtime, add_kernel):
        t = runtime.time_kernel(add_kernel, 8192, work_units=1, launches=5)
        assert t.launch_seconds == pytest.approx(
            5 * runtime.config.launch_overhead_s
        )

    def test_time_flat_across_users(self, runtime):
        """Observation 4: with per-user work units, PIM time stays
        constant as users grow (until the system is full)."""
        kernel = ReduceSumKernel(4, Q109)
        t640 = runtime.time_kernel(kernel, 640 * 8192, work_units=640)
        t1280 = runtime.time_kernel(kernel, 1280 * 8192, work_units=1280)
        t2400 = runtime.time_kernel(kernel, 2400 * 8192, work_units=2400)
        assert t640.total_seconds == pytest.approx(t1280.total_seconds)
        assert t640.total_seconds == pytest.approx(t2400.total_seconds)

    def test_time_grows_once_system_full(self, runtime):
        kernel = ReduceSumKernel(4, Q109)
        fits = runtime.time_kernel(kernel, 2524 * 8192, work_units=2524)
        over = runtime.time_kernel(kernel, 5048 * 8192, work_units=5048)
        assert over.kernel_seconds > fits.kernel_seconds


class TestCapacity:
    def test_mram_overflow_rejected(self, runtime, add_kernel):
        # One DPU asked to hold ~48 GB.
        with pytest.raises(DeviceError):
            runtime.time_kernel(add_kernel, 10**9, work_units=1)

    def test_tasklets_validated(self):
        with pytest.raises(ParameterError):
            PIMRuntime(tasklets=0)
        with pytest.raises(ParameterError):
            PIMRuntime(tasklets=25)

    def test_rejects_zero_elements(self, runtime, add_kernel):
        with pytest.raises(ParameterError):
            runtime.time_kernel(add_kernel, 0)


class TestTransferInclusion:
    def test_transfers_dominate_when_included(self, runtime, add_kernel):
        """The data-residency premise: streaming operands from the host
        costs far more than the kernel itself."""
        resident = runtime.time_kernel(
            add_kernel, 20480 * 8192, work_units=20480
        )
        streaming = runtime.time_kernel(
            add_kernel, 20480 * 8192, work_units=20480, include_transfer=True
        )
        assert streaming.total_seconds > 20 * resident.total_seconds

    def test_transfer_fields_zero_by_default(self, runtime, add_kernel):
        t = runtime.time_kernel(add_kernel, 8192, work_units=1)
        assert t.host_to_dpu_seconds == 0.0
        assert t.dpu_to_host_seconds == 0.0

    def test_describe_mentions_bound(self, runtime, add_kernel):
        t = runtime.time_kernel(add_kernel, 8192 * 100, work_units=100)
        assert "DMA-bound" in t.describe() or "compute-bound" in t.describe()


class TestDescribe:
    def test_resident_run_omits_transfer_lines(self, runtime, add_kernel):
        text = runtime.time_kernel(add_kernel, 8192, work_units=1).describe()
        assert "host->dpu" not in text
        assert "dpu->host" not in text

    def test_transfer_split_reported_separately(self, runtime, add_kernel):
        t = runtime.time_kernel(
            add_kernel, 8192 * 100, work_units=100, include_transfer=True
        )
        text = t.describe()
        assert f"host->dpu {t.host_to_dpu_seconds * 1e3:.3f} ms" in text
        assert f"dpu->host {t.dpu_to_host_seconds * 1e3:.3f} ms" in text
        # The old lumped "transfers" line is gone.
        assert "transfers" not in text

    def test_describe_core_fields(self, runtime, add_kernel):
        t = runtime.time_kernel(add_kernel, 8192 * 64, work_units=64)
        text = t.describe()
        assert text.startswith(f"{t.kernel_name}: {t.total_ms:.3f} ms")
        assert f"{t.dpus_used} DPUs x {t.tasklets_per_dpu} tasklets" in text
        assert f"kernel {t.kernel_seconds * 1e3:.3f} ms" in text
        assert f"launch {t.launch_seconds * 1e3:.3f} ms" in text

    def test_as_attrs_carries_full_breakdown(self, runtime, add_kernel):
        t = runtime.time_kernel(
            add_kernel, 8192 * 100, work_units=100, include_transfer=True
        )
        attrs = t.as_attrs()
        assert attrs["kernel"] == t.kernel_name
        assert attrs["compute_cycles"] == t.compute_cycles
        assert attrs["dma_cycles"] == t.dma_cycles
        assert attrs["host_to_dpu_s"] == t.host_to_dpu_seconds
        assert attrs["dpu_to_host_s"] == t.dpu_to_host_seconds
        assert attrs["modelled_s"] == t.total_seconds
        assert attrs["bound"] in ("compute", "dma")
