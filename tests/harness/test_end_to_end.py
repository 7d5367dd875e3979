"""End-to-end deployment experiment: totals and their ordering."""

import pytest

from repro.harness.experiments import get_experiment


@pytest.fixture(scope="module")
def rows():
    return get_experiment("ext_end_to_end").run()


class TestEndToEnd:
    def test_two_workloads(self, rows):
        assert [row.label for row in rows] == [
            "mean, 2560 users",
            "variance, 2560 users",
        ]

    def test_pim_wins_mean_end_to_end(self, rows):
        """With inputs resident and only one result ciphertext to pull
        back, the addition workload's PIM win survives deployment."""
        mean = rows[0].series
        assert mean["pim"] == min(mean.values())

    def test_gpu_pays_pcie_on_mean(self, rows):
        """The GPU must move every user's ciphertext across PCIe, which
        alone exceeds PIM's entire end-to-end time."""
        mean = rows[0].series
        assert mean["gpu"] > 10 * mean["pim"]

    def test_variance_still_favors_seal_and_gpu(self, rows):
        """Multiplication dominates variance so heavily that even the
        PCIe charge leaves the GPU and SEAL ahead of PIM."""
        variance = rows[1].series
        assert variance["gpu"] < variance["pim"]
        assert variance["cpu-seal"] < variance["pim"]
        assert variance["pim"] < variance["cpu"]

    def test_end_to_end_at_least_device_time(self, rows):
        from repro.workloads.mean import MeanWorkload
        from repro.workloads.variance import VarianceWorkload
        from repro.backends.registry import get_backend

        workloads = (MeanWorkload(n_users=2560), VarianceWorkload(n_users=2560))
        for row, workload in zip(rows, workloads):
            for name in ("pim", "cpu", "cpu-seal", "gpu"):
                device_ms = workload.time_on(get_backend(name)) * 1e3
                assert row.series[name] >= device_ms
