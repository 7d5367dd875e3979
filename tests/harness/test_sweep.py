"""Crossover bisection."""

import pytest

from repro.errors import ParameterError
from repro.harness.sweep import bisect_crossover, ratio_metric


class TestBisect:
    def test_finds_linear_root(self):
        root = bisect_crossover(lambda p: p - 37.25, 0, 100, tolerance=0.01)
        assert root == pytest.approx(37.25, abs=0.02)

    def test_ratio_metric_crossover(self):
        """Find where 3p equals 60: p = 20."""
        metric = ratio_metric(lambda p: 3 * p, lambda p: 60.0)
        root = bisect_crossover(metric, 1, 100, tolerance=0.01)
        assert root == pytest.approx(20.0, abs=0.05)

    def test_endpoint_zeros(self):
        assert bisect_crossover(lambda p: p - 1, 1, 5) == 1
        assert bisect_crossover(lambda p: p - 5, 1, 5) == 5

    def test_rejects_no_sign_change(self):
        with pytest.raises(ParameterError):
            bisect_crossover(lambda p: p + 10, 0, 5)

    def test_rejects_bad_interval(self):
        with pytest.raises(ParameterError):
            bisect_crossover(lambda p: p, 5, 5)


class TestCrossoverExperiment:
    def test_pim_seal_crossover_between_32_and_64(self):
        """The paper's measured crossover: PIM beats SEAL at 32-bit
        multiplication, loses from 64-bit on."""
        from repro.harness.experiments import get_experiment

        rows = get_experiment("ext_seal_crossover").run()
        by_width = {
            row.x: row.series for row in rows if "pim/seal" in row.series
        }
        assert by_width[32]["pim/seal"] < 1.0
        assert by_width[64]["pim/seal"] > 1.0
        assert by_width[128]["pim/seal"] > by_width[64]["pim/seal"]

    def test_multiplier_break_even_near_dozen_cycles(self):
        """Key Takeaway 2, sharpened: a ~12-cycle native 32-bit
        multiplier would bring PIM level with the A100 at 128-bit."""
        from repro.harness.experiments import get_experiment

        rows = get_experiment("ext_seal_crossover").run()
        threshold_row = next(
            row for row in rows if "multiplier cycles" in row.series
        )
        assert 5 < threshold_row.series["multiplier cycles"] < 25
