"""Covariance workload (extension): device requests + functional runs."""

import numpy as np
import pytest

from repro.backends.registry import get_backend
from repro.errors import ParameterError
from repro.workloads.covariance import CovarianceWorkload


class TestDeviceRequests:
    def test_structure(self):
        reqs = CovarianceWorkload(n_users=640).device_requests()
        assert [r.op for r in reqs] == [
            "tensor_mul",
            "reduce_sum",
            "reduce_sum",
        ]
        assert reqs[0].n_elements == 640 * 4096
        assert reqs[2].n_elements == 640 * 2 * 2 * 4096  # both series

    def test_inherits_variance_platform_ordering(self):
        """Multiplication-bound: same winners/losers as fig2b."""
        workload = CovarianceWorkload(n_users=640)
        times = {
            name: workload.time_on(get_backend(name))
            for name in ("pim", "cpu", "cpu-seal", "gpu")
        }
        assert times["gpu"] < times["cpu-seal"] < times["pim"] < times["cpu"]

    def test_rejects_single_user(self):
        with pytest.raises(ParameterError):
            CovarianceWorkload(n_users=1)

    def test_experiment_registered(self):
        from repro.harness.experiments import get_experiment

        rows = get_experiment("ext_covariance").run()
        assert [row.x for row in rows] == [640, 1280, 2560]


class TestFunctional:
    def test_end_to_end(self, tiny_ctx):
        covariances = CovarianceWorkload().run_functional(
            tiny_ctx, n_users=5, samples_per_user=3, high=5
        )
        assert len(covariances) == 3

    def test_identical_series_give_variance(self, tiny_ctx):
        """Cov(x, x) == Var(x): check via direct computation."""
        rng = np.random.default_rng(4)
        xs = rng.integers(0, 5, size=(4, 2))
        ev = tiny_ctx.evaluator
        enc = [tiny_ctx.encrypt_slots([int(v) for v in row]) for row in xs]
        cross = [ev.multiply(c, c) for c in enc]
        sum_xx = tiny_ctx.decrypt_slots(ev.add_many(cross), 2)
        sum_x = tiny_ctx.decrypt_slots(ev.add_many(enc), 2)
        got = [xx / 4 - (x / 4) ** 2 for xx, x in zip(sum_xx, sum_x)]
        expected = xs.var(axis=0)
        assert np.allclose(got, expected)

    def test_independent_seeds_vary(self, tiny_ctx):
        a = CovarianceWorkload().run_functional(
            tiny_ctx, n_users=4, samples_per_user=2, seed=1, high=5
        )
        b = CovarianceWorkload().run_functional(
            tiny_ctx, n_users=4, samples_per_user=2, seed=2, high=5
        )
        assert a != b
