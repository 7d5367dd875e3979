"""End-to-end functional workload runs on tiny rings.

These execute the *real* BFV pipeline — encrypt, evaluate
homomorphically, decrypt — and every workload's ``run_functional``
asserts exact agreement with the plaintext reference internally, so a
clean return IS the verification.

Value ranges are chosen so sums and squares stay inside the tiny
rings' plaintext modulus (t = 257, centered range ±128).
"""

import math

from repro.workloads.linreg import LinearRegressionWorkload
from repro.workloads.mean import MeanWorkload
from repro.workloads.variance import VarianceWorkload
from repro.workloads.vectorops import VectorAddWorkload, VectorMulWorkload


class TestVectorOpsFunctional:
    def test_add(self, tiny_ctx):
        results = VectorAddWorkload().run_functional(tiny_ctx, batch=3)
        assert len(results) == 3

    def test_mul(self, tiny_ctx):
        results = VectorMulWorkload().run_functional(tiny_ctx, batch=2)
        assert len(results) == 2

    def test_add_crt_path(self, tiny128_ctx):
        assert VectorAddWorkload().run_functional(tiny128_ctx, batch=1)


class TestMeanFunctional:
    def test_default(self, tiny_ctx):
        means = MeanWorkload().run_functional(
            tiny_ctx, n_users=10, samples_per_user=5, high=10
        )
        assert len(means) == 5

    def test_known_values(self, tiny_ctx):
        """Cross-check the means against direct computation."""
        from repro.workloads.dataset import UserDataset

        means = MeanWorkload().run_functional(
            tiny_ctx, n_users=6, samples_per_user=3, seed=99, high=8
        )
        data = UserDataset.generate(6, 3, seed=99, high=8)
        assert means == data.column_means()

    def test_many_users_noise_survives(self, tiny_ctx):
        """Summing 40 ciphertexts consumes ~5 bits of budget — still
        decrypts exactly."""
        means = MeanWorkload().run_functional(
            tiny_ctx, n_users=40, samples_per_user=2, high=4
        )
        assert len(means) == 2


class TestVarianceFunctional:
    def test_default(self, tiny_ctx):
        variances = VarianceWorkload().run_functional(
            tiny_ctx, n_users=6, samples_per_user=3, high=5
        )
        assert len(variances) == 3
        assert all(v >= 0 for v in variances)

    def test_with_relinearization(self, tiny_ctx):
        variances = VarianceWorkload(relinearize=True).run_functional(
            tiny_ctx, n_users=5, samples_per_user=2, high=5
        )
        assert len(variances) == 2

    def test_constant_data_zero_variance(self, tiny_ctx):
        from repro.workloads.dataset import UserDataset

        data = UserDataset(((3, 5),) * 4)
        ev = tiny_ctx.evaluator
        encrypted = [tiny_ctx.encrypt_slots(list(u)) for u in data.values]
        squares = [ev.square(ct) for ct in encrypted]
        sq = tiny_ctx.decrypt_slots(ev.add_many(squares), 2)
        s = tiny_ctx.decrypt_slots(ev.add_many(encrypted), 2)
        got = [q / 4 - (v / 4) ** 2 for q, v in zip(sq, s)]
        assert got == [0.0, 0.0]

    def test_crt_path(self, tiny128_ctx):
        variances = VarianceWorkload().run_functional(
            tiny128_ctx, n_users=4, samples_per_user=2, high=5
        )
        assert len(variances) == 2


class TestLinRegFunctional:
    def test_recovers_model(self, tiny_ctx):
        # run_functional internally asserts the homomorphic
        # normal-equation terms equal the plaintext ones and that the
        # solved coefficients match the plaintext least-squares fit.
        coeffs = LinearRegressionWorkload().run_functional(
            tiny_ctx, n_samples=10, seed=31, feature_high=3, noise=1
        )
        assert len(coeffs) == 3
        assert all(math.isfinite(c) for c in coeffs)

    def test_different_seeds_give_different_models(self, tiny_ctx):
        a = LinearRegressionWorkload().run_functional(
            tiny_ctx, n_samples=8, seed=1, feature_high=3, noise=1
        )
        b = LinearRegressionWorkload().run_functional(
            tiny_ctx, n_samples=8, seed=2, feature_high=3, noise=1
        )
        assert a != b
