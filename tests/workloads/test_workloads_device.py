"""Workload device-request structure: the op counts every backend is
billed for."""

import pytest

from repro.backends.registry import get_backend
from repro.errors import ParameterError
from repro.workloads.linreg import LinearRegressionWorkload
from repro.workloads.mean import MeanWorkload
from repro.workloads.variance import VarianceWorkload
from repro.workloads.vectorops import VectorAddWorkload, VectorMulWorkload


class TestVectorOps:
    def test_add_requests(self):
        w = VectorAddWorkload(security_bits=109, n_ciphertexts=100)
        (r,) = w.device_requests()
        assert r.op == "vec_add"
        assert r.width_bits == 128
        assert r.n_elements == 100 * 2 * 4096  # both component polys
        assert r.work_units == 100

    def test_mul_requests(self):
        w = VectorMulWorkload(security_bits=54, n_ciphertexts=50)
        (r,) = w.device_requests()
        assert r.op == "vec_mul"
        assert r.width_bits == 64
        assert r.n_elements == 50 * 2 * 2048

    @pytest.mark.parametrize("bits,width", [(27, 32), (54, 64), (109, 128)])
    def test_width_follows_security(self, bits, width):
        w = VectorAddWorkload(security_bits=bits, n_ciphertexts=10)
        assert w.device_requests()[0].width_bits == width

    def test_rejects_zero_ciphertexts(self):
        with pytest.raises(ParameterError):
            VectorAddWorkload(n_ciphertexts=0)

    def test_time_on_positive(self):
        w = VectorAddWorkload(n_ciphertexts=1000)
        for name in ("pim", "cpu", "cpu-seal", "gpu"):
            assert w.time_on(get_backend(name)) > 0


class TestMean:
    def test_requests(self):
        w = MeanWorkload(n_users=640)
        (r,) = w.device_requests()
        assert r.op == "reduce_sum"
        assert r.n_elements == 640 * 2 * 4096
        assert r.work_units == 640
        assert r.op_dispatches == 639  # one evaluator add per user

    def test_rejects_single_user(self):
        with pytest.raises(ParameterError):
            MeanWorkload(n_users=1)


class TestVariance:
    def test_requests_without_relin(self):
        w = VarianceWorkload(n_users=640)
        reqs = w.device_requests()
        assert [r.op for r in reqs] == ["tensor_mul", "reduce_sum"]
        tensor, reduce_ = reqs
        assert tensor.n_elements == 640 * 4096
        assert tensor.op_dispatches == 640
        assert reduce_.n_elements == 640 * 3 * 4096  # size-3 squares

    def test_relinearize_adds_digit_products(self):
        plain = VarianceWorkload(n_users=64)
        relin = VarianceWorkload(n_users=64, relinearize=True)
        ops = [r.op for r in relin.device_requests()]
        assert ops.count("vec_mul") == 1
        assert len(relin.device_requests()) == len(plain.device_requests()) + 1

    def test_relin_costs_more_everywhere(self):
        plain = VarianceWorkload(n_users=64)
        relin = VarianceWorkload(n_users=64, relinearize=True)
        for name in ("pim", "cpu", "cpu-seal", "gpu"):
            backend = get_backend(name)
            assert relin.time_on(backend) > plain.time_on(backend)


class TestLinReg:
    def test_requests(self):
        w = LinearRegressionWorkload(n_users=640, ciphertexts_per_user=32)
        tensor, reduce_ = w.device_requests()
        # products per ciphertext bundle: 3*(3+1)/2 + 3 = 9; /3 features
        assert w.products_per_ciphertext == 9
        assert tensor.n_elements == 640 * 32 * 3 * 4096
        assert tensor.op_dispatches == 640 * 32 * 3
        assert reduce_.n_elements == 640 * 32 * 3 * 4096

    @pytest.mark.parametrize("n_features", [2, 4])
    def test_accumulate_sized_by_products(self, n_features):
        """One running-sum pass per product ciphertext at any feature
        count, not the three the 3-feature case happens to give."""
        w = LinearRegressionWorkload(
            n_users=640, ciphertexts_per_user=32, n_features=n_features
        )
        tensor, reduce_ = w.device_requests()
        assert reduce_.n_elements == tensor.n_elements

    def test_double_ciphertexts_double_work(self):
        w32 = LinearRegressionWorkload(ciphertexts_per_user=32)
        w64 = LinearRegressionWorkload(ciphertexts_per_user=64)
        t32 = w32.device_requests()[0].n_elements
        t64 = w64.device_requests()[0].n_elements
        assert t64 == 2 * t32

    def test_rejects_bad_config(self):
        with pytest.raises(ParameterError):
            LinearRegressionWorkload(n_users=0)
        with pytest.raises(ParameterError):
            LinearRegressionWorkload(ciphertexts_per_user=0)
        with pytest.raises(ParameterError):
            LinearRegressionWorkload(n_features=0)
