"""PIM backend: adapter correctness against the runtime model."""

import pytest

from repro.backends.base import OpRequest
from repro.backends.pim import WIDTH_TO_SECURITY, PIMBackend, modulus_for_width
from repro.pim.kernels import VecAddKernel
from repro.pim.runtime import PIMRuntime


def req(op="vec_add", width=128, n=8192 * 100, units=100, dispatches=1):
    return OpRequest(
        op=op,
        width_bits=width,
        n_elements=n,
        work_units=units,
        op_dispatches=dispatches,
    )


class TestModulusMapping:
    def test_paper_width_security_map(self):
        assert WIDTH_TO_SECURITY == {32: 27, 64: 54, 128: 109}

    @pytest.mark.parametrize("width,bits", [(32, 27), (64, 54), (128, 109)])
    def test_modulus_bit_length(self, width, bits):
        assert modulus_for_width(width).bit_length() == bits


class TestAdapter:
    def test_matches_runtime_directly(self):
        backend = PIMBackend()
        r = req()
        via_backend = backend.time_op(r).seconds
        direct = PIMRuntime().time_kernel(
            VecAddKernel(4, modulus_for_width(128)),
            r.n_elements,
            work_units=100,
        )
        assert via_backend == pytest.approx(direct.total_seconds)

    def test_kernels_cached(self):
        backend = PIMBackend()
        backend.time_op(req())
        backend.time_op(req(n=8192 * 200, units=200))
        assert len(backend._kernels) == 1

    def test_detail_fields(self):
        detail = PIMBackend().time_op(req()).detail
        assert detail["dpus_used"] == 100
        assert detail["bound"] in ("compute", "dma")
        assert detail["cycles_per_element"] > 0

    def test_ignores_op_dispatches(self):
        """The paper's PIM kernels stream the whole batch: per-HE-op
        dispatch overhead is a baseline-only effect."""
        backend = PIMBackend()
        a = backend.time_op(req(dispatches=1)).seconds
        b = backend.time_op(req(dispatches=10_000)).seconds
        assert a == b

    def test_all_ops_supported(self):
        backend = PIMBackend()
        for op in ("vec_add", "vec_mul", "tensor_mul", "reduce_sum"):
            assert backend.time_op(req(op=op)).seconds > 0

    def test_transfer_mode(self):
        resident = PIMBackend().time_op(req()).seconds
        streaming = PIMBackend(include_transfer=True).time_op(req()).seconds
        assert streaming > resident

    def test_describe(self):
        assert "UPMEM" in PIMBackend().describe()


class TestRegistry:
    def test_all_paper_platforms(self):
        from repro.backends.registry import available_backends, get_backend

        assert available_backends() == ("cpu", "pim", "cpu-seal", "gpu")
        for name in available_backends():
            assert get_backend(name).name == name

    def test_unknown_backend_rejected(self):
        from repro.backends.registry import get_backend
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            get_backend("tpu")
