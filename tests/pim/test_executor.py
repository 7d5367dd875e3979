"""Device-functional execution: kernels vs host evaluator, bit-exact."""

import pytest

from repro.errors import CiphertextError, ParameterError
from repro.pim.executor import DeviceEvaluator


def elementwise_tensor(a, b) -> tuple:
    """The raw (d0, d1, d2) tensor of two size-2 ciphertexts, per
    coefficient slot with Python ints."""
    a0, a1 = (p.coeffs for p in a.polys)
    b0, b1 = (p.coeffs for p in b.polys)
    return (
        tuple(x * y for x, y in zip(a0, b0)),
        tuple(x0 * y1 + x1 * y0 for x0, x1, y0, y1 in zip(a0, a1, b0, b1)),
        tuple(x * y for x, y in zip(a1, b1)),
    )


@pytest.fixture(scope="module")
def device(request):
    from tests.conftest import make_tiny_params

    return DeviceEvaluator(make_tiny_params())


class TestDeviceAdd:
    def test_matches_host_evaluator_exactly(self, tiny_ctx, device):
        a = tiny_ctx.encrypt_slots([1, 2, 3])
        b = tiny_ctx.encrypt_slots([10, 20, 30])
        device_sum, run = device.add(a, b)
        host_sum = tiny_ctx.evaluator.add(a, b)
        assert device_sum == host_sum  # bit-exact, limb path == bigint path
        assert run.tally.total() > 0

    def test_decrypts_correctly(self, tiny_ctx, device):
        a = tiny_ctx.encrypt_slots([-5, 7])
        b = tiny_ctx.encrypt_slots([5, -3])
        device_sum, _ = device.add(a, b)
        assert tiny_ctx.decrypt_slots(device_sum, 2) == [0, 4]

    def test_run_record(self, tiny_ctx, device):
        a = tiny_ctx.encrypt_slots([1])
        result, run = device.add(a, a)
        n = tiny_ctx.params.poly_degree
        assert run.kernel_name == "vec_add"
        assert run.n_elements == 2 * n
        assert run.timing.total_seconds > 0
        assert run.measured_cycles > 0

    def test_measured_cycles_close_to_model(self, tiny_ctx, device):
        """The actual execution's cycles match the sampled-cost model
        within a few percent (both run the same kernel code)."""
        a = tiny_ctx.encrypt_slots([3, 4, 5])
        b = tiny_ctx.encrypt_slots([6, 7, 8])
        _, run = device.add(a, b)
        modeled = run.timing.cycles_per_element * run.n_elements
        assert run.measured_cycles == pytest.approx(modeled, rel=0.05)

    def test_rejects_size_mismatch(self, tiny_ctx, device):
        a = tiny_ctx.encrypt_slots([1])
        sq = tiny_ctx.evaluator.square(a, relinearize=False)
        with pytest.raises(CiphertextError):
            device.add(a, sq)

    def test_rejects_foreign_params(self, tiny128_ctx, device):
        ct = tiny128_ctx.encrypt_slots([1])
        with pytest.raises(ParameterError):
            device.add(ct, ct)


class TestDeviceSum:
    def test_matches_add_many(self, tiny_ctx, device):
        cts = [tiny_ctx.encrypt_slots([i, -i]) for i in range(1, 7)]
        device_sum, run = device.sum_many(cts)
        host_sum = tiny_ctx.evaluator.add_many(cts)
        # Same value; representation may differ by addition order, so
        # compare decryptions and then the polynomials (associative
        # modular addition is order-independent -> bit-exact too).
        assert device_sum == host_sum
        assert tiny_ctx.decrypt_slots(device_sum, 2) == [21, -21]
        assert run.kernel_name == "reduce_sum"

    def test_single_ciphertext(self, tiny_ctx, device):
        ct = tiny_ctx.encrypt_slots([9])
        total, _ = device.sum_many([ct])
        assert total == ct

    def test_empty_rejected(self, device):
        with pytest.raises(CiphertextError):
            device.sum_many([])

    def test_mean_workload_device_path(self, tiny_ctx, device):
        """The fig2a device portion, executed through the kernel, then
        finished on the host — the paper's exact pipeline."""
        from repro.workloads.dataset import UserDataset

        data = UserDataset.generate(6, 3, seed=40, high=8)
        encrypted = [
            tiny_ctx.encrypt_slots(list(user)) for user in data.values
        ]
        total, run = device.sum_many(encrypted)
        sums = tiny_ctx.decrypt_slots(total, 3)
        assert sums == data.column_sums()
        means = [s / 6 for s in sums]
        assert means == data.column_means()
        assert run.timing.dpus_used == 6  # one user per DPU


class TestDeviceTensor:
    def test_products_exact(self, tiny_ctx, device):
        a = tiny_ctx.encrypt_slots([2])
        b = tiny_ctx.encrypt_slots([3])
        (d0, d1, d2), run = device.tensor(a, b)
        n = tiny_ctx.params.poly_degree
        assert len(d0) == len(d1) == len(d2) == n
        assert (d0, d1, d2) == elementwise_tensor(a, b)
        assert run.kernel_name == "tensor_mul"

    def test_rejects_size_three(self, tiny_ctx, device):
        sq = tiny_ctx.evaluator.square(
            tiny_ctx.encrypt_slots([1]), relinearize=False
        )
        fresh = tiny_ctx.encrypt_slots([1])
        with pytest.raises(CiphertextError):
            device.tensor(sq, fresh)
