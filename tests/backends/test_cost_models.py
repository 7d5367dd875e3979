"""CPU, CPU-SEAL, and GPU cost models: structure and orderings."""

import pytest

from repro.backends.arch import SEALSpec
from repro.backends.base import OpRequest
from repro.backends.cpu import CustomCPUBackend, container_traffic_bytes
from repro.backends.cpu_seal import SEALBackend
from repro.backends.gpu import GPUBackend
from repro.core.params import SECURITY_LEVELS, BFVParameters
from repro.poly.modring import find_ntt_prime


def req(op="vec_add", width=128, n=10**6, dispatches=1):
    return OpRequest(
        op=op, width_bits=width, n_elements=n, op_dispatches=dispatches
    )


class TestContainerTraffic:
    def test_add_three_streams(self):
        assert container_traffic_bytes(req(n=1000)) == 3 * 16 * 1000

    def test_mul_double_width_result(self):
        assert container_traffic_bytes(req(op="vec_mul", n=10)) == (
            (2 * 16 + 32) * 10
        )

    def test_tensor(self):
        assert container_traffic_bytes(req(op="tensor_mul", n=10)) == (
            (4 * 16 + 6 * 16) * 10
        )

    def test_reduce_read_only(self):
        assert container_traffic_bytes(req(op="reduce_sum", n=10)) == 160


class TestCustomCPU:
    def test_add_memory_bound(self):
        t = CustomCPUBackend().time_op(req())
        assert t.detail["bound"] == "memory"

    def test_mul_compute_bound(self):
        t = CustomCPUBackend().time_op(req(op="vec_mul"))
        assert t.detail["bound"] == "compute"

    def test_mul_much_slower_than_add(self):
        cpu = CustomCPUBackend()
        add = cpu.time_op(req()).seconds
        mul = cpu.time_op(req(op="vec_mul")).seconds
        assert mul > 10 * add

    def test_scales_linearly(self):
        cpu = CustomCPUBackend()
        one = cpu.time_op(req(n=10**6)).seconds
        two = cpu.time_op(req(n=2 * 10**6)).seconds
        assert two == pytest.approx(2 * one, rel=0.01)

    def test_wider_is_slower(self):
        cpu = CustomCPUBackend()
        times = [cpu.time_op(req(op="vec_mul", width=w)).seconds for w in (32, 64, 128)]
        assert times[0] < times[1] < times[2]

    def test_dispatch_overhead_counted(self):
        cpu = CustomCPUBackend()
        base = cpu.time_op(req(n=1000)).seconds
        heavy = cpu.time_op(req(n=1000, dispatches=10000)).seconds
        assert heavy > base

    def test_tensor_about_four_muls(self):
        cpu = CustomCPUBackend()
        mul = cpu.time_op(req(op="vec_mul", n=10**6)).seconds
        tensor = cpu.time_op(req(op="tensor_mul", n=10**6)).seconds
        assert 3.5 * mul < tensor < 5.5 * mul

    def test_describe(self):
        assert "i5-8250U" in CustomCPUBackend().describe()


class TestSEAL:
    def test_rns_limbs_by_width(self):
        seal = SEALBackend()
        assert seal.time_op(req(width=32)).detail["rns_limbs"] == 1
        assert seal.time_op(req(width=64)).detail["rns_limbs"] == 1
        assert seal.time_op(req(width=128)).detail["rns_limbs"] == 2

    @pytest.mark.parametrize("bits", SECURITY_LEVELS)
    def test_rns_limbs_cover_level_with_60_bit_primes(self, bits):
        """Each width's limb count is the number of SEAL-sized (60-bit)
        NTT primes whose product first exceeds that paper level's
        modulus: 27 and 54 bits take one, 109 bits takes two."""
        params = BFVParameters.security_level(bits)
        n = params.poly_degree
        primes = 0
        product = 1
        while product <= params.coeff_modulus:
            product *= find_ntt_prime(60, n, index=primes)
            primes += 1
        assert primes == (2 if bits == 109 else 1)
        limbs = SEALSpec().rns_limbs(params.coefficient_width_bits)
        assert limbs == primes

    def test_multithreaded(self):
        t = SEALBackend().time_op(req(op="vec_mul"))
        assert t.detail["threads"] == 4

    def test_mul_cheaper_than_custom_cpu(self):
        """The RNS+NTT structural advantage: native-word Barrett
        versus long-division reduction."""
        r = req(op="vec_mul")
        assert SEALBackend().time_op(r).seconds < CustomCPUBackend().time_op(r).seconds / 10

    def test_width_64_and_32_equal_cost(self):
        """Both fit one RNS limb, so SEAL charges them identically per
        element (the paper's SEAL steps at 109 bits only)."""
        seal = SEALBackend()
        t32 = seal.time_op(req(op="vec_mul", width=32)).seconds
        t64 = seal.time_op(req(op="vec_mul", width=64)).seconds
        assert t32 == t64

    def test_add_memory_bound(self):
        assert SEALBackend().time_op(req()).detail["bound"] == "memory"

    def test_describe(self):
        assert "SEAL" in SEALBackend().describe()


class TestGPU:
    def test_memory_bound_add(self):
        t = GPUBackend().time_op(req())
        assert t.detail["bound"] == "memory"

    def test_mul_kernel_more_efficient_than_add(self):
        gpu = GPUBackend()
        add = gpu.time_op(req()).detail["efficiency"]
        mul = gpu.time_op(req(op="vec_mul")).detail["efficiency"]
        assert mul > add

    def test_launch_overhead_per_dispatch(self):
        gpu = GPUBackend()
        one = gpu.time_op(req(n=1000)).seconds
        many = gpu.time_op(req(n=1000, dispatches=1000)).seconds
        assert many - one == pytest.approx(
            999 * gpu.spec.launch_overhead_s, rel=0.01
        )

    def test_gpu_mul_beats_cpu_seal(self):
        """At 128-bit, the A100's native multipliers beat the CPU."""
        r = req(op="vec_mul")
        assert GPUBackend().time_op(r).seconds < SEALBackend().time_op(r).seconds

    def test_describe(self):
        assert "A100" in GPUBackend().describe()
