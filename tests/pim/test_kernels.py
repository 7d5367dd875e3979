"""Device kernels: functional correctness and derived costs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceError, ParameterError
from repro.pim.kernels import (
    ReduceSumKernel,
    TensorMulKernel,
    VecAddKernel,
    VecMulKernel,
)
from repro.pim.kernels import base
from repro.pim.kernels.nttkernel import NTTButterflyKernel
from repro.poly.modring import find_ntt_prime

Q109 = find_ntt_prime(109, 4096)
Q27 = find_ntt_prime(27, 1024)
P31 = find_ntt_prime(31, 4096)

#: Exact ``repr(cycles_per_element())`` of each configuration. Every
#: modelled second is built from these, so any drift is a model change.
PINNED_COSTS = [
    pytest.param(lambda: VecMulKernel(1), "403.0", id="vec_mul-1"),
    pytest.param(lambda: VecMulKernel(2), "1227.5625", id="vec_mul-2"),
    pytest.param(lambda: VecMulKernel(4), "3709.21875", id="vec_mul-4"),
    pytest.param(
        lambda: VecMulKernel(4, "schoolbook"),
        "6410.84375",
        id="vec_mul-4-schoolbook",
    ),
    pytest.param(
        lambda: VecMulKernel(4, "karatsuba"),
        "3709.21875",
        id="vec_mul-4-karatsuba",
    ),
    pytest.param(
        lambda: TensorMulKernel(1), "1605.9166666666667", id="tensor_mul-1"
    ),
    pytest.param(lambda: TensorMulKernel(2), "4904.78125", id="tensor_mul-2"),
    pytest.param(lambda: TensorMulKernel(4), "14821.5625", id="tensor_mul-4"),
    pytest.param(
        lambda: ReduceSumKernel(4, Q109),
        "12.958333333333334",
        id="reduce_sum-4-q109",
    ),
    pytest.param(lambda: VecAddKernel(4, Q109), "17.125", id="vec_add-4-q109"),
    pytest.param(
        lambda: NTTButterflyKernel(P31),
        "1172.3333333333333",
        id="ntt_butterfly-p31",
    ),
]


class TestVecAdd:
    @given(st.data())
    @settings(max_examples=25)
    def test_modular_addition(self, data):
        kernel = VecAddKernel(4, Q109)
        a = data.draw(st.integers(min_value=0, max_value=Q109 - 1))
        b = data.draw(st.integers(min_value=0, max_value=Q109 - 1))
        from repro.mpint.cost import OpTally

        assert kernel.run_element((a, b), OpTally()) == (a + b) % Q109

    def test_wrapping_mode(self):
        from repro.mpint.cost import OpTally

        kernel = VecAddKernel(1)  # no modulus: wraps at 2^32
        assert kernel.run_element((2**32 - 1, 2), OpTally()) == 1

    def test_full_container_modulus_carry(self):
        """A modulus using all container bits exercises the carry-out
        reduction branch."""
        from repro.mpint.cost import OpTally

        q = 2**32 - 5  # full-width modulus
        kernel = VecAddKernel(1, q)
        a, b = q - 1, q - 2
        assert kernel.run_element((a, b), OpTally()) == (a + b) % q

    def test_batch_execution_and_tally(self, rng):
        kernel = VecAddKernel(2, find_ntt_prime(54, 2048))
        elements = [kernel.random_element(rng) for _ in range(20)]
        outputs, tally = kernel.execute(elements)
        assert len(outputs) == 20
        assert tally.total() > 0

    def test_rejects_oversized_modulus(self):
        with pytest.raises(ParameterError):
            VecAddKernel(1, Q109)

    def test_mram_traffic(self):
        assert VecAddKernel(4, Q109).mram_bytes_per_element() == 48


class TestVecMul:
    @given(st.data())
    @settings(max_examples=25)
    def test_full_product(self, data):
        from repro.mpint.cost import OpTally

        kernel = VecMulKernel(4)
        a = data.draw(st.integers(min_value=0, max_value=2**128 - 1))
        b = data.draw(st.integers(min_value=0, max_value=2**128 - 1))
        assert kernel.run_element((a, b), OpTally()) == a * b

    def test_algorithms_agree(self, rng):
        from repro.mpint.cost import OpTally

        pairs = [VecMulKernel(4).random_element(rng) for _ in range(10)]
        for algo in ("schoolbook", "karatsuba", "auto"):
            kernel = VecMulKernel(4, algorithm=algo)
            for a, b in pairs:
                assert kernel.run_element((a, b), OpTally()) == a * b

    def test_karatsuba_cheaper_than_schoolbook(self):
        kar = VecMulKernel(4, algorithm="karatsuba").cycles_per_element()
        school = VecMulKernel(4, algorithm="schoolbook").cycles_per_element()
        assert kar < school

    def test_cost_grows_with_width(self):
        costs = [VecMulKernel(l).cycles_per_element() for l in (1, 2, 4)]
        assert costs[0] < costs[1] < costs[2]

    def test_mul_much_more_expensive_than_add(self):
        """The root cause of the paper's Key Takeaway 2: two orders of
        magnitude between software multiply and native add."""
        mul = VecMulKernel(4).cycles_per_element()
        add = VecAddKernel(4, Q109).cycles_per_element()
        assert mul / add > 100

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ParameterError):
            VecMulKernel(4, algorithm="ntt")


class TestTensorMul:
    @given(st.data())
    @settings(max_examples=15)
    def test_tensor_components(self, data):
        from repro.mpint.cost import OpTally

        kernel = TensorMulKernel(2)
        bound = 2**64 - 1
        a0, a1, b0, b1 = (
            data.draw(st.integers(min_value=0, max_value=bound))
            for _ in range(4)
        )
        d0, d1, d2 = kernel.run_element((a0, a1, b0, b1), OpTally())
        assert d0 == a0 * b0
        assert d1 == a0 * b1 + a1 * b0
        assert d2 == a1 * b1

    def test_costs_about_four_multiplies(self):
        tensor = TensorMulKernel(4).cycles_per_element()
        mul = VecMulKernel(4).cycles_per_element()
        assert 3.5 * mul < tensor < 5 * mul

    def test_footprint_smaller_than_traffic(self):
        kernel = TensorMulKernel(4)
        assert (
            kernel.footprint_bytes_per_element()
            < kernel.mram_bytes_per_element()
        )


class TestReduceSum:
    def test_accumulates_modulo(self, rng):
        from repro.mpint.cost import OpTally

        q = find_ntt_prime(54, 2048)
        kernel = ReduceSumKernel(2, q)
        values = [int(v) for v in rng.integers(0, 2**50, size=50)]
        tally = OpTally()
        for v in values:
            kernel.run_element(v % q, tally)
        assert kernel.accumulator == sum(v % q for v in values) % q

    def test_reset(self):
        from repro.mpint.cost import OpTally

        kernel = ReduceSumKernel(1, 97)
        kernel.run_element(50, OpTally())
        kernel.reset()
        assert kernel.accumulator == 0

    def test_full_width_modulus_carry_path(self):
        from repro.mpint.cost import OpTally

        q = 2**32 - 5
        kernel = ReduceSumKernel(1, q)
        kernel.run_element(q - 1, OpTally())
        kernel.run_element(q - 1, OpTally())
        assert kernel.accumulator == (2 * (q - 1)) % q

    def test_cheapest_kernel(self):
        reduce_cost = ReduceSumKernel(4, Q109).cycles_per_element()
        add_cost = VecAddKernel(4, Q109).cycles_per_element()
        assert reduce_cost < add_cost

    def test_mram_traffic_is_read_only(self):
        assert ReduceSumKernel(4, Q109).mram_bytes_per_element() == 16

    def test_cost_sample_ignores_and_keeps_the_accumulator(self):
        """Sampling a kernel mid-run neither reads nor overwrites its
        running accumulator."""
        from repro.mpint.cost import OpTally

        kernel = ReduceSumKernel(4, Q109)
        kernel.run_element(Q109 - 1, OpTally())
        kernel.run_element(Q109 - 2, OpTally())
        before = kernel.accumulator
        assert kernel.cycles_per_element() == (
            ReduceSumKernel(4, Q109).cycles_per_element()
        )
        assert kernel.accumulator == before


class TestCostFramework:
    def test_cycles_per_element_cached_and_deterministic(self):
        a = VecMulKernel(4)
        first = a.cycles_per_element()
        assert a.cycles_per_element() == first
        assert VecMulKernel(4).cycles_per_element() == first

    @pytest.mark.parametrize("make, expected", PINNED_COSTS)
    def test_pinned_cost(self, make, expected):
        assert repr(make().cycles_per_element()) == expected

    def test_configurations_get_distinct_samples(self, monkeypatch):
        monkeypatch.setattr(base, "_COST_SAMPLES", {})
        school = VecMulKernel(4, "schoolbook").cycles_per_element()
        kar = VecMulKernel(4, "karatsuba").cycles_per_element()
        assert (school, kar) == (6410.84375, 3709.21875)
        VecAddKernel(4, Q109).cycles_per_element()
        VecAddKernel(4, find_ntt_prime(100, 4096)).cycles_per_element()
        VecAddKernel(4).cycles_per_element()
        assert len(base._COST_SAMPLES) == 5

    def test_one_sample_per_configuration(self, monkeypatch):
        monkeypatch.setattr(base, "_COST_SAMPLES", {})
        calls = []
        execute = VecAddKernel.execute

        def counting_execute(kernel, elements):
            calls.append(kernel)
            return execute(kernel, elements)

        monkeypatch.setattr(VecAddKernel, "execute", counting_execute)
        first, second = VecAddKernel(2, Q27), VecAddKernel(2, Q27)
        assert first.cycles_per_element() == second.cycles_per_element()
        assert len(calls) == 1
        assert calls[0] is not first and calls[0] is not second

    def test_mram_fit_check(self):
        kernel = VecAddKernel(4, Q109)
        kernel.check_mram_fit(1000, 10**6)  # fits
        with pytest.raises(DeviceError):
            kernel.check_mram_fit(10**6, 10**6)  # 48 MB in 1 MB

    def test_rejects_zero_limbs(self):
        with pytest.raises(ParameterError):
            VecMulKernel(0)
