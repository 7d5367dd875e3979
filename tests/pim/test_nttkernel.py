"""NTT-on-PIM future-work kernel: functional butterflies + cost story."""

import pytest

from repro.errors import ParameterError
from repro.mpint.cost import OpTally
from repro.pim.kernels.nttkernel import (
    NTTButterflyKernel,
    ntt_polynomial_mult_cycles,
    schoolbook_polynomial_mult_cycles,
)
from repro.poly.modring import find_ntt_prime

P30 = find_ntt_prime(30, 4096)


@pytest.fixture(scope="module")
def kernel():
    return NTTButterflyKernel(P30)


class TestButterfly:
    def test_functional(self, kernel):
        u, v, w = 5, 7, 11
        upper, lower = kernel.run_element((u, v, w), OpTally())
        assert upper == (u + v * w) % P30
        assert lower == (u - v * w) % P30

    def test_random_elements(self, kernel, rng):
        for _ in range(50):
            u, v, w = kernel.random_element(rng)
            upper, lower = kernel.run_element((u, v, w), OpTally())
            assert upper == (u + v * w) % P30
            assert lower == (u - v * w) % P30

    def test_cost_dominated_by_software_multiplies(self, kernel):
        """Three software 32x32 products make a butterfly ~1200 cycles
        on this hardware — the quantified reason the paper deferred
        NTT."""
        cycles = kernel.cycles_per_element()
        assert 900 < cycles < 2000

    def test_rejects_composite_modulus(self):
        with pytest.raises(ParameterError):
            NTTButterflyKernel(2**30)

    def test_rejects_wide_modulus(self):
        with pytest.raises(ParameterError):
            NTTButterflyKernel(find_ntt_prime(40, 64))


class TestCostComposition:
    def test_ntt_beats_schoolbook_at_paper_sizes(self, kernel):
        from repro.pim.kernels.vecmul import VecMulKernel

        coeff_mul = VecMulKernel(4).cycles_per_element()
        for n in (1024, 2048, 4096):
            ntt = ntt_polynomial_mult_cycles(n, 4, kernel)
            school = schoolbook_polynomial_mult_cycles(n, coeff_mul)
            assert school / ntt > 25, n

    def test_advantage_grows_with_degree(self, kernel):
        from repro.pim.kernels.vecmul import VecMulKernel

        coeff_mul = VecMulKernel(4).cycles_per_element()
        ratios = [
            schoolbook_polynomial_mult_cycles(n, coeff_mul)
            / ntt_polynomial_mult_cycles(n, 4, kernel)
            for n in (1024, 2048, 4096)
        ]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_rns_limbs_scale_linearly(self, kernel):
        one = ntt_polynomial_mult_cycles(1024, 1, kernel)
        four = ntt_polynomial_mult_cycles(1024, 4, kernel)
        assert four == pytest.approx(4 * one)

    def test_validation(self, kernel):
        with pytest.raises(ParameterError):
            ntt_polynomial_mult_cycles(1000, 4, kernel)
        with pytest.raises(ParameterError):
            ntt_polynomial_mult_cycles(1024, 0, kernel)
        with pytest.raises(ParameterError):
            schoolbook_polynomial_mult_cycles(1000, 100.0)

    def test_experiment_rows(self):
        from repro.harness.experiments import get_experiment

        rows = get_experiment("ext_ntt_pim").run()
        assert [row.x for row in rows] == [1024, 2048, 4096]
        for row in rows:
            assert row.series["ntt speedup x"] > 25
