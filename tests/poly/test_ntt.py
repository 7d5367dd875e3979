"""Negacyclic NTT: roundtrip, convolution, algebraic properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.poly.modring import find_ntt_prime
from repro.poly.ntt import NTTContext
from repro.poly.polynomial import _schoolbook_negacyclic


@pytest.fixture(scope="module")
def ctx64():
    return NTTContext(64, find_ntt_prime(30, 64))


def residues(p, n):
    return st.lists(
        st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n
    )


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            NTTContext(48, find_ntt_prime(30, 16))

    def test_rejects_composite_modulus(self):
        with pytest.raises(ParameterError):
            NTTContext(8, 3 * 17)

    def test_rejects_wrong_residue_prime(self):
        # 19 is prime but 19 != 1 (mod 16).
        with pytest.raises(ParameterError):
            NTTContext(8, 19)

    def test_rejects_prime_wider_than_31_bits(self):
        # A 40-bit NTT prime is valid but would overflow uint64 butterflies.
        with pytest.raises(ParameterError, match="below 2\\^31"):
            NTTContext(64, find_ntt_prime(40, 64))

    def test_small_classic_case(self):
        ctx = NTTContext(8, 17)
        assert ctx.psi != 1
        assert pow(ctx.psi, 16, 17) == 1


class TestRoundtrip:
    @given(st.data())
    def test_inverse_of_forward(self, data):
        ctx = NTTContext(64, find_ntt_prime(30, 64))
        coeffs = data.draw(residues(ctx.p, 64))
        assert ctx.inverse(ctx.forward(coeffs)) == coeffs

    def test_forward_of_inverse(self, ctx64):
        coeffs = list(range(64))
        assert ctx64.forward(ctx64.inverse(coeffs)) == coeffs

    def test_zero_fixed_point(self, ctx64):
        zeros = [0] * 64
        assert ctx64.forward(zeros) == zeros
        assert ctx64.inverse(zeros) == zeros

    def test_length_validation(self, ctx64):
        with pytest.raises(ParameterError):
            ctx64.forward([1] * 63)
        with pytest.raises(ParameterError):
            ctx64.inverse([1] * 65)
        with pytest.raises(ParameterError):
            ctx64.pointwise([1] * 64, [1] * 63)


class TestConvolution:
    @given(st.data())
    def test_matches_schoolbook_negacyclic(self, data):
        ctx = NTTContext(64, find_ntt_prime(30, 64))
        a = data.draw(residues(ctx.p, 64))
        b = data.draw(residues(ctx.p, 64))
        expected = [c % ctx.p for c in _schoolbook_negacyclic(a, b, 64)]
        assert ctx.convolve(a, b) == expected

    def test_x_to_the_n_wraps_negatively(self, ctx64):
        """x^(n-1) * x == -1 in Z_p[x]/(x^n + 1)."""
        x_high = [0] * 64
        x_high[63] = 1
        x_one = [0] * 64
        x_one[1] = 1
        result = ctx64.convolve(x_high, x_one)
        expected = [0] * 64
        expected[0] = ctx64.p - 1
        assert result == expected

    def test_multiplicative_identity(self, ctx64):
        one = [1] + [0] * 63
        a = list(range(1, 65))
        assert ctx64.convolve(a, one) == a

    @given(st.data())
    def test_commutative(self, data):
        ctx = NTTContext(32, find_ntt_prime(30, 32))
        a = data.draw(residues(ctx.p, 32))
        b = data.draw(residues(ctx.p, 32))
        assert ctx.convolve(a, b) == ctx.convolve(b, a)

    @given(st.data())
    def test_forward_is_linear(self, data):
        ctx = NTTContext(32, find_ntt_prime(30, 32))
        a = data.draw(residues(ctx.p, 32))
        b = data.draw(residues(ctx.p, 32))
        summed = ctx.forward([(x + y) % ctx.p for x, y in zip(a, b)])
        separate = [
            (x + y) % ctx.p
            for x, y in zip(ctx.forward(a), ctx.forward(b))
        ]
        assert summed == separate


class TestCostMetadata:
    def test_butterfly_count(self):
        ctx = NTTContext(4096, find_ntt_prime(31, 4096))
        assert ctx.butterflies_per_transform() == 2048 * 12

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_butterfly_formula(self, n):
        ctx = NTTContext(n, find_ntt_prime(30, n))
        assert ctx.butterflies_per_transform() == (n // 2) * (
            n.bit_length() - 1
        )
