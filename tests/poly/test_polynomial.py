"""Ring elements: algebra axioms and exact integer convolution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.poly.modring import find_ntt_prime
from repro.poly.polynomial import (
    Polynomial,
    _crt_negacyclic,
    _schoolbook_negacyclic,
    negacyclic_convolve,
)

Q = find_ntt_prime(40, 64)


def polys(n=64, q=Q):
    return st.builds(
        lambda coeffs: Polynomial(coeffs, q),
        st.lists(
            st.integers(min_value=0, max_value=q - 1), min_size=n, max_size=n
        ),
    )


class TestConstruction:
    def test_reduces_coefficients(self):
        p = Polynomial([Q + 5, -3], 0 + Q)
        # degree must be power of two: 2 coefficients is fine
        assert p.coeffs == (5, Q - 3)

    def test_accepts_numpy_unreduced_and_negative_ints(self):
        import numpy as np

        q = 97
        raw = [np.int64(-1), np.uint64(200), 3 * q + 4, -5 * q - 6]
        p = Polynomial(raw, q)
        assert p.coeffs == (q - 1, 200 % q, 4, q - 6)
        assert all(type(c) is int for c in p.coeffs)
        assert Polynomial(np.array([-1, 98, 0, 1]), q).coeffs == (96, 1, 0, 1)

    def test_ring_operations_stay_reduced(self):
        a = Polynomial([Q - 1, 0, 5, Q - 2], Q)
        b = Polynomial([Q - 3, 7, Q - 1, 1], Q)
        for result in (a + b, a - b, -a, a.scalar_mul(-3), a.scalar_mul(Q + 2)):
            assert all(type(c) is int and 0 <= c < Q for c in result.coeffs)
            assert result == Polynomial(list(result.coeffs), Q)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ParameterError):
            Polynomial([1, 2], 1)

    def test_rejects_non_power_of_two_degree(self):
        with pytest.raises(ParameterError):
            Polynomial([1, 2, 3], 97)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            Polynomial([], 97)

    def test_zero_constructor(self):
        z = Polynomial.zero(8, 97)
        assert z.coeffs == (0,) * 8

    def test_equality_and_hash(self):
        a = Polynomial([1, 2], 97)
        b = Polynomial([1, 2], 97)
        assert a == b and hash(a) == hash(b)
        assert a != Polynomial([1, 2], 89)


class TestRingAxioms:
    @given(polys(), polys())
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(polys(), polys(), polys())
    def test_addition_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(polys())
    def test_additive_inverse(self, a):
        assert a + (-a) == Polynomial.zero(64, Q)

    @given(polys())
    def test_sub_is_add_neg(self, a):
        b = Polynomial(list(range(64)), Q)
        assert a - b == a + (-b)

    @settings(max_examples=15)
    @given(polys(n=8, q=find_ntt_prime(30, 8)), polys(n=8, q=find_ntt_prime(30, 8)))
    def test_multiplication_commutative(self, a, b):
        assert a * b == b * a

    @settings(max_examples=10)
    @given(st.data())
    def test_distributive(self, data):
        q = find_ntt_prime(30, 8)
        gen = polys(n=8, q=q)
        a, b, c = data.draw(gen), data.draw(gen), data.draw(gen)
        assert a * (b + c) == a * b + a * c

    @given(polys())
    def test_multiplicative_identity(self, a):
        one = Polynomial([1] + [0] * 63, Q)
        assert a * one == a

    @given(polys(), st.integers(min_value=-1000, max_value=1000))
    def test_scalar_mul_matches_repeated_add(self, a, k):
        expected = Polynomial([c * k % Q for c in a.coeffs], Q)
        assert a.scalar_mul(k) == expected
        assert k * a == expected


class TestNegacyclicStructure:
    def test_x_power_n_equals_minus_one(self):
        q = find_ntt_prime(30, 8)
        x = Polynomial([0, 1] + [0] * 6, q)
        result = x
        for _ in range(7):
            result = result * x  # after the loop: x^8
        assert result == Polynomial([q - 1] + [0] * 7, q)

    def test_incompatible_moduli_rejected(self):
        a = Polynomial([1, 2], 97)
        b = Polynomial([1, 2], 89)
        with pytest.raises(ParameterError):
            _ = a + b

    def test_incompatible_degrees_rejected(self):
        a = Polynomial([1, 2], 97)
        b = Polynomial([1, 2, 3, 4], 97)
        with pytest.raises(ParameterError):
            _ = a * b


class TestCenteredLift:
    def test_centered_range(self):
        p = Polynomial(list(range(64)), 97)
        for c in p.centered():
            assert -97 // 2 <= c <= 97 // 2

    def test_centered_values(self):
        p = Polynomial([0, 1, 48, 49, 96, 0, 0, 0], 97)
        assert p.centered()[:5] == [0, 1, 48, -48, -1]

    @given(polys())
    def test_centered_congruent(self, a):
        for raw, cent in zip(a.coeffs, a.centered()):
            assert (raw - cent) % Q == 0

    def test_infinity_norm(self):
        p = Polynomial([1, 96, 0, 0], 97)
        assert p.infinity_norm() == 1  # 96 == -1 centered

    def test_lift_centered_to(self):
        p = Polynomial([96, 1, 0, 0], 97)
        lifted = p.lift_centered_to(1009)
        assert lifted.coeffs == (1008, 1, 0, 0)


class TestExactConvolution:
    @given(st.data())
    @settings(max_examples=10)
    def test_crt_matches_schoolbook(self, data):
        """The CRT-NTT path computes the same exact integer result."""
        n = 128
        bound = find_ntt_prime(40, n) // 2
        coeff = st.integers(min_value=-bound, max_value=bound)
        a = data.draw(st.lists(coeff, min_size=n, max_size=n))
        b = data.draw(st.lists(coeff, min_size=n, max_size=n))
        assert _crt_negacyclic(a, b, n) == _schoolbook_negacyclic(a, b, n)

    def test_large_coefficients_exact(self):
        """No precision loss at 109-bit coefficient magnitudes."""
        n = 128
        big = (1 << 109) // 2
        a = [big, -big] * (n // 2)
        b = [-big, big] * (n // 2)
        result = negacyclic_convolve(a, b, n)
        expected = _schoolbook_negacyclic(a, b, n)
        assert result == expected

    def test_signed_inputs(self):
        a = [-1, 2, -3, 4]
        b = [5, -6, 7, -8]
        assert negacyclic_convolve(a, b, 4) == _schoolbook_negacyclic(a, b, 4)

    def test_zero_inputs(self):
        zeros = [0] * 256
        assert negacyclic_convolve(zeros, zeros, 256) == zeros

    def test_rejects_wrong_length(self):
        with pytest.raises(ParameterError):
            negacyclic_convolve([1, 2], [1, 2, 3], 2)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            negacyclic_convolve([1] * 3, [1] * 3, 3)
