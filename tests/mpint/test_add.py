"""Carry-chain addition/subtraction/comparison: correctness + costs.

Operands are one-lane limb planes (``planes(value, n)``), so every test
exercises the production element-parallel routines on a single element.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.mpint.add import (
    add_with_carry,
    compare,
    conditional_subtract,
    negate_mod,
    sub_with_borrow,
)
from repro.mpint.cost import OpTally
from repro.mpint.limbs import from_planes, to_planes


def planes(value, n_limbs):
    return to_planes([value], n_limbs)


def value(planes_):
    return from_planes(planes_)[0]


def limb_pair(n_limbs):
    bound = 2 ** (32 * n_limbs) - 1
    return st.tuples(
        st.integers(min_value=0, max_value=bound),
        st.integers(min_value=0, max_value=bound),
    )


class TestAddWithCarry:
    @given(limb_pair(4))
    def test_matches_integer_addition(self, pair):
        a, b = pair
        total, carry = add_with_carry(
            planes(a, 4), planes(b, 4), OpTally()
        )
        assert value(total) + (int(carry[0]) << 128) == a + b

    def test_carry_propagates_through_all_limbs(self):
        a = planes(2**128 - 1, 4)
        b = planes(1, 4)
        total, carry = add_with_carry(a, b, OpTally())
        assert value(total) == 0
        assert carry.tolist() == [1]

    @pytest.mark.parametrize("n_limbs", [1, 2, 4, 8])
    def test_instruction_pattern_is_add_then_addc(self, n_limbs):
        # The paper's wide addition: one add + (n-1) addc, exactly.
        tally = OpTally()
        add_with_carry(
            planes(0, n_limbs), planes(0, n_limbs), tally
        )
        expected = {"add": 1}
        if n_limbs > 1:
            expected["addc"] = n_limbs - 1
        assert tally.as_dict() == expected

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            add_with_carry(planes(1, 2), planes(1, 1), OpTally())

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            add_with_carry([], [], OpTally())


class TestSubWithBorrow:
    @given(limb_pair(4))
    def test_matches_integer_subtraction(self, pair):
        a, b = pair
        diff, borrow = sub_with_borrow(
            planes(a, 4), planes(b, 4), OpTally()
        )
        assert value(diff) - (int(borrow[0]) << 128) == a - b

    def test_borrow_set_when_a_less_than_b(self):
        _, borrow = sub_with_borrow(planes(1, 2), planes(2, 2), OpTally())
        assert borrow.tolist() == [1]

    @given(limb_pair(2))
    def test_add_then_sub_roundtrips(self, pair):
        a, b = pair
        tally = OpTally()
        total, carry = add_with_carry(planes(a, 2), planes(b, 2), tally)
        diff, borrow = sub_with_borrow(total, planes(b, 2), tally)
        if not carry[0]:
            assert value(diff) == a
            assert borrow.tolist() == [0]


class TestCompare:
    @given(limb_pair(4))
    def test_matches_integer_compare(self, pair):
        a, b = pair
        result = compare(planes(a, 4), planes(b, 4), OpTally())
        assert result.tolist() == [(a > b) - (a < b)]

    def test_equal_scans_all_limbs(self):
        tally = OpTally()
        compare(planes(5, 4), planes(5, 4), tally)
        assert tally.as_dict()["cmp"] == 4

    def test_top_limb_difference_stops_early(self):
        tally = OpTally()
        compare(planes(1 << 96, 4), planes(0, 4), tally)
        assert tally.as_dict()["cmp"] == 1


class TestConditionalSubtract:
    @given(st.integers(min_value=2, max_value=2**64 - 1), st.data())
    def test_reduces_sums_of_residues(self, modulus, data):
        a = data.draw(st.integers(min_value=0, max_value=modulus - 1))
        b = data.draw(st.integers(min_value=0, max_value=modulus - 1))
        total = a + b  # < 2 * modulus, fits 3 limbs
        result = conditional_subtract(
            planes(total, 3), planes(modulus, 3), OpTally()
        )
        assert value(result) == total % modulus

    def test_below_modulus_is_identity(self):
        result = conditional_subtract(planes(5, 2), planes(100, 2), OpTally())
        assert value(result) == 5


class TestNegateMod:
    @given(st.integers(min_value=2, max_value=2**64 - 1), st.data())
    def test_matches_modular_negation(self, modulus, data):
        a = data.draw(st.integers(min_value=0, max_value=modulus - 1))
        result = negate_mod(planes(a, 2), planes(modulus, 2), OpTally())
        assert value(result) == (-a) % modulus

    def test_zero_maps_to_zero(self):
        result = negate_mod(planes(0, 2), planes(97, 2), OpTally())
        assert value(result) == 0

    def test_rejects_value_above_modulus(self):
        with pytest.raises(ParameterError):
            negate_mod(planes(100, 2), planes(97, 2), OpTally())
