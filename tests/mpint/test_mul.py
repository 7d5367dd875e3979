"""Multi-limb multiplication: shift-and-add, schoolbook, Karatsuba.

Operands are one-lane limb planes, so every test exercises the
production element-parallel routines on a single element.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.mpint.cost import OpTally
from repro.mpint.limbs import from_planes, to_planes
from repro.mpint.mul import (
    KARATSUBA_THRESHOLD,
    karatsuba_multiply,
    mul32,
    multiply,
    schoolbook_multiply,
)

limb32 = st.integers(min_value=0, max_value=2**32 - 1)


def planes(value, n_limbs):
    return to_planes([value], n_limbs)


def value(planes_):
    return from_planes(planes_)[0]


def one_mul32(a, b, tally):
    """``mul32`` of one lane, as Python ints ``(low, high)``."""
    low, high = mul32(*planes(a, 1), *planes(b, 1), tally)
    return int(low[0]), int(high[0])


class TestMul32:
    @given(limb32, limb32)
    def test_matches_integer_product(self, a, b):
        low, high = one_mul32(a, b, OpTally())
        assert low + (high << 32) == a * b

    def test_zero_operand(self):
        assert one_mul32(0, 0xDEADBEEF, OpTally()) == (0, 0)

    def test_max_operands(self):
        m = 2**32 - 1
        low, high = one_mul32(m, m, OpTally())
        assert low + (high << 32) == m * m

    def test_rejects_wide_operands(self):
        with pytest.raises(ParameterError):
            mul32(np.array([2**32], np.uint64), *planes(1, 1), OpTally())
        with pytest.raises(ParameterError):
            mul32(*planes(1, 1), np.array([2**40], np.uint64), OpTally())

    def test_cost_is_data_dependent(self):
        # Multiplying by a dense multiplier performs more adds than by
        # a sparse one — the hallmark of the shift-and-add loop.
        dense, sparse = OpTally(), OpTally()
        one_mul32(12345, 2**32 - 1, dense)
        one_mul32(12345, 1, sparse)
        assert dense.counts["add"] > sparse.counts["add"]

    def test_shift_cost_is_data_independent(self):
        t1, t2 = OpTally(), OpTally()
        one_mul32(0, 0, t1)
        one_mul32(2**32 - 1, 2**32 - 1, t2)
        assert t1.counts["lsl"] == t2.counts["lsl"]
        assert t1.counts["lsr"] == t2.counts["lsr"]


def equal_limbs(n):
    bound = 2 ** (32 * n) - 1
    return st.tuples(
        st.integers(min_value=0, max_value=bound),
        st.integers(min_value=0, max_value=bound),
    )


class TestSchoolbook:
    @given(equal_limbs(4))
    def test_matches_integer_product_4_limbs(self, pair):
        a, b = pair
        product = schoolbook_multiply(planes(a, 4), planes(b, 4), OpTally())
        assert value(product) == a * b

    @given(st.data())
    def test_mixed_lengths(self, data):
        la = data.draw(st.integers(min_value=1, max_value=5))
        lb = data.draw(st.integers(min_value=1, max_value=5))
        a = data.draw(st.integers(min_value=0, max_value=2 ** (32 * la) - 1))
        b = data.draw(st.integers(min_value=0, max_value=2 ** (32 * lb) - 1))
        product = schoolbook_multiply(
            planes(a, la), planes(b, lb), OpTally()
        )
        assert len(product) == la + lb
        assert value(product) == a * b

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            schoolbook_multiply([], planes(1, 1), OpTally())


class TestKaratsuba:
    @pytest.mark.parametrize("n_limbs", [1, 2, 4, 8, 16])
    def test_matches_schoolbook_all_widths(self, n_limbs):
        a = (2 ** (32 * n_limbs) - 1) // 3
        b = (2 ** (32 * n_limbs) - 1) // 7
        k = karatsuba_multiply(planes(a, n_limbs), planes(b, n_limbs), OpTally())
        s = schoolbook_multiply(planes(a, n_limbs), planes(b, n_limbs), OpTally())
        assert value(k) == value(s)

    @given(equal_limbs(4))
    def test_matches_integer_product(self, pair):
        a, b = pair
        product = karatsuba_multiply(planes(a, 4), planes(b, 4), OpTally())
        assert value(product) == a * b

    @given(equal_limbs(8))
    def test_matches_integer_product_8_limbs(self, pair):
        a, b = pair
        product = karatsuba_multiply(planes(a, 8), planes(b, 8), OpTally())
        assert value(product) == a * b

    def test_operand_sum_carries_handled(self):
        # Operands whose halves sum with carry exercise the fix-up path.
        a = 2**128 - 1
        product = karatsuba_multiply(planes(a, 4), planes(a, 4), OpTally())
        assert value(product) == a * a

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            karatsuba_multiply(planes(1, 2), planes(1, 1), OpTally())

    def test_odd_length_falls_back_to_schoolbook(self):
        a = planes(2**90, 3)
        product = karatsuba_multiply(a, a, OpTally())
        assert value(product) == 2**180

    @pytest.mark.parametrize("n_limbs", [2, 4, 8])
    def test_cheaper_than_schoolbook(self, n_limbs):
        # The paper's reason for choosing Karatsuba: fewer operations.
        a = planes(2 ** (32 * n_limbs) - 1, n_limbs)
        tk, ts = OpTally(), OpTally()
        karatsuba_multiply(a, a, tk)
        schoolbook_multiply(a, a, ts)
        assert tk.total() < ts.total()

    def test_savings_grow_with_width(self):
        ratios = []
        for n_limbs in (2, 4, 8):
            a = planes(2 ** (32 * n_limbs) - 1, n_limbs)
            tk, ts = OpTally(), OpTally()
            karatsuba_multiply(a, a, tk)
            schoolbook_multiply(a, a, ts)
            ratios.append(tk.total() / ts.total())
        assert ratios[0] > ratios[1] > ratios[2]


class TestMultiplyDispatch:
    def test_auto_uses_karatsuba_at_threshold(self):
        n = KARATSUBA_THRESHOLD
        a = planes(2 ** (32 * n) - 1, n)
        auto, kar = OpTally(), OpTally()
        multiply(a, a, auto, algorithm="auto")
        karatsuba_multiply(a, a, kar)
        assert auto.as_dict() == kar.as_dict()

    def test_auto_uses_schoolbook_below_threshold(self):
        a = planes(3, 1)
        auto, school = OpTally(), OpTally()
        multiply(a, a, auto, algorithm="auto")
        schoolbook_multiply(a, a, school)
        assert auto.as_dict() == school.as_dict()

    @given(equal_limbs(2))
    def test_algorithms_agree(self, pair):
        a, b = pair
        al, bl = planes(a, 2), planes(b, 2)
        assert (
            value(multiply(al, bl, OpTally(), "schoolbook"))
            == value(multiply(al, bl, OpTally(), "karatsuba"))
            == value(multiply(al, bl, OpTally(), "auto"))
        )

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ParameterError):
            multiply(
                planes(1, 1), planes(1, 1), OpTally(), algorithm="toom-cook"
            )
