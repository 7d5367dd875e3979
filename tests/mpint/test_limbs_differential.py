"""Element-parallel limb routines against the per-element oracle.

Each test runs a list of elements through a production routine as the
lanes of one call, and through :mod:`tests.mpint.reference_limbs` one
element at a time. Results must match lane for lane and the tallies
must be equal: the production tally is the exact per-element sum.
Operands lean on the data-dependent paths: all-ones limbs (the longest
carry ripple), equal operands (``compare``'s full scan), zero
(``negate_mod``'s early exit) and operands whose Karatsuba half-sums
both carry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpint import add, mul
from repro.mpint.cost import OpTally
from repro.mpint.limbs import from_limbs, from_planes, to_limbs, to_planes
from tests.mpint import reference_limbs as ref
from tests.mpint.reference_limbs import assert_same_tally
from tests.mpint.reference_mul32 import reference_mul32


#: Examples per test and width: each routine runs at three or four
#: widths, and the operand strategies already favour the edge cases.
EXAMPLES = settings(max_examples=20)


def operand(n_limbs):
    """Values of ``n_limbs`` limbs, biased to the data-dependent paths."""
    top = 2 ** (32 * n_limbs) - 1
    half = 32 * (n_limbs // 2)
    # Upper half all ones: the Karatsuba half-sum a0 + a1 carries
    # whenever a0 > 0.
    carrying = st.integers(min_value=1, max_value=2**half - 1).map(
        lambda low: (top >> half << half) | low
    )
    return st.one_of(
        st.integers(min_value=0, max_value=top),
        st.just(top),
        st.just(0),
        st.just(1),
        carrying if half else st.just(top),
    )


def lanes_of(n_limbs, max_size=12):
    """Lists of operand pairs; some pairs are equal operands."""
    value = operand(n_limbs)
    pair = st.one_of(st.tuples(value, value), value.map(lambda v: (v, v)))
    return st.lists(pair, min_size=1, max_size=max_size)


def planes_of(values, n_limbs):
    return to_planes(list(values), n_limbs)


class TestCarryChains:
    @pytest.mark.parametrize("n_limbs", [1, 2, 4, 8])
    @EXAMPLES
    @given(data=st.data())
    def test_add_with_carry(self, n_limbs, data):
        pairs = data.draw(lanes_of(n_limbs))
        fast, slow = OpTally(), OpTally()
        total, carry = add.add_with_carry(
            planes_of((a for a, _ in pairs), n_limbs),
            planes_of((b for _, b in pairs), n_limbs),
            fast,
        )
        expected = [
            ref.add_with_carry(to_limbs(a, n_limbs), to_limbs(b, n_limbs), slow)
            for a, b in pairs
        ]
        assert from_planes(total) == [from_limbs(s) for s, _ in expected]
        assert carry.tolist() == [c for _, c in expected]
        assert_same_tally(fast, slow)

    @pytest.mark.parametrize("n_limbs", [1, 2, 4, 8])
    @EXAMPLES
    @given(data=st.data())
    def test_sub_with_borrow(self, n_limbs, data):
        pairs = data.draw(lanes_of(n_limbs))
        fast, slow = OpTally(), OpTally()
        diff, borrow = add.sub_with_borrow(
            planes_of((a for a, _ in pairs), n_limbs),
            planes_of((b for _, b in pairs), n_limbs),
            fast,
        )
        expected = [
            ref.sub_with_borrow(to_limbs(a, n_limbs), to_limbs(b, n_limbs), slow)
            for a, b in pairs
        ]
        assert from_planes(diff) == [from_limbs(d) for d, _ in expected]
        assert borrow.tolist() == [b for _, b in expected]
        assert_same_tally(fast, slow)

    @pytest.mark.parametrize("n_limbs", [1, 2, 4])
    @EXAMPLES
    @given(data=st.data())
    def test_compare(self, n_limbs, data):
        pairs = data.draw(lanes_of(n_limbs))
        fast, slow = OpTally(), OpTally()
        result = add.compare(
            planes_of((a for a, _ in pairs), n_limbs),
            planes_of((b for _, b in pairs), n_limbs),
            fast,
        )
        expected = [
            ref.compare(to_limbs(a, n_limbs), to_limbs(b, n_limbs), slow)
            for a, b in pairs
        ]
        assert result.tolist() == expected
        assert_same_tally(fast, slow)

    def test_equal_operands_scan_every_limb(self):
        fast = OpTally()
        add.compare(planes_of([7, 7], 4), planes_of([7, 7], 4), fast)
        assert fast.as_dict() == {"cmp": 8, "branch": 8}


def residues(n_limbs):
    """A modulus of ``n_limbs`` limbs and lanes of residue pairs below it."""
    top = 2 ** (32 * n_limbs) - 1

    @st.composite
    def draw(draw):
        modulus = draw(
            st.one_of(st.integers(min_value=2, max_value=top), st.just(top))
        )
        value = st.one_of(
            st.integers(min_value=0, max_value=modulus - 1),
            st.just(modulus - 1),
            st.just(0),
        )
        pairs = draw(st.lists(st.tuples(value, value), min_size=1, max_size=12))
        return modulus, pairs

    return draw()


class TestModularSteps:
    @pytest.mark.parametrize("n_limbs", [1, 2, 4])
    @EXAMPLES
    @given(data=st.data())
    def test_conditional_subtract(self, n_limbs, data):
        modulus, pairs = data.draw(residues(n_limbs))
        sums = [a + b for a, b in pairs]  # below 2q: one extra limb
        width = n_limbs + 1
        fast, slow = OpTally(), OpTally()
        result = add.conditional_subtract(
            planes_of(sums, width), planes_of([modulus], width), fast
        )
        expected = [
            from_limbs(
                ref.conditional_subtract(
                    to_limbs(s, width), to_limbs(modulus, width), slow
                )
            )
            for s in sums
        ]
        assert from_planes(result) == expected == [s % modulus for s in sums]
        assert_same_tally(fast, slow)

    @pytest.mark.parametrize("n_limbs", [1, 2, 4])
    @EXAMPLES
    @given(data=st.data())
    def test_negate_mod(self, n_limbs, data):
        modulus, pairs = data.draw(residues(n_limbs))
        values = [a for a, _ in pairs] + [0]
        fast, slow = OpTally(), OpTally()
        result = add.negate_mod(
            planes_of(values, n_limbs), planes_of([modulus], n_limbs), fast
        )
        expected = [
            from_limbs(
                ref.negate_mod(
                    to_limbs(v, n_limbs), to_limbs(modulus, n_limbs), slow
                )
            )
            for v in values
        ]
        assert from_planes(result) == expected == [-v % modulus for v in values]
        assert_same_tally(fast, slow)

    @pytest.mark.parametrize("n_limbs", [1, 2, 4])
    @EXAMPLES
    @given(data=st.data())
    def test_reduce_once(self, n_limbs, data):
        """Sums of residues, with carry-out lanes when q fills the container."""
        modulus, pairs = data.draw(residues(n_limbs))
        fast, slow = OpTally(), OpTally()
        total, carry = add.add_with_carry(
            planes_of((a for a, _ in pairs), n_limbs),
            planes_of((b for _, b in pairs), n_limbs),
            fast,
        )
        result = add.reduce_once(
            total, carry, planes_of([modulus], n_limbs), fast
        )
        q = to_limbs(modulus, n_limbs)
        expected = []
        for a, b in pairs:
            s, c = ref.add_with_carry(
                to_limbs(a, n_limbs), to_limbs(b, n_limbs), slow
            )
            expected.append(from_limbs(ref.reduce_once(s, c, q, slow)))
        assert from_planes(result) == expected
        assert expected == [(a + b) % modulus for a, b in pairs]
        assert_same_tally(fast, slow)


class TestMultiply:
    @pytest.mark.parametrize("algorithm", ["schoolbook", "karatsuba"])
    @pytest.mark.parametrize("n_limbs", [1, 2, 3, 4, 8])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_matches_oracle(self, algorithm, n_limbs, data):
        pairs = data.draw(lanes_of(n_limbs, max_size=6))
        fast, slow = OpTally(), OpTally()
        product = mul.multiply(
            planes_of((a for a, _ in pairs), n_limbs),
            planes_of((b for _, b in pairs), n_limbs),
            fast,
            algorithm,
        )
        expected = [
            from_limbs(
                ref.multiply(
                    to_limbs(a, n_limbs), to_limbs(b, n_limbs), slow, algorithm
                )
            )
            for a, b in pairs
        ]
        assert from_planes(product) == expected == [a * b for a, b in pairs]
        assert_same_tally(fast, slow)

    @pytest.mark.parametrize("n_limbs", [2, 4, 8])
    def test_both_half_sums_carry(self, n_limbs):
        """Lanes where ca and cb are both set take all three folds."""
        top = 2 ** (32 * n_limbs) - 1
        half = 32 * (n_limbs // 2)
        heavy = (top >> half << half) | 1
        pairs = [(heavy, heavy), (top, top), (heavy, 5), (3, 4)]
        fast, slow = OpTally(), OpTally()
        product = mul.karatsuba_multiply(
            planes_of((a for a, _ in pairs), n_limbs),
            planes_of((b for _, b in pairs), n_limbs),
            fast,
        )
        expected = [
            ref.karatsuba_multiply(
                to_limbs(a, n_limbs), to_limbs(b, n_limbs), slow
            )
            for a, b in pairs
        ]
        assert from_planes(product) == [from_limbs(p) for p in expected]
        assert_same_tally(fast, slow)

    def test_scalar_multiplier_counts_once_per_lane(self):
        """A broadcast constant multiplier is charged in every lane."""
        fast, slow = OpTally(), OpTally()
        a = planes_of([3, 2**32 - 1, 0], 1)[0]
        mul.mul32(a, np.uint64(0xF0F0), fast)
        for v in (3, 2**32 - 1, 0):
            reference_mul32(v, 0xF0F0, slow)
        assert_same_tally(fast, slow)
