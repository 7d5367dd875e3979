"""Limb representation: conversions, bounds, and error handling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.mpint.limbs import (
    LIMB_BITS,
    LIMB_MASK,
    from_limbs,
    from_planes,
    limbs_for_bits,
    to_limbs,
    to_planes,
)


class TestLimbsForBits:
    def test_paper_security_levels(self):
        # 27/54/109-bit coefficients use 32/64/128-bit containers.
        assert limbs_for_bits(27) == 1
        assert limbs_for_bits(54) == 2
        assert limbs_for_bits(109) == 4

    def test_exact_boundaries(self):
        assert limbs_for_bits(32) == 1
        assert limbs_for_bits(33) == 2
        assert limbs_for_bits(64) == 2
        assert limbs_for_bits(65) == 3

    def test_single_bit(self):
        assert limbs_for_bits(1) == 1

    @pytest.mark.parametrize("bad", [0, -1, -32])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ParameterError):
            limbs_for_bits(bad)


class TestToLimbs:
    def test_little_endian_order(self):
        assert to_limbs(0x1_0000_0003, 2) == (3, 1)

    def test_zero_fills_all_limbs(self):
        assert to_limbs(0, 4) == (0, 0, 0, 0)

    def test_max_value(self):
        assert to_limbs(2**64 - 1, 2) == (LIMB_MASK, LIMB_MASK)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            to_limbs(-1, 2)

    def test_rejects_overflow(self):
        with pytest.raises(ParameterError):
            to_limbs(2**64, 2)

    def test_rejects_zero_limbs(self):
        with pytest.raises(ParameterError):
            to_limbs(0, 0)

    def test_exact_fit_accepted(self):
        assert to_limbs(2**64 - 1, 2) == (LIMB_MASK, LIMB_MASK)


class TestFromLimbs:
    def test_reassembles(self):
        assert from_limbs((3, 1)) == 0x1_0000_0003

    def test_empty_is_zero(self):
        assert from_limbs(()) == 0

    def test_rejects_out_of_range_limb(self):
        with pytest.raises(ParameterError):
            from_limbs((LIMB_MASK + 1,))
        with pytest.raises(ParameterError):
            from_limbs((-1,))


@given(
    value=st.integers(min_value=0, max_value=2**256 - 1),
    extra=st.integers(min_value=0, max_value=4),
)
def test_roundtrip_property(value, extra):
    """to_limbs/from_limbs are inverse for any width that fits."""
    n_limbs = max(1, -(-value.bit_length() // LIMB_BITS)) + extra
    assert from_limbs(to_limbs(value, n_limbs)) == value


@given(value=st.integers(min_value=0, max_value=2**128 - 1))
def test_limb_values_in_range(value):
    for limb in to_limbs(value, 4):
        assert 0 <= limb <= LIMB_MASK


class TestPlanes:
    @given(st.lists(st.integers(min_value=0, max_value=2**128 - 1), max_size=8))
    def test_planes_hold_each_values_limbs(self, values):
        planes = to_planes(values, 4)
        assert [p.dtype for p in planes] == ["uint64"] * 4
        assert [tuple(int(p[k]) for p in planes) for k in range(len(values))] == [
            to_limbs(v, 4) for v in values
        ]
        assert from_planes(planes) == values

    def test_rejects_values_to_limbs_rejects(self):
        with pytest.raises(ParameterError):
            to_planes([1, 2**64], 2)
        with pytest.raises(ParameterError):
            to_planes([-1], 2)
        with pytest.raises(ParameterError):
            to_planes([1], 0)

    def test_rejects_out_of_range_plane(self):
        with pytest.raises(ParameterError):
            from_planes([np.array([LIMB_MASK + 1], np.uint64)])
