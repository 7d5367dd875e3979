"""Closed-form ``mul32`` against the per-step shift-and-add oracle."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpint.cost import OpTally
from repro.mpint.limbs import to_planes
from repro.mpint.mul import mul32
from tests.mpint.reference_mul32 import reference_mul32

limb32 = st.integers(min_value=0, max_value=2**32 - 1)

EDGE_OPERANDS = [0, 2**32 - 1] + [1 << i for i in range(32)]


def assert_matches_oracle(a, b):
    fast, slow = OpTally(), OpTally()
    low, high = mul32(*to_planes([a], 1), *to_planes([b], 1), fast)
    assert (int(low[0]), int(high[0])) == reference_mul32(a, b, slow)
    assert fast.as_dict() == slow.as_dict()


class TestMul32ClosedForm:
    @given(limb32, limb32)
    def test_matches_stepwise_loop(self, a, b):
        assert_matches_oracle(a, b)

    @pytest.mark.parametrize("b", EDGE_OPERANDS)
    @pytest.mark.parametrize("a", [0, 0x9E3779B9, 2**32 - 1])
    def test_edge_operands(self, a, b):
        assert_matches_oracle(a, b)
