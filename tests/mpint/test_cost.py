"""Operation tallies and closed-form expected counts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.mpint.cost import (
    OpTally,
    expected_ops_add,
    expected_ops_mul,
    expected_ops_mul32,
)
from repro.mpint.add import add_with_carry
from repro.mpint.limbs import to_planes
from repro.mpint.mul import mul32, multiply


def planes(value, n_limbs):
    return to_planes([value], n_limbs)


class TestOpTally:
    def test_charge_and_total(self):
        t = OpTally()
        t.charge("add")
        t.charge("addc", 3)
        assert t.total() == 4
        assert t.as_dict() == {"add": 1, "addc": 3}

    def test_rejects_unknown_op(self):
        with pytest.raises(ParameterError):
            OpTally().charge("fma")

    def test_rejects_negative_count(self):
        with pytest.raises(ParameterError):
            OpTally().charge("add", -1)

    def test_merge(self):
        a, b = OpTally(), OpTally()
        a.charge("add", 2)
        b.charge("add", 3)
        b.charge("lsl", 1)
        a.merge(b)
        assert a.as_dict() == {"add": 5, "lsl": 1}

    def test_scaled(self):
        t = OpTally()
        t.charge("add", 2)
        assert t.scaled(10).as_dict() == {"add": 20}
        assert t.as_dict() == {"add": 2}  # original untouched

    def test_scaled_rejects_negative(self):
        with pytest.raises(ParameterError):
            OpTally().scaled(-1)

    def test_weighted_total_defaults_to_one(self):
        t = OpTally()
        t.charge("add", 2)
        t.charge("mul8", 1)
        assert t.weighted_total({"mul8": 3.0}) == 5.0

    def test_zero_charge_is_noop_total(self):
        t = OpTally()
        t.charge("add", 0)
        assert t.total() == 0


class TestExpectedAdd:
    @pytest.mark.parametrize("n_limbs", [1, 2, 4, 8])
    def test_matches_execution_exactly(self, n_limbs):
        tally = OpTally()
        add_with_carry(planes(1, n_limbs), planes(2, n_limbs), tally)
        assert tally.as_dict() == expected_ops_add(n_limbs)

    def test_rejects_zero_limbs(self):
        with pytest.raises(ParameterError):
            expected_ops_add(0)


class TestExpectedMul32:
    def test_data_independent_ops_exact(self):
        """Shift/branch/compare counts never depend on operand bits."""
        expected = expected_ops_mul32()
        tally = OpTally()
        mul32(*planes(0x9E3779B9, 1), *planes(0x85EBCA6B, 1), tally)
        got = tally.as_dict()
        for op in ("lsl", "lsr", "cmp", "and"):
            assert got[op] == expected[op], op

    def test_expected_matches_mean_of_random_executions(self):
        """Data-dependent counts match in expectation within 5%."""
        rng = np.random.default_rng(42)
        total = OpTally()
        n = 400
        mul32(
            rng.integers(0, 2**32, size=n, dtype=np.uint64),
            rng.integers(0, 2**32, size=n, dtype=np.uint64),
            total,
        )
        expected = expected_ops_mul32()
        for op, count in expected.items():
            mean = total.counts[op] / n
            assert mean == pytest.approx(count, rel=0.05), op


class TestExpectedMul:
    @pytest.mark.parametrize("n_limbs", [1, 2, 4])
    @pytest.mark.parametrize("algorithm", ["schoolbook", "karatsuba"])
    def test_expected_total_close_to_measured(self, n_limbs, algorithm):
        """Closed forms track measured totals within 15%.

        The closed forms are expectations with simplified carry/ripple
        terms, used only for documentation and sanity checking — the
        analytic benchmark path derives counts by sampling execution.
        """
        rng = np.random.default_rng(7)
        measured = OpTally()
        n = 40
        for _ in range(n):
            a = int.from_bytes(rng.bytes(4 * n_limbs), "little")
            b = int.from_bytes(rng.bytes(4 * n_limbs), "little")
            multiply(
                planes(a, n_limbs), planes(b, n_limbs), measured, algorithm
            )
        mean_total = measured.total() / n
        expected_total = sum(expected_ops_mul(n_limbs, algorithm).values())
        assert mean_total == pytest.approx(expected_total, rel=0.15)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ParameterError):
            expected_ops_mul(2, "fft")

    def test_rejects_zero_limbs(self):
        with pytest.raises(ParameterError):
            expected_ops_mul(0)

    def test_auto_matches_threshold_choice(self):
        assert expected_ops_mul(1, "auto") == expected_ops_mul(1, "schoolbook")
        assert expected_ops_mul(4, "auto") == expected_ops_mul(4, "karatsuba")


@given(st.lists(st.sampled_from(["add", "addc", "lsl", "mul8"]), max_size=50))
def test_tally_total_equals_sum_of_charges(ops):
    t = OpTally()
    for op in ops:
        t.charge(op)
    assert t.total() == len(ops)
