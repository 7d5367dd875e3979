"""Kernel cycle-breakdown analysis."""

import pytest

from repro.errors import ParameterError
from repro.mpint.cost import OpTally
from repro.pim.analysis import (
    OP_CLASSES,
    classification_gaps,
    kernel_cycle_breakdown,
    kernel_op_tally,
    software_multiply_share,
)
from repro.pim.isa import DEFAULT_CYCLES_PER_OP
from repro.pim.kernels import ReduceSumKernel, VecAddKernel, VecMulKernel
from repro.pim.kernels.base import COST_SAMPLE_SIZE
from repro.poly.modring import find_ntt_prime

Q109 = find_ntt_prime(109, 4096)


class TestClassificationDriftGuard:
    """The ISA table and the breakdown classes must never drift apart:
    an op priced but unclassified silently vanishes from every
    ``ext_op_breakdown`` report, and a class naming a nonexistent op
    means the report lies about what it covers."""

    def test_every_priced_op_is_classified(self):
        assert classification_gaps()["unclassified"] == []

    def test_no_class_references_unknown_ops(self):
        assert classification_gaps()["unknown"] == []

    def test_no_op_claimed_twice(self):
        assert classification_gaps()["duplicated"] == []

    def test_gaps_detect_an_unclassified_op(self, monkeypatch):
        patched = dict(DEFAULT_CYCLES_PER_OP, new_op=1.0)
        monkeypatch.setattr(
            "repro.pim.analysis.DEFAULT_CYCLES_PER_OP", patched
        )
        assert classification_gaps()["unclassified"] == ["new_op"]

    def test_gaps_detect_unknown_and_duplicated_ops(self, monkeypatch):
        patched = dict(OP_CLASSES)
        patched["bogus"] = ("no_such_op", "add")
        monkeypatch.setattr("repro.pim.analysis.OP_CLASSES", patched)
        gaps = classification_gaps()
        assert gaps["unknown"] == ["no_such_op"]
        assert gaps["duplicated"] == ["add"]


class TestOpTally:
    def test_add_kernel_counts(self):
        per_op = kernel_op_tally(VecAddKernel(4, Q109), sample_size=32)
        # The 128-bit carry chain: exactly 1 add and 3 addc per element.
        assert per_op["add"] == pytest.approx(1.0)
        assert per_op["addc"] == pytest.approx(3.0)

    def test_rejects_bad_sample(self):
        with pytest.raises(ParameterError):
            kernel_op_tally(VecAddKernel(1, 97), sample_size=0)

    @pytest.mark.parametrize("sample_size", [96, 32])
    def test_leaves_the_kernel_untouched(self, sample_size):
        """The sample runs on a fresh kernel: a stateful kernel's
        accumulator is the same after the call as before it."""
        kernel = ReduceSumKernel(4, 2**109 - 1)
        kernel_op_tally(kernel, sample_size=sample_size)
        assert kernel.accumulator == 0

    def test_default_size_reads_the_cost_sample(self):
        kernel = VecMulKernel(4)
        per_op = kernel_op_tally(kernel)
        sample = kernel.cost_sample().as_dict()
        assert per_op == {op: n / COST_SAMPLE_SIZE for op, n in sample.items()}


class TestBreakdown:
    def test_fractions_sum_to_one(self):
        breakdown = kernel_cycle_breakdown(VecMulKernel(4))
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert set(breakdown) == set(OP_CLASSES)

    def test_multiply_kernel_is_loop_dominated(self):
        """Key Takeaway 2 quantified: the software multiply loop
        (shifts/logic + control) eats ~90% of the kernel's cycles."""
        breakdown = kernel_cycle_breakdown(VecMulKernel(4))
        loop = breakdown["shifts/logic"] + breakdown["control"]
        assert loop > 0.85
        assert breakdown["memory"] < 0.01

    def test_add_kernel_is_memory_heavy(self):
        breakdown = kernel_cycle_breakdown(VecAddKernel(4, Q109))
        assert breakdown["memory"] > 0.25
        assert breakdown["arithmetic"] > 0.25

    def test_no_hardware_multiplies_anywhere(self):
        """First-generation silicon: the mul8 class never appears in
        the paper's kernels (the model would use it only for the
        native-multiplier what-if)."""
        for kernel in (VecMulKernel(1), VecMulKernel(4), VecAddKernel(4, Q109)):
            assert kernel_cycle_breakdown(kernel)["multiply-hw"] == 0.0

    @pytest.mark.parametrize(
        "kernel",
        [VecMulKernel(4), ReduceSumKernel(4, 2**109 - 1)],
        ids=["vec_mul", "reduce_sum"],
    )
    def test_independent_of_the_tally_order(self, kernel, monkeypatch):
        """Permuting the order the sample lists its ops in leaves every
        fraction bit-identical."""
        expected = kernel_cycle_breakdown(kernel)
        counts = kernel.cost_sample().as_dict()
        for order in (sorted(counts), sorted(counts, reverse=True)):
            permuted = OpTally()
            for op in order:
                permuted.charge(op, counts[op])
            monkeypatch.setattr(
                kernel, "cost_sample", lambda size, tally=permuted: tally
            )
            assert list(kernel.cost_sample(COST_SAMPLE_SIZE).as_dict()) == order
            assert kernel_cycle_breakdown(kernel) == expected

    def test_software_multiply_share(self):
        assert software_multiply_share(VecMulKernel(4)) > 0.95

    def test_experiment_rows(self):
        from repro.harness.experiments import get_experiment

        rows = get_experiment("ext_op_breakdown").run()
        assert len(rows) == 6
        by_label = {row.label: row for row in rows}
        mul_row = by_label["vec_mul 128-bit"]
        assert (
            mul_row.series["shifts/logic %"] + mul_row.series["control %"]
            > 85.0
        )
