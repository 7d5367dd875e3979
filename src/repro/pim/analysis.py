"""Kernel analysis: where the DPU cycles actually go.

Because every kernel execution carries an operation tally, the model
can answer questions the paper's measurements can't: what *fraction* of
a kernel's cycles is spent in each instruction class. The
``ext_op_breakdown`` experiment uses this to show, e.g., that the
128-bit multiply kernel spends >95% of its cycles inside the software
shift-and-add loop — the quantitative core of Key Takeaway 2.
"""

from __future__ import annotations

import math

from repro.errors import ParameterError
from repro.pim.isa import DEFAULT_CYCLES_PER_OP
from repro.pim.kernels.base import COST_SAMPLE_SIZE, Kernel

#: Instruction classes for the breakdown report, mapping the fine-
#: grained op names onto the architectural story. Every op the ISA
#: table prices belongs to exactly one class; ``tests/pim/test_analysis.py``
#: guards that, so a new op is classified in the change that prices it.
OP_CLASSES = {
    "arithmetic": ("add", "addc", "sub", "subc"),
    "shifts/logic": ("lsl", "lsr", "and", "or", "xor"),
    "control": ("branch", "cmp", "move"),
    "memory": ("load", "store"),
    "multiply-hw": ("mul8",),
}


def _sample_counts(kernel: Kernel, sample_size: int) -> dict:
    """Summed op counts of the kernel's ``sample_size``-element cost
    sample (:meth:`Kernel.cost_sample`)."""
    if sample_size <= 0:
        raise ParameterError(f"sample_size must be positive: {sample_size}")
    return kernel.cost_sample(sample_size).as_dict()


def kernel_op_tally(kernel: Kernel, sample_size: int = COST_SAMPLE_SIZE) -> dict:
    """Average per-element operation counts of a kernel (measured).

    Reads :meth:`Kernel.cost_sample`: at the default size that is the
    very sample behind the kernel's modelled cycles, and at any size it
    runs on a fresh kernel, never on ``kernel`` itself.
    """
    return {
        op: count / sample_size
        for op, count in _sample_counts(kernel, sample_size).items()
    }


def kernel_cycle_breakdown(
    kernel: Kernel, sample_size: int = COST_SAMPLE_SIZE
) -> dict:
    """Fraction of a kernel's cycles per instruction class.

    Returns ``{class_name: fraction}`` summing to 1.0 (within float
    error), using the ISA cost table's weights. Each class's cycles and
    the total are correctly rounded sums (:func:`math.fsum`) of the
    sample's whole op counts times their weights, divided once, so the
    breakdown does not depend on the order the tally lists its ops in.
    """
    counts = _sample_counts(kernel, sample_size)

    def cycles(ops) -> float:
        return math.fsum(
            counts[op] * DEFAULT_CYCLES_PER_OP.get(op, 1.0)
            for op in ops
            if op in counts
        )

    total = cycles(counts)
    if total == 0:
        raise ParameterError(f"kernel {kernel.name!r} executed no operations")
    return {
        class_name: cycles(ops) / total
        for class_name, ops in OP_CLASSES.items()
    }
