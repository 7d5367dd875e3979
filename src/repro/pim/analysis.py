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
#: grained op names onto the architectural story.
OP_CLASSES = {
    "arithmetic": ("add", "addc", "sub", "subc"),
    "shifts/logic": ("lsl", "lsr", "and", "or", "xor"),
    "control": ("branch", "cmp", "move"),
    "memory": ("load", "store"),
    "multiply-hw": ("mul8",),
}


def classification_gaps() -> dict:
    """Drift between the ISA cost table and the breakdown classes.

    Returns ``{"unclassified": [...], "unknown": [...],
    "duplicated": [...]}``:

    * **unclassified** — ops priced in
      :data:`~repro.pim.isa.DEFAULT_CYCLES_PER_OP` that no class in
      :data:`OP_CLASSES` covers (their cycles would silently vanish
      from every breakdown);
    * **unknown** — ops a class references that the cost table does not
      price (a typo, or a class outliving a renamed op);
    * **duplicated** — ops claimed by more than one class (their cycles
      would be double-counted).

    All three empty is the invariant ``tests/pim/test_analysis.py``
    guards; new ISA ops must be classified in the same change that
    prices them.
    """
    claimed: list = []
    for ops in OP_CLASSES.values():
        claimed.extend(ops)
    return {
        "unclassified": sorted(set(DEFAULT_CYCLES_PER_OP) - set(claimed)),
        "unknown": sorted(set(claimed) - set(DEFAULT_CYCLES_PER_OP)),
        "duplicated": sorted(
            op for op in set(claimed) if claimed.count(op) > 1
        ),
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


def software_multiply_share(
    kernel: Kernel, sample_size: int = COST_SAMPLE_SIZE
) -> float:
    """Fraction of cycles attributable to the software multiply loop.

    The shift-and-add loop is made of shifts, logic, control, and the
    conditional accumulate adds; on a multiply-dominated kernel the
    non-memory classes approximate the loop's share. Reported as
    ``1 - memory_fraction`` minus the carry-chain floor measured on the
    equivalent addition kernel — a simple, honest attribution.
    """
    breakdown = kernel_cycle_breakdown(kernel, sample_size)
    return 1.0 - breakdown["memory"]
