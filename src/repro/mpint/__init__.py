"""Multi-precision integer arithmetic on 32-bit limbs.

This subpackage mirrors, in Python, the arithmetic the paper implements
on UPMEM DPU cores (Section 3): wide integers are represented as
little-endian vectors of 32-bit *limbs*; addition is built from the
native ``add``/``addc`` (add-with-carry) instructions; multiplication
wider than 16 bits has no hardware support on the first-generation
UPMEM chip and is performed by a software shift-and-add routine, with
64-/128-bit products assembled via the Karatsuba algorithm over 32-bit
chunks.

Every routine here does double duty:

* it computes the functionally correct result, and
* it *charges* the abstract operations it performed to an
  :class:`~repro.mpint.cost.OpTally`, from which the PIM device model
  (:mod:`repro.pim.isa`) derives cycle counts.

The routines run many elements at once: operands are *limb planes*
(:func:`to_planes`), one ``uint64`` array per limb with one element per
lane, and the tally is the exact sum of what each element would charge
on its own.

Counts are therefore **derived from execution**, never asserted; the
closed-form expectation helpers (used by the analytic fast path for
large workloads) are tested against tallies of real executions.
"""

from repro.mpint.cost import OpTally, expected_ops_add, expected_ops_mul
from repro.mpint.limbs import (
    LIMB_BITS,
    LIMB_MASK,
    from_limbs,
    from_planes,
    limbs_for_bits,
    to_limbs,
    to_planes,
)
from repro.mpint.add import (
    add_with_carry,
    compare,
    conditional_subtract,
    reduce_once,
    sub_with_borrow,
)
from repro.mpint.mul import (
    KARATSUBA_THRESHOLD,
    karatsuba_multiply,
    mul32,
    multiply,
    schoolbook_multiply,
)

__all__ = [
    "LIMB_BITS",
    "LIMB_MASK",
    "KARATSUBA_THRESHOLD",
    "OpTally",
    "add_with_carry",
    "compare",
    "conditional_subtract",
    "expected_ops_add",
    "expected_ops_mul",
    "from_limbs",
    "from_planes",
    "karatsuba_multiply",
    "limbs_for_bits",
    "mul32",
    "multiply",
    "reduce_once",
    "schoolbook_multiply",
    "sub_with_borrow",
    "to_limbs",
    "to_planes",
]
