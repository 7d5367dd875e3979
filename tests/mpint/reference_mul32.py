"""Per-step shift-and-add multiply: the differential oracle for ``mul32``.

One Python iteration per multiplier bit, charging each modelled
instruction as the compiled loop issues it. This is the loop
:func:`repro.mpint.mul.mul32` replaces with a closed-form tally. It is
a test oracle only; production code never calls it.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.mpint.cost import OpTally
from repro.mpint.limbs import LIMB_BITS, LIMB_MASK

_MASK64 = (1 << 64) - 1


def reference_mul32(a: int, b: int, tally: OpTally) -> tuple:
    """Software 32x32→64 multiply, stepped; returns ``(low, high)``."""
    if not 0 <= a <= LIMB_MASK or not 0 <= b <= LIMB_MASK:
        raise ParameterError(f"mul32 operands must be 32-bit, got {a}, {b}")
    # Out-of-line call: call/return branches, prologue/epilogue moves.
    tally.charge("branch", 2)
    tally.charge("move", 12)
    acc = 0
    shifted = a
    multiplier = b
    for _ in range(LIMB_BITS):
        tally.charge("and")  # mask the low multiplier bit
        tally.charge("branch")  # test it
        if multiplier & 1:
            # Two-limb accumulate plus a pair of register shuffles.
            tally.charge("add")
            tally.charge("addc")
            tally.charge("move", 2)
            acc = (acc + shifted) & _MASK64
        multiplier >>= 1
        tally.charge("lsr")  # shift the multiplier
        # Two-limb multiplicand shift: low-limb lsl, high-limb lsl,
        # plus lsr+or to carry the low limb's top bit across.
        tally.charge("lsl", 2)
        tally.charge("lsr")
        tally.charge("or")
        shifted = (shifted << 1) & _MASK64
        # Loop bookkeeping: counter update, bound compare, back-edge.
        tally.charge("move")
        tally.charge("cmp")
        tally.charge("branch")
    return acc & LIMB_MASK, acc >> LIMB_BITS
