"""Element-wise multi-limb modular addition kernel.

This is the paper's homomorphic-addition inner loop (Section 3): "Each
PIM thread running on a PIM core performs the element-wise addition of
the coefficients of two polynomials", using the native 32-bit
``add``/``addc`` carry chain for 64- and 128-bit coefficients.

Per element the kernel:

1. loads both operands from WRAM (64-bit loads, 2 limbs each),
2. runs the ``add`` + ``addc`` carry chain,
3. reduces modulo ``q`` with one conditional subtraction (valid because
   both operands are residues, so the sum is below ``2q``),
4. stores the result,
5. pays the streaming-loop bookkeeping.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.mpint.add import add_with_carry, conditional_subtract, sub_with_borrow
from repro.mpint.cost import OpTally
from repro.mpint.limbs import from_limbs, to_limbs
from repro.pim.kernels.base import Kernel, random_residue


class VecAddKernel(Kernel):
    """``c[i] = (a[i] + b[i]) mod q`` over ``limbs * 32``-bit elements.

    With ``modulus=None`` the kernel performs plain wrapping addition
    (the carry out of the top limb is dropped) — the mode used for raw
    container arithmetic in the microbenchmark ablations.
    """

    name = "vec_add"

    def __init__(self, limbs: int, modulus: int | None = None):
        super().__init__(limbs)
        if modulus is not None:
            if modulus < 2:
                raise ParameterError(f"modulus must be >= 2: {modulus}")
            if modulus.bit_length() > 32 * limbs:
                raise ParameterError(
                    f"modulus of {modulus.bit_length()} bits does not fit "
                    f"{limbs} limbs"
                )
        self.modulus = modulus
        self._modulus_limbs = (
            None if modulus is None else to_limbs(modulus, limbs)
        )

    def run_element(self, element, tally: OpTally) -> int:
        a, b = element
        limbs = self.limbs
        self.charge_loads(tally, 2 * limbs)
        a_limbs = to_limbs(a, limbs)
        b_limbs = to_limbs(b, limbs)
        total, _carry = add_with_carry(a_limbs, b_limbs, tally)
        if self._modulus_limbs is not None:
            # a, b < q, so a + b < 2q: one subtraction of q suffices.
            # When q uses every container bit the sum may carry out of
            # the top limb; the carry means "certainly >= q", so the
            # wrapped subtraction is exact (2^(32L) + total - q).
            if _carry:
                total, _ = sub_with_borrow(total, self._modulus_limbs, tally)
            else:
                total = conditional_subtract(total, self._modulus_limbs, tally)
        self.charge_stores(tally, limbs)
        self.charge_loop_overhead(tally)
        return from_limbs(total)

    def cost_key(self) -> tuple:
        return (self.limbs, self.modulus)

    def random_element(self, rng: np.random.Generator):
        if self.modulus is None:
            from repro.pim.kernels.base import random_limb_value

            return (
                random_limb_value(rng, self.limbs),
                random_limb_value(rng, self.limbs),
            )
        return (
            random_residue(rng, self.modulus, self.limbs),
            random_residue(rng, self.modulus, self.limbs),
        )

    def mram_bytes_per_element(self) -> int:
        # Two operand reads plus one result write, container width each.
        return 3 * 4 * self.limbs
