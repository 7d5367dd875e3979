"""Element-wise multi-limb modular addition kernel.

This is the paper's homomorphic-addition inner loop (Section 3): "Each
PIM thread running on a PIM core performs the element-wise addition of
the coefficients of two polynomials", using the native 32-bit
``add``/``addc`` carry chain for 64- and 128-bit coefficients.

Per element (all elements run at once, one per lane of
:mod:`repro.mpint`'s limb planes) the kernel:

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
from repro.mpint.add import add_with_carry, reduce_once
from repro.mpint.cost import OpTally
from repro.mpint.limbs import from_planes, to_planes
from repro.pim.kernels.base import (
    Kernel,
    constant_planes,
    grouped,
    random_limb_values,
    random_residues,
)


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
        self._modulus_planes = (
            None if modulus is None else constant_planes(modulus, limbs)
        )

    def run_elements(self, elements: list, tally: OpTally) -> list:
        limbs, lanes = self.limbs, len(elements)
        self.charge_loads(tally, 2 * limbs, lanes)
        total, carry = add_with_carry(
            to_planes([a for a, _ in elements], limbs),
            to_planes([b for _, b in elements], limbs),
            tally,
        )
        if self._modulus_planes is not None:
            # a, b < q, so a + b < 2q: one subtraction of q suffices.
            total = reduce_once(total, carry, self._modulus_planes, tally)
        self.charge_stores(tally, limbs, lanes)
        self.charge_loop_overhead(tally, lanes)
        return from_planes(total)

    def cost_key(self) -> tuple:
        return (self.limbs, self.modulus)

    def random_elements(self, rng: np.random.Generator, count: int) -> list:
        if self.modulus is None:
            return grouped(random_limb_values(rng, self.limbs, 2 * count), 2)
        return grouped(random_residues(rng, self.modulus, self.limbs, 2 * count), 2)

    def mram_bytes_per_element(self) -> int:
        # Two operand reads plus one result write, container width each.
        return 3 * 4 * self.limbs
