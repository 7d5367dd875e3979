"""Per-coefficient ciphertext tensor-product kernel.

Homomorphic multiplication of two size-2 BFV ciphertexts forms three
output polynomials from four coefficient products::

    d0 = a0 * b0
    d1 = a0 * b1 + a1 * b0
    d2 = a1 * b1

This kernel processes one coefficient slot at a time: it loads the four
operand coefficients (a0, a1 from one ciphertext, b0, b1 from the
other), performs the four multi-limb multiplications (software
shift-and-add + Karatsuba) and one double-width addition, and stores
the three double-width results. The variance and linear-regression
workloads spend nearly all their device time here, which is why they
inherit multiplication's poor PIM performance (paper Section 4.3).
"""

from __future__ import annotations

import numpy as np

from repro.mpint.add import add_with_carry
from repro.mpint.cost import OpTally
from repro.mpint.limbs import from_limbs, to_limbs
from repro.mpint.mul import multiply
from repro.pim.kernels.base import Kernel, random_limb_value


class TensorMulKernel(Kernel):
    """One BFV tensor-product slot: 4 muls + 1 double-width add."""

    name = "tensor_mul"

    def run_element(self, element, tally: OpTally) -> tuple:
        a0, a1, b0, b1 = element
        limbs = self.limbs
        self.charge_loads(tally, 4 * limbs)

        a0_l, a1_l = to_limbs(a0, limbs), to_limbs(a1, limbs)
        b0_l, b1_l = to_limbs(b0, limbs), to_limbs(b1, limbs)

        d0 = multiply(a0_l, b0_l, tally)
        cross1 = multiply(a0_l, b1_l, tally)
        cross2 = multiply(a1_l, b0_l, tally)
        d1, carry = add_with_carry(cross1, cross2, tally)
        d2 = multiply(a1_l, b1_l, tally)

        self.charge_stores(tally, 3 * 2 * limbs)
        self.charge_loop_overhead(tally)
        return (
            from_limbs(d0),
            from_limbs(d1) + (carry << (64 * limbs)),
            from_limbs(d2),
        )

    def cost_key(self) -> tuple:
        return (self.limbs,)

    def random_element(self, rng: np.random.Generator):
        return tuple(random_limb_value(rng, self.limbs) for _ in range(4))

    def mram_bytes_per_element(self) -> int:
        # Four container reads, three double-width writes.
        return 4 * 4 * self.limbs + 3 * 8 * self.limbs

    def footprint_bytes_per_element(self) -> int:
        # In the statistical workloads the three product polynomials
        # feed a running accumulator immediately, so only the operand
        # ciphertexts are MRAM-resident.
        return 4 * 4 * self.limbs
