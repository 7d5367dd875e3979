"""Per-coefficient ciphertext tensor-product kernel.

Homomorphic multiplication of two size-2 BFV ciphertexts forms three
output polynomials from four coefficient products::

    d0 = a0 * b0
    d1 = a0 * b1 + a1 * b0
    d2 = a1 * b1

This kernel processes every coefficient slot at once, one per lane of
:mod:`repro.mpint`'s limb planes. Per slot it loads the four
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
from repro.mpint.limbs import from_planes, to_planes
from repro.mpint.mul import multiply
from repro.pim.kernels.base import Kernel, grouped, random_limb_values


class TensorMulKernel(Kernel):
    """One BFV tensor-product slot: 4 muls + 1 double-width add."""

    name = "tensor_mul"

    def run_elements(self, elements: list, tally: OpTally) -> list:
        limbs, lanes = self.limbs, len(elements)
        self.charge_loads(tally, 4 * limbs, lanes)

        a0, a1, b0, b1 = (
            to_planes([e[i] for e in elements], limbs) for i in range(4)
        )
        d0 = multiply(a0, b0, tally)
        cross1 = multiply(a0, b1, tally)
        cross2 = multiply(a1, b0, tally)
        d1, carry = add_with_carry(cross1, cross2, tally)
        d2 = multiply(a1, b1, tally)

        self.charge_stores(tally, 3 * 2 * limbs, lanes)
        self.charge_loop_overhead(tally, lanes)
        # The carry out of d1 is its extra top limb.
        return list(
            zip(from_planes(d0), from_planes(d1 + [carry]), from_planes(d2))
        )

    def cost_key(self) -> tuple:
        return (self.limbs,)

    def random_elements(self, rng: np.random.Generator, count: int) -> list:
        return grouped(random_limb_values(rng, self.limbs, 4 * count), 4)

    def mram_bytes_per_element(self) -> int:
        # Four container reads, three double-width writes.
        return 4 * 4 * self.limbs + 3 * 8 * self.limbs

    def footprint_bytes_per_element(self) -> int:
        # In the statistical workloads the three product polynomials
        # feed a running accumulator immediately, so only the operand
        # ciphertexts are MRAM-resident.
        return 4 * 4 * self.limbs
