"""Many-to-one modular accumulation kernel.

The arithmetic-mean workload (paper Section 3) sums the ciphertexts of
all users on the device before a single scalar division on the host.
On a DPU that sum is a streaming accumulation: each tasklet keeps a
running multi-limb accumulator in registers/WRAM and folds one element
per iteration with the same ``add``/``addc`` chain as
:class:`~repro.pim.kernels.vecadd.VecAddKernel`, plus the conditional
subtraction keeping the accumulator a residue.

Per element the kernel only *loads* (one operand — the accumulator
stays resident), so its MRAM traffic is a third of vec_add's; the
tree-combination of per-tasklet partial sums is charged by the runtime
as ``log2`` extra elements, which is negligible and covered by the
per-element average.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.mpint.add import add_with_carry, conditional_subtract, sub_with_borrow
from repro.mpint.cost import OpTally
from repro.mpint.limbs import from_limbs, to_limbs
from repro.pim.kernels.base import Kernel, random_residue


class ReduceSumKernel(Kernel):
    """Accumulate residues modulo ``q``: the mean workload's inner loop."""

    name = "reduce_sum"

    def __init__(self, limbs: int, modulus: int):
        super().__init__(limbs)
        if modulus < 2:
            raise ParameterError(f"modulus must be >= 2: {modulus}")
        if modulus.bit_length() > 32 * limbs:
            raise ParameterError(
                f"modulus of {modulus.bit_length()} bits does not fit "
                f"{limbs} limbs"
            )
        self.modulus = modulus
        self._modulus_limbs = to_limbs(modulus, limbs)
        self._accumulator = to_limbs(0, limbs)

    def reset(self) -> None:
        """Clear the running accumulator (between independent runs)."""
        self._accumulator = to_limbs(0, self.limbs)

    def run_element(self, element, tally: OpTally) -> int:
        limbs = self.limbs
        self.charge_loads(tally, limbs)  # only the streamed operand
        value = to_limbs(element, limbs)
        total, carry = add_with_carry(self._accumulator, value, tally)
        if carry:
            total, _ = sub_with_borrow(total, self._modulus_limbs, tally)
        else:
            total = conditional_subtract(total, self._modulus_limbs, tally)
        self._accumulator = total
        self.charge_loop_overhead(tally)
        return from_limbs(total)

    @property
    def accumulator(self) -> int:
        """Current accumulated residue."""
        return from_limbs(self._accumulator)

    def cost_key(self) -> tuple:
        return (self.limbs, self.modulus)

    def random_element(self, rng: np.random.Generator):
        return random_residue(rng, self.modulus, self.limbs)

    def mram_bytes_per_element(self) -> int:
        # One streamed read; the accumulator lives in WRAM.
        return 4 * self.limbs
