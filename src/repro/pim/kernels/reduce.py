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
from repro.mpint.add import add_with_carry, reduce_once
from repro.mpint.cost import OpTally
from repro.mpint.limbs import from_planes, to_planes
from repro.pim.kernels.base import Kernel, constant_planes, random_residues


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
        self._modulus_planes = constant_planes(modulus, limbs)
        self._accumulator = 0

    def reset(self) -> None:
        """Clear the running accumulator (between independent runs)."""
        self._accumulator = 0

    def _fold(self, accumulators: list, values: list, tally: OpTally) -> list:
        """One accumulation step per lane: ``(acc + value) mod q``."""
        lanes = values[0].size
        self.charge_loads(tally, self.limbs, lanes)  # only the streamed operand
        total, carry = add_with_carry(accumulators, values, tally)
        total = reduce_once(total, carry, self._modulus_planes, tally)
        self.charge_loop_overhead(tally, lanes)
        return total

    def run_elements(self, elements: list, tally: OpTally) -> list:
        """Fold ``elements`` into the running accumulator, in order.

        Returns the accumulator after each element. Its values before
        each element are the running sums mod ``q``, known up front, so
        every fold runs in its own lane from that state; the last lane's
        result becomes the new accumulator.
        """
        q = self.modulus
        states = [self._accumulator]
        for value in elements:
            if not 0 <= value < q:
                raise ParameterError(f"not a residue mod q: {value}")
            states.append((states[-1] + value) % q)
        limbs = self.limbs
        outputs = from_planes(
            self._fold(
                to_planes(states[:-1], limbs), to_planes(elements, limbs), tally
            )
        )
        if outputs:
            self._accumulator = outputs[-1]
        return outputs

    def accumulate(self, rows, tally: OpTally) -> list:
        """Sum the columns of ``rows``, one fresh accumulator per lane.

        ``rows[k][j]`` is the ``k``-th value streamed into lane ``j``'s
        accumulator; each row is one element-parallel fold. Returns the
        lanes' sums. The running :attr:`accumulator` is left untouched.
        """
        rows = list(rows)
        if not rows:
            raise ParameterError("accumulate needs at least one row")
        limbs = self.limbs
        sums = [np.zeros(len(rows[0]), np.uint64)] * limbs
        for row in rows:
            sums = self._fold(sums, to_planes(row, limbs), tally)
        return from_planes(sums)

    @property
    def accumulator(self) -> int:
        """Current accumulated residue."""
        return self._accumulator

    def cost_key(self) -> tuple:
        return (self.limbs, self.modulus)

    def random_elements(self, rng: np.random.Generator, count: int) -> list:
        return list(random_residues(rng, self.modulus, self.limbs, count))

    def mram_bytes_per_element(self) -> int:
        # One streamed read; the accumulator lives in WRAM.
        return 4 * self.limbs
