"""Element-wise multi-limb multiplication kernel.

The paper's homomorphic-multiplication inner loop (Section 3): 32-bit
products use the compiler's shift-and-add routine (no multiply hardware
wider than 8x8 on this DPU generation); 64- and 128-bit products split
operands into 32-bit chunks combined with **Karatsuba**. This kernel is
the reason for the paper's Key Takeaway 2 — multiplication is two
orders of magnitude more expensive per element than addition, entirely
in software.

The kernel produces the full double-width product; modular reduction is
deferred (lazy reduction — the paper's implementation operates on
coefficient containers and does not interleave Barrett reduction into
the device loop). An optional exact Barrett mode is provided for the
reduction-cost ablation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.mpint.cost import OpTally
from repro.mpint.limbs import from_planes, to_planes
from repro.mpint.mul import multiply
from repro.pim.kernels.base import Kernel, grouped, random_limb_values


class VecMulKernel(Kernel):
    """``c[i] = a[i] * b[i]`` over ``limbs * 32``-bit elements.

    ``algorithm`` selects ``"auto"`` (the paper's choice: Karatsuba for
    2+ limbs), ``"schoolbook"``, or ``"karatsuba"`` — the ablation
    benchmark compares them directly.
    """

    name = "vec_mul"

    def __init__(self, limbs: int, algorithm: str = "auto"):
        super().__init__(limbs)
        if algorithm not in ("auto", "schoolbook", "karatsuba"):
            raise ParameterError(f"unknown algorithm {algorithm!r}")
        self.algorithm = algorithm

    def run_elements(self, elements: list, tally: OpTally) -> list:
        limbs, lanes = self.limbs, len(elements)
        self.charge_loads(tally, 2 * limbs, lanes)
        product = multiply(
            to_planes([a for a, _ in elements], limbs),
            to_planes([b for _, b in elements], limbs),
            tally,
            algorithm=self.algorithm,
        )
        self.charge_stores(tally, 2 * limbs, lanes)  # double-width result
        self.charge_loop_overhead(tally, lanes)
        return from_planes(product)

    def cost_key(self) -> tuple:
        return (self.limbs, self.algorithm)

    def random_elements(self, rng: np.random.Generator, count: int) -> list:
        return grouped(random_limb_values(rng, self.limbs, 2 * count), 2)

    def mram_bytes_per_element(self) -> int:
        # Two container reads plus a double-width product write.
        return 2 * 4 * self.limbs + 8 * self.limbs
