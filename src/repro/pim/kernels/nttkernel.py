"""Future-work kernel: NTT butterflies on the DPU.

The paper explicitly defers NTT-based multiplication: "We do not
incorporate Number Theoretic Transform (NTT) techniques to optimize
multiplication. We leave them for future work." (Section 3). This
kernel prices that future work on the same device model: one negacyclic
butterfly over a 30-bit NTT prime, with the modular multiplication
built from the *software* 32x32 multiply (Barrett reduction needs two
more wide multiplies by the precomputed constant).

The ``ext_ntt_pim`` experiment composes butterflies into full
polynomial products and shows that even with software multiplies, the
O(n log n) transform beats the O(n^2) coefficient method by orders of
magnitude at the paper's ring sizes — quantifying exactly how much the
deferred optimization is worth.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.mpint.add import count_set
from repro.mpint.cost import OpTally
from repro.mpint.limbs import LIMB_MASK
from repro.mpint.mul import mul32
from repro.pim.kernels.base import Kernel
from repro.poly.modring import BarrettReducer, is_prime


class NTTButterflyKernel(Kernel):
    """One Cooley–Tukey butterfly: ``(u, v) -> (u + w*v, u - w*v) mod p``.

    ``p`` must be a prime below 2^31 so residues and Barrett
    intermediates fit the 32-bit datapath (the paper's 109-bit modulus
    would run as 4 RNS residues of this kernel). The modular multiply
    is Barrett: three software 32x32 products plus shifts and
    conditional subtractions.
    """

    name = "ntt_butterfly"

    def __init__(self, modulus: int):
        super().__init__(limbs=1)
        if not is_prime(modulus):
            raise ParameterError(f"NTT kernel modulus must be prime: {modulus}")
        if modulus.bit_length() > 31:
            raise ParameterError(
                f"NTT kernel modulus must fit 31 bits, got "
                f"{modulus.bit_length()}"
            )
        self.modulus = modulus
        self._barrett = BarrettReducer(modulus)

    def _mulmod(self, a, b, tally: OpTally):
        """Barrett modular multiply on the 32-bit datapath, per lane.

        One product ``a*b`` (64-bit), one multiply by the precomputed
        ``mu`` to estimate the quotient, one multiply by ``p`` to
        subtract — each a software :func:`mul32` pair on this hardware
        — plus shifts and a conditional subtraction.
        """
        lanes = a.size
        lo, hi = mul32(a, b, tally)
        product = lo | (hi << 32)
        # Quotient estimate: multiply the product's high part by mu.
        # On the DPU this is two more 32x32 software products.
        mul32(hi, np.uint64(self._barrett.mu & LIMB_MASK), tally)
        tally.charge("lsr", 4 * lanes)  # assemble/shift the 64-bit estimate
        mul32(
            (product >> 32) & LIMB_MASK,
            np.uint64(self.modulus & LIMB_MASK),
            tally,
        )
        tally.charge("sub", lanes)
        tally.charge("cmp", lanes)
        tally.charge("branch", lanes)
        return product % np.uint64(self.modulus)  # functional result is exact

    def run_elements(self, elements: list, tally: OpTally) -> list:
        lanes = len(elements)
        u, v, w = (
            np.array([e[i] for e in elements], dtype=np.uint64) for i in range(3)
        )
        p = np.uint64(self.modulus)
        self.charge_loads(tally, 3, lanes)
        t = self._mulmod(v, w, tally)
        tally.charge("add", lanes)
        tally.charge("cmp", lanes)
        tally.charge("branch", lanes)
        upper = u + t
        wraps = upper >= p
        tally.charge("sub", count_set(wraps))
        upper = np.where(wraps, upper - p, upper)
        tally.charge("sub", lanes)
        tally.charge("cmp", lanes)
        tally.charge("branch", lanes)
        borrows = u < t
        tally.charge("add", count_set(borrows))
        lower = np.where(borrows, u + p - t, u - t)
        self.charge_stores(tally, 2, lanes)
        self.charge_loop_overhead(tally, lanes)
        return list(zip(upper.tolist(), lower.tolist()))

    def cost_key(self) -> tuple:
        return (self.modulus,)

    def random_elements(self, rng: np.random.Generator, count: int) -> list:
        # One draw per value, in element order: the generator's stream
        # for bounded integers depends on how the draws are split.
        p = self.modulus
        return [
            (int(rng.integers(0, p)), int(rng.integers(0, p)), int(rng.integers(1, p)))
            for _ in range(count)
        ]

    def mram_bytes_per_element(self) -> int:
        # u, v in + twiddle + two results out, 4 bytes each.
        return 5 * 4


def ntt_polynomial_mult_cycles(
    n: int, rns_limbs: int, butterfly_kernel: NTTButterflyKernel
) -> float:
    """DPU cycles for one full polynomial product via NTT.

    Three transforms (two forward, one inverse) of ``(n/2) * log2(n)``
    butterflies each, plus ``n`` pointwise modular multiplies, per RNS
    residue.
    """
    if n <= 0 or n & (n - 1):
        raise ParameterError(f"ring degree must be a power of two: {n}")
    if rns_limbs <= 0:
        raise ParameterError(f"rns_limbs must be positive: {rns_limbs}")
    butterflies = 3 * (n // 2) * (n.bit_length() - 1)
    butterfly_cycles = butterfly_kernel.cycles_per_element()
    # A pointwise mulmod costs about one butterfly's multiply portion;
    # price it as a butterfly minus the add/sub wing (~90%).
    pointwise_cycles = 0.9 * butterfly_cycles * n
    return rns_limbs * (butterflies * butterfly_cycles + pointwise_cycles)


def schoolbook_polynomial_mult_cycles(
    n: int, coefficient_mul_cycles: float
) -> float:
    """DPU cycles for one full polynomial product, schoolbook O(n^2).

    ``coefficient_mul_cycles`` is the measured per-element cost of the
    wide-coefficient multiply kernel (e.g. ``VecMulKernel(4)`` for the
    109-bit level), plus one accumulate per partial product.
    """
    if n <= 0 or n & (n - 1):
        raise ParameterError(f"ring degree must be a power of two: {n}")
    return n * n * (coefficient_mul_cycles + 4.0)
