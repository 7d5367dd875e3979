"""Polynomial-ring algebra substrate for the BFV scheme.

The BFV scheme operates in the quotient ring ``R_q = Z_q[x]/(x^n + 1)``
(power-of-two cyclotomic). This subpackage provides everything the
scheme and the baselines need:

* :mod:`repro.poly.modring` — modular integer arithmetic: Miller–Rabin
  primality, NTT-friendly prime generation, primitive roots, Barrett
  reduction;
* :mod:`repro.poly.ntt` — the iterative negacyclic Number Theoretic
  Transform over bundles of 31-bit primes on ``uint64`` words, behind
  the exact big-integer convolution and the batch encoder;
* :mod:`repro.poly.planes` — residues mod ``q`` as 32-bit limbs in
  ``uint64`` rows (1/2/4 limbs at the paper's 27/54/109-bit levels, its
  DPU containers), with modular add, subtract and negate on whole rows;
* :mod:`repro.poly.crt` — the exact engine's entry (residues of a
  centered lift, straight from limb planes) and its one exit
  (``round(num * x / den) mod out`` from Garner digits, back to limb
  planes);
* :mod:`repro.poly.polynomial` — the ring element type, held as limb
  planes, with addition, negacyclic multiplication and scalar
  operations, plus the exact sum-of-products engine every BFV op runs
  on (:class:`Operand` handles keep forward transforms; all sums of
  one operation take one forward call, one inverse call and one exit).
  Its CRT
  bundle of 31-bit NTT primes is the repo's one residue number system:
  SEAL's RNS + NTT idea, run for real on native words;
* :mod:`repro.poly.sampling` — the deterministic samplers (uniform,
  as limb planes; ternary and centered binomial, as ``int64`` arrays)
  key generation and encryption draw from.
"""

from repro.poly.modring import (
    BarrettReducer,
    find_ntt_prime,
    inverse_mod,
    is_prime,
    minimal_primitive_root,
    root_of_unity,
)
from repro.poly.ntt import NTTContext
from repro.poly.polynomial import (
    Operand,
    Polynomial,
    negacyclic_convolve,
    negacyclic_sum,
)
from repro.poly.sampling import (
    sample_centered_binomial,
    sample_ternary,
    sample_uniform,
)

__all__ = [
    "BarrettReducer",
    "NTTContext",
    "Operand",
    "Polynomial",
    "find_ntt_prime",
    "inverse_mod",
    "is_prime",
    "minimal_primitive_root",
    "negacyclic_convolve",
    "negacyclic_sum",
    "root_of_unity",
    "sample_centered_binomial",
    "sample_ternary",
    "sample_uniform",
]
