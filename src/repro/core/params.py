"""BFV encryption parameters and the paper's three security levels.

Section 3 of the paper: "for 27-bit security, we need a polynomial that
has 1024 27-bit coefficients [...] we also evaluate 54-bit
(2048-coefficient polynomial) and 109-bit (4096-coefficient polynomial)
security levels. To represent 27-, 54-, and 109-bit coefficients, we
use integers of 32, 64, and 128 bits, respectively" — the container
width is driven by the UPMEM DPU's native 32-bit words.

:class:`BFVParameters` bundles the ring degree ``n``, coefficient
modulus ``q`` (an NTT-friendly prime of exactly the security level's
bit length, chosen deterministically), plaintext modulus ``t``, error
width, and relinearization decomposition base, and exposes the derived
quantities the rest of the library needs (``delta``, limb counts,
ciphertext byte sizes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.errors import ParameterError
from repro.mpint.limbs import LIMB_BITS, limbs_for_bits
from repro.poly.modring import find_ntt_prime, is_prime
from repro.poly.ntt import NATIVE_PRIME_LIMIT
from repro.poly.sampling import DEFAULT_CBD_ETA

#: Paper security levels: bits -> (ring degree, default plaintext modulus).
#: Plaintext moduli are primes with t == 1 (mod 2n) where the noise
#: budget allows it (enabling SIMD batching); the 27-bit level's modulus
#: is too small for a batching-capable t to decrypt reliably, so it gets
#: a small prime and scalar (integer) encoding only.
_LEVELS = {
    27: (1024, 257),
    54: (2048, 65537),
    109: (4096, 65537),
}

#: Ordered tuple of the paper's security levels (bit lengths of q).
SECURITY_LEVELS = tuple(sorted(_LEVELS))


@dataclass(frozen=True)
class BFVParameters:
    """Validated BFV parameter set.

    Attributes:
        poly_degree: ring degree ``n`` (power of two); polynomials live
            in ``Z_q[x]/(x^n + 1)``.
        coeff_modulus: ciphertext coefficient modulus ``q``.
        plain_modulus: plaintext modulus ``t`` (``t << q``).
        error_eta: centered-binomial width of the RLWE error
            (``sigma = sqrt(eta/2)``).
        relin_base_bits: ``log2`` of the base-``T`` decomposition used
            by relinearization keys.
    """

    poly_degree: int
    coeff_modulus: int
    plain_modulus: int
    error_eta: int = DEFAULT_CBD_ETA
    relin_base_bits: int = 30

    def __post_init__(self):
        n = self.poly_degree
        if n <= 0 or n & (n - 1):
            raise ParameterError(f"poly_degree must be a power of two: {n}")
        if self.coeff_modulus < 2:
            raise ParameterError(
                f"coeff_modulus must be >= 2: {self.coeff_modulus}"
            )
        if not 2 <= self.plain_modulus < self.coeff_modulus:
            raise ParameterError(
                f"plain_modulus must satisfy 2 <= t < q, got "
                f"t={self.plain_modulus}, q={self.coeff_modulus}"
            )
        if self.error_eta <= 0:
            raise ParameterError(f"error_eta must be positive: {self.error_eta}")
        if not 1 <= self.relin_base_bits <= self.coeff_modulus.bit_length():
            raise ParameterError(
                f"relin_base_bits out of range: {self.relin_base_bits}"
            )

    # -- derived quantities ------------------------------------------------

    @property
    def delta(self) -> int:
        """The plaintext scaling factor ``floor(q / t)``."""
        return self.coeff_modulus // self.plain_modulus

    @property
    def security_bits(self) -> int:
        """Bit length of ``q`` — the paper's 'bit-key security level'."""
        return self.coeff_modulus.bit_length()

    @property
    def coefficient_width_bits(self) -> int:
        """Container integer width: coefficient bits rounded up to a
        multiple of the UPMEM 32-bit word (32/64/128 for the paper's
        three levels)."""
        return limbs_for_bits(self.security_bits) * LIMB_BITS

    @property
    def limbs_per_coefficient(self) -> int:
        """Number of 32-bit limbs holding one coefficient on the DPU."""
        return limbs_for_bits(self.security_bits)

    @property
    def poly_bytes(self) -> int:
        """Device size of one polynomial (containers, not raw bits)."""
        return self.poly_degree * self.coefficient_width_bits // 8

    @property
    def ciphertext_bytes(self) -> int:
        """Device size of one fresh (two-polynomial) ciphertext."""
        return 2 * self.poly_bytes

    @property
    def relin_components(self) -> int:
        """Number of base-``T`` digits in a relinearization key."""
        base = self.relin_base_bits
        return -(-self.security_bits // base)

    @cached_property
    def supports_batching(self) -> bool:
        """True when ``t`` is a prime with ``t == 1 (mod 2n)``, i.e.
        the plaintext ring splits into ``n`` SIMD slots, and ``t`` is
        narrow enough for the slot NTT's ``uint64`` words. Tested once
        per parameter set."""
        return (
            self.plain_modulus < NATIVE_PRIME_LIMIT
            and is_prime(self.plain_modulus)
            and (self.plain_modulus - 1) % (2 * self.poly_degree) == 0
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def security_level(cls, bits: int, **overrides) -> "BFVParameters":
        """The paper's parameter set for a 27-, 54-, or 109-bit level.

        ``overrides`` may replace any constructor field except the ones
        that define the level (degree and modulus width).

        >>> p = BFVParameters.security_level(109)
        >>> p.poly_degree, p.coefficient_width_bits
        (4096, 128)
        """
        return _level_params(bits, tuple(sorted(overrides.items())))

    def describe(self) -> str:
        """One-line human-readable summary used by reports."""
        return (
            f"BFV(n={self.poly_degree}, q~2^{self.security_bits}, "
            f"t={self.plain_modulus}, {self.coefficient_width_bits}-bit "
            f"containers, {self.limbs_per_coefficient} limbs/coeff)"
        )


@lru_cache(maxsize=32)
def _level_params(bits: int, overrides: tuple) -> BFVParameters:
    if bits not in _LEVELS:
        raise ParameterError(
            f"unknown security level {bits}; paper levels are "
            f"{sorted(_LEVELS)}"
        )
    degree, plain = _LEVELS[bits]
    kwargs = {
        "poly_degree": degree,
        "coeff_modulus": find_ntt_prime(bits, degree),
        "plain_modulus": plain,
        # The decomposition base cannot exceed the modulus width; the
        # 27-bit level therefore uses two 14-bit digits instead of the
        # default 30-bit base.
        "relin_base_bits": min(30, max(1, (bits + 1) // 2)) if bits < 60 else 30,
    }
    kwargs.update(dict(overrides))
    return BFVParameters(**kwargs)
