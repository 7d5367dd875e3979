"""The CKKS scheme: approximate arithmetic on encrypted reals.

Paper Section 2 names CKKS alongside BGV as a scheme its implementation
techniques transfer to. This module implements a working (leveled,
non-bootstrapping) CKKS on the same substrates as the BFV core:

* **encoding** via the canonical embedding: a vector of ``n/2`` complex
  (or real) slots maps to a real polynomial whose evaluations at the
  odd primitive ``2n``-th roots of unity are the slot values, scaled by
  a fixed-point factor ``Delta``;
* **encryption/decryption** are the same RLWE operations as BFV (the
  plaintext rides plainly — the scale lives in the encoding);
* **multiplication** is the same tensor product + base-``T``
  relinearization (i.e. the same device work the PIM kernels price);
* **rescaling** divides the ciphertext by the top prime of the modulus
  chain, dropping one level and restoring the scale after each
  multiplication — the CKKS signature move.

Arithmetic is exact integer math on :class:`~repro.poly.polynomial.
Polynomial`; only the *encoding* is approximate, with precision set by
``Delta`` (tests assert relative error bounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import CiphertextError, EncodingError, ParameterError
from repro.poly.modring import find_ntt_prime
from repro.poly.polynomial import Polynomial
from repro.poly.sampling import (
    DEFAULT_CBD_ETA,
    sample_centered_binomial,
    sample_ternary,
    sample_uniform,
)


@dataclass(frozen=True)
class CKKSParameters:
    """A CKKS parameter set: ring degree, modulus chain, and scale.

    ``prime_bits[0]`` sizes the base prime (kept larger for decryption
    headroom); each further entry sizes one rescaling level. The scale
    ``2**scale_bits`` should roughly match the level primes so one
    rescale restores it after each multiplication.
    """

    poly_degree: int = 64
    base_prime_bits: int = 50
    level_prime_bits: int = 30
    levels: int = 2
    scale_bits: int = 30
    error_eta: int = DEFAULT_CBD_ETA
    relin_base_bits: int = 16

    def __post_init__(self):
        n = self.poly_degree
        if n <= 1 or n & (n - 1):
            raise ParameterError(f"poly_degree must be a power of two: {n}")
        if self.levels < 1:
            raise ParameterError(f"need at least one level: {self.levels}")
        if self.scale_bits < 4:
            raise ParameterError(f"scale too small: {self.scale_bits}")
        for name in ("base_prime_bits", "level_prime_bits", "relin_base_bits"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")

    @property
    def slot_count(self) -> int:
        """Complex SIMD slots (half the ring degree)."""
        return self.poly_degree // 2

    @property
    def scale(self) -> float:
        return float(1 << self.scale_bits)

    @property
    def prime_chain(self) -> tuple:
        """``(q0, q1, ..., qL)`` — base prime then level primes."""
        return _prime_chain(
            self.poly_degree,
            self.base_prime_bits,
            self.level_prime_bits,
            self.levels,
        )

    def modulus_at_level(self, level: int) -> int:
        """``Q_l = q0 * q1 * ... * ql``."""
        if not 0 <= level <= self.levels:
            raise ParameterError(
                f"level must be in [0, {self.levels}]: {level}"
            )
        product = 1
        for prime in self.prime_chain[: level + 1]:
            product *= prime
        return product

    @property
    def top_modulus(self) -> int:
        return self.modulus_at_level(self.levels)


@lru_cache(maxsize=16)
def _prime_chain(
    degree: int, base_bits: int, level_bits: int, levels: int
) -> tuple:
    primes = [find_ntt_prime(base_bits, degree)]
    for index in range(levels):
        primes.append(find_ntt_prime(level_bits, degree, index=index))
    return tuple(primes)


@lru_cache(maxsize=16)
def _embedding_roots(degree: int) -> np.ndarray:
    """The ``n/2`` evaluation points: ``zeta^(4j+1)`` for the primitive
    complex ``2n``-th root ``zeta`` (one per conjugate pair)."""
    exponents = np.arange(degree // 2) * 4 + 1
    return np.exp(1j * math.pi * exponents / degree)


@lru_cache(maxsize=16)
def _embedding_matrix(degree: int) -> np.ndarray:
    """Vandermonde of the embedding roots: row ``j`` holds powers of
    root ``j`` — maps coefficients to slot values."""
    roots = _embedding_roots(degree)
    return np.vander(roots, degree, increasing=True)


class CKKSEncoder:
    """Canonical-embedding encoder: ``n/2`` complex slots <-> polynomial."""

    def __init__(self, params: CKKSParameters):
        self.params = params
        self._matrix = _embedding_matrix(params.poly_degree)
        # encode solves the conjugate-extended inverse embedding; with
        # conjugate symmetry the coefficients are Re(M^H z) * 2 / n.
        self._inverse = self._matrix.conj().T

    def encode(self, values, scale: float | None = None) -> "CKKSPlaintext":
        """Encode up to ``n/2`` complex/real values at the given scale."""
        params = self.params
        scale = params.scale if scale is None else scale
        values = np.asarray(list(values), dtype=complex)
        if values.size > params.slot_count:
            raise EncodingError(
                f"{values.size} values exceed {params.slot_count} slots"
            )
        slots = np.zeros(params.slot_count, dtype=complex)
        slots[: values.size] = values
        coeffs_real = (
            (self._inverse @ slots).real * 2.0 / params.poly_degree
        )
        scaled = np.rint(coeffs_real * scale).astype(object)
        top = params.top_modulus
        poly = Polynomial([int(c) for c in scaled], top)
        return CKKSPlaintext(params, poly, params.levels, float(scale))

    def decode(self, plaintext: "CKKSPlaintext") -> list:
        """Decode all slots as complex numbers."""
        coeffs = np.array(plaintext.poly.centered(), dtype=float)
        slots = self._matrix @ coeffs
        return [complex(v) / plaintext.scale for v in slots]

    def decode_real(self, plaintext: "CKKSPlaintext") -> list:
        """Decode slots as floats (imaginary parts are encoding noise)."""
        return [v.real for v in self.decode(plaintext)]


@dataclass(frozen=True)
class CKKSPlaintext:
    params: CKKSParameters
    poly: Polynomial
    level: int
    scale: float


@dataclass(frozen=True)
class CKKSCiphertext:
    """A leveled CKKS ciphertext: polynomials mod ``Q_level`` + scale."""

    params: CKKSParameters
    polys: tuple
    level: int
    scale: float

    @property
    def size(self) -> int:
        return len(self.polys)

    @property
    def modulus(self) -> int:
        return self.params.modulus_at_level(self.level)


@dataclass(frozen=True)
class CKKSKeySet:
    secret_key: Polynomial  # ternary, stored mod the top modulus
    public_key: tuple  # (p0, p1) mod top modulus
    relin_pairs: tuple  # base-T pairs mod top modulus


class CKKSKeyGenerator:
    def __init__(self, params: CKKSParameters, seed: int = 0):
        self.params = params
        self._rng = np.random.default_rng(seed)

    def generate(self) -> CKKSKeySet:
        params = self.params
        n, q = params.poly_degree, params.top_modulus
        rng = self._rng
        s = Polynomial(sample_ternary(n, rng), q)
        a = Polynomial(sample_uniform(n, q, rng), q)
        e = Polynomial(sample_centered_binomial(n, rng, params.error_eta), q)
        public = (-(a * s + e), a)

        s_squared = s * s
        base = 1 << params.relin_base_bits
        digits = -(-q.bit_length() // params.relin_base_bits)
        pairs = []
        power = 1
        for _ in range(digits):
            a_j = Polynomial(sample_uniform(n, q, rng), q)
            e_j = Polynomial(
                sample_centered_binomial(n, rng, params.error_eta), q
            )
            pairs.append((-(a_j * s + e_j) + s_squared.scalar_mul(power), a_j))
            power = power * base % q
        return CKKSKeySet(s, public, tuple(pairs))


class CKKSCipher:
    """Encryptor + decryptor + evaluator for one CKKS key set.

    Grouped in one class because CKKS operations constantly consult the
    level/scale bookkeeping; splitting them three ways (as the exact
    schemes do) would triple the plumbing without adding clarity.
    """

    def __init__(self, params: CKKSParameters, keys: CKKSKeySet, seed: int = 0):
        self.params = params
        self.keys = keys
        self.encoder = CKKSEncoder(params)
        self._rng = np.random.default_rng(seed)

    # -- helpers ---------------------------------------------------------

    def _at_level(self, poly: Polynomial, level: int) -> Polynomial:
        return Polynomial(
            poly.centered(), self.params.modulus_at_level(level)
        )

    # -- encryption --------------------------------------------------------

    def encrypt(self, plaintext: CKKSPlaintext) -> CKKSCiphertext:
        params = self.params
        n = params.poly_degree
        q = params.top_modulus
        rng = self._rng
        u = Polynomial(sample_ternary(n, rng), q)
        e1 = Polynomial(sample_centered_binomial(n, rng, params.error_eta), q)
        e2 = Polynomial(sample_centered_binomial(n, rng, params.error_eta), q)
        p0, p1 = self.keys.public_key
        c0 = p0 * u + e1 + Polynomial(plaintext.poly.centered(), q)
        c1 = p1 * u + e2
        return CKKSCiphertext(
            params, (c0, c1), params.levels, plaintext.scale
        )

    def decrypt(self, ciphertext: CKKSCiphertext) -> CKKSPlaintext:
        s = self._at_level(self.keys.secret_key, ciphertext.level)
        acc = ciphertext.polys[0]
        s_power = None
        for c_i in ciphertext.polys[1:]:
            s_power = s if s_power is None else s_power * s
            acc = acc + c_i * s_power
        return CKKSPlaintext(
            self.params, acc, ciphertext.level, ciphertext.scale
        )

    def decrypt_values(self, ciphertext: CKKSCiphertext) -> list:
        """Decrypt and decode to real slot values in one step."""
        return self.encoder.decode_real(self.decrypt(ciphertext))

    # -- evaluation -----------------------------------------------------------

    def add(self, a: CKKSCiphertext, b: CKKSCiphertext) -> CKKSCiphertext:
        self._check_aligned(a, b)
        polys = tuple(pa + pb for pa, pb in zip(a.polys, b.polys))
        return CKKSCiphertext(self.params, polys, a.level, a.scale)

    def multiply(
        self, a: CKKSCiphertext, b: CKKSCiphertext, rescale: bool = True
    ) -> CKKSCiphertext:
        """Tensor + relinearize (+ rescale by default).

        The product's scale is ``scale_a * scale_b``; rescaling divides
        by the level's prime, dropping one level and bringing the scale
        back near ``Delta``.
        """
        self._check_aligned(a, b)
        if a.size != 2 or b.size != 2:
            raise CiphertextError("CKKS multiply expects size-2 operands")
        a0, a1 = a.polys
        b0, b1 = b.polys
        d0 = a0 * b0
        d1 = a0 * b1 + a1 * b0
        d2 = a1 * b1
        relined = self._relinearize(d0, d1, d2, a.level)
        product = CKKSCiphertext(
            self.params, relined, a.level, a.scale * b.scale
        )
        return self.rescale(product) if rescale else product

    def _relinearize(self, d0, d1, d2, level: int) -> tuple:
        q = self.params.modulus_at_level(level)
        base_bits = self.params.relin_base_bits
        mask = (1 << base_bits) - 1
        new_c0, new_c1 = d0, d1
        remaining = list(d2.coeffs)
        for k0, k1 in self.keys.relin_pairs:
            digit = Polynomial([r & mask for r in remaining], q)
            remaining = [r >> base_bits for r in remaining]
            new_c0 = new_c0 + self._at_level(k0, level) * digit
            new_c1 = new_c1 + self._at_level(k1, level) * digit
        if any(remaining):
            raise CiphertextError("relin digit count too small")
        return (new_c0, new_c1)

    def rescale(self, ciphertext: CKKSCiphertext) -> CKKSCiphertext:
        """Drop one level: divide every coefficient by the top prime."""
        if ciphertext.level == 0:
            raise CiphertextError("no levels left to rescale into")
        prime = self.params.prime_chain[ciphertext.level]
        new_level = ciphertext.level - 1
        new_q = self.params.modulus_at_level(new_level)
        polys = []
        for poly in ciphertext.polys:
            scaled = [
                (2 * c + prime) // (2 * prime) if c >= 0
                else -((-2 * c + prime) // (2 * prime))
                for c in poly.centered()
            ]
            polys.append(Polynomial(scaled, new_q))
        return CKKSCiphertext(
            self.params, tuple(polys), new_level, ciphertext.scale / prime
        )

    def _check_aligned(self, a: CKKSCiphertext, b: CKKSCiphertext) -> None:
        if a.params != self.params or b.params != self.params:
            raise CiphertextError("ciphertext belongs to different parameters")
        if a.level != b.level:
            raise CiphertextError(
                f"level mismatch: {a.level} vs {b.level} (rescale first)"
            )
        if not math.isclose(a.scale, b.scale, rel_tol=1e-9):
            raise CiphertextError(
                f"scale mismatch: {a.scale} vs {b.scale}"
            )
