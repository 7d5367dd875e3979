"""Ring elements of ``R_q = Z_q[x] / (x^n + 1)``.

:class:`Polynomial` is the coefficient-domain representation used by
the functional BFV scheme. Coefficients are Python ints (the 109-bit
security level does not fit native words), stored reduced to
``[0, q)``.

Negacyclic multiplication needs the *exact* integer product before
modular reduction in two places: BFV ciphertext multiplication scales
the tensor product by ``t/q`` over the rationals, and noise analysis
reasons over ``Z``. :func:`negacyclic_convolve` therefore computes the
convolution exactly over the integers — schoolbook for small degrees,
and a CRT bundle of negacyclic NTTs over 31-bit primes for large ones
(the standard multiprecision-convolution technique). Each prime's
transforms run on ``uint64`` numpy arrays, and the residue split and
CRT recombination are array operations over Python ints; the tests
check both paths against each other and against a scalar NTT.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.poly.modring import find_ntt_prime, inverse_mod
from repro.poly.ntt import ntt_context

#: Degrees at or below this use schoolbook convolution; above, CRT-NTT.
#: 64 keeps the crossover comfortably inside the regime where Python
#: schoolbook is still fast, while every paper-sized ring (1024–4096)
#: takes the O(n log n) path.
SCHOOLBOOK_MAX_DEGREE = 64

#: Bit width of the auxiliary CRT primes used for exact convolution.
#: 31 bits keeps every butterfly product inside a ``uint64`` word (see
#: :data:`repro.poly.ntt.NATIVE_PRIME_LIMIT`), so each transform runs
#: on native numpy arrays; a wider result just takes more primes.
_CRT_PRIME_BITS = 31


def _schoolbook_negacyclic(a: list, b: list, n: int) -> list:
    """Exact negacyclic convolution over Z, O(n^2)."""
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            k = i + j
            term = ai * bj
            if k < n:
                out[k] += term
            else:
                out[k - n] -= term  # x^n == -1
    return out


@lru_cache(maxsize=64)
def _crt_prime(n: int, index: int) -> int:
    """The ``index``-th CRT prime for degree ``n``: 31-bit, == 1 mod 2n."""
    return find_ntt_prime(_CRT_PRIME_BITS, n, index=index)


def _crt_contexts(n: int, bound: int) -> list:
    """The shortest prefix of the CRT bundle whose modulus reaches ``bound``.

    The bundle for ``k`` primes is a prefix of the bundle for ``k + 1``,
    and every context comes from the shared :func:`ntt_context` cache.
    """
    contexts = []
    product = 1
    while product < bound or not contexts:
        ctx = ntt_context(n, _crt_prime(n, len(contexts)))
        contexts.append(ctx)
        product *= ctx.p
    return contexts


@lru_cache(maxsize=64)
def _crt_recombination(moduli: tuple) -> tuple:
    """Precompute (Q, [Q_i, Q_i^{-1} mod p_i]) for CRT composition."""
    product = 1
    for p in moduli:
        product *= p
    partials = []
    for p in moduli:
        q_i = product // p
        partials.append((q_i, inverse_mod(q_i % p, p)))
    return product, tuple(partials)


def _crt_negacyclic(a: list, b: list, n: int) -> list:
    """Exact negacyclic convolution over Z via CRT-bundled NTTs.

    Each prime's residues are split off the exact inputs with one
    object-array ``% p``, convolved through that prime's
    :meth:`NTTContext.forward` / :meth:`NTTContext.inverse`, and the
    residue rows are recombined over Python ints. A square (``b is a``)
    transforms its operand once per prime.
    """
    max_a = max(map(abs, a), default=0)
    max_b = max(map(abs, b), default=0)
    # |result coefficient| <= n * max|a| * max|b|; the CRT modulus Q
    # must cover that signed range, i.e. Q > 2 * n * max|a| * max|b|.
    contexts = _crt_contexts(n, 2 * n * max_a * max_b + 1)
    exact_a = np.array(a, dtype=object)
    exact_b = exact_a if b is a else np.array(b, dtype=object)
    rows = []
    for ctx in contexts:
        fa = ctx.forward((exact_a % ctx.p).astype(np.uint64))
        fb = fa if b is a else ctx.forward((exact_b % ctx.p).astype(np.uint64))
        rows.append(ctx.inverse(ctx.pointwise(fa, fb)))
    moduli = tuple(ctx.p for ctx in contexts)
    q_total, partials = _crt_recombination(moduli)
    acc = 0
    for row, ctx, (q_i, q_i_inv) in zip(rows, contexts, partials):
        digit = row * np.uint64(q_i_inv) % np.uint64(ctx.p)
        acc = acc + digit.astype(object) * q_i
    acc %= q_total
    return np.where(acc > q_total // 2, acc - q_total, acc).tolist()


def negacyclic_convolve(a: list, b: list, n: int) -> list:
    """Exact product of two integer polynomials mod ``x^n + 1``, over Z.

    Inputs are coefficient lists of length ``n`` (signed ints allowed);
    the result is the exact signed integer convolution — no modular
    reduction is applied, so the caller can scale or reduce as the
    scheme requires.
    """
    if len(a) != n or len(b) != n:
        raise ParameterError(
            f"operands must have length {n}, got {len(a)} and {len(b)}"
        )
    if n <= 0 or n & (n - 1):
        raise ParameterError(f"ring degree must be a power of two: {n}")
    if n <= SCHOOLBOOK_MAX_DEGREE:
        return _schoolbook_negacyclic(a, b, n)
    return _crt_negacyclic(a, b, n)


class Polynomial:
    """An element of ``Z_q[x] / (x^n + 1)``, coefficients in ``[0, q)``.

    Immutable by convention: all operations return new instances.
    Equality and hashing follow the (coefficients, modulus) value.
    """

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, modulus: int):
        if modulus < 2:
            raise ParameterError(f"modulus must be >= 2, got {modulus}")
        coeffs = tuple(int(c) % modulus for c in coeffs)
        n = len(coeffs)
        if n == 0 or n & (n - 1):
            raise ParameterError(
                f"ring degree must be a nonzero power of two, got {n}"
            )
        self.coeffs = coeffs
        self.modulus = modulus

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, modulus: int) -> "Polynomial":
        """The additive identity of ``R_q`` with degree bound ``n``."""
        return cls([0] * n, modulus)

    # -- basic protocol -------------------------------------------------

    @property
    def degree_bound(self) -> int:
        """The ring degree ``n`` (number of coefficient slots)."""
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.modulus == other.modulus
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.modulus))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:4])
        tail = ", ..." if len(self.coeffs) > 4 else ""
        return (
            f"Polynomial(n={len(self.coeffs)}, "
            f"q~2^{self.modulus.bit_length()}, [{head}{tail}])"
        )

    def _check_compatible(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise ParameterError(f"expected Polynomial, got {type(other)}")
        if self.modulus != other.modulus:
            raise ParameterError("polynomial moduli differ")
        if len(self.coeffs) != len(other.coeffs):
            raise ParameterError("polynomial degrees differ")

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        q = self.modulus
        return Polynomial(
            [(x + y) % q for x, y in zip(self.coeffs, other.coeffs)], q
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        q = self.modulus
        return Polynomial(
            [(x - y) % q for x, y in zip(self.coeffs, other.coeffs)], q
        )

    def __neg__(self) -> "Polynomial":
        q = self.modulus
        return Polynomial([(-x) % q for x in self.coeffs], q)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scalar_mul(other)
        self._check_compatible(other)
        # Centered operands keep small polynomials small: a ternary
        # secret enters as +-1, not as q - 1, so the exact product needs
        # CRT primes for |a| * |b|, not for q^2. The result mod q is
        # the same.
        product = negacyclic_convolve(
            self.centered(), other.centered(), len(self.coeffs)
        )
        return Polynomial(product, self.modulus)

    __rmul__ = __mul__

    def scalar_mul(self, scalar: int) -> "Polynomial":
        """Multiply every coefficient by an integer scalar (mod q)."""
        q = self.modulus
        s = scalar % q
        return Polynomial([c * s % q for c in self.coeffs], q)

    # -- representation helpers ------------------------------------------

    def centered(self) -> list:
        """Coefficients lifted to the centered range ``(-q/2, q/2]``.

        The centered lift is what decryption rounds and what noise
        analysis measures.
        """
        q = self.modulus
        half = q // 2
        return [c - q if c > half else c for c in self.coeffs]

    def infinity_norm(self) -> int:
        """Max absolute value of the centered coefficients."""
        return max((abs(c) for c in self.centered()), default=0)

    def lift_centered_to(self, new_modulus: int) -> "Polynomial":
        """Re-reduce the centered representative modulo a new modulus."""
        return Polynomial(self.centered(), new_modulus)
