"""Modular integer arithmetic: primality, NTT primes, roots, Barrett.

These are the number-theoretic building blocks under both polynomial
representations: the exact CRT-NTT convolution needs NTT-friendly
primes and roots of unity, and the SEAL-style baseline models Barrett
reduction (the constant-time division-free modular reduction SEAL uses
on native words).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from repro.errors import ParameterError

#: Witnesses sufficient for deterministic Miller–Rabin below 3.3 * 10^24
#: (Sorenson & Webster). Everything this library generates is far below
#: 2^128, well inside the deterministic range... for larger inputs the
#: same witness set gives an error probability far below 2^-64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller–Rabin primality test, deterministic for n < 3.3e24.

    >>> is_prime(2**61 - 1)
    True
    >>> is_prime(2**61 + 1)
    False
    """
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_ntt_prime(bit_length: int, ring_degree: int, index: int = 0) -> int:
    """Return the ``index``-th largest prime of ``bit_length`` bits that
    is congruent to 1 modulo ``2 * ring_degree``.

    Such primes admit a primitive ``2n``-th root of unity, which the
    negacyclic NTT over ``Z_p[x]/(x^n + 1)`` requires. Searching from
    the top of the bit range downward makes the choice deterministic,
    so parameter sets are stable across runs and machines.

    >>> p = find_ntt_prime(27, 1024)
    >>> p.bit_length(), p % 2048
    (27, 1)
    """
    if ring_degree <= 0 or ring_degree & (ring_degree - 1):
        raise ParameterError(
            f"ring degree must be a power of two, got {ring_degree}"
        )
    if bit_length < 2:
        raise ParameterError(f"bit length too small: {bit_length}")
    if index < 0:
        raise ParameterError(f"index must be non-negative: {index}")
    step = 2 * ring_degree
    if bit_length <= step.bit_length():
        raise ParameterError(
            f"no {bit_length}-bit prime can be 1 mod {step}; "
            f"increase the bit length or decrease the ring degree"
        )
    # Largest candidate of the right residue strictly below 2^bit_length.
    top = (1 << bit_length) - 1
    candidate = top - (top % step) + 1
    if candidate > top:
        candidate -= step
    found = 0
    floor = 1 << (bit_length - 1)
    while candidate >= floor:
        if is_prime(candidate):
            if found == index:
                return candidate
            found += 1
        candidate -= step
    raise ParameterError(
        f"exhausted {bit_length}-bit primes congruent to 1 mod {step}"
    )


@lru_cache(maxsize=256)
def _factorize(n: int) -> tuple:
    """Prime factorization by trial division + Pollard rho fallback.

    Only ever applied to ``p - 1`` for generated primes, which have
    plenty of small factors (a large power of two by construction), so
    trial division up to 10^6 followed by rho is fast in practice.
    """
    factors = []
    for p in (2, 3, 5):
        while n % p == 0:
            factors.append(p)
            n //= p
    f = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 1_000_000:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += increments[i % 8]
        i += 1
    if n > 1:
        if is_prime(n):
            factors.append(n)
        else:
            factors.extend(_pollard_rho_factor(n))
    return tuple(sorted(set(factors)))


def _pollard_rho_factor(n: int) -> list:
    """Fully factor a composite ``n`` with Pollard's rho (Brent variant)."""
    if n == 1:
        return []
    if is_prime(n):
        return [n]
    # Deterministic parameter sweep keeps this reproducible.
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return _pollard_rho_factor(d) + _pollard_rho_factor(n // d)
    raise ParameterError(f"failed to factor {n}")


def minimal_primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group of ``Z_p``.

    >>> minimal_primitive_root(17)
    3
    """
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if p == 2:
        return 1
    order = p - 1
    prime_factors = _factorize(order)
    for g in range(2, p):
        if all(pow(g, order // f, p) != 1 for f in prime_factors):
            return g
    raise ParameterError(f"no primitive root found for {p}")


def root_of_unity(p: int, order: int) -> int:
    """A primitive ``order``-th root of unity modulo prime ``p``.

    Requires ``order`` to divide ``p - 1``; the negacyclic NTT uses
    ``order = 2n``, which :func:`find_ntt_prime` guarantees.
    """
    if (p - 1) % order:
        raise ParameterError(f"{order} does not divide {p} - 1")
    g = minimal_primitive_root(p)
    root = pow(g, (p - 1) // order, p)
    # By construction root^order == 1; primitivity follows from g being
    # a generator, but assert the half-order check to catch misuse.
    if order > 1 and pow(root, order // 2, p) == 1:
        raise ParameterError(f"{root} is not a primitive {order}-th root")
    return root


def inverse_mod(a: int, m: int) -> int:
    """Modular inverse of ``a`` modulo ``m`` (raises if not invertible)."""
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise ParameterError(f"{a} is not invertible modulo {m}") from exc


class BarrettReducer:
    """Division-free modular reduction for a fixed modulus.

    Precomputes ``mu = floor(4^k / q)`` where ``k = q.bit_length()``;
    :meth:`reduce` then brings any ``x < q**2`` into ``[0, q)`` using
    two multiplications and at most two conditional subtractions — the
    structure SEAL uses for word-sized modular multiplication, and the
    structure whose *cost* the CPU-SEAL backend charges.

    >>> r = BarrettReducer(97)
    >>> r.reduce(96 * 96) == (96 * 96) % 97
    True
    """

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ParameterError(f"modulus must be >= 2, got {modulus}")
        self.modulus = modulus
        self.shift = 2 * modulus.bit_length()
        self.mu = (1 << self.shift) // modulus

    def reduce(self, x: int) -> int:
        """Reduce ``0 <= x < modulus**2`` into ``[0, modulus)``."""
        if x < 0 or x >= self.modulus * self.modulus:
            raise ParameterError(
                f"Barrett reduction requires 0 <= x < q^2, got x with "
                f"{x.bit_length()} bits for q with "
                f"{self.modulus.bit_length()} bits"
            )
        q_est = (x * self.mu) >> self.shift
        r = x - q_est * self.modulus
        while r >= self.modulus:
            r -= self.modulus
        return r

    def mulmod(self, a: int, b: int) -> int:
        """Modular product of two residues via Barrett reduction."""
        return self.reduce(a * b)
