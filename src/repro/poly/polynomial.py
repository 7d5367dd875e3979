"""Ring elements of ``R_q = Z_q[x] / (x^n + 1)``, and the exact engine
behind every product of them.

:class:`Polynomial` is the coefficient-domain representation used by
the functional BFV scheme. Coefficients are Python ints (the 109-bit
security level does not fit native words), stored reduced to
``[0, q)``. The public constructor converts and reduces its input;
ring operations that already produce reduced values skip that pass.

Negacyclic multiplication needs the *exact* integer product before
modular reduction: BFV ciphertext multiplication scales the tensor
product by ``t/q`` over the rationals, and noise analysis reasons over
``Z``. Products are therefore computed exactly over the integers —
schoolbook for small degrees, and a CRT bundle of negacyclic NTTs over
31-bit primes for large ones (SEAL's RNS + NTT, run on ``uint64``
numpy arrays). The unit of work is a *sum* of products
(:func:`negacyclic_sum`), the shape of every BFV operation:

* each operand is an :class:`Operand` handle holding its forward
  transforms, so a shared operand is transformed once per prime, and a
  key object keeps its handles for the life of the key;
* the bundle is sized once for the whole sum, the pointwise products
  are accumulated per prime in the evaluation domain, and each prime
  takes one inverse transform;
* the residue rows are recombined once (Garner mixed-radix digits on
  ``uint64`` words, then Python ints).

:func:`negacyclic_convolve` is the one-term case. The tests check the
engine against schoolbook convolution, a scalar NTT, and a
one-product-at-a-time BFV oracle.
"""

from __future__ import annotations

import math
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


def _pairs(start: int, stop: int) -> list:
    """Index ranges ``[i, i + 2)`` (the last may be shorter) covering
    ``[start, stop)``: two 31-bit primes multiply to under 2^62, so a
    pair's residues fit one ``uint64`` word."""
    return [range(i, min(i + 2, stop)) for i in range(start, stop, 2)]


@lru_cache(maxsize=64)
def _garner_constants(moduli: tuple) -> tuple:
    """Constants for :func:`_crt_compose` over the bundle ``moduli``.

    Returns ``(half, offsets, inverses)``: ``half = Q // 2`` for the
    bundle modulus ``Q``, ``offsets[i] = half mod p_i`` and
    ``inverses[i][j] = p_j^{-1} mod p_i`` for ``j < i``.
    """
    product = 1
    for p in moduli:
        product *= p
    half = product // 2
    offsets = tuple(half % p for p in moduli)
    inverses = tuple(
        tuple(inverse_mod(p_j % p_i, p_i) for p_j in moduli[:i])
        for i, p_i in enumerate(moduli)
    )
    return half, offsets, inverses


def _crt_compose(rows: list, moduli: tuple) -> np.ndarray:
    """The signed integers in ``(-Q/2, Q/2]`` with residues ``rows``.

    ``Q`` is the product of ``moduli`` (odd, so the signed range is
    exactly ``(-Q/2, Q/2]``). Shifting every residue by ``Q // 2``
    first makes the mixed-radix value ``X + Q // 2`` land in
    ``[0, Q)``, so one subtraction at the end recenters it. Garner's
    mixed-radix digits are computed on ``uint64`` words, merged two
    primes to a word, and only the Horner evaluation over those words
    runs on Python ints.
    """
    half, offsets, inverses = _garner_constants(moduli)
    digits = []
    for row, p, offset, row_inverses in zip(rows, moduli, offsets, inverses):
        p64 = np.uint64(p)
        digit = (row + np.uint64(offset)) % p64
        for earlier, inverse in zip(digits, row_inverses):
            digit = (digit + p64 - earlier % p64) * np.uint64(inverse) % p64
        digits.append(digit)
    words = []
    radices = []
    for pair in _pairs(0, len(moduli)):
        word, radix = digits[pair[0]], moduli[pair[0]]
        if len(pair) == 2:
            word = word + np.uint64(radix) * digits[pair[1]]
            radix *= moduli[pair[1]]
        words.append(word)
        radices.append(radix)
    value = words[-1].astype(object)
    for word, radix in zip(words[-2::-1], radices[-2::-1]):
        value = value * radix + word.astype(object)
    return value - half


class Operand:
    """One exact integer operand of the CRT engine, transformed lazily.

    Holds the operand's ``max|a|`` and its forward NTT over each prime
    of the CRT bundle it has been used with, as ``uint64`` rows. A sum
    that needs a longer bundle extends the rows in place: the bundle for
    ``k`` primes is a prefix of the bundle for ``k + 1``, so rows
    already held stay valid.

    ``source`` is the list of exact signed coefficients, or a
    zero-argument callable returning the :class:`Polynomial` whose
    centered lift they are. A callable is called again only when the
    rows grow, so a key object's handle keeps residue rows and no copy
    of the key's coefficients; each key is transformed once per prime
    for the life of the key.
    """

    __slots__ = ("n", "bound", "_source", "_rows")

    def __init__(self, source):
        self._source = source
        exact = self._exact()
        self.n = len(exact)
        self.bound = max(map(abs, exact), default=0)
        self._rows = []

    def _exact(self) -> list:
        """The operand's exact signed coefficients."""
        source = self._source
        return source().centered() if callable(source) else source

    def rows(self, count: int) -> list:
        """Forward transforms over the first ``count`` CRT primes.

        Residues are split off two primes at a time: one reduction of
        the exact coefficients modulo the pair's product (below 2^62)
        yields ``uint64`` words, reduced per prime on native arrays.
        """
        rows = self._rows
        if len(rows) < count:
            # Extend a copy and publish it whole, so a handle shared by
            # two callers never holds a half-built row list.
            rows = list(rows)
            exact = np.array(self._exact(), dtype=object)
            for pair in _pairs(len(rows), count):
                primes = [_crt_prime(self.n, index) for index in pair]
                words = (exact % math.prod(primes)).astype(np.uint64)
                for p in primes:
                    ctx = ntt_context(self.n, p)
                    rows.append(ctx.forward(words % np.uint64(p)))
            self._rows = rows
        return rows[:count]


def _crt_sum(terms, n: int) -> np.ndarray:
    """Exact ``sum(a_i * b_i)`` mod ``x^n + 1`` over Z via CRT-bundled NTTs.

    The bundle is sized once for the whole sum: every coefficient of
    the result is at most ``n * sum(max|a_i| * max|b_i|)`` in absolute
    value, and the CRT modulus must cover that signed range. Each
    operand is forward-transformed once per prime (shared operands and
    cached key operands are not transformed again); for each prime the
    pointwise products are accumulated in the evaluation domain, then
    one :meth:`NTTContext.inverse` runs, and the residue rows are
    recombined once over Python ints. Returns an object array of ints.
    """
    contexts = _crt_contexts(
        n, 2 * n * sum(a.bound * b.bound for a, b in terms) + 1
    )
    count = len(contexts)
    term_rows = [(a.rows(count), b.rows(count)) for a, b in terms]
    rows = []
    for index, ctx in enumerate(contexts):
        p = np.uint64(ctx.p)
        acc = None
        for fa, fb in term_rows:
            product = fa[index] * fb[index] % p
            acc = product if acc is None else acc + product
        rows.append(ctx.inverse(acc))
    return _crt_compose(rows, tuple(ctx.p for ctx in contexts))


def _check_degree(n: int) -> None:
    if n <= 0 or n & (n - 1):
        raise ParameterError(f"ring degree must be a power of two: {n}")


def _crt_negacyclic(a: list, b: list, n: int) -> list:
    """One exact product through the CRT engine (any degree).

    The one-term case of :func:`_crt_sum`; a square (``b is a``)
    transforms its operand once per prime.
    """
    left = Operand(a)
    right = left if b is a else Operand(b)
    return _crt_sum([(left, right)], n).tolist()


def negacyclic_convolve(a: list, b: list, n: int) -> list:
    """Exact product of two integer polynomials mod ``x^n + 1``, over Z.

    Inputs are coefficient lists of length ``n`` (signed ints allowed);
    the result is the exact signed integer convolution — no modular
    reduction is applied, so the caller can scale or reduce as the
    scheme requires. The one-term case of :func:`negacyclic_sum`.
    """
    if len(a) != n or len(b) != n:
        raise ParameterError(
            f"operands must have length {n}, got {len(a)} and {len(b)}"
        )
    _check_degree(n)
    if n <= SCHOOLBOOK_MAX_DEGREE:
        return _schoolbook_negacyclic(a, b, n)
    return _crt_negacyclic(a, b, n)


def negacyclic_sum(terms, n: int) -> list:
    """Exact ``sum(a_i * b_i)`` mod ``x^n + 1`` over Z, as signed ints.

    ``terms`` is a sequence of ``(Operand, Operand)`` pairs of degree
    ``n``. Schoolbook at ``n <= SCHOOLBOOK_MAX_DEGREE``; above, one CRT
    bundle sized for the whole sum, one inverse transform per prime and
    one recombination (:func:`_crt_sum`).
    """
    return _exact_sum(list(terms), n).tolist()


def _exact_sum(terms: list, n: int) -> np.ndarray:
    """:func:`negacyclic_sum` as an object array of ints."""
    if not terms:
        raise ParameterError("negacyclic_sum needs at least one term")
    _check_degree(n)
    if any(a.n != n or b.n != n for a, b in terms):
        raise ParameterError(f"every operand must have degree {n}")
    if n > SCHOOLBOOK_MAX_DEGREE:
        return _crt_sum(terms, n)
    total = [0] * n
    for a, b in terms:
        product = _schoolbook_negacyclic(a._exact(), b._exact(), n)
        total = [x + y for x, y in zip(total, product)]
    return np.array(total, dtype=object)


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

    @classmethod
    def _reduced(cls, coeffs: tuple, modulus: int) -> "Polynomial":
        """Wrap a tuple of ints already in ``[0, modulus)``, as is."""
        poly = object.__new__(cls)
        poly.coeffs = coeffs
        poly.modulus = modulus
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, modulus: int) -> "Polynomial":
        """The additive identity of ``R_q`` with degree bound ``n``."""
        return cls([0] * n, modulus)

    @classmethod
    def sum_of_products(cls, terms, modulus: int, addend=None) -> "Polynomial":
        """``addend + sum(a_i * b_i)`` in ``R_q`` for ``(Operand, Operand)``
        terms.

        One exact :func:`negacyclic_sum`, plus ``addend`` (``n`` signed
        ints) when given, reduced modulo ``modulus`` once. Equal to
        adding the per-term ``Polynomial`` products and the addend.
        """
        terms = list(terms)
        if not terms:
            raise ParameterError("sum_of_products needs at least one term")
        exact = _exact_sum(terms, terms[0][0].n)
        if addend is not None:
            exact += np.array(addend, dtype=object)
        return cls._reduced(tuple((exact % modulus).tolist()), modulus)

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
        return Polynomial._reduced(
            tuple([(x + y) % q for x, y in zip(self.coeffs, other.coeffs)]), q
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        q = self.modulus
        return Polynomial._reduced(
            tuple([(x - y) % q for x, y in zip(self.coeffs, other.coeffs)]), q
        )

    def __neg__(self) -> "Polynomial":
        q = self.modulus
        return Polynomial._reduced(tuple([(-x) % q for x in self.coeffs]), q)

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
        return Polynomial._reduced(tuple([c * s % q for c in self.coeffs]), q)

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
