"""Ring elements of ``R_q = Z_q[x] / (x^n + 1)``, and the exact engine
behind every product of them.

:class:`Polynomial` is the coefficient-domain representation used by
the functional BFV scheme. Coefficients are held reduced to ``[0, q)``
as 32-bit limbs in one ``(L, n)`` ``uint64`` array
(:mod:`repro.poly.planes`), ``L = 1, 2, 4`` at the paper's 27-, 54- and
109-bit levels: the layout of the paper's 32/64/128-bit containers of
native DPU words. Ring operations run on whole limb rows. ``coeffs``
is a read-only tuple of Python ints, built on first use, for callers
that want ints; no BFV operation reads it.

Negacyclic multiplication needs the *exact* integer product before
modular reduction: BFV ciphertext multiplication scales the tensor
product by ``t/q`` over the rationals, and noise analysis reasons over
``Z``. Products are therefore computed exactly over the integers on a
CRT bundle of negacyclic NTTs over 31-bit primes (SEAL's RNS + NTT, run
on ``uint64`` numpy arrays). The unit of work is one BFV operation: a
set of *sums* of products (encryption's ``c0`` and ``c1``, the tensor's
three components, key switching's two), taken through the engine
together (:func:`exact_sums`):

* each operand is an :class:`Operand` handle holding its forward
  transforms, so a shared operand is transformed once per prime, and a
  key object keeps its handles for the life of the key;
* operands enter the bundle straight from their limb planes
  (:func:`repro.poly.crt.residues`);
* the bundle is sized once for every sum of the operation, by the
  largest bound; every operand that lacks rows is forward-transformed
  in one call (:func:`repro.poly.ntt.forward` over an ``(m, k, n)``
  batch);
* the pointwise products go into one ``(s, k, n)`` accumulator (four
  at a time, then one scalar-``//`` reduction per prime), and one
  inverse call (:func:`repro.poly.ntt.inverse`) takes every prime of
  every sum back at once;
* the residue rows leave the bundle once, through one
  :class:`~repro.poly.crt.MixedRadix` over all ``s n`` lanes and one
  :meth:`~repro.poly.crt.MixedRadix.scale_round`:
  ``round(num * x / den) mod out`` as limb planes, which is a plain sum
  mod ``q``, the BFV tensor's ``t/q`` scaling or decryption depending on
  ``(num, den, out)``. The digits and the exit work lane by lane, so
  each sum's lanes come out as they would alone.

:func:`negacyclic_sum` and :func:`negacyclic_convolve` return the exact
signed integers themselves. The tests check the engine against
schoolbook convolution, a scalar NTT, an object-integer CRT composition
and a one-product-at-a-time BFV oracle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.poly import crt, ntt
from repro.poly import planes as pl
from repro.poly.crt import MixedRadix, crt_moduli, crt_twiddles

#: :func:`negacyclic_sum` uses schoolbook convolution at or below this
#: degree and the CRT engine above it.
SCHOOLBOOK_MAX_DEGREE = 64

#: :func:`exact_sums` adds this many pointwise products, each at most
#: ``(p - 1)^2``, to a running sum below ``p`` before reducing it: the
#: sum stays below ``4 p^2 < 2^64``.
_LAZY_TERMS = 4


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


class Operand:
    """One exact integer operand of the CRT engine, transformed lazily.

    Holds the operand's ``max|a|`` and its forward NTT over each prime
    of the CRT bundle it has been used with, as one ``(k, n)`` ``uint64``
    array. A sum that needs a longer bundle transforms only the new
    primes and appends their rows (:func:`_transform`, which does so for
    every operand of an operation in one call): the bundle for ``k``
    primes is a prefix of the bundle for ``k + 1``, so rows already held
    stay valid.

    ``source`` is a :class:`Polynomial` (standing for its centered
    lift), a zero-argument callable returning one, or the exact signed
    integers themselves (an ``int64`` array, or any sequence of ints). A
    callable is called again only when the rows grow, so a key object's
    handle keeps residue rows and no copy of the key's coefficients;
    each key is transformed once per prime for the life of the key.
    :meth:`scaled_sum` makes the one other kind, ``scale * x + e``.
    """

    __slots__ = ("n", "bound", "_source", "_rows")

    def __init__(self, source):
        if not callable(source) and not isinstance(source, (Polynomial, _ScaledSum)):
            source = _exact_values(source)
        self._source = source
        value = self._value()
        if isinstance(value, Polynomial):
            self.n = value.degree_bound
            self.bound = pl.max_magnitude(value.planes, value.modulus)
        elif isinstance(value, _ScaledSum):
            poly = value.poly
            self.n = poly.degree_bound
            self.bound = value.scale * poly.infinity_norm() + _bound(value.values)
        else:
            self.n = len(value)
            self.bound = _bound(value)
        self._rows = np.empty((0, self.n), dtype=np.uint64)

    @classmethod
    def scaled_sum(cls, poly: "Polynomial", scale: int, values: np.ndarray) -> "Operand":
        """``scale * x + values`` for the centered lift ``x`` of ``poly``
        and an ``int64`` array ``values``: encryption's ``delta * m + e``.

        Its residues are ``scale * residues(x) + residues(values)``, so
        the wide integers are never formed.
        """
        return cls(_ScaledSum(poly, scale, values))

    def _value(self):
        """The :class:`Polynomial`, ``int64`` array or scaled sum behind
        the operand."""
        source = self._source
        return source() if callable(source) else source

    def _exact(self) -> list:
        """The operand's exact signed coefficients, as Python ints."""
        value = self._value()
        if isinstance(value, Polynomial):
            return value.centered()
        if isinstance(value, _ScaledSum):
            return [
                value.scale * x + v
                for x, v in zip(value.poly.centered(), value.values.tolist())
            ]
        return value.tolist()

    def residues(self, primes: tuple, out=None) -> np.ndarray:
        """``(k, n)`` residues of the exact coefficients modulo
        ``primes``, written to ``out`` when given."""
        value = self._value()
        if isinstance(value, Polynomial):
            return crt.residues(value.planes, value.modulus, primes, out)
        if isinstance(value, _ScaledSum):
            poly = value.poly
            return crt.scaled_residues(
                poly.planes, poly.modulus, value.scale, value.values, primes, out
            )
        return crt.signed_residues(value, primes, out)

    def rows(self, count: int) -> np.ndarray:
        """``(count, n)`` forward transforms over the first ``count`` CRT
        primes (a view: read only)."""
        if len(self._rows) < count:
            _transform([self], count)
        return self._rows[:count]

    def _extend(self, new: np.ndarray) -> None:
        """Append the transforms ``new`` over the next primes. Published
        whole, so a handle shared by two callers never holds a
        half-built array."""
        rows = self._rows
        self._rows = np.concatenate((rows, new)) if len(rows) else new


def _transform(operands, count: int) -> None:
    """Extend every operand's rows to the first ``count`` primes.

    Operands holding the same number of rows are transformed together:
    their residues are written into one ``(m, count - start, n)`` batch
    and one :func:`~repro.poly.ntt.forward` call transforms it in place
    (the batch becomes their rows). Key handles (callable sources) go in
    a batch of their own, so the rows a key keeps for its life hold no
    other operand's rows alive. After a key's first use, every operand
    of an operation that lacks rows holds none, so that is one call.
    """
    pending = {}
    for op in operands:
        start = len(op._rows)
        if start < count:
            group = pending.setdefault((start, callable(op._source)), {})
            group.setdefault(id(op), op)
    for (start, _), group in pending.items():
        group = list(group.values())
        n = group[0].n
        twiddles = crt_twiddles(n, start, count)
        batch = np.empty((len(group), count - start, n), dtype=np.uint64)
        for op, out in zip(group, batch):
            op.residues(twiddles.primes, out)
        for op, new in zip(group, ntt.forward(batch, twiddles, out=batch)):
            op._extend(new)


def _bound(values: np.ndarray) -> int:
    """``max |v|`` of an ``int64`` array (not np.abs: it wraps ``-2^63``
    to itself)."""
    return max(int(values.max(initial=0)), -int(values.min(initial=0)))


class _ScaledSum:
    """``scale * x + values``: the source of :meth:`Operand.scaled_sum`."""

    __slots__ = ("poly", "scale", "values")

    def __init__(self, poly: "Polynomial", scale: int, values: np.ndarray):
        if scale < 0 or len(values) != poly.degree_bound:
            raise ParameterError(
                f"a scaled sum needs scale >= 0 and {poly.degree_bound} values"
            )
        self.poly = poly
        self.scale = scale
        self.values = np.asarray(values, dtype=np.int64)


def _exact_values(values):
    """Exact signed integers as an ``int64`` array, or, when some do not
    fit one, as a :class:`Polynomial` over an odd modulus wide enough
    that its centered lift gives them back."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        width = max(abs(int(v)) for v in values).bit_length()
        return Polynomial(values, (1 << (width + 1)) + 1)


def exact_sums(sums, n: int, addends=None) -> MixedRadix:
    """``addend_j + sum(a_i * b_i)`` mod ``x^n + 1`` over Z for every
    sum ``j`` of one operation, in one CRT bundle.

    ``sums`` is a sequence of ``s`` term lists of ``(Operand, Operand)``
    pairs and ``addends`` (optional) holds one :class:`Operand` or
    ``None`` per sum. The result holds sum ``j`` at lanes ``j n`` to
    ``(j + 1) n - 1``.

    The bundle is sized once, for the largest sum: every coefficient of
    sum ``j`` is at most ``n * sum(max|a_i| * max|b_i|) + max|addend_j|``
    in absolute value, and the CRT modulus must cover that signed range.
    Every operand lacking rows is forward-transformed in one call
    (shared operands and cached key operands are not transformed
    again); the pointwise products are accumulated in the evaluation
    domain into one ``(s, k, n)`` array, reduced every
    :data:`_LAZY_TERMS` terms by one scalar ``//`` per prime, one
    inverse call takes every prime of every sum back, and each addend's
    residues join its sum in the coefficient domain. The result leaves
    the bundle through one
    :meth:`~repro.poly.crt.MixedRadix.scale_round`.
    """
    sums = [list(terms) for terms in sums]
    addends = [None] * len(sums) if addends is None else list(addends)
    if not sums or not all(sums):
        raise ParameterError("an exact sum needs at least one term")
    if len(addends) != len(sums):
        raise ParameterError(f"{len(sums)} sums take {len(sums)} addends")
    _check_degree(n)
    operands = [op for terms in sums for term in terms for op in term]
    if any(op.n != n for op in operands + [a for a in addends if a is not None]):
        raise ParameterError(f"every operand must have degree {n}")
    bound = max(
        n * sum(a.bound * b.bound for a, b in terms)
        + (addend.bound if addend is not None else 0)
        for terms, addend in zip(sums, addends)
    )
    moduli = crt_moduli(n, 2 * bound + 1)
    count = len(moduli)
    _transform(operands, count)
    acc = np.empty((len(sums), count, n), dtype=np.uint64)
    for total, terms in zip(acc, sums):
        (a, b), *rest = terms
        np.multiply(a.rows(count), b.rows(count), out=total)
        for index, (a, b) in enumerate(rest, start=1):
            if index % _LAZY_TERMS == 0:
                crt.reduce_rows(total, moduli)
            total += a.rows(count) * b.rows(count)
    crt.reduce_rows(acc, moduli)
    twiddles = crt_twiddles(n, 0, count)
    rows = ntt.inverse(acc, twiddles)
    del acc  # freed before the digits are allocated
    for total, addend in zip(rows, addends):
        if addend is not None:
            ntt.add_mod(total, addend.residues(moduli), twiddles)
    return MixedRadix(rows, moduli)


def exact_sum(terms, n: int, addend: Operand | None = None) -> MixedRadix:
    """``addend + sum(a_i * b_i)`` mod ``x^n + 1`` over Z: the one-sum
    case of :func:`exact_sums`."""
    return exact_sums([terms], n, [addend])


def _check_degree(n: int) -> None:
    if n <= 0 or n & (n - 1):
        raise ParameterError(f"ring degree must be a power of two: {n}")


def _crt_negacyclic(a: list, b: list, n: int) -> list:
    """One exact product through the CRT engine (any degree).

    The one-term case of :func:`exact_sums`; a square (``b is a``)
    transforms its operand once per prime.
    """
    left = Operand(a)
    right = left if b is a else Operand(b)
    return exact_sum([(left, right)], n).signed()


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
        return _schoolbook_negacyclic(list(a), list(b), n)
    return _crt_negacyclic(a, b, n)


def negacyclic_sum(terms, n: int) -> list:
    """Exact ``sum(a_i * b_i)`` mod ``x^n + 1`` over Z, as signed ints.

    ``terms`` is a sequence of ``(Operand, Operand)`` pairs of degree
    ``n``. Schoolbook at ``n <= SCHOOLBOOK_MAX_DEGREE``; above, one CRT
    bundle sized for the whole sum (:func:`exact_sums`).
    """
    terms = list(terms)
    if not terms:
        raise ParameterError("negacyclic_sum needs at least one term")
    _check_degree(n)
    if n > SCHOOLBOOK_MAX_DEGREE:
        return exact_sum(terms, n).signed()
    if any(a.n != n or b.n != n for a, b in terms):
        raise ParameterError(f"every operand must have degree {n}")
    total = [0] * n
    for a, b in terms:
        product = _schoolbook_negacyclic(a._exact(), b._exact(), n)
        total = [x + y for x, y in zip(total, product)]
    return total


class Polynomial:
    """An element of ``Z_q[x] / (x^n + 1)``, coefficients in ``[0, q)``.

    Immutable: ``planes`` is a read-only ``(L, n)`` limb array and all
    operations return new instances. Equality and hashing follow the
    (coefficients, modulus) value.
    """

    __slots__ = ("planes", "modulus", "_coeffs")

    def __init__(self, coeffs, modulus: int):
        if modulus < 2:
            raise ParameterError(f"modulus must be >= 2, got {modulus}")
        if isinstance(coeffs, np.ndarray) and coeffs.dtype.kind == "i":
            planes = pl.from_signed(coeffs.astype(np.int64), modulus)
        else:
            coeffs = list(coeffs)
            planes = pl.from_ints(coeffs, modulus) if coeffs else None
        n = 0 if planes is None else planes.shape[1]
        if n == 0 or n & (n - 1):
            raise ParameterError(
                f"ring degree must be a nonzero power of two, got {n}"
            )
        self._set(planes, modulus)

    def _set(self, planes: np.ndarray, modulus: int) -> None:
        planes.flags.writeable = False
        self.planes = planes
        self.modulus = modulus
        self._coeffs = None

    @classmethod
    def from_planes(cls, planes: np.ndarray, modulus: int) -> "Polynomial":
        """Wrap an ``(L, n)`` limb array already reduced to ``[0, modulus)``."""
        if planes.shape[0] != pl.limb_count(modulus):
            raise ParameterError(
                f"modulus of {modulus.bit_length()} bits takes "
                f"{pl.limb_count(modulus)} limbs, got {planes.shape[0]}"
            )
        poly = object.__new__(cls)
        poly._set(planes, modulus)
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, modulus: int) -> "Polynomial":
        """The additive identity of ``R_q`` with degree bound ``n``."""
        return cls(np.zeros(n, dtype=np.int64), modulus)

    @classmethod
    def sums_of_products(
        cls, sums, modulus: int, addends=None, scale=(1, 1)
    ) -> list:
        """``round(num/den * (addend_j + sum(a_i * b_i)))`` in
        ``R_modulus`` for every sum ``j``: ``sums`` holds term lists of
        ``(Operand, Operand)`` pairs, ``addends`` one :class:`Operand` or
        ``None`` per sum, and ``scale = (num, den)`` applies to all.

        One :func:`exact_sums` and one exit for every sum of an
        operation. With the default scale each result is the plain sum
        mod ``modulus``, equal to adding the per-term ``Polynomial``
        products and the addend.
        """
        sums = [list(terms) for terms in sums]
        if not sums or not all(sums):
            raise ParameterError("sums_of_products needs at least one term per sum")
        num, den = scale
        n = sums[0][0][0].n
        planes = exact_sums(sums, n, addends).scale_round(num, den, modulus)
        return [
            cls.from_planes(planes[:, j * n : (j + 1) * n], modulus)
            for j in range(len(sums))
        ]

    @classmethod
    def sum_of_products(
        cls, terms, modulus: int, addend: Operand | None = None, scale=(1, 1)
    ) -> "Polynomial":
        """``round(num/den * (addend + sum(a_i * b_i)))`` in ``R_modulus``:
        the one-sum case of :meth:`sums_of_products`."""
        return cls.sums_of_products([terms], modulus, [addend], scale)[0]

    # -- basic protocol -------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as a tuple of Python ints, built on first use."""
        if self._coeffs is None:
            self._coeffs = tuple(pl.to_ints(self.planes))
        return self._coeffs

    @property
    def degree_bound(self) -> int:
        """The ring degree ``n`` (number of coefficient slots)."""
        return self.planes.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.modulus == other.modulus
            and bool(np.array_equal(self.planes, other.planes))
        )

    def __hash__(self) -> int:
        return hash((self.planes.tobytes(), self.modulus))

    def __getstate__(self):
        return self.planes, self.modulus

    def __setstate__(self, state):
        planes, modulus = state
        self._set(planes, modulus)

    def __repr__(self) -> str:
        n = self.degree_bound
        head = ", ".join(str(c) for c in pl.to_ints(self.planes[:, :4]))
        tail = ", ..." if n > 4 else ""
        return (
            f"Polynomial(n={n}, "
            f"q~2^{self.modulus.bit_length()}, [{head}{tail}])"
        )

    def _check_compatible(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise ParameterError(f"expected Polynomial, got {type(other)}")
        if self.modulus != other.modulus:
            raise ParameterError("polynomial moduli differ")
        if self.degree_bound != other.degree_bound:
            raise ParameterError("polynomial degrees differ")

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        q = self.modulus
        return Polynomial.from_planes(pl.add_mod(self.planes, other.planes, q), q)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        q = self.modulus
        return Polynomial.from_planes(pl.sub_mod(self.planes, other.planes, q), q)

    def __neg__(self) -> "Polynomial":
        q = self.modulus
        return Polynomial.from_planes(pl.neg_mod(self.planes, q), q)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scalar_mul(other)
        self._check_compatible(other)
        # Centered operands keep small polynomials small: a ternary
        # secret enters as +-1, not as q - 1, so the exact product needs
        # CRT primes for |a| * |b|, not for q^2. The result mod q is
        # the same.
        left = Operand(self)
        right = left if other is self else Operand(other)
        return Polynomial.sum_of_products([(left, right)], self.modulus)

    __rmul__ = __mul__

    def scalar_mul(self, scalar: int) -> "Polynomial":
        """Multiply every coefficient by an integer scalar (mod q)."""
        return self.scale(scalar % self.modulus, 1, self.modulus)

    def scale(self, num: int, den: int, modulus: int) -> "Polynomial":
        """``round(num * x / den) mod modulus`` for the centered lift ``x``.

        The engine's exit applied to this polynomial itself: a scalar
        multiple is ``(s, 1, q)``, a centered lift to another modulus
        ``(1, 1, q')``, a modulus switch ``(q', q, q')``. ``den`` must be
        1 or odd.
        """
        n, q = self.degree_bound, self.modulus
        moduli = crt_moduli(n, q)
        exact = MixedRadix(crt.residues(self.planes, q, moduli), moduli)
        return Polynomial.from_planes(exact.scale_round(num, den, modulus), modulus)

    # -- representation helpers ------------------------------------------

    def centered(self) -> list:
        """Coefficients lifted to the centered range ``(-q/2, q/2]``.

        The centered lift is what decryption rounds and what noise
        analysis measures.
        """
        q = self.modulus
        magnitudes = pl.to_ints(pl.magnitudes(self.planes, q))
        upper = pl.above(self.planes, q // 2)
        return [-m if up else m for m, up in zip(magnitudes, upper.tolist())]

    def infinity_norm(self) -> int:
        """Max absolute value of the centered coefficients."""
        return pl.max_magnitude(self.planes, self.modulus)

    def lift_centered_to(self, new_modulus: int) -> "Polynomial":
        """Re-reduce the centered representative modulo a new modulus."""
        return self.scale(1, 1, new_modulus)
