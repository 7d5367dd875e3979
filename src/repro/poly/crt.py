"""The exact CRT engine's entry and exit, on limb planes.

Every exact product of :mod:`repro.poly.polynomial` runs over a bundle
of 31-bit NTT primes ``p_0 .. p_{k-1}`` with odd product ``P``. Values
enter the bundle as residues and leave it once, already scaled, rounded
and reduced, as limb planes (:mod:`repro.poly.planes`). No Python int
is made per coefficient on either side.

* **Entry** (:func:`residues`): the centered lift ``x`` in
  ``(-q/2, q/2]`` of residues held as limb planes, reduced modulo each
  prime. Per prime, one limb-wise Horner pass over ``2^32 mod p``,
  plus a ``-q mod p`` correction on the lanes above ``q // 2``.
* **Digits** (:class:`MixedRadix`): Garner's mixed-radix digits of the
  signed ``x`` in ``(-P/2, P/2]`` with given residues:
  ``x + P // 2 = sum_i d_i R_i`` with ``R_i = p_0 ... p_{i-1}`` and
  ``0 <= d_i < p_i``, computed on ``uint64`` words and held as one
  float64 block.
* **Exit** (:meth:`MixedRadix.scale_round`): ``round(num * x / den) mod
  out`` as limb planes. Every caller is one setting of
  ``(num, den, out)``: a plain sum mod ``q`` is ``(1, 1, q)``, the BFV
  tensor's ``t/q`` scaling ``(t, q, q)``, decryption ``(t, q, t)`` and
  modulus switching ``(q', q, q')``.

The entry and the digits work one prime row at a time, against 0-d
constants: numpy runs those on its fast path, where a ``(k, 1)`` column
of primes would send every operation through its general iterator, and
a ``%`` by a column costs as much as seven multiplies. Every reduction is
one scalar floor division ``x - (x // p) p`` (numpy divides by a 0-d
integer with a multiply and a shift), of a value below ``2^64``.

The exit splits ``num * R_i = A_i * den + B_i`` and
``num * (P // 2) = A_h * den + B_h`` once per setting, so that

    num * x = den * (sum_i d_i A_i - A_h) + F,   F = sum_i d_i B_i - B_h,
    round(num * x / den) = sum_i d_i A_i - A_h + c,   c = round(F / den).

There are no ties: ``den`` is 1 or odd, so ``F / den`` is never a half
integer, and ``c = floor((2F + den) / (2 den))``. The two integer
quotients the exit needs, ``c`` and ``g = floor(U / out)`` for
``U = sum_i d_i (A_i mod out) + c - A_h mod out``, are each estimated
in ``float64`` from the digits, low by at most one, and settled exactly
with one conditional correction: the remainders ``F + (den - 1)/2 -
c den`` and ``U - g out`` are computed exactly as 32-bit limbs
(:func:`_combine`), by one float matrix product over the digit block,
its row of ones and the quotients the exit writes into the block's
spare rows. Every estimate is below ``2^37``, so its float error is
far below the slack taken off it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.mpint.limbs import LIMB_BITS, LIMB_MASK
from repro.poly import planes as pl
from repro.poly.modring import find_ntt_prime, inverse_mod
from repro.poly.ntt import Twiddles

#: Bit width of the bundle's primes. 31 bits keeps every butterfly
#: product inside a ``uint64`` word (see
#: :data:`repro.poly.ntt.NATIVE_PRIME_LIMIT`); a wider value just takes
#: more primes. Every prime is above ``2^30``, so a residue modulo one
#: prime is below twice any other.
CRT_PRIME_BITS = 31

#: Most primes one bundle may hold. The float quotient estimates sum
#: ``k`` terms below ``2^31`` each; with at most 32 of them their error
#: stays below ``2^-12``, inside :data:`_SLACK`, :func:`_combine`'s
#: ``k + 5`` products below ``2^47`` each sum exactly in float64, and
#: :meth:`MixedRadix.signed`'s ``2^(32 L)`` modulus is a finite float.
MAX_PRIMES = 32

#: Most lanes one exit step works on: an exit over more (several ring
#: elements of one operation, :func:`repro.poly.polynomial.exact_sums`)
#: runs in steps of this many, so its temporaries, about ``8 (k + 8 L)``
#: bytes per lane for ``L`` output limbs, stay those of one ``n = 4096``
#: element.
EXIT_LANES = 4096

#: Amount subtracted from every float quotient estimate before its
#: floor, so that the estimate is never above the true quotient and at
#: most one below it.
_SLACK = 2.0**-6

#: Coefficients of :func:`_combine` are split at this power of two.
_SPLIT = float(1 << 31)


@lru_cache(maxsize=64)
def crt_prime(n: int, index: int) -> int:
    """The ``index``-th bundle prime for degree ``n``: 31-bit, == 1 mod 2n."""
    return find_ntt_prime(CRT_PRIME_BITS, n, index=index)


def crt_moduli(n: int, bound: int) -> tuple:
    """The shortest prefix of the bundle whose modulus reaches ``bound``.

    The bundle for ``k`` primes is a prefix of the bundle for ``k + 1``.
    """
    moduli = []
    product = 1
    while product < bound or not moduli:
        moduli.append(crt_prime(n, len(moduli)))
        product *= moduli[-1]
    return tuple(moduli)


#: Ring degree -> the one :class:`~repro.poly.ntt.Twiddles` table of
#: its bundle's first primes, rebuilt longer when a longer bundle is
#: first needed.
_TWIDDLES: dict = {}

#: ``(n, start, stop)`` -> the view of the degree's table that
#: :func:`crt_twiddles` returns, so a bundle builds its view once.
_VIEWS: dict = {}


def crt_twiddles(n: int, start: int, stop: int) -> Twiddles:
    """NTT tables of bundle primes ``start .. stop - 1`` at degree ``n``.

    Cached row views of the degree's one table, so a bundle adds no
    copy.
    """
    view = _VIEWS.get((n, start, stop))
    if view is not None:
        return view
    table = _TWIDDLES.get(n)
    if table is None or len(table) < stop:
        # Published whole, so a reader never sees a half-built table;
        # the views of the table it replaces would keep that alive.
        table = _TWIDDLES[n] = Twiddles(n, tuple(crt_prime(n, i) for i in range(stop)))
        for key in [key for key in _VIEWS if key[0] == n]:
            del _VIEWS[key]
    view = _VIEWS[(n, start, stop)] = table[start:stop]
    return view


def reduce_rows(rows: np.ndarray, moduli: tuple) -> None:
    """``rows[..., i, :] mod moduli[i]`` in place, for ``(..., k, n)``
    ``uint64`` rows.

    One scalar ``//`` per prime, over that prime's row of every
    polynomial at once: numpy divides by a 0-d integer with a multiply
    and a shift, several times faster than ``%``.
    """
    by_prime = rows.swapaxes(0, -2)
    scratch = np.empty(by_prime.shape[1:], dtype=np.uint64)
    for row, p in zip(by_prime, moduli):
        _reduce_row(row, np.uint64(p), scratch)


def _reduce_row(row: np.ndarray, p: np.uint64, scratch: np.ndarray) -> None:
    """``row mod p`` in place: ``x - (x // p) p``, exact."""
    np.floor_divide(row, p, out=scratch)
    np.multiply(scratch, p, out=scratch)
    np.subtract(row, scratch, out=row)


# -- entry -------------------------------------------------------------------


@lru_cache(maxsize=256)
def _entry_constants(modulus: int, primes: tuple) -> tuple:
    """``(p, 2^32 mod p, -modulus mod p)`` per prime, as 0-d ``uint64``."""
    return tuple(
        (np.uint64(p), np.uint64((1 << LIMB_BITS) % p), np.uint64(-modulus % p))
        for p in primes
    )


def residues(planes: np.ndarray, modulus: int, primes: tuple, out=None) -> np.ndarray:
    """``(k, n)`` residues modulo ``primes`` of the centered lift of
    ``planes`` (residues modulo ``modulus``), written to ``out`` when
    given.

    Per prime, Horner over the limbs from the most significant: a
    partial value below ``p`` times ``2^32 mod p`` plus a limb is below
    ``2^63``, and is reduced by one scalar ``//`` before the next
    multiply. Lanes above ``modulus // 2`` stand for ``v - modulus``
    and add ``-modulus mod p`` before the last reduction, which values
    below ``modulus <= p`` do not need. Every
    operation is on one row and 0-d constants.
    """
    upper = pl.above(planes, modulus // 2).astype(np.uint64)
    if out is None:
        out = np.empty((len(primes), planes.shape[1]), dtype=np.uint64)
    scratch = np.empty(planes.shape[1], dtype=np.uint64)
    for row, (p, radix, fix) in zip(out, _entry_constants(modulus, primes)):
        np.copyto(row, planes[-1])
        for j in range(len(planes) - 2, -1, -1):
            np.multiply(row, radix, out=row)
            np.add(row, planes[j], out=row)
            if j:
                _reduce_row(row, p, scratch)
        np.multiply(upper, fix, out=scratch)
        np.add(row, scratch, out=row)
        if modulus > p:
            _reduce_row(row, p, scratch)
    return out


def scaled_residues(
    planes: np.ndarray,
    modulus: int,
    scale: int,
    values: np.ndarray,
    primes: tuple,
    out=None,
) -> np.ndarray:
    """``(k, n)`` residues modulo ``primes`` of ``scale * x + values``,
    for the centered lift ``x`` of ``planes`` and an ``int64`` array
    ``values``: the two residue rows combined per prime, a product below
    ``p^2`` plus a residue, reduced by one scalar ``//``."""
    out = residues(planes, modulus, primes, out)
    extra = signed_residues(values, primes)
    scratch = np.empty(planes.shape[1], dtype=np.uint64)
    for row, add, p in zip(out, extra, primes):
        np.multiply(row, np.uint64(scale % p), out=row)
        np.add(row, add, out=row)
        _reduce_row(row, np.uint64(p), scratch)
    return out


def signed_residues(values: np.ndarray, primes: tuple, out=None) -> np.ndarray:
    """``(k, n)`` residues modulo ``primes`` of an ``int64`` array.

    Per prime, ``v - (v // p) p`` with a scalar floor division, which
    lands in ``[0, p)`` for either sign (the product may wrap past
    ``-2^63``; the difference wraps back).
    """
    if out is None:
        out = np.empty((len(primes), len(values)), dtype=np.uint64)
    quotient = np.empty(len(values), dtype=np.int64)
    for row, p in zip(out.view(np.int64), primes):
        p64 = np.int64(p)
        np.floor_divide(values, p64, out=quotient)
        np.multiply(quotient, p64, out=quotient)
        np.subtract(values, quotient, out=row)
    return out


# -- digits ------------------------------------------------------------------


@lru_cache(maxsize=64)
def _garner_constants(moduli: tuple) -> tuple:
    """``(p_i, 2 p_i, half mod p_i, [p_j^{-1} mod p_i for j < i])`` per
    prime as 0-d ``uint64``, for ``half = P // 2``."""
    half = math.prod(moduli) // 2
    return tuple(
        (
            np.uint64(p_i),
            np.uint64(2 * p_i),
            np.uint64(half % p_i),
            tuple(np.uint64(inverse_mod(p_j % p_i, p_i)) for p_j in moduli[:i]),
        )
        for i, p_i in enumerate(moduli)
    )


#: Rows of a :class:`MixedRadix` block after the digits: a row of ones
#: (the exits' constant term), then two exact quotients of an exit as
#: ``(low, high)`` row pairs (:func:`_split`).
_SPARE_ROWS = 5


class MixedRadix:
    """The signed integers ``x`` in ``(-P/2, P/2]`` with residues ``rows``
    (each in ``[0, p_i)``) over the bundle ``moduli``, held as Garner
    digits.

    ``rows`` is ``(k, n)``, or ``(s, k, n)`` for ``s`` polynomials over
    the bundle: their lanes are taken in order, polynomial ``j``'s at
    ``j n`` to ``(j + 1) n - 1``, so one set of digits and one exit
    serve all of them (digits and exits work lane by lane).

    Shifting every residue by ``P // 2`` first makes the mixed-radix
    value ``x + P // 2`` land in ``[0, P)``. ``P`` is odd, so the signed
    range is exactly ``(-P/2, P/2]``.

    The digits live in one ``(k + 5, n)`` float64 block, the layout the
    exits' float matrix products read: ``k`` digit rows, a row of ones,
    then four spare rows into which each exit writes its quotients, so
    no exit copies the digits. Garner's recurrence runs on ``uint64``
    rows with 0-d constants: for ``j < i``, ``d_i <- (d_i + 2 p_i - d_j)
    (p_j^{-1} mod p_i) mod p_i``, the product below ``3 p_i^2 < 2^64``
    and each reduction one scalar ``//``.
    """

    __slots__ = ("moduli", "_block")

    def __init__(self, rows, moduli: tuple):
        if len(moduli) > MAX_PRIMES:
            raise ParameterError(
                f"a CRT bundle holds at most {MAX_PRIMES} primes, "
                f"got {len(moduli)}"
            )
        k, n = len(moduli), np.shape(rows)[-1]
        polys = np.reshape(rows, (-1, k, n))
        block = np.empty((k + _SPARE_ROWS, polys.shape[0] * n))
        block[k] = 1.0
        # Digits run a few polynomials at a time, like the exit.
        step = max(1, EXIT_LANES // n)
        digits = np.empty((k, min(step, len(polys)) * n), dtype=np.uint64)
        for start in range(0, len(polys), step):
            chunk = polys[start : start + step].swapaxes(0, 1)
            lanes = chunk[0].size
            _garner(
                chunk,
                moduli,
                digits[:, :lanes],
                block[:k, start * n : start * n + lanes],
            )
        self.moduli = moduli
        self._block = block

    # -- the exit ------------------------------------------------------------

    def scale_round(self, num: int, den: int, out: int) -> np.ndarray:
        """``round(num * x / den) mod out`` as a limb-plane array.

        ``den`` must be 1 or odd, so no value is a tie; ``num >= 0``.
        Writes ``-g`` (and ``c`` when ``den > 1``) into the block's
        spare rows. Runs over at most :data:`EXIT_LANES` lanes at a
        time, so its temporaries stay those of one ring element.
        """
        exit_ = _exit(self.moduli, num, den, out)
        result = np.empty((exit_.out_limbs, self._block.shape[1]), dtype=np.uint64)
        for block, lanes in self._chunks():
            result[:, lanes] = self._scale_round(exit_, den, block)
        return result

    def _chunks(self):
        """``(block columns, lane slice)`` per run of at most
        :data:`EXIT_LANES` lanes."""
        total = self._block.shape[1]
        for start in range(0, total, EXIT_LANES):
            lanes = slice(start, min(start + EXIT_LANES, total))
            yield self._block[:, lanes], lanes

    @staticmethod
    def _scale_round(exit_, den: int, block: np.ndarray) -> np.ndarray:
        """:meth:`scale_round` over the lanes of ``block`` (columns of the
        digit block)."""
        k = len(exit_.alpha)
        estimate = exit_.alpha @ block[:k]
        estimate += exit_.alpha0
        rows = k + 3
        if den > 1:
            carry = MixedRadix._carry(exit_, block)[0]
            estimate += carry * exit_.inv_out
            _split(carry, block[k + 3 : k + 5])
            rows = k + 5
        estimate -= _SLACK
        np.floor(estimate, out=estimate)
        np.negative(estimate, out=estimate)
        _split(estimate, block[k + 1 : k + 3])
        value = _combine(exit_.out_halves, block[:rows])
        return _reduce_once(value, exit_.out_col)[: exit_.out_limbs]

    def remainder_bound(self, num: int, den: int) -> int:
        """``max |num * x - den * round(num * x / den)|`` over the lanes.

        For decryption (``num = t``, ``den = q``) this is the numerator
        of the invariant noise that
        :func:`~repro.core.noise.noise_budget` measures.
        """
        if den == 1:
            return 0
        exit_ = _exit(self.moduli, num, den, den)
        largest = 0
        for block, _ in self._chunks():
            shifted = self._carry(exit_, block)[1]  # F - den c + (den - 1)/2, in [0, den)
            mirrored = pl.subtract(pl.constant(den - 1, len(shifted)), shifted)[0]
            largest = max(largest, pl.max_int(shifted), pl.max_int(mirrored))
        return largest - (den - 1) // 2

    def signed(self) -> list:
        """The exact signed integers, as Python ints."""
        width = LIMB_BITS * pl.limb_count(math.prod(self.moduli))
        wrapped = pl.to_ints(self.scale_round(1, 1, 1 << width))
        top = 1 << (width - 1)
        return [v - (1 << width) if v >= top else v for v in wrapped]

    @staticmethod
    def _carry(exit_, block: np.ndarray) -> tuple:
        """``c = round(F / den)`` and ``F - den c + (den - 1)/2`` (limbs),
        over the lanes of ``block``.

        The float estimate of ``(2F + den) / (2 den)`` is lowered by the
        slack before its floor, so ``c`` starts exact or one low; the
        exact limb value then reads ``den`` or more exactly where it is
        one low. Writes ``-c`` into the block's first spare rows.
        """
        k = len(exit_.beta)
        carry = exit_.beta @ block[:k]
        carry += exit_.beta0 - _SLACK
        np.floor(carry, out=carry)
        _split(-carry, block[k + 1 : k + 3])
        value = _combine(exit_.round_halves, block[: k + 3])
        low = ~pl.subtract(value, exit_.den_col)[1]
        carry += low
        value = _reduce_once(value, exit_.den_col)
        return carry, value[: exit_.den_limbs]


def _garner(by_prime, moduli: tuple, digits: np.ndarray, floats: np.ndarray) -> None:
    """Garner's digits of the residue rows ``by_prime`` (``(k, ..., n)``,
    row ``i`` modulo ``moduli[i]``) into the float rows ``floats``, on
    the ``uint64`` rows ``digits``, all ``(k, lanes)``."""
    scratch = np.empty(digits.shape[1], dtype=np.uint64)
    for row, digit, out, (p, p2, offset, inverses) in zip(
        by_prime, digits, floats, _garner_constants(moduli)
    ):
        np.add(row, offset, out=digit.reshape(row.shape))
        np.subtract(digit, p, out=scratch)
        np.minimum(digit, scratch, out=digit)
        # Every prime is above 2^30, so an earlier digit is below 2 p.
        for earlier, inverse in zip(digits, inverses):
            np.add(digit, p2, out=digit)
            np.subtract(digit, earlier, out=digit)
            np.multiply(digit, inverse, out=digit)
            _reduce_row(digit, p, scratch)
        out[:] = digit


# -- exit constants and exact combination ----------------------------------------


class _Exit:
    """Constants of one ``(moduli, num, den, out)`` exit setting."""

    def __init__(self, moduli: tuple, num: int, den: int, out: int):
        if num < 0 or out < 2 or den < 1 or (den > 1 and den % 2 == 0):
            raise ParameterError(
                f"exit needs num >= 0, out >= 2 and den 1 or odd; got "
                f"num={num}, den={den}, out={out}"
            )
        radices = [math.prod(moduli[:i]) for i in range(len(moduli))]
        split = [divmod(num * radix, den) for radix in radices]
        whole_h, frac_h = divmod(num * (math.prod(moduli) // 2), den)
        scaled = [whole % out for whole, _ in split]
        offset = out - whole_h % out  # adds -A_h mod out, keeping U >= 0
        self.out_limbs = pl.limb_count(out)
        width = self.out_limbs + 1  # U - g out is below 2 out
        # Block rows: the digits, the ones (times the offset), -g as
        # (low, high), then c as (low, high) when there is a carry.
        carry = [1, 1 << 31] if den > 1 else []
        self.out_halves = _constant_halves(
            [*scaled, offset, out, out << 31, *carry], width
        )
        self.out_col = pl.constant(out, width)
        self.alpha = np.array([a / out for a in scaled])
        self.alpha0 = offset / out
        self.inv_out = 1.0 / out
        if den == 1:
            return
        self.den_limbs = pl.limb_count(den)
        width = self.den_limbs + 1  # F - den c + (den - 1)/2 is in [0, 2 den)
        self.round_halves = _constant_halves(
            [*(frac for _, frac in split), (den - 1) // 2 - frac_h, den, den << 31],
            width,
        )
        self.den_col = pl.constant(den, width)
        self.beta = np.array([frac / den for _, frac in split])
        self.beta0 = (den - 2 * frac_h) / (2 * den)


@lru_cache(maxsize=128)
def _exit(moduli: tuple, num: int, den: int, out: int) -> _Exit:
    return _Exit(moduli, num, den, out)


def _split(values: np.ndarray, rows: np.ndarray) -> None:
    """Write ``values`` (exact integers in float64, below ``2^53``) into
    the ``(2, n)`` ``rows`` as ``(low, high)`` with ``values = low + high
    * 2^31``, ``0 <= low < 2^31``."""
    low, high = rows
    np.multiply(values, 1.0 / _SPLIT, out=high)
    np.floor(high, out=high)
    np.multiply(high, _SPLIT, out=low)
    np.subtract(values, low, out=low)


def _constant_halves(columns: list, width: int) -> np.ndarray:
    """The ``(2 width, m)`` float matrix :func:`_combine` multiplies.

    ``columns`` pair with the ``m`` block rows, in order; each (any
    sign) is taken modulo ``2^(32 width)`` and split into 16-bit halves
    of its 32-bit limbs.
    """
    wrap = 1 << (LIMB_BITS * width)
    columns = [c % wrap for c in columns]
    limbs = [
        [(c >> (LIMB_BITS * j)) & LIMB_MASK for c in columns] for j in range(width)
    ]
    low = [[limb & 0xFFFF for limb in row] for row in limbs]
    high = [[limb >> 16 for limb in row] for row in limbs]
    return np.array(low + high, dtype=np.float64)


def _combine(halves: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``sum_m rows[m] * constant_m`` per lane, exactly, modulo
    ``2^(32 width)``, as ``width`` limbs (``uint64``).

    ``rows`` are block rows: integers below ``2^31`` in magnitude, held
    in float64; the constants' limbs enter as 16-bit halves, so every
    product is below ``2^47`` and every partial sum of at most
    ``MAX_PRIMES + 5`` of them below ``2^53``: the float matrix product
    is exact in any summation order.
    """
    width = len(halves) // 2
    sums = (halves @ rows).astype(np.int64)
    low, high = sums[:width], sums[width:]
    limbs = low + ((high & 0xFFFF) << 16)
    limbs[1:] += high[:-1] >> 16
    for j in range(width - 1):
        limbs[j + 1] += limbs[j] >> LIMB_BITS
        limbs[j] &= LIMB_MASK
    limbs[-1] &= LIMB_MASK
    return limbs.astype(np.uint64)


def _reduce_once(value: np.ndarray, modulus_col: np.ndarray) -> np.ndarray:
    """``value - modulus`` where ``value >= modulus``, else ``value``."""
    reduced, borrow = pl.subtract(value, modulus_col)
    return np.where(borrow, value, reduced)
