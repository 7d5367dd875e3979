"""The exact CRT engine's entry and exit, on limb planes.

Every exact product of :mod:`repro.poly.polynomial` runs over a bundle
of 31-bit NTT primes ``p_0 .. p_{k-1}`` with odd product ``P``. Values
enter the bundle as residues and leave it once, already scaled, rounded
and reduced, as limb planes (:mod:`repro.poly.planes`). No Python int
is made per coefficient on either side.

* **Entry** (:func:`residues`): the centered lift ``x`` in
  ``(-q/2, q/2]`` of residues held as limb planes, reduced modulo each
  prime. One limb-wise Horner pass over ``2^32 mod p``, plus a
  ``q mod p`` correction on the lanes above ``q // 2``.
* **Digits** (:class:`MixedRadix`): Garner's mixed-radix digits of the
  signed ``x`` in ``(-P/2, P/2]`` with given residues:
  ``x + P // 2 = sum_i d_i R_i`` with ``R_i = p_0 ... p_{i-1}`` and
  ``0 <= d_i < p_i``, computed on ``uint64`` words.
* **Exit** (:meth:`MixedRadix.scale_round`): ``round(num * x / den) mod
  out`` as limb planes. Every caller is one setting of
  ``(num, den, out)``: a plain sum mod ``q`` is ``(1, 1, q)``, the BFV
  tensor's ``t/q`` scaling ``(t, q, q)``, decryption ``(t, q, t)`` and
  modulus switching ``(q', q, q')``.

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
(:func:`_combine`). Every estimate is below ``2^37``, so its float error
is far below the slack taken off it.
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


def crt_twiddles(n: int, start: int, stop: int) -> Twiddles:
    """NTT tables of bundle primes ``start .. stop - 1`` at degree ``n``.

    Views of the degree's one table, so a bundle adds no copy.
    """
    table = _TWIDDLES.get(n)
    if table is None or len(table) < stop:
        # Published whole, so a reader never sees a half-built table.
        table = _TWIDDLES[n] = Twiddles(n, tuple(crt_prime(n, i) for i in range(stop)))
    return table[start:stop]


# -- entry -------------------------------------------------------------------


@lru_cache(maxsize=256)
def _entry_constants(modulus: int, primes: tuple) -> tuple:
    """``(p, 2^32 mod p, -modulus mod p)`` as ``(k, 1)`` columns."""
    p = np.array(primes, dtype=np.uint64)[:, None]
    radix = np.array([(1 << LIMB_BITS) % pi for pi in primes], dtype=np.uint64)
    fix = np.array([-modulus % pi for pi in primes], dtype=np.uint64)
    return p, radix[:, None], fix[:, None]


def residues(planes: np.ndarray, modulus: int, primes: tuple) -> np.ndarray:
    """``(k, n)`` residues modulo ``primes`` of the centered lift of
    ``planes`` (residues modulo ``modulus``).

    Horner over the limbs from the most significant: the top limb times
    ``2^32 mod p`` is below ``2^63``, and every later partial value is
    reduced before its multiply. Lanes above ``modulus // 2`` stand for
    ``v - modulus`` and take ``-modulus mod p`` in the last reduction.
    """
    p, radix, fix = _entry_constants(modulus, primes)
    upper = pl.above(planes, modulus // 2)
    acc = planes[-1]
    for limb in planes[-2::-1]:
        acc = (acc % p if acc.ndim == 2 else acc) * radix + limb
    return (acc + fix * upper) % p


def signed_residues(values: np.ndarray, primes: tuple) -> np.ndarray:
    """``(k, n)`` residues modulo ``primes`` of an ``int64`` array."""
    p = np.array(primes, dtype=np.int64)[:, None]
    return (values % p).astype(np.uint64)


# -- digits ------------------------------------------------------------------


@lru_cache(maxsize=64)
def _garner_constants(moduli: tuple) -> tuple:
    """``(half mod p_i, [p_j^{-1} mod p_i for j < i])`` per prime, for
    ``half = P // 2``."""
    half = math.prod(moduli) // 2
    return tuple(
        (half % p_i, tuple(inverse_mod(p_j % p_i, p_i) for p_j in moduli[:i]))
        for i, p_i in enumerate(moduli)
    )


class MixedRadix:
    """The signed integers ``x`` in ``(-P/2, P/2]`` with residues ``rows``
    over the bundle ``moduli``, held as Garner digits.

    Shifting every residue by ``P // 2`` first makes the mixed-radix
    value ``x + P // 2`` land in ``[0, P)``. ``P`` is odd, so the signed
    range is exactly ``(-P/2, P/2]``.
    """

    __slots__ = ("moduli", "digits", "_floats")

    def __init__(self, rows, moduli: tuple):
        if len(moduli) > MAX_PRIMES:
            raise ParameterError(
                f"a CRT bundle holds at most {MAX_PRIMES} primes, "
                f"got {len(moduli)}"
            )
        digits = []
        for row, p, (offset, inverses) in zip(
            rows, moduli, _garner_constants(moduli)
        ):
            p64 = np.uint64(p)
            digit = (row + np.uint64(offset)) % p64
            for earlier, inverse in zip(digits, inverses):
                earlier = np.minimum(earlier, earlier - p64)  # below 2p
                digit = (digit + p64 - earlier) * np.uint64(inverse) % p64
            digits.append(digit)
        self.moduli = moduli
        self.digits = np.stack(digits)
        self._floats = self.digits.astype(np.float64)

    # -- the exit ------------------------------------------------------------

    def scale_round(self, num: int, den: int, out: int) -> np.ndarray:
        """``round(num * x / den) mod out`` as a limb-plane array.

        ``den`` must be 1 or odd, so no value is a tie; ``num >= 0``.
        """
        exit_ = _exit(self.moduli, num, den, out)
        if den > 1:
            carry = self._carry(exit_)[0]
        else:
            carry = np.zeros(self._floats.shape[1])
        estimate = exit_.alpha @ self._floats + (
            carry * exit_.inv_out + exit_.alpha0
        )
        quotient = np.floor(estimate - _SLACK)
        value = _combine(
            exit_.out_halves,
            np.vstack((self._floats, *_halves(carry), *_halves(-quotient))),
        )
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
        shifted = self._carry(exit_)[1]  # F - den c + (den - 1)/2, in [0, den)
        middle = (den - 1) // 2
        mirrored = pl.subtract(pl.constant(den - 1, len(shifted)), shifted)[0]
        return max(pl.max_int(shifted), pl.max_int(mirrored)) - middle

    def signed(self) -> list:
        """The exact signed integers, as Python ints."""
        width = LIMB_BITS * pl.limb_count(math.prod(self.moduli))
        wrapped = pl.to_ints(self.scale_round(1, 1, 1 << width))
        top = 1 << (width - 1)
        return [v - (1 << width) if v >= top else v for v in wrapped]

    def _carry(self, exit_) -> tuple:
        """``c = round(F / den)`` and ``F - den c + (den - 1)/2`` (limbs).

        The float estimate of ``(2F + den) / (2 den)`` is lowered by the
        slack before its floor, so ``c`` starts exact or one low; the
        exact limb value then reads ``den`` or more exactly where it is
        one low.
        """
        estimate = exit_.beta @ self._floats + exit_.beta0
        carry = np.floor(estimate - _SLACK)
        value = _combine(
            exit_.round_halves, np.vstack((self._floats, *_halves(-carry)))
        )
        low = ~pl.subtract(value, exit_.den_col)[1]
        carry += low
        value = _reduce_once(value, exit_.den_col)
        return carry, value[: exit_.den_limbs]


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
        # Coefficient rows: the digits, c as (low, high), -g as (low,
        # high); the offset rides on the row of ones _combine appends.
        self.out_halves = _constant_halves(
            [*scaled, 1, 1 << 31, out, out << 31], width, offset
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
            [*(frac for _, frac in split), den, den << 31],
            width,
            (den - 1) // 2 - frac_h,
        )
        self.den_col = pl.constant(den, width)
        self.beta = np.array([frac / den for _, frac in split])
        self.beta0 = (den - 2 * frac_h) / (2 * den)


@lru_cache(maxsize=128)
def _exit(moduli: tuple, num: int, den: int, out: int) -> _Exit:
    return _Exit(moduli, num, den, out)


def _halves(values: np.ndarray) -> tuple:
    """``values`` (exact integers in float64, below ``2^53``) as
    ``(low, high)`` rows with ``values = low + high * 2^31``,
    ``0 <= low < 2^31``."""
    high = np.floor(values / _SPLIT)
    return values - high * _SPLIT, high


def _constant_halves(constants: list, width: int, offset: int) -> np.ndarray:
    """The ``(2 width, m + 1)`` float matrix :func:`_combine` multiplies.

    ``constants`` are non-negative and pair with the ``m`` coefficient
    rows; ``offset`` (any sign) is a trailing constant, added through
    the coefficient row of ones that :func:`_combine` appends. Each is
    taken modulo ``2^(32 width)`` and split into 16-bit halves of its
    32-bit limbs.
    """
    wrap = 1 << (LIMB_BITS * width)
    columns = [c % wrap for c in constants] + [offset % wrap]
    limbs = [
        [(c >> (LIMB_BITS * j)) & LIMB_MASK for c in columns] for j in range(width)
    ]
    low = [[limb & 0xFFFF for limb in row] for row in limbs]
    high = [[limb >> 16 for limb in row] for row in limbs]
    return np.array(low + high, dtype=np.float64)


def _combine(halves: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``sum_m coefficients[m] * constant_m + offset`` per lane, exactly,
    modulo ``2^(32 width)``, as ``width`` limbs (``uint64``).

    Coefficients are integers below ``2^31`` in magnitude, held in
    float64; the constants' limbs enter as 16-bit halves, so every
    product is below ``2^47`` and every partial sum of at most
    ``MAX_PRIMES + 5`` of them below ``2^53``: the float matrix product
    is exact in any summation order.
    """
    width = len(halves) // 2
    ones = np.ones((1, coefficients.shape[1]))
    sums = (halves @ np.vstack((coefficients, ones))).astype(np.int64)
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
