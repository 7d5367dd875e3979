"""Object-integer oracles for the CRT engine's entry and exit.

These are the engine's former Python-int boundary, kept as references
the limb-plane code in :mod:`repro.poly.crt` is checked against:

* :func:`crt_compose` — Garner's mixed-radix digits on ``uint64``
  words, merged two primes to a word, then a Horner evaluation over
  Python ints in an object array;
* :func:`round_scale` — ``round(v * num / den)`` on object arrays,
  rounding half away from zero;
* :func:`centered_residues` — the centered lift of each residue, reduced
  modulo each prime, one Python int at a time.

Production code never calls them.
"""

from __future__ import annotations

import numpy as np

from repro.poly.modring import inverse_mod


def _pairs(start: int, stop: int) -> list:
    """Index ranges ``[i, i + 2)`` (the last may be shorter) covering
    ``[start, stop)``: two 31-bit primes multiply to under 2^62, so a
    pair's residues fit one ``uint64`` word."""
    return [range(i, min(i + 2, stop)) for i in range(start, stop, 2)]


def _garner_constants(moduli: tuple) -> tuple:
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


def crt_compose(rows, moduli: tuple) -> np.ndarray:
    """The signed integers in ``(-Q/2, Q/2]`` with residues ``rows``, as
    an object array of Python ints."""
    half, offsets, inverses = _garner_constants(moduli)
    digits = []
    for row, p, offset, row_inverses in zip(rows, moduli, offsets, inverses):
        p64 = np.uint64(p)
        digit = (np.asarray(row, dtype=np.uint64) + np.uint64(offset)) % p64
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


def round_scale(values, numerator: int, denominator: int) -> np.ndarray:
    """``round(v * numerator / denominator)`` for each of ``values``,
    with exact integers, rounding half away from zero. Returns an
    object array of ints."""
    num = np.array(values, dtype=object) * numerator
    twice = 2 * denominator
    up = (2 * num + denominator) // twice
    down = -((denominator - 2 * num) // twice)
    return np.where(num >= 0, up, down)


def centered(value: int, modulus: int) -> int:
    """``value`` in ``[0, modulus)`` lifted to ``(-modulus/2, modulus/2]``."""
    return value - modulus if value > modulus // 2 else value


def centered_residues(values, modulus: int, primes) -> list:
    """``centered(v) mod p`` for each prime and value."""
    return [[centered(v, modulus) % p for v in values] for p in primes]


def per_sum(terms, n: int, addend=None):
    """One exact sum through the CRT engine on its own: the path
    :func:`repro.poly.polynomial.exact_sums` replaced, with a bundle
    sized for this sum alone, every product reduced with ``%``, one
    ``(k, n)`` inverse transform and its own digits."""
    from repro.poly import ntt
    from repro.poly.crt import MixedRadix, crt_moduli, crt_twiddles

    bound = n * sum(a.bound * b.bound for a, b in terms)
    bound += addend.bound if addend is not None else 0
    moduli = crt_moduli(n, 2 * bound + 1)
    count = len(moduli)
    primes = np.array(moduli, dtype=np.uint64)[:, None]
    total = np.zeros((count, n), dtype=np.uint64)
    for a, b in terms:
        total = (total + a.rows(count) * b.rows(count) % primes) % primes
    rows = ntt.inverse(total, crt_twiddles(n, 0, count))
    if addend is not None:
        rows = (rows + addend.residues(moduli)) % primes
    return MixedRadix(rows, moduli)
