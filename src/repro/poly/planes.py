"""Limb planes: residues modulo ``q`` as 32-bit limbs in ``uint64`` arrays.

A *plane array* of ``n`` residues has shape ``(L, n)``: row ``j`` holds
limb ``j`` (bits ``32j`` to ``32j + 31``) of every residue, least
significant first, each entry below ``2^32``. ``L = ceil(bits(q) / 32)``
is 1, 2 and 4 at the paper's 27-, 54- and 109-bit levels: the DPU's
32-, 64- and 128-bit containers of native 32-bit words
(:mod:`repro.mpint.limbs`). Limb sums and 32x32-bit limb products are
exact in ``uint64``, so ring arithmetic runs on whole rows with the
carries and borrows propagated limb by limb, never per coefficient.

Every function here takes and returns residues already reduced to
``[0, q)``, except the two conversions from integers.
:mod:`repro.mpint.add` runs the same carry and borrow chains on the
device kernels' lists of planes, charging every lane's DPU instructions
to an :class:`~repro.mpint.cost.OpTally`; host ring arithmetic has
nothing to charge, so it uses these whole-array forms.
"""

from __future__ import annotations

import numpy as np

from repro.mpint.limbs import (
    LIMB_BITS,
    LIMB_MASK,
    from_planes,
    limbs_for_bits,
    to_planes,
)

_MASK = np.uint64(LIMB_MASK)
_SHIFT = np.uint64(LIMB_BITS)
_BASE = np.uint64(1 << LIMB_BITS)


def limb_count(modulus: int) -> int:
    """Limbs per residue modulo ``modulus``."""
    return limbs_for_bits(modulus.bit_length())


def constant(value: int, count: int) -> np.ndarray:
    """The non-negative ``value`` as a ``(count, 1)`` limb column,
    broadcasting against ``(count, n)`` plane arrays."""
    return np.array(
        [[(value >> (LIMB_BITS * j)) & LIMB_MASK] for j in range(count)],
        dtype=np.uint64,
    )


def from_ints(values, modulus: int) -> np.ndarray:
    """Plane array of ``int(v) mod modulus`` for any integers ``values``."""
    return np.stack(
        to_planes([int(v) % modulus for v in values], limb_count(modulus))
    )


def from_signed(values: np.ndarray, modulus: int) -> np.ndarray:
    """Plane array of ``values mod modulus`` for an ``int64`` array."""
    count = limb_count(modulus)
    if modulus < 1 << 63:
        return split(values % np.int64(modulus), count)
    # |v| < 2^63 < modulus: negatives become modulus - |v|.
    planes = split(np.abs(values), count)
    negative = values < 0
    planes[:, negative] = subtract(
        constant(modulus, count), planes[:, negative]
    )[0]
    return planes


def split(words: np.ndarray, count: int) -> np.ndarray:
    """Non-negative integer words (below ``2^64``) as ``count`` limbs."""
    words = words.astype(np.uint64)
    planes = np.zeros((count, len(words)), dtype=np.uint64)
    planes[0] = words & _MASK
    if count > 1:
        planes[1] = words >> _SHIFT
    return planes


def to_ints(planes: np.ndarray) -> list:
    """One Python int per lane of a plane array."""
    return from_planes(list(planes))


def add(a: np.ndarray, b) -> tuple:
    """``a + b`` limb-wise: ``(sum mod 2^(32L), carry-out)``.

    ``b`` may be a :func:`constant` column.
    """
    total = a + b
    for low, high in zip(total[:-1], total[1:]):
        high += low >> _SHIFT
        low &= _MASK
    carry = total[-1] >> _SHIFT
    total[-1] &= _MASK
    return total, carry.astype(bool)


def subtract(a, b) -> tuple:
    """``a - b`` limb-wise: ``(difference mod 2^(32L), borrow-out)``.

    The borrow-out is true exactly where ``a < b``; either operand may
    be a :func:`constant` column.
    """
    # Each limb difference is taken as a + 2^32 - b, in (0, 2^33).
    diff = a + (_BASE - b)
    borrow = None
    for row in diff:
        if borrow is not None:
            row -= borrow
        borrow = np.uint64(1) - (row >> _SHIFT)
        row &= _MASK
    return diff, borrow.astype(bool)


def add_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """``(a + b) mod modulus``."""
    total, carry = add(a, b)
    reduced, borrow = subtract(total, constant(modulus, len(a)))
    return np.where(carry | ~borrow, reduced, total)


def sub_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """``(a - b) mod modulus``."""
    diff, borrow = subtract(a, b)
    return np.where(borrow, add(diff, constant(modulus, len(a)))[0], diff)


def neg_mod(a: np.ndarray, modulus: int) -> np.ndarray:
    """``(-a) mod modulus``: zero stays zero."""
    negated = subtract(constant(modulus, len(a)), a)[0]
    return np.where(a.any(axis=0), negated, np.uint64(0))


def above(a: np.ndarray, value: int) -> np.ndarray:
    """Boolean mask of the lanes holding more than ``value``.

    Compares limb by limb from the most significant, each row against
    one 0-d limb of ``value``: a lane is above where a higher limb is
    above and every limb over it is tied. No borrow chain runs, and the
    lower limbs are read only while some lane is still tied.
    """
    count = len(a)
    if value >> (LIMB_BITS * count):
        return np.zeros(a.shape[1], dtype=bool)
    limbs = [np.uint64((value >> (LIMB_BITS * j)) & LIMB_MASK) for j in range(count)]
    result = a[-1] > limbs[-1]
    tied = a[-1] == limbs[-1]
    for j in range(count - 2, -1, -1):
        if not tied.any():
            break
        lower = a[j] > limbs[j]
        lower &= tied
        result |= lower
        tied &= a[j] == limbs[j]
    return result


def magnitudes(a: np.ndarray, modulus: int) -> np.ndarray:
    """``|x|`` per lane for the centered lift ``x`` in ``(-q/2, q/2]``."""
    upper = above(a, modulus // 2)
    return np.where(upper, subtract(constant(modulus, len(a)), a)[0], a)


def max_magnitude(a: np.ndarray, modulus: int) -> int:
    """``max |x|`` over the lanes' centered lifts ``x``, as a Python int.

    The larger of the largest lane at or below ``modulus // 2`` and
    ``modulus`` minus the smallest lane above it: equal to
    ``max_int(magnitudes(a, modulus))``, without building the
    magnitudes. Lanes of at most two limbs are one 64-bit word ``w``
    each, and ``|x| = min(w, modulus - w)`` on that word.
    """
    if len(a) <= 2:
        word = _words(a)[0]
        return int(np.minimum(word, np.uint64(modulus) - word).max())
    upper = above(a, modulus // 2)
    largest = _extreme(a, ~upper, np.maximum) if not upper.all() else 0
    if upper.any():
        largest = max(largest, modulus - _extreme(a, upper, np.minimum))
    return largest


def max_int(a: np.ndarray) -> int:
    """The largest lane of a plane array, as a Python int."""
    return _extreme(a, np.ones(a.shape[1], dtype=bool), np.maximum)


def _words(a: np.ndarray) -> list:
    """The lanes as 64-bit words of two limbs each, least significant
    first (an odd top limb is a word alone)."""
    return [
        a[j] | (a[j + 1] << _SHIFT) if j + 1 < len(a) else a[j]
        for j in range(0, len(a), 2)
    ]


def _extreme(a: np.ndarray, lanes: np.ndarray, pick) -> int:
    """The lane among those ``lanes`` (a non-empty boolean mask) marks
    that ``pick`` (``np.maximum`` or ``np.minimum``) selects, as a Python
    int.

    Compares 64-bit words of two limbs each, from the most significant,
    keeping only the lanes still tied for the pick.
    """
    words = _words(a)
    # Lanes outside the mask read as the pick's identity.
    other = np.uint64(0) if pick is np.maximum else ~np.uint64(0)
    value = 0
    for depth, word in enumerate(reversed(words)):
        best = pick.reduce(np.where(lanes, word, other))
        value |= int(best) << (2 * LIMB_BITS * (len(words) - 1 - depth))
        if depth < len(words) - 1:
            lanes = lanes & (word == best)
    return value
