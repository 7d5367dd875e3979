"""Limb representation of wide integers.

A *limb vector* is a tuple of Python ints, each in ``[0, 2**32)``,
little-endian (least significant limb first). This mirrors how the
paper's DPU kernels lay out 64- and 128-bit coefficients in WRAM as
arrays of native 32-bit words.

The arithmetic routines in :mod:`repro.mpint.add` and
:mod:`repro.mpint.mul` work on many elements at once, as *limb
planes*: a list with one ``uint64`` array per limb, where array ``i``
holds limb ``i`` of every element (one element per *lane*). Each value
stays below ``2**32``, so sums and 32x32 products of limbs are exact
in ``uint64``. A plane may also be a ``numpy.uint64`` scalar, which
broadcasts one constant (a modulus, a zero) across every lane.
:func:`to_planes` and :func:`from_planes` convert to and from Python
ints.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

#: Width of one limb in bits — the UPMEM DPU native word size.
LIMB_BITS = 32

#: Mask selecting one limb's worth of bits.
LIMB_MASK = (1 << LIMB_BITS) - 1

Limbs = tuple  # alias for readability in signatures


def limbs_for_bits(bit_width: int) -> int:
    """Return how many 32-bit limbs are needed to hold ``bit_width`` bits.

    The paper's three security levels use 27-, 54-, and 109-bit
    coefficients stored in 32-, 64-, and 128-bit integers, i.e. 1, 2,
    and 4 limbs respectively.

    >>> [limbs_for_bits(b) for b in (27, 54, 109)]
    [1, 2, 4]
    """
    if bit_width <= 0:
        raise ParameterError(f"bit width must be positive, got {bit_width}")
    return -(-bit_width // LIMB_BITS)


def to_limbs(value: int, n_limbs: int) -> Limbs:
    """Split a non-negative integer into ``n_limbs`` little-endian limbs.

    Raises :class:`~repro.errors.ParameterError` if ``value`` is
    negative or does not fit in ``n_limbs`` limbs — silently truncating
    would mask modular-arithmetic bugs in the callers.

    >>> to_limbs(0x1_0000_0003, 2)
    (3, 1)
    """
    if value < 0:
        raise ParameterError(f"limb vectors are unsigned, got {value}")
    if n_limbs <= 0:
        raise ParameterError(f"need at least one limb, got {n_limbs}")
    if value >> (LIMB_BITS * n_limbs):
        raise ParameterError(
            f"value of bit length {value.bit_length()} does not fit "
            f"in {n_limbs} limbs ({LIMB_BITS * n_limbs} bits)"
        )
    return tuple((value >> (LIMB_BITS * i)) & LIMB_MASK for i in range(n_limbs))


def from_limbs(limbs: Limbs) -> int:
    """Reassemble a little-endian limb vector into a Python int.

    Inverse of :func:`to_limbs`:

    >>> from_limbs(to_limbs(12345678901234567890, 4))
    12345678901234567890
    """
    value = 0
    for i, limb in enumerate(limbs):
        if not 0 <= limb <= LIMB_MASK:
            raise ParameterError(f"limb {i} out of range: {limb}")
        value |= limb << (LIMB_BITS * i)
    return value


def to_planes(values, n_limbs: int) -> list:
    """Split non-negative integers into ``n_limbs`` limb planes.

    Plane ``i`` is a ``uint64`` array holding limb ``i`` of every value,
    in order; the same bounds as :func:`to_limbs` apply to each value.

    >>> [p.tolist() for p in to_planes([0x1_0000_0003, 7], 2)]
    [[3, 7], [1, 0]]
    """
    if n_limbs <= 0:
        raise ParameterError(f"need at least one limb, got {n_limbs}")
    width = 4 * n_limbs
    try:
        raw = b"".join([v.to_bytes(width, "little") for v in values])
    except OverflowError:
        for v in values:
            to_limbs(v, n_limbs)  # raises with the offending value
        raise
    words = np.frombuffer(raw, dtype="<u4").reshape(-1, n_limbs)
    return [words[:, i].astype(np.uint64) for i in range(n_limbs)]


def from_planes(planes) -> list:
    """Reassemble limb planes into one Python int per lane.

    Inverse of :func:`to_planes`:

    >>> from_planes(to_planes([12345678901234567890, 0], 4))
    [12345678901234567890, 0]
    """
    words = np.stack(planes, axis=-1)
    if (words > LIMB_MASK).any():
        raise ParameterError("limb plane value out of range")
    raw = words.astype("<u4").tobytes()
    width = 4 * len(planes)
    return [
        int.from_bytes(raw[i : i + width], "little")
        for i in range(0, len(raw), width)
    ]
