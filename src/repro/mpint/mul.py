"""Multi-limb multiplication: shift-and-add, schoolbook, Karatsuba.

The first-generation UPMEM DPU has native 8-bit multipliers only; the
compiler synthesizes multiplications wider than 16 bits as a software
shift-and-add loop (paper Section 3, footnote 1). The paper builds 64-
and 128-bit products by splitting operands into 32-bit chunks and
applying the **Karatsuba** algorithm, "which requires less operations
than the traditional multiplication algorithm".

This module implements all three layers:

* :func:`mul32` — the software 32x32→64 shift-and-add primitive,
* :func:`schoolbook_multiply` — the traditional O(l²) limb algorithm,
* :func:`karatsuba_multiply` — the paper's divide-and-conquer variant,

each charging its abstract operations to an
:class:`~repro.mpint.cost.OpTally` so the device model can price them.
Like :mod:`repro.mpint.add`, every routine runs all lanes of its limb
planes at once and charges the exact sum of the per-element counts:
carry ripples and Karatsuba's carry folds are charged per lane that
takes them.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from repro.errors import ParameterError
from repro.mpint.add import (
    add_with_carry,
    count_set,
    lane_count,
    sub_with_borrow,
)
from repro.mpint.cost import OpTally
from repro.mpint.limbs import LIMB_BITS, LIMB_MASK

#: Operand size (in limbs) at which ``multiply`` switches from
#: schoolbook to Karatsuba. The paper applies Karatsuba from 64-bit
#: operands (2 limbs) upward.
KARATSUBA_THRESHOLD = 2

#: Out-of-line call overhead of one :func:`mul32`: the compiler emits
#: the routine as a ``__mulsi3``-style call, so each product pays the
#: call/return branches and the prologue/epilogue register traffic.
_MUL32_CALL_OPS = (("branch", 2), ("move", 12))

#: Data ops of every shift-and-add iteration, whatever the multiplier
#: bit: mask and test the low multiplier bit (``and`` + ``branch``),
#: shift the multiplier (``lsr``), and shift the two-limb multiplicand
#: (low-limb ``lsl``, high-limb ``lsl``, plus ``lsr`` + ``or`` to carry
#: the low limb's top bit across).
_MUL32_STEP_OPS = (
    ("and", 1),
    ("branch", 1),
    ("lsr", 2),
    ("lsl", 2),
    ("or", 1),
)

#: Loop bookkeeping charged per shift-and-add iteration: the compiled
#: routine maintains an iteration counter (add), compares it (cmp) and
#: branches — on top of the data ops the loop body performs. Without
#: this the model would assume a fully unrolled routine, which the
#: 24 KB UPMEM IRAM does not admit for a 32-iteration body.
_MUL32_LOOP_OPS = (("move", 1), ("cmp", 1), ("branch", 1))

#: Extra ops of an iteration whose multiplier bit is set: the two-limb
#: accumulate (``add`` + ``addc``); the operands live across registers,
#: so the compiled body also shuffles a pair of moves.
_MUL32_ACCUMULATE_OPS = (("add", 1), ("addc", 1), ("move", 2))


def _mul32_fixed_ops() -> dict:
    """The data-independent part of one :func:`mul32` tally: the call
    overhead plus :data:`LIMB_BITS` iterations of step and loop ops."""
    counts = Counter(dict(_MUL32_CALL_OPS))
    for op, n in _MUL32_STEP_OPS + _MUL32_LOOP_OPS:
        counts[op] += LIMB_BITS * n
    return dict(counts)


_MUL32_FIXED_OPS = _mul32_fixed_ops()


def _check_limbs(*planes) -> None:
    """Reject any plane holding a value wider than one limb."""
    for plane in planes:
        if np.count_nonzero(plane > LIMB_MASK):
            raise ParameterError("limb operands must be 32-bit")


def _charge_mul32(tally: OpTally, calls: int, set_bits: int) -> None:
    """Charge ``calls`` software multiplies whose multipliers hold
    ``set_bits`` set bits in total: the data-independent ops of every
    call, plus one accumulate per set bit."""
    for op, n in _MUL32_FIXED_OPS.items():
        tally.charge(op, calls * n)
    for op, n in _MUL32_ACCUMULATE_OPS:
        tally.charge(op, set_bits * n)


def _set_bits(multiplier, lanes: int) -> int:
    """Set bits of a multiplier plane summed over ``lanes`` lanes (a
    plane broadcast across the lanes counts once in each)."""
    size = np.size(multiplier)
    if not size:
        return 0
    return int(np.bitwise_count(multiplier).sum()) * (lanes // size)


def mul32(a, b, tally: OpTally) -> tuple:
    """Software 32x32→64 multiply of two limb planes; returns
    ``(low_plane, high_plane)``.

    Prices the compiler-generated shift-and-add routine: the loop walks
    the 32 multiplier bits, shifting a two-limb multiplicand left each
    iteration and accumulating it (two-limb ``add``+``addc``) whenever
    the current bit is set. The tally is charged in closed form — per
    lane, the call overhead and 32 iterations of step and loop ops, plus
    one accumulate per set bit of ``b`` — so it equals the loop's
    instruction-by-instruction count without running the loop. Counts
    stay data-dependent exactly as on hardware, through the popcount
    of ``b``: multiplying by a dense bit pattern costs more adds than
    multiplying by a sparse one.
    """
    _check_limbs(a, b)
    product = a * b  # below 2**64: exact in uint64
    lanes = lane_count(product)
    _charge_mul32(tally, lanes, _set_bits(b, lanes))
    return product & LIMB_MASK, product >> LIMB_BITS


def schoolbook_multiply(a: list, b: list, tally: OpTally) -> list:
    """Traditional O(la*lb) limb multiplication.

    Returns the full ``len(a) + len(b)``-limb product planes. Each of
    the ``la*lb`` partial products costs one :func:`mul32` plus a
    two-limb accumulate (``add`` + ``addc``); the carry then ripples
    upward, one ``addc`` per step for each lane still carrying.
    """
    if not a or not b:
        raise ParameterError("limb vectors must be non-empty")
    _check_limbs(*a, *b)
    return _schoolbook(a, b, tally)


def _schoolbook(a: list, b: list, tally: OpTally) -> list:
    la, lb = len(a), len(b)
    shape = np.broadcast(a[0], b[0]).shape
    lanes = math.prod(shape)
    # Every b[j] is the multiplier of la products.
    products = la * lb * lanes
    _charge_mul32(tally, products, la * sum(_set_bits(bj, lanes) for bj in b))
    tally.charge("add", products)
    tally.charge("addc", products)
    result = [np.zeros(shape, np.uint64) for _ in range(la + lb)]
    for i in range(la):
        for j in range(lb):
            product = a[i] * b[j]
            k = i + j
            s = result[k] + (product & LIMB_MASK)
            result[k] = s & LIMB_MASK
            s = result[k + 1] + (product >> LIMB_BITS) + (s >> LIMB_BITS)
            result[k + 1] = s & LIMB_MASK
            _ripple(result, s >> LIMB_BITS, k + 2, tally)
    return result


def karatsuba_multiply(a: list, b: list, tally: OpTally) -> list:
    """Karatsuba multiplication over 32-bit chunks (paper Section 3).

    Requires equal-length operands; odd or single-limb sizes fall back
    to :func:`schoolbook_multiply`. For an even split into halves of
    ``h`` limbs, computes the three half-size products

    ``z0 = a0*b0``, ``z2 = a1*b1``, ``z1 = (a0+a1)*(b0+b1)``

    and combines ``z1 - z0 - z2`` as the middle term. The operand sums
    may carry out one bit each; the carries are folded back with
    half-length additions in the lanes whose sums carried, so only
    three half-size multiplies are ever performed per level.
    """
    if len(a) != len(b):
        raise ParameterError(
            f"karatsuba requires equal lengths, got {len(a)} and {len(b)}"
        )
    if not a:
        raise ParameterError("limb vectors must be non-empty")
    _check_limbs(*a, *b)
    return _karatsuba(a, b, tally)


def _karatsuba(a: list, b: list, tally: OpTally) -> list:
    n = len(a)
    if n < KARATSUBA_THRESHOLD or n % 2:
        return _schoolbook(a, b, tally)
    # Each recursion level is a function call in the compiled kernel.
    lanes = np.broadcast(a[0], b[0]).size
    tally.charge("branch", 2 * lanes)
    tally.charge("move", 8 * lanes)
    h = n // 2
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]

    z0 = _karatsuba(a0, b0, tally)  # 2h limbs
    z2 = _karatsuba(a1, b1, tally)  # 2h limbs

    sa, ca = add_with_carry(a0, a1, tally)  # h limbs + carry bit
    sb, cb = add_with_carry(b0, b1, tally)
    top = np.zeros_like(z0[0])
    z1 = _karatsuba(sa, sb, tally) + [top]  # 2h+1 limbs
    # Fold the carry bits of the operand sums back in:
    #   (sa + ca*2^(32h)) * (sb + cb*2^(32h))
    #     = sa*sb + ca*sb*2^(32h) + cb*sa*2^(32h) + ca*cb*2^(64h)
    ca, cb = ca != 0, cb != 0
    both = ca & cb
    if count_set(ca):
        _add_at(z1, sb, h, tally, active=ca)
    if count_set(cb):
        _add_at(z1, sa, h, tally, active=cb)
    if count_set(both):
        tally.charge("addc", count_set(both))
        _add_at(z1, [np.uint64(1)], 2 * h, tally, active=both)

    # middle = z1 - z0 - z2 (fits in 2h+1 limbs, non-negative).
    middle, borrow = sub_with_borrow(z1, z0 + [top], tally)
    if count_set(borrow):
        raise ParameterError("karatsuba middle term underflow (z0)")
    middle, borrow = sub_with_borrow(middle, z2 + [top], tally)
    if count_set(borrow):
        raise ParameterError("karatsuba middle term underflow (z2)")

    # result = z0 + middle << (32h) + z2 << (64h)
    result = z0 + z2
    _add_at(result, middle, h, tally)
    return result


def multiply(a: list, b: list, tally: OpTally, algorithm: str = "auto") -> list:
    """Multiply two equal-length limb vectors, selecting the algorithm.

    ``algorithm`` is ``"auto"`` (Karatsuba at or above
    :data:`KARATSUBA_THRESHOLD` limbs — the paper's choice),
    ``"schoolbook"``, or ``"karatsuba"``.
    """
    if algorithm == "auto":
        use_karatsuba = len(a) >= KARATSUBA_THRESHOLD
    elif algorithm == "karatsuba":
        use_karatsuba = True
    elif algorithm == "schoolbook":
        use_karatsuba = False
    else:
        raise ParameterError(f"unknown multiply algorithm {algorithm!r}")
    if use_karatsuba:
        return karatsuba_multiply(a, b, tally)
    return schoolbook_multiply(a, b, tally)


def _ripple(dest: list, carry, k: int, tally: OpTally) -> None:
    """Propagate ``carry`` into ``dest`` from limb ``k`` upward, one
    ``addc`` per step for each lane still carrying.

    ``dest`` must be long enough that no carry escapes the top limb;
    callers guarantee this because the mathematical result fits.
    """
    while carrying := count_set(carry):
        if k >= len(dest):
            raise ParameterError("carry overflowed the destination")
        tally.charge("addc", carrying)
        s = dest[k] + carry
        dest[k] = s & LIMB_MASK
        carry = s >> LIMB_BITS
        k += 1


def _add_at(
    dest: list, src: list, offset: int, tally: OpTally, active=None
) -> None:
    """In-place ``dest += src << (32*offset)`` with carry ripple.

    With ``active``, only the lanes where it is set add (and are
    charged); the others keep ``dest`` unchanged.
    """
    if active is not None:
        src = [limb * active for limb in src]
    lanes = lane_count(dest[offset], active)
    tally.charge("add", lanes)
    tally.charge("addc", (len(src) - 1) * lanes)
    carry = 0
    k = offset
    for limb in src:
        s = dest[k] + limb + carry
        dest[k] = s & LIMB_MASK
        carry = s >> LIMB_BITS
        k += 1
    _ripple(dest, carry, k, tally)
