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
"""

from __future__ import annotations

from collections import Counter

from repro.errors import ParameterError
from repro.mpint.add import add_with_carry, sub_with_borrow
from repro.mpint.cost import OpTally
from repro.mpint.limbs import LIMB_BITS, LIMB_MASK, Limbs

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


def mul32(a: int, b: int, tally: OpTally) -> tuple:
    """Software 32x32→64 multiply; returns ``(low_limb, high_limb)``.

    Prices the compiler-generated shift-and-add routine: the loop walks
    the 32 multiplier bits, shifting a two-limb multiplicand left each
    iteration and accumulating it (two-limb ``add``+``addc``) whenever
    the current bit is set. The tally is charged in closed form — the
    call overhead, 32 iterations of step and loop ops, and one
    accumulate per set bit of ``b`` — so it equals the loop's
    instruction-by-instruction count without running the loop. Counts
    stay data-dependent exactly as on hardware, through the popcount
    of ``b``: multiplying by a dense bit pattern costs more adds than
    multiplying by a sparse one.
    """
    if not 0 <= a <= LIMB_MASK or not 0 <= b <= LIMB_MASK:
        raise ParameterError(f"mul32 operands must be 32-bit, got {a}, {b}")
    for op, n in _MUL32_FIXED_OPS.items():
        tally.charge(op, n)
    set_bits = b.bit_count()
    if set_bits:
        for op, n in _MUL32_ACCUMULATE_OPS:
            tally.charge(op, set_bits * n)
    product = a * b
    return product & LIMB_MASK, product >> LIMB_BITS


def schoolbook_multiply(a: Limbs, b: Limbs, tally: OpTally) -> Limbs:
    """Traditional O(la*lb) limb multiplication.

    Returns the full ``len(a) + len(b)``-limb product. Each of the
    ``la*lb`` partial products costs one :func:`mul32` plus a two-limb
    accumulate with (data-dependent) carry ripple.
    """
    if not a or not b:
        raise ParameterError("limb vectors must be non-empty")
    la, lb = len(a), len(b)
    result = [0] * (la + lb)
    for i in range(la):
        if a[i] == 0:
            # The real routine still runs the inner loop; charge the
            # multiplies (they are data-dependent and cheap for a zero
            # operand: no bits set in the multiplicand still shifts).
            pass
        for j in range(lb):
            low, high = mul32(a[i], b[j], tally)
            k = i + j
            tally.charge("add")
            s = result[k] + low
            result[k] = s & LIMB_MASK
            carry = s >> LIMB_BITS
            tally.charge("addc")
            s = result[k + 1] + high + carry
            result[k + 1] = s & LIMB_MASK
            carry = s >> LIMB_BITS
            k += 2
            while carry:
                tally.charge("addc")
                s = result[k] + carry
                result[k] = s & LIMB_MASK
                carry = s >> LIMB_BITS
                k += 1
    return tuple(result)


def karatsuba_multiply(a: Limbs, b: Limbs, tally: OpTally) -> Limbs:
    """Karatsuba multiplication over 32-bit chunks (paper Section 3).

    Requires equal-length operands; odd or single-limb sizes fall back
    to :func:`schoolbook_multiply`. For an even split into halves of
    ``h`` limbs, computes the three half-size products

    ``z0 = a0*b0``, ``z2 = a1*b1``, ``z1 = (a0+a1)*(b0+b1)``

    and combines ``z1 - z0 - z2`` as the middle term. The operand sums
    may carry out one bit each; the carries are folded back with
    conditional half-length additions, so only three half-size
    multiplies are ever performed per level.
    """
    if len(a) != len(b):
        raise ParameterError(
            f"karatsuba requires equal lengths, got {len(a)} and {len(b)}"
        )
    n = len(a)
    if n < KARATSUBA_THRESHOLD or n % 2:
        return schoolbook_multiply(a, b, tally)
    # Each recursion level is a function call in the compiled kernel.
    tally.charge("branch", 2)
    tally.charge("move", 8)
    h = n // 2
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]

    z0 = karatsuba_multiply(a0, b0, tally)  # 2h limbs
    z2 = karatsuba_multiply(a1, b1, tally)  # 2h limbs

    sa, ca = add_with_carry(a0, a1, tally)  # h limbs + carry bit
    sb, cb = add_with_carry(b0, b1, tally)
    z1 = list(karatsuba_multiply(sa, sb, tally)) + [0]  # 2h+1 limbs
    # Fold the carry bits of the operand sums back in:
    #   (sa + ca*2^(32h)) * (sb + cb*2^(32h))
    #     = sa*sb + ca*sb*2^(32h) + cb*sa*2^(32h) + ca*cb*2^(64h)
    if ca:
        _add_at(z1, sb, h, tally)
    if cb:
        _add_at(z1, sa, h, tally)
    if ca and cb:
        tally.charge("addc")
        _add_at(z1, (1,), 2 * h, tally)

    # middle = z1 - z0 - z2 (fits in 2h+1 limbs, non-negative).
    z0_ext = tuple(z0) + (0,)
    z2_ext = tuple(z2) + (0,)
    middle, borrow = sub_with_borrow(tuple(z1), z0_ext, tally)
    if borrow:
        raise ParameterError("karatsuba middle term underflow (z0)")
    middle, borrow = sub_with_borrow(middle, z2_ext, tally)
    if borrow:
        raise ParameterError("karatsuba middle term underflow (z2)")

    # result = z0 + middle << (32h) + z2 << (64h)
    result = list(z0) + list(z2)
    _add_at(result, middle, h, tally)
    return tuple(result)


def multiply(
    a: Limbs, b: Limbs, tally: OpTally, algorithm: str = "auto"
) -> Limbs:
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


def _add_at(dest: list, src: Limbs, offset: int, tally: OpTally) -> None:
    """In-place ``dest += src << (32*offset)`` with carry ripple.

    ``dest`` must be long enough that no carry escapes the top limb;
    callers guarantee this because the mathematical result fits.
    """
    carry = 0
    k = offset
    for i, limb in enumerate(src):
        tally.charge("add" if i == 0 and carry == 0 else "addc")
        s = dest[k] + limb + carry
        dest[k] = s & LIMB_MASK
        carry = s >> LIMB_BITS
        k += 1
    while carry:
        if k >= len(dest):
            raise ParameterError("_add_at overflowed the destination")
        tally.charge("addc")
        s = dest[k] + carry
        dest[k] = s & LIMB_MASK
        carry = s >> LIMB_BITS
        k += 1
