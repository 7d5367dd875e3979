"""Carry-chain addition, subtraction, and comparison on limb planes.

These routines mirror the UPMEM implementation described in the paper
(Section 3): the DPU natively supports 32-bit ``add`` and 32-bit
``addc`` (add with carry-in), from which 64-bit, 128-bit — and in
general any multiple-of-32-bit — addition is assembled as a carry
chain. Subtraction uses the analogous ``sub``/``subc`` borrow chain.

Every routine runs all lanes of its limb planes
(:mod:`repro.mpint.limbs`) at once and charges the caller's
:class:`~repro.mpint.cost.OpTally` the exact sum of what each lane's
element would issue on its own. Data-dependent paths (how far a compare
scans, which lanes take a conditional subtraction) are charged per lane
that takes them. Routines that take ``active`` run only on the lanes
where that boolean mask is set: only those lanes are charged, and the
caller selects their results.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.mpint.cost import OpTally
from repro.mpint.limbs import LIMB_BITS, LIMB_MASK


def _check_same_length(a: list, b: list) -> int:
    if len(a) != len(b):
        raise ParameterError(
            f"limb vectors must have equal length, got {len(a)} and {len(b)}"
        )
    if not a:
        raise ParameterError("limb vectors must be non-empty")
    return len(a)


def count_set(mask) -> int:
    """Number of lanes where a boolean (or 0/1) plane is set."""
    return int(np.count_nonzero(mask))


def lane_count(result, active=None) -> int:
    """Lanes to charge: every lane of ``result``, or the ``active`` ones."""
    return np.size(result) if active is None else count_set(active)


def select(mask, when_set: list, otherwise: list) -> list:
    """Per lane, the planes of ``when_set`` where ``mask`` holds, else
    those of ``otherwise``."""
    return [np.where(mask, x, y) for x, y in zip(when_set, otherwise)]


def add_with_carry(a: list, b: list, tally: OpTally) -> tuple:
    """Add two equal-length limb vectors; return ``(sum_planes, carry_out)``.

    Charges one ``add`` for the least-significant limb and one ``addc``
    per remaining limb, per lane — the exact instruction sequence of the
    paper's wide addition (e.g. 128-bit addition is ``add`` +
    3×``addc``). ``carry_out`` is a 0/1 plane.
    """
    n = _check_same_length(a, b)
    out = []
    carry = 0
    for i in range(n):
        s = a[i] + b[i] + carry
        out.append(s & LIMB_MASK)
        carry = s >> LIMB_BITS
    lanes = lane_count(carry)
    tally.charge("add", lanes)
    tally.charge("addc", (n - 1) * lanes)
    return out, carry


def sub_with_borrow(a: list, b: list, tally: OpTally, active=None) -> tuple:
    """Subtract ``b`` from ``a``; return ``(diff_planes, borrow_out)``.

    The difference is two's-complement wrapped in lanes where
    ``a < b`` (whose ``borrow_out`` is 1), matching the hardware borrow
    chain.
    """
    n = _check_same_length(a, b)
    out = []
    borrow = 0
    for i in range(n):
        d = a[i] - b[i] - borrow  # wraps modulo 2**64 on underflow
        out.append(d & LIMB_MASK)
        borrow = d >> 63
    lanes = lane_count(borrow, active)
    tally.charge("sub", lanes)
    tally.charge("subc", (n - 1) * lanes)
    return out, borrow


def compare(a: list, b: list, tally: OpTally, active=None):
    """Three-way compare per lane: -1 if ``a < b``, 0 if equal, 1 if ``a > b``.

    Each lane scans from the most significant limb and stops at its
    first difference, charging one ``cmp`` (plus the loop ``branch``)
    per limb it examined — the count is data-dependent, as on real
    hardware. Lanes outside ``active`` compare as 0.
    """
    n = _check_same_length(a, b)
    shape = np.broadcast(a[0], b[0]).shape
    scanning = np.ones(shape, bool) if active is None else active.copy()
    result = np.zeros(shape, np.int8)
    for i in reversed(range(n)):
        lanes = count_set(scanning)
        if not lanes:
            break
        tally.charge("cmp", lanes)
        tally.charge("branch", lanes)
        differs = scanning & (a[i] != b[i])
        result = np.where(differs, np.where(a[i] > b[i], 1, -1), result)
        scanning &= ~differs
    return result


def conditional_subtract(
    a: list, modulus: list, tally: OpTally, active=None
) -> list:
    """Per lane, ``a - modulus`` if ``a >= modulus``, else ``a`` unchanged.

    This is the standard single-conditional-subtraction reduction used
    after a modular addition, where the sum of two residues is always
    below ``2 * modulus``. The caller must guarantee that precondition
    (it holds for all uses inside the device kernels); the reduction is
    then exact.
    """
    take = compare(a, modulus, tally, active) >= 0
    if active is not None:
        take &= active
    diff, borrow = sub_with_borrow(a, modulus, tally, active=take)
    if (take & (borrow != 0)).any():
        raise ParameterError(
            "conditional_subtract precondition violated: borrow out"
        )
    return select(take, diff, a)


def reduce_once(total: list, carry, modulus: list, tally: OpTally) -> list:
    """Reduce a sum of two residues, ``total + carry * 2**(32L)``, mod q.

    Lanes without a carry out take :func:`conditional_subtract`. A
    carry means the sum is certainly ``>= q`` (possible only when ``q``
    uses every container bit), so those lanes subtract unconditionally
    and the wrapped difference ``2**(32L) + total - q`` is exact.
    """
    carried = carry != 0
    reduced = conditional_subtract(total, modulus, tally, active=~carried)
    if not carried.any():
        return reduced
    wrapped, _ = sub_with_borrow(total, modulus, tally, active=carried)
    return select(carried, wrapped, reduced)


def negate_mod(a: list, modulus: list, tally: OpTally) -> list:
    """Per lane, ``(-a) mod modulus`` for a residue ``a < modulus``.

    Zero maps to zero (charged one compare against zero); any other
    residue costs one subtraction chain ``modulus - a``.
    """
    zero = [np.uint64(0)] * len(a)
    nonzero = compare(a, zero, tally) != 0
    diff, borrow = sub_with_borrow(modulus, a, tally, active=nonzero)
    if (nonzero & (borrow != 0)).any():
        raise ParameterError("negate_mod requires a < modulus")
    return select(nonzero, diff, a)
