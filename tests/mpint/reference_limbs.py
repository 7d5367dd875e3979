"""Per-element limb routines: the differential oracle for ``repro.mpint``.

One element at a time on tuples of Python ints, charging each modelled
instruction as the element's code path issues it. These are the
routines :mod:`repro.mpint.add` and :mod:`repro.mpint.mul` replace with
element-parallel versions on limb planes; the production tally of N
elements must equal the sum of these N tallies exactly. Test oracle
only; production code never calls it.

Multiplies go through :func:`reference_mul32`, the stepped
shift-and-add loop, so this oracle shares no arithmetic with the code
it checks.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.mpint.cost import OpTally
from repro.mpint.limbs import LIMB_BITS, LIMB_MASK
from repro.mpint.mul import KARATSUBA_THRESHOLD
from tests.mpint.reference_mul32 import reference_mul32


def _check_same_length(a: tuple, b: tuple) -> int:
    if len(a) != len(b):
        raise ParameterError(
            f"limb vectors must have equal length, got {len(a)} and {len(b)}"
        )
    if not a:
        raise ParameterError("limb vectors must be non-empty")
    return len(a)


def add_with_carry(a: tuple, b: tuple, tally: OpTally) -> tuple:
    """``(sum_limbs, carry_out)``: one ``add`` then ``addc`` per limb."""
    n = _check_same_length(a, b)
    out = []
    carry = 0
    for i in range(n):
        tally.charge("add" if i == 0 else "addc")
        s = a[i] + b[i] + carry
        out.append(s & LIMB_MASK)
        carry = s >> 32
    return tuple(out), carry


def sub_with_borrow(a: tuple, b: tuple, tally: OpTally) -> tuple:
    """``(diff_limbs, borrow_out)``, two's-complement wrapped."""
    n = _check_same_length(a, b)
    out = []
    borrow = 0
    for i in range(n):
        tally.charge("sub" if i == 0 else "subc")
        d = a[i] - b[i] - borrow
        out.append(d & LIMB_MASK)
        borrow = 1 if d < 0 else 0
    return tuple(out), borrow


def compare(a: tuple, b: tuple, tally: OpTally) -> int:
    """Three-way compare from the top limb, stopping at the first difference."""
    n = _check_same_length(a, b)
    for i in reversed(range(n)):
        tally.charge("cmp")
        tally.charge("branch")
        if a[i] != b[i]:
            return 1 if a[i] > b[i] else -1
    return 0


def conditional_subtract(a: tuple, modulus: tuple, tally: OpTally) -> tuple:
    """``a - modulus`` if ``a >= modulus``, else ``a``."""
    if compare(a, modulus, tally) >= 0:
        diff, borrow = sub_with_borrow(a, modulus, tally)
        if borrow:
            raise ParameterError(
                "conditional_subtract precondition violated: borrow out"
            )
        return diff
    return a


def reduce_once(total: tuple, carry: int, modulus: tuple, tally: OpTally) -> tuple:
    """A sum of two residues mod q; a carry out means ``>= q``."""
    if carry:
        total, _ = sub_with_borrow(total, modulus, tally)
        return total
    return conditional_subtract(total, modulus, tally)


def negate_mod(a: tuple, modulus: tuple, tally: OpTally) -> tuple:
    """``(-a) mod modulus`` for a residue ``a < modulus``."""
    zero = (0,) * len(a)
    if compare(a, zero, tally) == 0:
        return a
    diff, borrow = sub_with_borrow(modulus, a, tally)
    if borrow:
        raise ParameterError("negate_mod requires a < modulus")
    return diff


def schoolbook_multiply(a: tuple, b: tuple, tally: OpTally) -> tuple:
    """``la*lb`` software products, each accumulated with carry ripple."""
    if not a or not b:
        raise ParameterError("limb vectors must be non-empty")
    la, lb = len(a), len(b)
    result = [0] * (la + lb)
    for i in range(la):
        for j in range(lb):
            low, high = reference_mul32(a[i], b[j], tally)
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


def karatsuba_multiply(a: tuple, b: tuple, tally: OpTally) -> tuple:
    """Karatsuba over 32-bit chunks with branchy carry folds."""
    if len(a) != len(b):
        raise ParameterError(
            f"karatsuba requires equal lengths, got {len(a)} and {len(b)}"
        )
    n = len(a)
    if n < KARATSUBA_THRESHOLD or n % 2:
        return schoolbook_multiply(a, b, tally)
    tally.charge("branch", 2)
    tally.charge("move", 8)
    h = n // 2
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]

    z0 = karatsuba_multiply(a0, b0, tally)
    z2 = karatsuba_multiply(a1, b1, tally)

    sa, ca = add_with_carry(a0, a1, tally)
    sb, cb = add_with_carry(b0, b1, tally)
    z1 = list(karatsuba_multiply(sa, sb, tally)) + [0]
    if ca:
        _add_at(z1, sb, h, tally)
    if cb:
        _add_at(z1, sa, h, tally)
    if ca and cb:
        tally.charge("addc")
        _add_at(z1, (1,), 2 * h, tally)

    z0_ext = tuple(z0) + (0,)
    z2_ext = tuple(z2) + (0,)
    middle, borrow = sub_with_borrow(tuple(z1), z0_ext, tally)
    if borrow:
        raise ParameterError("karatsuba middle term underflow (z0)")
    middle, borrow = sub_with_borrow(middle, z2_ext, tally)
    if borrow:
        raise ParameterError("karatsuba middle term underflow (z2)")

    result = list(z0) + list(z2)
    _add_at(result, middle, h, tally)
    return tuple(result)


def multiply(a: tuple, b: tuple, tally: OpTally, algorithm: str = "auto") -> tuple:
    """Karatsuba at or above the threshold (``auto``), else schoolbook."""
    if algorithm == "auto":
        use_karatsuba = len(a) >= KARATSUBA_THRESHOLD
    elif algorithm in ("karatsuba", "schoolbook"):
        use_karatsuba = algorithm == "karatsuba"
    else:
        raise ParameterError(f"unknown multiply algorithm {algorithm!r}")
    if use_karatsuba:
        return karatsuba_multiply(a, b, tally)
    return schoolbook_multiply(a, b, tally)


def _add_at(dest: list, src: tuple, offset: int, tally: OpTally) -> None:
    """In-place ``dest += src << (32*offset)`` with carry ripple."""
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


def assert_same_tally(fast: OpTally, slow: OpTally) -> None:
    """Equal counts, each a positive Python int (no zero-count keys)."""
    assert fast.as_dict() == slow.as_dict()
    for op, n in fast.counts.items():
        assert type(n) is int and n > 0, (op, n)
