"""Closed-form expected operation counts for the limb routines.

Expectations over uniformly random operands for one addition, one
software 32x32 multiply and one ``n``-limb multiply, composed the way
:mod:`repro.mpint.add` and :mod:`repro.mpint.mul` compose them.
``test_cost.py`` checks them against the tallies of real executions,
so a change to a routine's instruction mix fails there by name. Test
oracle only; production code charges executed counts.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping

from repro.errors import ParameterError
from repro.mpint.mul import KARATSUBA_THRESHOLD


def expected_ops_add(n_limbs: int) -> dict:
    """Expected operation counts for one ``n_limbs``-limb addition.

    One ``add`` for the least-significant limb, ``addc`` for each
    subsequent limb — exactly the UPMEM carry chain the paper describes
    for 64-/128-bit addition.
    """
    if n_limbs <= 0:
        raise ParameterError(f"need at least one limb, got {n_limbs}")
    counts = {"add": 1}
    if n_limbs > 1:
        counts["addc"] = n_limbs - 1
    return counts


def expected_ops_mul32() -> dict:
    """Expected operation counts of the software 32x32 shift-and-add.

    The routine iterates over the 32 bits of the multiplier: each
    iteration shifts and tests one bit (``lsr`` + ``branch``), shifts
    the accumulating partial product (``lsl`` + ``lsr`` feeding the high
    word), and — for set bits — performs a two-limb add. With uniformly
    random operands half the bits are set, giving the expected counts
    returned here. Functional executions charge the *actual*
    data-dependent counts; see ``tests/mpint/test_cost.py``.
    """
    return {
        "and": 32,  # bit-mask tests
        "lsr": 64,  # 32 multiplier shifts + 32 carry-bit feeds
        "lsl": 64,  # two-limb multiplicand shifts
        "or": 32,  # carry-bit merges into the high limb
        "branch": 66,  # bit tests + loop back-edges + call/return
        "add": 16,  # expected set bits: low-limb accumulates
        "addc": 16,  # matching carry adds into the high limb
        "move": 76,  # call frame + counter updates + accumulate shuffles
        "cmp": 32,  # loop-bound comparisons
    }


def expected_ops_mul(n_limbs: int, algorithm: str = "auto") -> dict:
    """Expected operation counts for an ``n_limbs``-limb multiply.

    ``algorithm`` selects ``"schoolbook"``, ``"karatsuba"``, or
    ``"auto"`` (Karatsuba above the threshold, matching
    :func:`repro.mpint.mul.multiply`). Counts are expectations over
    uniformly random operands, composed from
    :func:`expected_ops_mul32` plus the carry-chain additions each
    algorithm performs.
    """
    if n_limbs <= 0:
        raise ParameterError(f"need at least one limb, got {n_limbs}")
    if algorithm == "auto":
        algorithm = (
            "karatsuba" if n_limbs >= KARATSUBA_THRESHOLD else "schoolbook"
        )
    if algorithm == "schoolbook":
        return _expected_schoolbook(n_limbs)
    if algorithm == "karatsuba":
        return _expected_karatsuba(n_limbs)
    raise ParameterError(f"unknown multiply algorithm {algorithm!r}")


def _scale(counts: Mapping[str, float], factor: float) -> Counter:
    scaled = Counter()
    for op, n in counts.items():
        scaled[op] = n * factor
    return scaled


def _expected_schoolbook(n_limbs: int) -> dict:
    """n^2 mul32 calls plus the accumulation carry chains."""
    total = _scale(expected_ops_mul32(), n_limbs * n_limbs)
    # Each partial product is accumulated into the running result with a
    # two-limb add plus carry propagation; on average the carry ripples
    # one further limb.
    total.update(
        _scale({"add": 1, "addc": 2}, n_limbs * n_limbs),
    )
    return dict(total)


def _expected_karatsuba(n_limbs: int) -> dict:
    """Recursive expectation mirroring ``karatsuba_multiply``.

    For an even split into halves of ``h`` limbs: three recursive
    multiplies of (h+?)-limb operands — modelled as three h-limb
    multiplies (the sum operands carry at most one extra bit, which the
    implementation folds with an extra addition charged below) — plus
    the additions for operand sums and result combination.
    """
    if n_limbs < KARATSUBA_THRESHOLD or n_limbs % 2:
        return _expected_schoolbook(n_limbs)
    half = n_limbs // 2
    total = _scale(_expected_karatsuba(half), 3)
    # Operand sums: two half-limb additions.
    total.update(_scale(expected_ops_add(half), 2))
    # Middle-term correction: subtract the two outer products from the
    # sum product (2 * n_limbs-limb subtract chains) and add the three
    # aligned terms into the result (2 * n_limbs-limb add chains).
    total.update(_scale({"sub": 1, "subc": n_limbs - 1}, 2))
    total.update(_scale({"add": 1, "addc": n_limbs - 1}, 2))
    # Carry fix-ups for the (possible) extra bits of the operand sums:
    # each set carry triggers a half-limb add; expectation 0.5 each.
    total.update(_scale(expected_ops_add(half), 1.0))
    return dict(total)
