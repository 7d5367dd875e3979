"""Abstract operation accounting for limb arithmetic.

The limb routines charge named abstract operations (``"add"``,
``"addc"``, ``"lsr"``, ...) to an :class:`OpTally`. The tally is
deliberately ISA-agnostic: mapping an operation name to a cycle cost is
the device model's job (:mod:`repro.pim.isa` for UPMEM), which keeps the
arithmetic layer reusable for the CPU and GPU cost models too.

The ``expected_ops_*`` helpers give closed-form *expected* counts for
the same routines, used by the analytic fast path when benchmarking
workloads too large to execute limb-by-limb. Tests in
``tests/mpint/test_cost.py`` check the closed forms against tallies of
real executions.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import ParameterError

#: Operation names the limb routines may charge. Loads/stores/branches
#: are charged by the kernel layer (which knows the memory layout), not
#: by the arithmetic itself.
KNOWN_OPS = frozenset(
    {
        "add",  # 32-bit add, sets carry
        "addc",  # 32-bit add with carry-in
        "sub",  # 32-bit subtract, sets borrow
        "subc",  # 32-bit subtract with borrow-in
        "cmp",  # compare (flag-setting subtract)
        "move",  # register move / immediate load
        "lsl",  # logical shift left
        "lsr",  # logical shift right
        "and",
        "or",
        "xor",
        "mul8",  # native 8x8->16 multiply step
        "branch",  # conditional or unconditional branch
        "load",  # WRAM load (charged by kernels)
        "store",  # WRAM store (charged by kernels)
    }
)


@dataclass
class OpTally:
    """Mutable tally of abstract operations performed by a routine.

    >>> t = OpTally()
    >>> t.charge("add"); t.charge("addc", 3)
    >>> t.total()
    4
    """

    counts: Counter = field(default_factory=Counter)

    def charge(self, op: str, n: int = 1) -> None:
        """Record ``n`` occurrences of operation ``op``.

        Counts are stored as Python ints (numpy integers are converted),
        and a zero charge records nothing, so a tally holds only the
        operations that ran.
        """
        if op not in KNOWN_OPS:
            raise ParameterError(f"unknown operation {op!r}")
        if n < 0:
            raise ParameterError(f"cannot charge a negative count: {n}")
        if n:
            self.counts[op] += operator.index(n)

    def merge(self, other: "OpTally") -> None:
        """Fold another tally's counts into this one."""
        self.counts.update(other.counts)

    def scaled(self, factor: int) -> "OpTally":
        """Return a new tally with every count multiplied by ``factor``.

        Used by the analytic path: execute one representative element,
        scale by the element count.
        """
        if factor < 0:
            raise ParameterError(f"scale factor must be non-negative: {factor}")
        out = OpTally()
        for op, n in self.counts.items():
            out.counts[op] = n * factor
        return out

    def total(self) -> int:
        """Total number of operations, all kinds weighted equally."""
        return sum(self.counts.values())

    def weighted_total(self, weights: Mapping[str, float]) -> float:
        """Total cost under a per-operation weight table.

        Operations missing from ``weights`` cost 1.0 — the common case
        on UPMEM, where nearly every instruction is single-issue.
        """
        return sum(n * weights.get(op, 1.0) for op, n in self.counts.items())

    def as_dict(self) -> dict:
        """Snapshot of the counts as a plain dict (for reports/tests)."""
        return dict(self.counts)


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
    # Imported here to avoid a cycle (mul.py imports OpTally from us).
    from repro.mpint.mul import KARATSUBA_THRESHOLD

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
    from repro.mpint.mul import KARATSUBA_THRESHOLD

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
