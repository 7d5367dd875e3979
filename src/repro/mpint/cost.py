"""Abstract operation accounting for limb arithmetic.

The limb routines charge named abstract operations (``"add"``,
``"addc"``, ``"lsr"``, ...) to an :class:`OpTally`. The tally is
deliberately ISA-agnostic: mapping an operation name to a cycle cost is
the device model's job (:mod:`repro.pim.isa` for UPMEM), which keeps the
arithmetic layer reusable for the CPU and GPU cost models too.

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
