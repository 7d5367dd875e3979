"""Instruction cost table for the modelled DPU.

The DPU is a single-issue in-order core: once the pipeline is saturated
(>= 11 tasklets), **every instruction retires in one cycle** — there is
no superscalar dispatch, no SIMD, and no variable-latency ALU op
visible to software (multi-cycle operations like multiplication simply
do not exist as single instructions wider than 8 bits; they are
software loops, which is exactly why this table can be flat).

The table maps the abstract operation names charged by
:mod:`repro.mpint` and the kernels to cycles. Keeping it explicit (and
all-ones) documents the assumption; :func:`cycles_for_tally` takes a
custom table for what-ifs, and the ``abl_native_mul`` experiment weights
``mul8`` to price a hypothetical DPU with a native 32-bit multiplier
(the paper's Key Takeaway 2).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.mpint.cost import KNOWN_OPS, OpTally

#: Cycles per abstract operation on the first-generation DPU. Loads and
#: stores hit WRAM (single-cycle scratchpad); MRAM traffic is priced
#: separately by the DMA model.
DEFAULT_CYCLES_PER_OP: dict = {op: 1.0 for op in KNOWN_OPS}


def cycles_for_tally(
    tally: OpTally, cycles_per_op: Mapping | None = None
) -> float:
    """Price an operation tally in DPU cycles.

    ``cycles_per_op`` defaults to :data:`DEFAULT_CYCLES_PER_OP`;
    operations absent from a custom table fall back to 1 cycle.
    """
    table = DEFAULT_CYCLES_PER_OP if cycles_per_op is None else cycles_per_op
    return tally.weighted_total(table)
