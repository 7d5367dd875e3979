"""Per-element kernel bodies: the differential oracle for kernel execution.

Each function is one kernel's loop body for a single element, charging
WRAM traffic, limb arithmetic (through :mod:`tests.mpint.reference_limbs`)
and loop bookkeeping exactly as the device issues them.
:func:`reference_execute` runs a list of elements one after another and
sums the tallies, which is what ``Kernel.execute`` must reproduce in
one element-parallel call. Test oracle only.
"""

from __future__ import annotations

from repro.mpint.cost import OpTally
from repro.mpint.limbs import from_limbs, to_limbs
from repro.pim.kernels import (
    ReduceSumKernel,
    TensorMulKernel,
    VecAddKernel,
    VecMulKernel,
)
from repro.pim.kernels.nttkernel import NTTButterflyKernel
from tests.mpint import reference_limbs as ref
from tests.mpint.reference_mul32 import reference_mul32


def _loads(tally, limbs):
    tally.charge("load", -(-limbs // 2))


def _stores(tally, limbs):
    tally.charge("store", -(-limbs // 2))


def _loop(tally):
    tally.charge("move")
    tally.charge("cmp")
    tally.charge("branch")


def vec_add(kernel: VecAddKernel, element, tally: OpTally) -> int:
    a, b = element
    limbs = kernel.limbs
    _loads(tally, 2 * limbs)
    total, carry = ref.add_with_carry(
        to_limbs(a, limbs), to_limbs(b, limbs), tally
    )
    if kernel.modulus is not None:
        modulus = to_limbs(kernel.modulus, limbs)
        total = ref.reduce_once(total, carry, modulus, tally)
    _stores(tally, limbs)
    _loop(tally)
    return from_limbs(total)


def vec_mul(kernel: VecMulKernel, element, tally: OpTally) -> int:
    a, b = element
    limbs = kernel.limbs
    _loads(tally, 2 * limbs)
    product = ref.multiply(
        to_limbs(a, limbs), to_limbs(b, limbs), tally, kernel.algorithm
    )
    _stores(tally, 2 * limbs)
    _loop(tally)
    return from_limbs(product)


def tensor_mul(kernel: TensorMulKernel, element, tally: OpTally) -> tuple:
    a0, a1, b0, b1 = (to_limbs(v, kernel.limbs) for v in element)
    limbs = kernel.limbs
    _loads(tally, 4 * limbs)
    d0 = ref.multiply(a0, b0, tally)
    cross1 = ref.multiply(a0, b1, tally)
    cross2 = ref.multiply(a1, b0, tally)
    d1, carry = ref.add_with_carry(cross1, cross2, tally)
    d2 = ref.multiply(a1, b1, tally)
    _stores(tally, 3 * 2 * limbs)
    _loop(tally)
    return (
        from_limbs(d0),
        from_limbs(d1) + (carry << (64 * limbs)),
        from_limbs(d2),
    )


def ntt_butterfly(kernel: NTTButterflyKernel, element, tally: OpTally) -> tuple:
    u, v, w = element
    p = kernel.modulus
    _loads(tally, 3)
    lo, hi = reference_mul32(v, w, tally)
    product = lo | (hi << 32)
    reference_mul32(hi, kernel._barrett.mu & 0xFFFFFFFF, tally)
    tally.charge("lsr", 4)
    reference_mul32((product >> 32) & 0xFFFFFFFF, p & 0xFFFFFFFF, tally)
    tally.charge("sub")
    tally.charge("cmp")
    tally.charge("branch")
    t = product % p
    tally.charge("add")
    tally.charge("cmp")
    tally.charge("branch")
    upper = u + t
    if upper >= p:
        tally.charge("sub")
        upper -= p
    tally.charge("sub")
    tally.charge("cmp")
    tally.charge("branch")
    lower = u - t
    if lower < 0:
        tally.charge("add")
        lower += p
    _stores(tally, 2)
    _loop(tally)
    return upper, lower


def reference_execute(kernel, elements, accumulator: int = 0) -> tuple:
    """``(outputs, tally)`` of ``elements`` run one at a time.

    A :class:`ReduceSumKernel` folds the elements into one running
    accumulator starting at ``accumulator`` and outputs its value after
    each element.
    """
    tally = OpTally()
    if isinstance(kernel, ReduceSumKernel):
        limbs = kernel.limbs
        modulus = to_limbs(kernel.modulus, limbs)
        acc = to_limbs(accumulator, limbs)
        outputs = []
        for element in elements:
            _loads(tally, limbs)
            total, carry = ref.add_with_carry(
                acc, to_limbs(element, limbs), tally
            )
            acc = ref.reduce_once(total, carry, modulus, tally)
            _loop(tally)
            outputs.append(from_limbs(acc))
        return outputs, tally
    body = {
        VecAddKernel: vec_add,
        VecMulKernel: vec_mul,
        TensorMulKernel: tensor_mul,
        NTTButterflyKernel: ntt_butterfly,
    }[type(kernel)]
    return [body(kernel, e, tally) for e in elements], tally
