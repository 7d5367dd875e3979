"""Device kernels: the code the paper runs on DPUs, modelled faithfully.

Each kernel corresponds to one of the paper's device-side routines
(Section 3):

* :class:`~repro.pim.kernels.vecadd.VecAddKernel` — element-wise
  multi-limb modular addition (homomorphic addition's inner loop);
* :class:`~repro.pim.kernels.vecmul.VecMulKernel` — element-wise
  multi-limb multiplication via shift-and-add + Karatsuba (homomorphic
  multiplication's inner loop);
* :class:`~repro.pim.kernels.tensor.TensorMulKernel` — the per-
  coefficient ciphertext tensor product (d0, d1, d2) used by
  homomorphic multiplication and squaring;
* :class:`~repro.pim.kernels.reduce.ReduceSumKernel` — the many-to-one
  modular accumulation used by the arithmetic-mean workload.

A kernel is simultaneously an *executable* (its ``run_elements`` does
real limb arithmetic via :mod:`repro.mpint`, every element at once) and
a *cost source* (the same execution charges an operation tally). Cycle
counts per element are therefore measured from execution, then cached
and scaled — never hand-asserted.
"""

from repro.pim.kernels.base import Kernel
from repro.pim.kernels.reduce import ReduceSumKernel
from repro.pim.kernels.tensor import TensorMulKernel
from repro.pim.kernels.vecadd import VecAddKernel
from repro.pim.kernels.vecmul import VecMulKernel

__all__ = [
    "Kernel",
    "ReduceSumKernel",
    "TensorMulKernel",
    "VecAddKernel",
    "VecMulKernel",
]
