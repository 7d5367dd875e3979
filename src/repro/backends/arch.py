"""Hardware specifications of the paper's baseline platforms.

Every constant carries a provenance note: vendor datasheet, common
measured figures for the part, or — where the paper's custom-code
behaviour cannot be derived without its (unreleased) sources — a
calibration note referencing the paper band it reproduces. Calibrated
constants are confined to this module and never tuned per experiment;
the calibration test suite (``tests/harness/test_calibration.py``)
asserts the resulting end-to-end shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError


@dataclass(frozen=True)
class CPUSpec:
    """Intel Core i5-8250U (paper Section 4.1, [95]).

    The *custom CPU implementation* the paper benchmarks is modelled as
    straightforward scalar C: a single-threaded loop over coefficient
    containers, conditional-subtract reduction after addition, and
    ``%``-based (long-division) modular reduction after multiplication
    — the natural reference implementation, and the only one consistent
    with the paper's measured CPU-vs-PIM gaps.
    """

    #: Single-core turbo clock. Intel ARK: up to 3.4 GHz.
    turbo_hz: float = 3.4e9

    #: All-core sustained clock under multithreaded load. Typical
    #: measured value for the 15 W part: ~2.7 GHz.
    all_core_hz: float = 2.7e9

    #: Physical cores (ARK: 4 cores / 8 threads).
    cores: int = 4

    #: Effective streaming bandwidth of one thread. Dual-channel
    #: DDR4-2400 peaks at 38.4 GB/s; a single scalar thread sustains
    #: ~40% of that on this class of part.
    single_thread_stream_bytes_per_s: float = 15e9

    #: Effective streaming bandwidth with all cores active (~73% of
    #: peak, a standard STREAM-benchmark outcome).
    multi_thread_stream_bytes_per_s: float = 28e9

    # -- custom-implementation cycle costs (per element) ---------------------
    #
    # Addition: load both containers, add/adc chain, compare + maybe
    # subtract q, store. One to a few cycles per limb after pipelining.
    #: Cycles per element for modular addition, by limb count.
    add_cycles_per_limb: float = 2.0
    add_cycles_fixed: float = 1.0

    #: Cycles per element for modular multiplication, by limb count:
    #: {1: 60, 2: 160, 4: 560}. Provenance: the product is computed on
    #: native 64-bit multipliers (cheap), but the *modular reduction*
    #: of a 2w-bit product by a w-bit modulus in plain C is a hardware
    #: divide for w=32 (~30-60 cycles) and a software long-division
    #: (__umodti3 / limb-wise loop) for w=64/128 (hundreds of cycles).
    #: The 128-bit value is calibrated inside the paper's Figure 1(b)
    #: band (custom CPU 40-50x slower than PIM).
    mul_cycles_by_limbs: tuple = ((1, 60.0), (2, 160.0), (4, 560.0))

    #: Overhead of one evaluator-level operation dispatch (function
    #: call, bounds checks) in the custom scalar code: negligible but
    #: non-zero.
    dispatch_overhead_s: float = 0.5e-6

    def mul_cycles(self, limbs: int) -> float:
        for l, c in self.mul_cycles_by_limbs:
            if l == limbs:
                return c
        raise ParameterError(f"no CPU multiply cost for {limbs} limbs")

    def add_cycles(self, limbs: int) -> float:
        return self.add_cycles_fixed + self.add_cycles_per_limb * limbs

    def describe(self) -> str:
        return (
            f"Intel i5-8250U model ({self.cores} cores, "
            f"{self.turbo_hz / 1e9:.1f} GHz turbo, "
            f"{self.multi_thread_stream_bytes_per_s / 1e9:.0f} GB/s stream)"
        )


@dataclass(frozen=True)
class SEALSpec:
    """Microsoft SEAL on the same i5-8250U (paper Section 4.1, [79]).

    SEAL maps wide moduli onto native words with **RNS** and multiplies
    polynomials in the **NTT** evaluation domain. This spec prices
    their native-word inner operations analytically; the backend
    computes no residues. (:mod:`repro.poly` runs the same two
    algorithms for real, on 31-bit primes, inside the exact
    convolution.)
    """

    #: RNS limbs per paper security level's container width: SEAL
    #: covers a 27- or 54-bit modulus with one <=60-bit prime and the
    #: 109-bit modulus with two.
    rns_limbs_by_width: tuple = ((32, 1), (64, 1), (128, 2))

    #: Cycles per 64-bit modular addition (add + conditional subtract,
    #: partially vectorized): ~2 cycles.
    add_cycles_per_rns_limb: float = 2.0

    #: Cycles per 64-bit Barrett modular multiplication. SEAL's
    #: multiply_uint_mod is ~10 cycles on Skylake-class cores (two
    #: 64x64 multiplies, shifts, conditional subtract).
    mul_cycles_per_rns_limb: float = 10.0

    #: Threads SEAL's batched workloads use (the paper's CPU has 4
    #: physical cores).
    threads: int = 4

    #: Sustained all-core clock (same silicon as CPUSpec).
    all_core_hz: float = 2.7e9

    #: Multi-threaded streaming bandwidth. Same DDR4-2400 system as the
    #: custom CPU (~73% of the 38.4 GB/s peak).
    stream_bytes_per_s: float = 28e9

    #: Overhead of one SEAL evaluator call: result-ciphertext heap
    #: allocation plus pool bookkeeping, ~5 us for n=4096 operands
    #: (measured figures for SEAL's allocator on laptop-class parts).
    dispatch_overhead_s: float = 5e-6

    def rns_limbs(self, width_bits: int) -> int:
        for w, k in self.rns_limbs_by_width:
            if w == width_bits:
                return k
        raise ParameterError(f"no RNS limb count for width {width_bits}")

    @property
    def effective_hz(self) -> float:
        return self.threads * self.all_core_hz

    def describe(self) -> str:
        return (
            f"SEAL/RNS+NTT model on i5-8250U ({self.threads} threads, "
            f"{self.stream_bytes_per_s / 1e9:.0f} GB/s stream)"
        )


@dataclass(frozen=True)
class GPUSpec:
    """NVIDIA A100 (paper Section 4.1, [96]), custom CUDA kernels.

    The paper's premise — and the shape of its results — requires the
    custom GPU kernels to be far from roofline on addition (wide-
    integer ciphertexts laid out one-per-thread defeat coalescing)
    while fairly efficient on multiplication (compute-dense inner loop
    hides the same access pattern). Lacking the paper's CUDA sources,
    the two efficiency factors are **calibrated** to the paper's
    Figure 1 bands and documented here; everything else is datasheet.
    """

    #: HBM2e bandwidth (A100 whitepaper: 1,555 GB/s for the 40 GB part).
    hbm_bytes_per_s: float = 1555e9

    #: CUDA cores x boost clock (whitepaper: 6,912 x 1.41 GHz).
    int_ops_per_s: float = 6912 * 1.41e9

    #: Kernel launch + driver overhead per *stream-pipelined* launch.
    #: A cold launch costs ~10-20 us; a custom implementation that
    #: enqueues one kernel per homomorphic operation on a stream
    #: sustains ~5 us per dispatch.
    launch_overhead_s: float = 5e-6

    #: Host<->device PCIe bandwidth (gen4 x16 practical: ~25 GB/s).
    #: Only the end-to-end deployment experiment charges this; kernel
    #: comparisons follow the paper's device-resident convention.
    pcie_bytes_per_s: float = 25e9

    #: Fraction of HBM bandwidth the custom *addition* kernel sustains.
    #: Calibrated: reproduces "PIM outperforms GPU by 15-50x" for
    #: addition (paper Section 4.2) — i.e. the kernel runs at ~3% of
    #: roofline, consistent with per-thread wide-integer layouts.
    add_efficiency: float = 0.03

    #: Fraction of HBM bandwidth the custom *multiplication* kernel
    #: sustains. Calibrated: reproduces "PIM is 12-15x slower than GPU"
    #: for multiplication (paper Section 4.2).
    mul_efficiency: float = 0.15

    def describe(self) -> str:
        return (
            f"NVIDIA A100 model ({self.hbm_bytes_per_s / 1e9:.0f} GB/s HBM, "
            f"add eff {self.add_efficiency:.0%}, "
            f"mul eff {self.mul_efficiency:.0%})"
        )
