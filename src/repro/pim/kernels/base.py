"""Kernel framework: functional execution with derived cycle costs.

Design rule (DESIGN.md Section 5): *instruction counts are derived, not
asserted*. A concrete kernel implements ``run_elements`` — the real
limb arithmetic for a batch of elements, one per lane of the
element-parallel routines in :mod:`repro.mpint`, charging every
abstract operation each element performs — plus a description of its
memory behaviour. The framework provides:

* :meth:`Kernel.execute` — run a whole buffer functionally, returning
  outputs and the exact total tally (used by tests and small
  workloads);
* :meth:`Kernel.cycles_per_element` — the *expected* per-element cycle
  cost, measured by executing a seeded random sample and averaging
  (used by the analytic path for paper-sized workloads, where executing
  billions of limb operations in Python would be pointless).

Both paths run the same ``run_elements`` code, so they cannot drift.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import CapacityError, ParameterError
from repro.mpint.cost import OpTally
from repro.mpint.limbs import to_limbs
from repro.pim.isa import cycles_for_tally

#: Sample size for measured per-element costs. Large enough to average
#: out data-dependent branches (set bits, carries) to well under 1%.
COST_SAMPLE_SIZE = 96

#: Seed for the cost-measurement sample. Fixed so modelled times are
#: deterministic run to run.
COST_SAMPLE_SEED = 0x5EED

#: Process-wide cost samples: ``(kernel class, cost_key())`` -> the
#: summed :class:`OpTally` of the seeded sample.
_COST_SAMPLES: dict = {}


class Kernel(abc.ABC):
    """One device kernel: per-element semantics + memory behaviour.

    A kernel's cost depends only on its configuration
    (:meth:`cost_key`), so its cost sample is taken once per
    configuration per process, on a fresh instance, and every kernel
    built with the same arguments — whichever layer builds it — reuses
    it.
    """

    #: Human-readable kernel name (shown in timing breakdowns).
    name: str = "kernel"

    def __init__(self, limbs: int):
        if limbs <= 0:
            raise ParameterError(f"limbs must be positive: {limbs}")
        self.limbs = limbs

    # -- per-element contract -------------------------------------------------

    @abc.abstractmethod
    def run_elements(self, elements: list, tally: OpTally) -> list:
        """Process every element at once, charging operations.

        Each element is whatever :meth:`random_element` produces (a
        tuple of ints for binary kernels) and runs in its own lane; the
        return value lists the kernel's per-element outputs in order.
        ``tally`` receives the exact sum of what each element would
        charge on its own.
        """

    def run_element(self, element, tally: OpTally):
        """Process one element: :meth:`run_elements` with one lane."""
        return self.run_elements([element], tally)[0]

    @abc.abstractmethod
    def random_elements(self, rng: np.random.Generator, count: int) -> list:
        """``count`` uniformly random valid input elements (the cost
        sample's inputs).

        The elements must not depend on how the draws are split into
        calls: ``count`` single-element draws give the same list.
        """

    def random_element(self, rng: np.random.Generator):
        """One uniformly random valid input element."""
        return self.random_elements(rng, 1)[0]

    @abc.abstractmethod
    def cost_key(self) -> tuple:
        """The constructor arguments that determine the cost sample.

        ``type(self)(*self.cost_key())`` must build a fresh kernel of
        the same configuration: the sample is taken on that instance.
        """

    @abc.abstractmethod
    def mram_bytes_per_element(self) -> int:
        """MRAM traffic (reads + writes) per element, in bytes."""

    def footprint_bytes_per_element(self) -> int:
        """MRAM *residency* per element, for the capacity check.

        Defaults to the traffic figure (inputs and outputs both live in
        the bank). Kernels whose outputs are consumed immediately by an
        accumulator (e.g. the tensor product inside variance/regression)
        override this with their input footprint only.
        """
        return self.mram_bytes_per_element()

    # -- framework-provided execution ------------------------------------------

    def execute(self, elements) -> tuple:
        """Run the kernel over a sequence of elements.

        Returns ``(outputs, tally)`` where ``tally`` is the exact total
        operation count of the run.
        """
        tally = OpTally()
        outputs = self.run_elements(list(elements), tally)
        return outputs, tally

    def cost_sample(self, size: int = COST_SAMPLE_SIZE) -> OpTally:
        """Summed :class:`OpTally` of ``size`` seeded random elements.

        The elements are drawn with :data:`COST_SAMPLE_SEED` and run on
        a fresh kernel built from :meth:`cost_key`, so the sample never
        touches this instance's state. The default-size sample is taken
        once per configuration per process and shared; treat the
        returned tally as read-only.
        """
        key = (type(self), self.cost_key())
        if size == COST_SAMPLE_SIZE and key in _COST_SAMPLES:
            return _COST_SAMPLES[key]
        fresh = type(self)(*key[1])
        rng = np.random.default_rng(COST_SAMPLE_SEED)
        _, tally = fresh.execute(fresh.random_elements(rng, size))
        if size == COST_SAMPLE_SIZE:
            _COST_SAMPLES[key] = tally
        return tally

    def cycles_per_element(self) -> float:
        """Measured expected cycles per element.

        Prices the shared :meth:`cost_sample` with the DPU ISA table on
        every call, so a perturbed ISA table takes effect immediately.
        """
        return cycles_for_tally(self.cost_sample()) / COST_SAMPLE_SIZE

    # -- shared memory-access accounting ---------------------------------------

    def charge_loads(self, tally: OpTally, limbs: int, lanes: int) -> None:
        """Charge each of ``lanes`` elements WRAM loads for ``limbs``
        32-bit words.

        The DPU has 64-bit load/store instructions, so two limbs move
        per instruction.
        """
        tally.charge("load", lanes * -(-limbs // 2))

    def charge_stores(self, tally: OpTally, limbs: int, lanes: int) -> None:
        """Charge each of ``lanes`` elements WRAM stores for ``limbs``
        32-bit words (64-bit wide)."""
        tally.charge("store", lanes * -(-limbs // 2))

    def charge_loop_overhead(self, tally: OpTally, lanes: int) -> None:
        """Per-element loop bookkeeping for ``lanes`` elements: pointer
        bump, bound check, branch."""
        tally.charge("move", lanes)
        tally.charge("cmp", lanes)
        tally.charge("branch", lanes)

    # -- capacity checks ---------------------------------------------------------

    def check_mram_fit(self, elements_per_dpu: int, mram_bytes: int) -> None:
        """Raise :class:`~repro.errors.CapacityError` (a
        :class:`~repro.errors.DeviceError`) if a DPU's share of the
        working set exceeds its MRAM bank."""
        need = elements_per_dpu * self.footprint_bytes_per_element()
        if need > mram_bytes:
            raise CapacityError(
                f"{elements_per_dpu} elements per DPU exceed the MRAM bank",
                kernel=self.name,
                bytes_needed=need,
                bytes_available=mram_bytes,
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(limbs={self.limbs})"


def result_bytes(kernel: Kernel) -> int:
    """Result bytes per element (for the transfer ablation).

    Derived from the kernel type's semantics: full-width results for
    addition, double-width for multiplication, triple double-width for
    the tensor product, none streamed back for reductions.
    """
    name = kernel.name
    if name == "vec_add":
        return 4 * kernel.limbs
    if name == "vec_mul":
        return 8 * kernel.limbs
    if name == "tensor_mul":
        return 3 * 8 * kernel.limbs
    if name == "reduce_sum":
        return 0
    # Conservative default: a full-width result per element.
    return 4 * kernel.limbs


def constant_planes(value: int, limbs: int) -> list:
    """Limb planes of one constant, broadcasting across every lane."""
    return [np.uint64(limb) for limb in to_limbs(value, limbs)]


def random_limb_values(rng: np.random.Generator, limbs: int, count: int) -> tuple:
    """``count`` uniform random ``limbs * 32``-bit unsigned integers.

    Drawn with one ``rng.bytes`` call. The generator hands out the same
    stream of 32-bit words however the draws are split into calls, so
    the values equal ``count`` successive single-value draws.
    """
    width = 4 * limbs
    raw = rng.bytes(width * count)
    return tuple(
        int.from_bytes(raw[i : i + width], "little")
        for i in range(0, width * count, width)
    )


def random_residues(
    rng: np.random.Generator, modulus: int, limbs: int, count: int
) -> tuple:
    """``count`` roughly uniform residues below ``modulus`` (fit in ``limbs``).

    Cost sampling does not need cryptographic uniformity; a single
    modulo is fine.
    """
    return tuple(v % modulus for v in random_limb_values(rng, limbs, count))


def grouped(values, width: int) -> list:
    """``values`` cut into consecutive ``width``-tuples: the elements of
    kernels that take ``width`` operands each."""
    return [tuple(values[i : i + width]) for i in range(0, len(values), width)]
