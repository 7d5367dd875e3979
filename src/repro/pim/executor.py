"""Device-functional execution: ciphertext operations through kernels.

The timing model prices kernels from sampled executions; this module
closes the loop the other way — it runs *actual homomorphic
operations* through the device kernels' limb arithmetic and returns
bit-exact ciphertexts, proving that the code being priced is the code
that computes the paper's workloads.

:class:`DeviceEvaluator` covers the operations the paper's device
executes without host help:

* ciphertext **addition** (the Figure 1(a) / 2(a) inner loop) via
  :class:`~repro.pim.kernels.vecadd.VecAddKernel`;
* many-ciphertext **accumulation** (the mean workload) via
  :class:`~repro.pim.kernels.reduce.ReduceSumKernel`;
* the ciphertext **tensor product** (multiplication's device portion,
  in the element-wise evaluation-domain convention of DESIGN.md) via
  :class:`~repro.pim.kernels.tensor.TensorMulKernel`.

Every call returns the result plus a :class:`DeviceRun` record holding
the exact operation tally and the modelled timing for the same shape.
The kernels run every coefficient of an operation at once on numpy
limb planes, so even the n = 4096 tensor product at 109 bits runs in
well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ciphertext import Ciphertext
from repro.core.params import BFVParameters
from repro.errors import CiphertextError, ParameterError
from repro.mpint.cost import OpTally
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.pim.kernels import ReduceSumKernel, TensorMulKernel, VecAddKernel
from repro.pim.runtime import KernelTiming, PIMRuntime
from repro.poly.polynomial import Polynomial


@dataclass(frozen=True)
class DeviceRun:
    """Record of one device-functional kernel execution.

    ``faults`` carries the :class:`~repro.pim.faults.DegradedRunReport`
    of the invocation when a fault plan was active (``None`` on a
    healthy fleet): effective fleet size, retries absorbed, redispatch
    overhead.
    """

    kernel_name: str
    n_elements: int
    tally: OpTally
    timing: KernelTiming
    faults: object = None

    @property
    def measured_cycles(self) -> float:
        """Cycles of the *actual* execution under the ISA table."""
        from repro.pim.isa import cycles_for_tally

        return cycles_for_tally(self.tally)


class DeviceEvaluator:
    """Executes homomorphic device work through the limb kernels.

    ``retry_policy`` bounds how many times a fault-injected launch is
    retried before a :class:`~repro.errors.PermanentDeviceError`
    surfaces; it is installed on the runtime and only consulted while a
    :class:`~repro.pim.faults.FaultPlan` is active.
    """

    def __init__(
        self,
        params: BFVParameters,
        runtime: PIMRuntime | None = None,
        retry_policy=None,
    ):
        self.params = params
        self.runtime = runtime if runtime is not None else PIMRuntime()
        if retry_policy is not None:
            self.runtime.retry_policy = retry_policy
        limbs = params.limbs_per_coefficient
        q = params.coeff_modulus
        self._add_kernel = VecAddKernel(limbs, q)
        self._tensor_kernel = TensorMulKernel(limbs)
        self._reduce_kernel = ReduceSumKernel(limbs, q)

    # -- operations -------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> tuple:
        """Ciphertext addition through the vec_add kernel.

        Returns ``(ciphertext, DeviceRun)``; the ciphertext is
        bit-identical to :meth:`repro.core.evaluator.Evaluator.add`.
        """
        self._check(a)
        a.check_compatible(b)
        if a.size != b.size:
            raise CiphertextError(
                "device add expects equal-size ciphertexts "
                f"(got {a.size} and {b.size})"
            )
        with get_tracer().span("device.add") as span:
            elements = [
                (ca, cb)
                for pa, pb in zip(a.polys, b.polys)
                for ca, cb in zip(pa.coeffs, pb.coeffs)
            ]
            outputs, tally = self._add_kernel.execute(elements)
            polys = self._rebuild_polys(outputs, a.size)
            timing = self.runtime.time_kernel(
                self._add_kernel, len(elements), work_units=1
            )
            run = DeviceRun(
                self._add_kernel.name, len(elements), tally, timing,
                faults=timing.faults,
            )
            self._observe(span, run)
        return Ciphertext(self.params, polys), run

    def sum_many(self, ciphertexts) -> tuple:
        """Accumulate ciphertexts through the reduce_sum kernel.

        The device streams every user's coefficient through a running
        modular accumulator (one per coefficient position), exactly as
        the mean workload's kernel does. Returns
        ``(ciphertext, DeviceRun)``.
        """
        cts = list(ciphertexts)
        if not cts:
            raise CiphertextError("sum_many needs at least one ciphertext")
        size = cts[0].size
        for ct in cts:
            self._check(ct)
            if ct.size != size:
                raise CiphertextError("device sum expects equal-size inputs")
        n = self.params.poly_degree
        with get_tracer().span(
            "device.sum_many", attrs={"n_ciphertexts": len(cts)}
        ) as span:
            tally = OpTally()
            flat = self._reduce_kernel.accumulate(
                [[c for poly in ct.polys for c in poly.coeffs] for ct in cts],
                tally,
            )
            sums = self._rebuild_polys(flat, size)
            n_elements = len(cts) * size * n
            timing = self.runtime.time_kernel(
                self._reduce_kernel, n_elements, work_units=len(cts)
            )
            run = DeviceRun(
                self._reduce_kernel.name, n_elements, tally, timing,
                faults=timing.faults,
            )
            self._observe(span, run)
        return Ciphertext(self.params, sums), run

    def tensor(self, a: Ciphertext, b: Ciphertext) -> tuple:
        """Element-wise tensor product through the tensor_mul kernel.

        Returns ``((d0, d1, d2) coefficient tuples, DeviceRun)`` — raw
        double-width products, as the device hands them back for the
        host-side BFV scaling step.
        """
        self._check(a)
        a.check_compatible(b)
        if a.size != 2 or b.size != 2:
            raise CiphertextError("device tensor expects size-2 operands")
        with get_tracer().span("device.tensor") as span:
            elements = [
                (a0, a1, b0, b1)
                for a0, a1, b0, b1 in zip(
                    a.polys[0].coeffs,
                    a.polys[1].coeffs,
                    b.polys[0].coeffs,
                    b.polys[1].coeffs,
                )
            ]
            outputs, tally = self._tensor_kernel.execute(elements)
            timing = self.runtime.time_kernel(
                self._tensor_kernel, len(elements), work_units=1
            )
            run = DeviceRun(
                self._tensor_kernel.name, len(elements), tally, timing,
                faults=timing.faults,
            )
            self._observe(span, run)
        d0 = tuple(o[0] for o in outputs)
        d1 = tuple(o[1] for o in outputs)
        d2 = tuple(o[2] for o in outputs)
        return (d0, d1, d2), run

    # -- helpers ------------------------------------------------------------

    def _observe(self, span, run: DeviceRun) -> None:
        """Attach a run's tally and timing to its span and metrics.

        The exact data-dependent limb-operation counts are folded into
        ``limb_ops.*`` counters — the measured ground truth behind the
        analytic per-element cycle costs.
        """
        span.set_attrs(
            {
                "kernel": run.kernel_name,
                "n_elements": run.n_elements,
                "tally_total": run.tally.total(),
                "modelled_s": run.timing.total_seconds,
            }
        )
        if run.faults is not None:
            span.set_attrs(run.faults.as_attrs())
        registry = get_registry()
        registry.counter(f"device.{run.kernel_name}.executions").inc()
        registry.counter(f"device.{run.kernel_name}.elements").inc(
            run.n_elements
        )
        registry.record_tally(run.tally)

    def _check(self, ct: Ciphertext) -> None:
        if ct.params != self.params:
            raise ParameterError("ciphertext belongs to different parameters")

    def _rebuild_polys(self, flat_outputs, size: int) -> list:
        n = self.params.poly_degree
        q = self.params.coeff_modulus
        return [
            Polynomial(flat_outputs[i * n : (i + 1) * n], q)
            for i in range(size)
        ]
