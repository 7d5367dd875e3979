"""The paper's custom GPU baseline: A100 roofline model.

Time per request is launch overhead plus the slower of:

* **memory**: container traffic at the kernel's sustained fraction of
  HBM bandwidth (per-kernel efficiency constants in
  :class:`~repro.backends.arch.GPUSpec`, with calibration provenance);
* **compute**: integer-operation roofline — the A100 has native 32-bit
  multipliers, so per-element op counts are small polynomials in the
  limb count rather than the software loops the DPU pays for. This is
  the paper's Key Takeaway 2 seen from the other side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.arch import GPUSpec
from repro.backends.base import Backend, OpRequest, TimingBreakdown
from repro.backends.cpu import container_traffic_bytes
from repro.obs.energy import op_energy


def gpu_int_ops_per_element(request: OpRequest) -> float:
    """Integer-op estimate per element for the compute roofline.

    Addition: one op per limb (add.cc chains). Multiplication: with
    native 32-bit multiply-wide, the schoolbook product is ``limbs^2``
    multiplies plus as many adds; the conditional-subtract reduction
    adds a few more.
    """
    l = request.limbs
    if request.op in ("vec_add", "reduce_sum"):
        return l + 1.0
    if request.op == "vec_mul":
        return 2.0 * l * l + l
    if request.op == "tensor_mul":
        return 4 * (2.0 * l * l + l) + 2 * l
    raise AssertionError(request.op)


@dataclass
class GPUBackend(Backend):
    """Roofline model of the paper's custom A100 implementation."""

    spec: GPUSpec = field(default_factory=GPUSpec)

    name = "gpu"

    def _efficiency(self, op: str) -> float:
        if op in ("vec_add", "reduce_sum"):
            return self.spec.add_efficiency
        return self.spec.mul_efficiency

    def _price(self, request: OpRequest) -> TimingBreakdown:
        bandwidth = self.spec.hbm_bytes_per_s * self._efficiency(request.op)
        memory_s = container_traffic_bytes(request) / bandwidth
        compute_s = (
            request.n_elements
            * gpu_int_ops_per_element(request)
            / self.spec.int_ops_per_s
        )
        # The custom GPU implementation enqueues one kernel per logical
        # homomorphic operation (per-ciphertext evaluator calls), so
        # dispatches and dependent rounds both pay the launch cost.
        launch_s = (
            max(request.launches, request.op_dispatches)
            * self.spec.launch_overhead_s
        )
        seconds = max(memory_s, compute_s) + launch_s
        return TimingBreakdown(
            backend=self.name,
            op=request.op,
            seconds=seconds,
            detail={
                "memory_s": memory_s,
                "compute_s": compute_s,
                "launch_s": launch_s,
                "bound": "memory" if memory_s >= compute_s else "compute",
                "efficiency": self._efficiency(request.op),
            },
        )

    def energy_profile(self, request: OpRequest, breakdown: TimingBreakdown):
        return op_energy(
            self.name,
            breakdown.seconds,
            container_traffic_bytes(request),
            traffic_level="hbm",
        )

    def describe(self) -> str:
        return "custom GPU: " + self.spec.describe()
