"""The paper's custom CPU baseline: single-threaded scalar C model.

Time per request is the slower of two rooflines:

* **compute**: per-element cycle costs from
  :class:`~repro.backends.arch.CPUSpec` (cheap carry-chain additions,
  expensive long-division modular multiplications) at the single-core
  turbo clock;
* **memory**: container traffic through one thread's share of the
  DDR4 bandwidth.

For the paper's addition workloads the memory roofline binds (vector
addition is pure streaming); for multiplication the long-division
reduction dominates — the same asymmetry the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.arch import CPUSpec
from repro.backends.base import Backend, OpRequest, TimingBreakdown
from repro.obs.energy import op_energy


def container_traffic_bytes(request: OpRequest) -> int:
    """Memory traffic of one request in container bytes.

    Reads + writes per element, by op: addition streams two operands in
    and one result out; multiplication writes a double-width product;
    the tensor product reads four operands and writes three double-width
    results; reduction only streams operands in.
    """
    w = request.container_bytes
    per_element = {
        "vec_add": 3 * w,
        "vec_mul": 2 * w + 2 * w,
        "tensor_mul": 4 * w + 6 * w,
        "reduce_sum": w,
    }[request.op]
    return per_element * request.n_elements


@dataclass
class CustomCPUBackend(Backend):
    """Single-threaded scalar model of the paper's custom CPU code."""

    spec: CPUSpec = field(default_factory=CPUSpec)

    name = "cpu"

    def _compute_cycles_per_element(self, request: OpRequest) -> float:
        limbs = request.limbs
        spec = self.spec
        if request.op == "vec_add":
            return spec.add_cycles(limbs)
        if request.op == "reduce_sum":
            # Read-modify-write accumulation: the running sums exceed
            # the L1 working set at paper scales, costing a few extra
            # cycles over the pure streaming add.
            return spec.add_cycles(limbs) + 3.0
        if request.op == "vec_mul":
            return spec.mul_cycles(limbs)
        if request.op == "tensor_mul":
            # Four modular multiplies plus one wide addition per slot.
            return 4 * spec.mul_cycles(limbs) + spec.add_cycles(2 * limbs)
        raise AssertionError(request.op)

    def _price(self, request: OpRequest) -> TimingBreakdown:
        compute_s = (
            request.n_elements
            * self._compute_cycles_per_element(request)
            / self.spec.turbo_hz
        )
        memory_s = (
            container_traffic_bytes(request)
            / self.spec.single_thread_stream_bytes_per_s
        )
        dispatch_s = request.op_dispatches * self.spec.dispatch_overhead_s
        seconds = max(compute_s, memory_s) + dispatch_s
        return TimingBreakdown(
            backend=self.name,
            op=request.op,
            seconds=seconds,
            detail={
                "compute_s": compute_s,
                "memory_s": memory_s,
                "dispatch_s": dispatch_s,
                "bound": "compute" if compute_s >= memory_s else "memory",
                "threads": 1,
            },
        )

    def energy_profile(self, request: OpRequest, breakdown: TimingBreakdown):
        return op_energy(
            self.name, breakdown.seconds, container_traffic_bytes(request)
        )

    def describe(self) -> str:
        return "custom CPU: " + self.spec.describe()
