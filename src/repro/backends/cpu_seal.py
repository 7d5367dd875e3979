"""The CPU-SEAL baseline: RNS + NTT on native 64-bit words.

SEAL's two structural advantages over the custom CPU code (paper
Section 4.1) are priced by this cost model; it computes no residues
or transforms itself:

* **RNS**: a 109-bit coefficient is two independent <=60-bit residues,
  each living in one machine word — so wide arithmetic costs ``k``
  native operations instead of software long division;
* **NTT**: multiplication happens element-wise in the evaluation
  domain, so a modular multiply is ~10 cycles of Barrett arithmetic
  per RNS limb.

SEAL is also multithreaded; the model uses all four cores with the
shared-memory roofline of the same DDR4 system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.arch import SEALSpec
from repro.backends.base import Backend, OpRequest, TimingBreakdown
from repro.obs.energy import op_energy


def rns_traffic_bytes(request: OpRequest, rns_limbs: int) -> int:
    """Memory traffic per request in SEAL's 8-byte-per-RNS-limb layout.

    Unlike the container layout, products are reduced immediately
    (Barrett), so results are single-width.
    """
    w = 8 * rns_limbs
    per_element = {
        "vec_add": 3 * w,
        "vec_mul": 3 * w,
        "tensor_mul": 4 * w + 3 * w,
        "reduce_sum": w,
    }[request.op]
    return per_element * request.n_elements


@dataclass
class SEALBackend(Backend):
    """Multithreaded RNS+NTT model of the SEAL CPU library."""

    spec: SEALSpec = field(default_factory=SEALSpec)

    name = "cpu-seal"

    def _compute_cycles_per_element(
        self, request: OpRequest, rns_limbs: int
    ) -> float:
        spec = self.spec
        if request.op in ("vec_add", "reduce_sum"):
            return spec.add_cycles_per_rns_limb * rns_limbs
        if request.op == "vec_mul":
            return spec.mul_cycles_per_rns_limb * rns_limbs
        if request.op == "tensor_mul":
            return (
                4 * spec.mul_cycles_per_rns_limb
                + spec.add_cycles_per_rns_limb
            ) * rns_limbs
        raise AssertionError(request.op)

    def _price(self, request: OpRequest) -> TimingBreakdown:
        k = self.spec.rns_limbs(request.width_bits)
        compute_s = (
            request.n_elements
            * self._compute_cycles_per_element(request, k)
            / self.spec.effective_hz
        )
        memory_s = rns_traffic_bytes(request, k) / self.spec.stream_bytes_per_s
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
                "rns_limbs": k,
                "threads": self.spec.threads,
            },
        )

    def energy_profile(self, request: OpRequest, breakdown: TimingBreakdown):
        k = self.spec.rns_limbs(request.width_bits)
        return op_energy(
            self.name, breakdown.seconds, rns_traffic_bytes(request, k)
        )

    def describe(self) -> str:
        return "CPU-SEAL: " + self.spec.describe()
