"""Experiment registry: every paper figure/table plus ablations.

Each experiment is a declarative record with a runner producing
:class:`ExperimentRow` objects — one per x-axis point of the paper's
plot — whose ``series`` maps a curve name (usually a backend) to a
value (usually milliseconds). Experiments are deterministic: backends
are cost models and kernels sample costs from fixed seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

from repro.backends.arch import GPUSpec, SEALSpec
from repro.backends.base import OpRequest
from repro.backends.pim import PIMBackend, modulus_for_width
from repro.backends.registry import BACKEND_ORDER, get_backend
from repro.errors import ExperimentError
from repro.harness.sweep import bisect_crossover, ratio_metric
from repro.mpint.cost import OpTally
from repro.mpint.limbs import to_planes
from repro.mpint.mul import karatsuba_multiply, schoolbook_multiply
from repro.obs.energy import workload_joules
from repro.pim.analysis import kernel_cycle_breakdown
from repro.pim.config import UPMEMConfig
from repro.pim.dma import dma_cycles
from repro.pim.isa import cycles_for_tally
from repro.pim.kernels import (
    ReduceSumKernel,
    TensorMulKernel,
    VecAddKernel,
    VecMulKernel,
)
from repro.pim.kernels.nttkernel import (
    NTTButterflyKernel,
    ntt_polynomial_mult_cycles,
    schoolbook_polynomial_mult_cycles,
)
from repro.pim.runtime import PIMRuntime
from repro.pim.sim import simulate_kernel
from repro.pim.tasklet import pipeline_cycles, split_evenly
from repro.pim.transfer import TransferModel
from repro.poly.modring import find_ntt_prime
from repro.workloads.covariance import CovarianceWorkload
from repro.workloads.linreg import LinearRegressionWorkload
from repro.workloads.mean import MeanWorkload
from repro.workloads.registry import EXPERIMENT_CELLS, PAPER_WORKLOADS
from repro.workloads.variance import FIG2B_USERS, VarianceWorkload
from repro.workloads.vectorops import (
    FIG1A_SIZES,
    FIG1B_SIZES,
    VectorAddWorkload,
    VectorMulWorkload,
)

#: Security level (bits of q) per container width, paper Section 3.
WIDTH_BY_SECURITY = {27: 32, 54: 64, 109: 128}


@dataclass(frozen=True)
class ExperimentRow:
    """One x-axis point: a label and its named series values."""

    label: str
    x: float
    series: dict
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: metadata plus a row-producing runner."""

    id: str
    title: str
    paper_ref: str
    description: str
    unit: str
    runner: object  # Callable[[], list[ExperimentRow]]

    def run(self) -> list:
        """Execute the experiment, returning its rows."""
        return self.runner()


EXPERIMENTS: dict = {}


def _register(experiment: Experiment) -> Experiment:
    if experiment.id in EXPERIMENTS:
        raise ExperimentError(f"duplicate experiment id {experiment.id!r}")
    EXPERIMENTS[experiment.id] = experiment
    return experiment


def get_experiment(experiment_id: str) -> Experiment:
    """Look up a registered experiment by id."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{sorted(EXPERIMENTS)}"
        ) from None


@lru_cache(maxsize=1)
def _backends() -> dict:
    return {name: get_backend(name) for name in BACKEND_ORDER}


def _times_ms(workload) -> dict:
    return {
        name: workload.time_on(backend) * 1e3
        for name, backend in _backends().items()
    }


def _run_cells(experiment_id: str) -> list:
    """One row per batch of the experiment's cells (:data:`EXPERIMENT_CELLS`)."""
    workload, bits = EXPERIMENT_CELLS[experiment_id]
    entry = PAPER_WORKLOADS[workload]
    return [
        ExperimentRow(
            label=entry.label.format(batch),
            x=batch,
            series=_times_ms(entry.factory(bits, batch)),
        )
        for batch in entry.batches
    ]


# --------------------------------------------------------------------------
# Figure 1: vector addition / multiplication microbenchmarks
# --------------------------------------------------------------------------


for _bits, _width in WIDTH_BY_SECURITY.items():
    _suffix = "" if _width == 128 else f"_{_width}bit"
    _register(
        Experiment(
            id=f"fig1a{_suffix}",
            title=f"Ciphertext vector addition, {_width}-bit coefficients",
            paper_ref="Figure 1(a)" if _width == 128 else "Section 4.2 text",
            description=(
                f"Element-wise homomorphic addition over batches of "
                f"ciphertexts at the {_bits}-bit security level "
                f"({_width}-bit containers), batch sizes "
                f"{FIG1A_SIZES[0]}-{FIG1A_SIZES[-1]}."
            ),
            unit="ms",
            runner=partial(_run_cells, f"fig1a{_suffix}"),
        )
    )
    _register(
        Experiment(
            id=f"fig1b{_suffix}",
            title=f"Ciphertext vector multiplication, {_width}-bit coefficients",
            paper_ref="Figure 1(b)" if _width == 128 else "Section 4.2 text",
            description=(
                f"Element-wise homomorphic multiplication over batches "
                f"of ciphertexts at the {_bits}-bit security level "
                f"({_width}-bit containers), batch sizes "
                f"{FIG1B_SIZES[0]}-{FIG1B_SIZES[-1]}."
            ),
            unit="ms",
            runner=partial(_run_cells, f"fig1b{_suffix}"),
        )
    )


# --------------------------------------------------------------------------
# Figure 2: statistical workloads
# --------------------------------------------------------------------------


_register(
    Experiment(
        id="fig2a",
        title="Arithmetic mean (homomorphic addition only)",
        paper_ref="Figure 2(a)",
        description=(
            "Encrypted arithmetic mean across users; the device sums "
            "all users' ciphertexts, the host performs one scalar "
            "division after decryption."
        ),
        unit="ms",
        runner=partial(_run_cells, "fig2a"),
    )
)
_register(
    Experiment(
        id="fig2b",
        title="Variance (homomorphic squaring)",
        paper_ref="Figure 2(b)",
        description=(
            "Encrypted variance across users; the device squares each "
            "user's ciphertext and accumulates, the host finishes with "
            "scalar arithmetic after decryption."
        ),
        unit="ms",
        runner=partial(_run_cells, "fig2b"),
    )
)
_register(
    Experiment(
        id="fig2c",
        title="Linear regression (3 features, normal equations)",
        paper_ref="Figure 2(c)",
        description=(
            "Encrypted normal-equation terms (X^T X, X^T y) for 640 "
            "users holding 32 or 64 ciphertexts each; the host solves "
            "the 3x3 system after decryption."
        ),
        unit="ms",
        runner=partial(_run_cells, "fig2c"),
    )
)


# --------------------------------------------------------------------------
# Security-level sweep (Section 3 / 4.1 methodology)
# --------------------------------------------------------------------------


def _run_security_sweep() -> list:
    rows = []
    for bits, width in WIDTH_BY_SECURITY.items():
        add_times = _times_ms(
            VectorAddWorkload(security_bits=bits, n_ciphertexts=20480)
        )
        mul_times = _times_ms(
            VectorMulWorkload(security_bits=bits, n_ciphertexts=20480)
        )
        rows.append(
            ExperimentRow(
                label=f"{bits}-bit security ({width}-bit containers), add",
                x=bits,
                series=add_times,
                extra={"op": "add", "width_bits": width},
            )
        )
        rows.append(
            ExperimentRow(
                label=f"{bits}-bit security ({width}-bit containers), mul",
                x=bits,
                series=mul_times,
                extra={"op": "mul", "width_bits": width},
            )
        )
    return rows


_register(
    Experiment(
        id="tab_security",
        title="Security-level sweep: 20,480-ciphertext add/mul",
        paper_ref="Sections 3 and 4.1-4.2",
        description=(
            "Vector addition and multiplication at the paper's three "
            "security levels; shows the software-multiplication cost "
            "growing with container width on PIM."
        ),
        unit="ms",
        runner=_run_security_sweep,
    )
)


# --------------------------------------------------------------------------
# Observation 1: tasklet saturation
# --------------------------------------------------------------------------


def _run_tasklet_scaling() -> list:
    runtime = PIMRuntime()
    add_kernel = VecAddKernel(4, _default_modulus())
    mul_kernel = VecMulKernel(4)
    n_elements = 20480 * 2 * 4096
    rows = []
    for tasklets in (1, 2, 4, 8, 11, 12, 16, 20, 24):
        add_t = runtime.time_kernel(
            add_kernel, n_elements, work_units=20480, tasklets=tasklets
        )
        mul_t = runtime.time_kernel(
            mul_kernel, n_elements, work_units=20480, tasklets=tasklets
        )
        rows.append(
            ExperimentRow(
                label=f"{tasklets} tasklets",
                x=tasklets,
                series={
                    "pim add": add_t.kernel_seconds * 1e3,
                    "pim mul": mul_t.kernel_seconds * 1e3,
                },
            )
        )
    return rows


def _default_modulus() -> int:
    return modulus_for_width(128)


_register(
    Experiment(
        id="obs_tasklets",
        title="PIM kernel time vs tasklet count (saturation at 11)",
        paper_ref="Section 4.2, Observation 1",
        description=(
            "Kernel time of 128-bit vector add/mul as tasklets grow "
            "from 1 to 24: the DPU pipeline saturates at 11 tasklets "
            "(the compute-bound multiply) or at the DMA roofline (the "
            "addition), and more tasklets do not help."
        ),
        unit="ms (kernel only)",
        runner=_run_tasklet_scaling,
    )
)


# --------------------------------------------------------------------------
# Ablations
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _limb_multiply_tallies(limbs: int) -> tuple:
    """The ``(karatsuba, schoolbook)`` op tallies of one dense multiply.

    Worst-case dense operands make the comparison deterministic. The
    tallies are shared: read them, never charge them.
    """
    tk, ts = OpTally(), OpTally()
    dense = to_planes([(1 << (32 * limbs)) - 1], limbs)
    karatsuba_multiply(dense, dense, tk)
    schoolbook_multiply(dense, dense, ts)
    return tk, ts


def _run_karatsuba_ablation() -> list:
    rows = []
    for limbs in (2, 4, 8):
        # Priced on every run, so a perturbed ISA table takes effect.
        k_cycles, s_cycles = map(
            cycles_for_tally, _limb_multiply_tallies(limbs)
        )
        rows.append(
            ExperimentRow(
                label=f"{32 * limbs}-bit operands",
                x=limbs,
                series={
                    "karatsuba cycles": k_cycles,
                    "schoolbook cycles": s_cycles,
                    "savings %": 100.0 * (1 - k_cycles / s_cycles),
                },
            )
        )
    return rows


_register(
    Experiment(
        id="abl_karatsuba",
        title="Karatsuba vs schoolbook limb multiplication",
        paper_ref="Section 3 (Karatsuba 'requires less operations')",
        description=(
            "Derived DPU cycle counts of one wide multiplication under "
            "both algorithms, validating the paper's choice of "
            "Karatsuba for 64-/128-bit products."
        ),
        unit="cycles per multiplication",
        runner=_run_karatsuba_ablation,
    )
)


def _run_ntt_ablation() -> list:
    rows = []
    for n in (1024, 2048, 4096):
        schoolbook_mults = n * n
        ntt_mults = 3 * (n // 2) * (n.bit_length() - 1) + n
        rows.append(
            ExperimentRow(
                label=f"n = {n}",
                x=n,
                series={
                    "schoolbook mulmods": float(schoolbook_mults),
                    "ntt mulmods": float(ntt_mults),
                    "ntt advantage x": schoolbook_mults / ntt_mults,
                },
            )
        )
    return rows


_register(
    Experiment(
        id="abl_ntt",
        title="NTT vs schoolbook polynomial multiplication cost",
        paper_ref="Section 3 (NTT left as future work) / Section 4.1",
        description=(
            "Modular multiplications per full polynomial product: "
            "schoolbook O(n^2) (what the PIM kernels would need for "
            "coefficient-domain products) vs three NTTs plus pointwise "
            "multiplication (what SEAL does). Quantifies why the paper "
            "lists NTT-on-PIM as future work."
        ),
        unit="modular multiplications",
        runner=_run_ntt_ablation,
    )
)


def _native_mul_cycles_per_element(limbs: int, mul_cycles: int = 3) -> float:
    """Per-element vec_mul cost on a hypothetical native-multiply DPU.

    Schoolbook over limbs with single-instruction 32x32 multiplies:
    ``limbs^2`` multiplies (priced at ``mul_cycles``), the same
    accumulate chain as the software kernel, plus loads/stores/loop.
    """
    tally = OpTally()
    tally.charge("mul8", limbs * limbs)
    tally.charge("add", limbs * limbs)
    tally.charge("addc", 2 * limbs * limbs)
    tally.charge("load", limbs)  # 64-bit loads, two operands
    tally.charge("store", limbs)
    tally.charge("move", 1)
    tally.charge("cmp", 1)
    tally.charge("branch", 1)
    table = {op: 1.0 for op in ("add", "addc", "load", "store", "move", "cmp", "branch")}
    table["mul8"] = float(mul_cycles)
    return tally.weighted_total(table)


def _run_native_mul_ablation() -> list:
    runtime = PIMRuntime()
    rows = []
    for limbs, width in ((1, 32), (2, 64), (4, 128)):
        software = VecMulKernel(limbs).cycles_per_element()
        native = _native_mul_cycles_per_element(limbs)
        # End-to-end: scale the fig1b point by the cycle ratio, floored
        # by the unchanged DMA roofline.
        n_elements = 20480 * 2 * 4096 // (4 // limbs)
        timing = runtime.time_kernel(
            VecMulKernel(limbs), n_elements, work_units=20480
        )
        software_ms = timing.total_ms
        compute_native = timing.compute_cycles * native / software
        native_ms = (
            max(compute_native, timing.dma_cycles)
            / runtime.config.frequency_hz
            + timing.launch_seconds
        ) * 1e3
        rows.append(
            ExperimentRow(
                label=f"{width}-bit multiply",
                x=width,
                series={
                    "software cycles/elt": software,
                    "native cycles/elt": native,
                    "software ms": software_ms,
                    "native ms": native_ms,
                    "speedup x": software_ms / native_ms,
                },
            )
        )
    return rows


_register(
    Experiment(
        id="abl_native_mul",
        title="Hypothetical native 32-bit multiplier (Key Takeaway 2)",
        paper_ref="Section 4.2, Key Takeaway 2",
        description=(
            "Vector multiplication cost if the DPU had a native 32-bit "
            "multiplier (3-cycle latency) instead of the software "
            "shift-and-add loop — the future-hardware scenario the "
            "paper's Key Takeaway 2 describes."
        ),
        unit="mixed (cycles, ms, ratio)",
        runner=_run_native_mul_ablation,
    )
)


def _run_residency_ablation() -> list:
    resident = PIMBackend()
    streaming = PIMBackend(include_transfer=True)
    rows = []
    for n_ct in (20480, 81920, 327680):
        workload = VectorAddWorkload(security_bits=109, n_ciphertexts=n_ct)
        request = workload.device_requests()[0]
        rows.append(
            ExperimentRow(
                label=f"{n_ct} ciphertexts",
                x=n_ct,
                series={
                    "pim (data resident)": resident.time_op(request).ms,
                    "pim (with host transfers)": streaming.time_op(request).ms,
                },
            )
        )
    return rows


_register(
    Experiment(
        id="abl_residency",
        title="Data residency: PIM kernel vs host<->DPU streaming",
        paper_ref="Section 2 (data-movement motivation)",
        description=(
            "128-bit vector addition with ciphertexts resident in PIM "
            "memory (the paper's deployment model) versus streaming "
            "them from the host per operation — quantifying how much "
            "of the PIM advantage data residency is responsible for."
        ),
        unit="ms",
        runner=_run_residency_ablation,
    )
)


# --------------------------------------------------------------------------
# Extensions beyond the paper (documented in DESIGN.md / EXPERIMENTS.md)
# --------------------------------------------------------------------------


def _run_energy_extension() -> list:
    rows = []
    for title, workload in (
        ("mean, 2560 users", MeanWorkload(n_users=2560)),
        ("variance, 2560 users", VarianceWorkload(n_users=2560)),
        (
            "linear regression, 640 x 32",
            LinearRegressionWorkload(n_users=640, ciphertexts_per_user=32),
        ),
    ):
        series = {
            name: workload_joules(backend, workload)
            for name, backend in _backends().items()
        }
        rows.append(ExperimentRow(label=title, x=len(rows), series=series))
    return rows


_register(
    Experiment(
        id="ext_energy",
        title="Energy per workload (extension)",
        paper_ref="Section 5 motivation (GPU power consumption)",
        description=(
            "First-order energy (active power x modelled time) of the "
            "Figure 2 workloads on each platform. PIM draws power only "
            "on engaged DPUs; the processor-centric platforms burn "
            "their full envelope. Quantifies the paper's Section 5 "
            "remark that GPUs suffer high power for homomorphic "
            "operations."
        ),
        unit="J",
        runner=_run_energy_extension,
    )
)


def _run_ntt_pim_extension() -> list:
    config = PIMRuntime().config
    butterfly = NTTButterflyKernel(find_ntt_prime(30, 4096))
    coefficient_mul = VecMulKernel(4).cycles_per_element()
    rows = []
    for n in (1024, 2048, 4096):
        # The 109-bit modulus runs as 4 RNS residues of <=30-bit primes.
        ntt_cycles = ntt_polynomial_mult_cycles(n, 4, butterfly)
        school_cycles = schoolbook_polynomial_mult_cycles(n, coefficient_mul)
        rows.append(
            ExperimentRow(
                label=f"n = {n} polynomial product",
                x=n,
                series={
                    "schoolbook Mcycles": school_cycles / 1e6,
                    "ntt Mcycles": ntt_cycles / 1e6,
                    "ntt speedup x": school_cycles / ntt_cycles,
                    "ntt ms (1 DPU, 16 tasklets)": ntt_cycles
                    / config.frequency_hz
                    * 1e3,
                },
            )
        )
    return rows


_register(
    Experiment(
        id="ext_ntt_pim",
        title="NTT-on-PIM: the paper's deferred optimization (extension)",
        paper_ref="Section 3 ('We leave them for future work')",
        description=(
            "Cycles for one full 109-bit polynomial product on the DPU "
            "model, schoolbook O(n^2) versus an RNS bundle of "
            "negacyclic NTTs built from the same software 32-bit "
            "multiply. Quantifies what implementing NTT on the PIM "
            "device would buy."
        ),
        unit="mixed (Mcycles, ms, ratio)",
        runner=_run_ntt_pim_extension,
    )
)


def _run_covariance_extension() -> list:
    return [
        ExperimentRow(
            label=f"{users} users",
            x=users,
            series=_times_ms(CovarianceWorkload(n_users=users)),
        )
        for users in FIG2B_USERS
    ]


_register(
    Experiment(
        id="ext_covariance",
        title="Covariance workload (extension)",
        paper_ref="beyond the paper (mean/variance companion)",
        description=(
            "Encrypted covariance of two per-user series: one cross "
            "tensor product per user plus three accumulations. "
            "Structurally a variance with a cross product, so it "
            "inherits the paper's multiplication story."
        ),
        unit="ms",
        runner=_run_covariance_extension,
    )
)


def _run_op_breakdown_extension() -> list:
    kernels = (
        ("vec_add 128-bit", VecAddKernel(4, modulus_for_width(128))),
        ("reduce_sum 128-bit", ReduceSumKernel(4, modulus_for_width(128))),
        ("vec_mul 32-bit", VecMulKernel(1)),
        ("vec_mul 128-bit", VecMulKernel(4)),
        ("tensor_mul 128-bit", TensorMulKernel(4)),
        ("ntt_butterfly 30-bit", NTTButterflyKernel(find_ntt_prime(30, 4096))),
    )
    rows = []
    for index, (label, kernel) in enumerate(kernels):
        breakdown = kernel_cycle_breakdown(kernel)
        rows.append(
            ExperimentRow(
                label=label,
                x=index,
                series={
                    f"{name} %": 100.0 * fraction
                    for name, fraction in breakdown.items()
                },
                extra={"cycles_per_element": kernel.cycles_per_element()},
            )
        )
    return rows


_register(
    Experiment(
        id="ext_op_breakdown",
        title="Where the DPU cycles go, per kernel (extension)",
        paper_ref="Section 4.2, Key Takeaway 2 (quantified)",
        description=(
            "Cycle share per instruction class for every device "
            "kernel, measured from executed operation tallies. The "
            "multiply kernels spend nearly everything in the software "
            "shift-and-add loop's shifts/logic/control; the addition "
            "kernels are balanced between memory and the carry chain."
        ),
        unit="% of kernel cycles",
        runner=_run_op_breakdown_extension,
    )
)


def _native_mul_vecmul_ms(mul_cycles: int, n_ct: int = 20480) -> float:
    """Fig1b-shaped 128-bit vector multiply with an N-cycle native
    32x32 multiplier replacing the software loop."""
    runtime = PIMRuntime()
    kernel = VecMulKernel(4)
    n_elements = n_ct * 2 * 4096
    timing = runtime.time_kernel(kernel, n_elements, work_units=n_ct)
    native_cpe = _native_mul_cycles_per_element(4, mul_cycles)
    compute = timing.compute_cycles * native_cpe / kernel.cycles_per_element()
    seconds = (
        max(compute, timing.dma_cycles) / runtime.config.frequency_hz
        + timing.launch_seconds
    )
    return seconds * 1e3


def _run_mul_threshold_extension() -> list:
    gpu_ms = (
        _backends()["gpu"]
        .time_op(
            OpRequest(
                op="vec_mul",
                width_bits=128,
                n_elements=20480 * 2 * 4096,
                work_units=20480,
            )
        )
        .seconds
        * 1e3
    )
    rows = []
    for mul_cycles in (1, 3, 6, 12, 24, 48, 96, 200):
        pim_ms = _native_mul_vecmul_ms(mul_cycles)
        rows.append(
            ExperimentRow(
                label=f"{mul_cycles}-cycle 32-bit multiply",
                x=mul_cycles,
                series={
                    "pim ms": pim_ms,
                    "gpu ms": gpu_ms,
                    "pim/gpu": pim_ms / gpu_ms,
                },
            )
        )
    # Reference row: today's hardware (software Karatsuba loop).
    runtime = PIMRuntime()
    software_ms = (
        runtime.time_kernel(
            VecMulKernel(4), 20480 * 2 * 4096, work_units=20480
        ).total_seconds
        * 1e3
    )
    rows.append(
        ExperimentRow(
            label="software shift-and-add (today)",
            x=500,
            series={
                "pim ms": software_ms,
                "gpu ms": gpu_ms,
                "pim/gpu": software_ms / gpu_ms,
            },
        )
    )
    return rows


_register(
    Experiment(
        id="ext_mul_threshold",
        title="How fast must a native multiplier be? (extension)",
        paper_ref="Section 4.2, Key Takeaway 2 ('could potentially outperform')",
        description=(
            "Figure 1(b)-shaped 128-bit vector multiplication with the "
            "software shift-and-add loop replaced by an N-cycle native "
            "32-bit multiplier (schoolbook over limbs), swept over N. "
            "Locates the multiplier latency below which the PIM system "
            "overtakes the A100 — Key Takeaway 2's 'could potentially "
            "outperform' as a concrete hardware requirement. The last "
            "row is today's hardware (software Karatsuba loop)."
        ),
        unit="mixed (ms, ratio)",
        runner=_run_mul_threshold_extension,
    )
)


def _run_sim_validation_extension() -> list:
    config = PIMRuntime().config
    cases = (
        ("vec_add 128-bit", VecAddKernel(4, modulus_for_width(128)), 4096),
        ("vec_mul 128-bit", VecMulKernel(4), 512),
        ("tensor_mul 128-bit", TensorMulKernel(4), 256),
        ("reduce_sum 128-bit", ReduceSumKernel(4, modulus_for_width(128)), 4096),
    )
    rows = []
    for index, (label, kernel, n_elements) in enumerate(cases):
        for tasklets in (4, 16):
            sim = simulate_kernel(kernel, n_elements, tasklets, config)
            cpe = kernel.cycles_per_element()
            compute = pipeline_cycles(
                [round(share * cpe) for share in split_evenly(n_elements, tasklets)],
                config.pipeline_revolve_cycles,
            )
            dma = dma_cycles(
                n_elements * kernel.mram_bytes_per_element(), config
            )
            analytic = max(compute, dma)
            rows.append(
                ExperimentRow(
                    label=f"{label}, {tasklets} tasklets",
                    x=index * 100 + tasklets,
                    series={
                        "simulated cycles": float(sim.cycles),
                        "analytic cycles": float(analytic),
                        "error %": 100.0 * (sim.cycles - analytic) / analytic,
                        "issue util %": 100.0 * sim.issue_utilization,
                        "dma util %": 100.0 * sim.dma_utilization,
                    },
                )
            )
    return rows


_register(
    Experiment(
        id="ext_sim_validation",
        title="Analytic model vs cycle-level simulation (extension)",
        paper_ref="methodology validation (DESIGN.md Section 5)",
        description=(
            "Every kernel's analytic time — max(pipeline bound, DMA "
            "bound) — checked against an event-driven simulation of "
            "tasklet interleaving and DMA blocking on one DPU. Errors "
            "within a few percent justify using the closed forms at "
            "paper scale."
        ),
        unit="mixed (cycles, %)",
        runner=_run_sim_validation_extension,
    )
)


def _run_seal_crossover_extension() -> list:
    """PIM-vs-SEAL multiplication ratio across container widths, plus
    the bisected native-multiplier break-even against the GPU."""
    backends = _backends()
    rows = []
    for width, n in ((32, 1024), (64, 2048), (128, 4096)):
        request = OpRequest(
            op="vec_mul",
            width_bits=width,
            n_elements=20480 * 2 * n,
            work_units=20480,
        )
        pim_ms = backends["pim"].time_op(request).ms
        seal_ms = backends["cpu-seal"].time_op(request).ms
        rows.append(
            ExperimentRow(
                label=f"{width}-bit multiplication",
                x=width,
                series={
                    "pim ms": pim_ms,
                    "cpu-seal ms": seal_ms,
                    "pim/seal": pim_ms / seal_ms,
                },
            )
        )
    # Where must the native multiplier land for PIM==GPU at 128-bit?
    gpu_ms = (
        backends["gpu"]
        .time_op(
            OpRequest(
                op="vec_mul",
                width_bits=128,
                n_elements=20480 * 2 * 4096,
                work_units=20480,
            )
        )
        .ms
    )
    threshold = bisect_crossover(
        ratio_metric(
            lambda c: _native_mul_vecmul_ms(max(1, round(c))),
            lambda c: gpu_ms,
        ),
        low=1,
        high=200,
        tolerance=0.5,
    )
    rows.append(
        ExperimentRow(
            label="native-mul break-even vs GPU (128-bit)",
            x=0,
            series={"multiplier cycles": threshold},
        )
    )
    return rows


_register(
    Experiment(
        id="ext_seal_crossover",
        title="Crossovers: PIM vs SEAL by width; multiplier break-even",
        paper_ref="Section 4.2 (32-bit: PIM 2x faster; 64/128-bit: slower)",
        description=(
            "The PIM/SEAL multiplication ratio across the paper's "
            "container widths — the crossover sits between 32 and 64 "
            "bits, exactly where the paper measures it — plus the "
            "bisected native 32-bit-multiplier latency at which PIM "
            "would match the A100 on Figure 1(b)."
        ),
        unit="mixed (ms, ratio, cycles)",
        runner=_run_seal_crossover_extension,
    )
)


def _run_capacity_scaling() -> list:
    """Key Takeaway 3: performance scales with memory capacity."""
    base = UPMEMConfig()
    workload = VarianceWorkload(n_users=10240)  # loads even the 2x system
    rows = []
    for factor in (0.25, 0.5, 1.0, 2.0):
        n_dpus = max(1, round(base.n_dpus * factor))
        config = UPMEMConfig(n_dpus=n_dpus)
        backend = PIMBackend(runtime=PIMRuntime(config=config))
        seconds = workload.time_on(backend)
        rows.append(
            ExperimentRow(
                label=f"{n_dpus} DPUs "
                f"({config.total_pim_memory_bytes / 2**30:.0f} GiB)",
                x=n_dpus,
                series={
                    "pim ms": seconds * 1e3,
                    "memory GiB": config.total_pim_memory_bytes / 2**30,
                    "throughput users/s": workload.n_users / seconds,
                },
            )
        )
    return rows


_register(
    Experiment(
        id="kt3_capacity",
        title="Memory-capacity-proportional performance (Key Takeaway 3)",
        paper_ref="Section 4.3, Key Takeaway 3",
        description=(
            "The variance workload (10,240 users) on PIM systems of "
            "1/4x to 2x the paper's size: 'the computational power of "
            "PIM scales with memory capacity via the addition of more "
            "memory banks and corresponding PIM cores'. Throughput "
            "doubles with every doubling of installed memory."
        ),
        unit="mixed (ms, GiB, users/s)",
        runner=_run_capacity_scaling,
    )
)


def _host_decrypt_ms(n_results: int = 1) -> float:
    """Client-side decryption cost: one NTT-form inner product plus
    rounding per result ciphertext — SEAL-like native-word work on the
    client CPU (paper deployment: clients decrypt)."""
    spec = SEALSpec()
    n = 4096
    cycles = n_results * n * spec.rns_limbs(128) * 30.0
    return cycles / spec.all_core_hz * 1e3


def _run_end_to_end_extension() -> list:
    """Fig2-style workloads including result retrieval and host finish.

    The paper's times are device portions; this extension adds what the
    deployment pays around them: pulling result ciphertexts back to the
    client and decrypting. For the GPU the *input* ciphertexts must
    also cross PCIe each run (they live in host DRAM between runs); the
    PIM system's inputs are resident by design (Section 2).
    """
    backends = _backends()
    transfer = TransferModel(PIMRuntime().config)
    pcie = GPUSpec().pcie_bytes_per_s
    ct_bytes = 2 * 4096 * 16  # one size-2 ciphertext, 128-bit containers
    rows = []
    for title, workload, result_cts in (
        ("mean, 2560 users", MeanWorkload(n_users=2560), 1),
        ("variance, 2560 users", VarianceWorkload(n_users=2560), 1),
    ):
        users = workload.n_users
        series = {}
        for name, backend in backends.items():
            device_ms = workload.time_on(backend) * 1e3
            host_ms = _host_decrypt_ms(result_cts)
            if name == "pim":
                retrieve_ms = (
                    transfer.dpu_to_host_seconds(result_cts * ct_bytes, 1)
                    * 1e3
                )
                total = device_ms + retrieve_ms + host_ms
            elif name == "gpu":
                upload_ms = users * ct_bytes / pcie * 1e3
                retrieve_ms = result_cts * ct_bytes / pcie * 1e3
                total = device_ms + upload_ms + retrieve_ms + host_ms
            else:
                total = device_ms + host_ms  # data already in host DRAM
            series[name] = total
        rows.append(ExperimentRow(label=title, x=len(rows), series=series))
    return rows


_register(
    Experiment(
        id="ext_end_to_end",
        title="End-to-end deployment view (extension)",
        paper_ref="Section 2 deployment model + Figure 2",
        description=(
            "Figure 2 workloads including result retrieval and client "
            "decryption, with GPU inputs crossing PCIe per run while "
            "PIM inputs stay resident (the paper's deployment premise). "
            "The device-resident advantage compounds PIM's addition win "
            "and softens its multiplication loss."
        ),
        unit="ms (end to end)",
        runner=_run_end_to_end_extension,
    )
)
