"""Pipeline profiler: tasklet occupancy, DMA contention, attribution.

The analytic runtime prices every kernel with two closed forms — the
pipeline bound ``max(total_instructions, revolve * slowest_tasklet)``
and the DMA streaming cost — and the cycle-level simulator
(:mod:`repro.pim.sim`) validates their *combination*. This module turns
the simulator's event trace into the evidence behind those numbers:

* **per-tasklet occupancy** — issue-slot utilization with every stall
  cycle attributed (DMA-blocked, revolve-stalled, dispatch-wait, idle);
* **DMA-engine contention** — busy fraction, per-transfer queue-wait
  distribution on the shared engine;
* **load balance** — per-DPU element shares across the engaged ranks
  for a full-system invocation;
* **bottleneck attribution** — a verdict per kernel (pipeline-bound,
  DMA-bound, or dispatch-starved) cross-checked against the analytic
  bound. Disagreement beyond the tolerance is a *model bug* and raises
  :class:`~repro.errors.ModelValidationError` — the profiler is the
  referee between the closed forms and the simulation, not a third
  opinion.

Entry points: :func:`profile_kernel` (simulate one DPU running a
kernel), :func:`profile_experiment` (re-simulate every distinct kernel
invocation a traced experiment performed), and
:func:`render_profiles_text` for the CLI tables. ``repro profile``
drives all three; :mod:`repro.obs.htmlreport` renders the same
profiles as occupancy bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.backends.pim import modulus_for_width
from repro.errors import ModelValidationError, ParameterError
from repro.harness.runner import trace_experiment
from repro.pim.config import UPMEMConfig
from repro.pim.kernels import (
    ReduceSumKernel,
    TensorMulKernel,
    VecAddKernel,
    VecMulKernel,
)
from repro.pim.runtime import LoadBalance
from repro.pim.sim import (
    DMA,
    DPUSimulator,
    SimTrace,
    _kernel_out_bytes,
    streaming_programs,
)
from repro.pim.tasklet import pipeline_cycles

__all__ = [
    "VERDICT_PIPELINE_BOUND",
    "VERDICT_DMA_BOUND",
    "VERDICT_DISPATCH_STARVED",
    "DEFAULT_TOLERANCE",
    "TaskletOccupancy",
    "DMAEngineProfile",
    "KernelProfile",
    "classify_bottleneck",
    "profile_programs",
    "profile_kernel",
    "profile_experiment",
    "kernel_from_spec",
    "render_profile_text",
    "render_profiles_text",
]

#: The dispatcher's issue slot is the limit: the pipeline retires one
#: instruction per cycle and more tasklets cannot help.
VERDICT_PIPELINE_BOUND = "pipeline-bound"
#: The shared MRAM<->WRAM engine is the limit: compute hides behind
#: transfers, not the other way around.
VERDICT_DMA_BOUND = "dma-bound"
#: Too few tasklets to cover the revolve period: the dispatcher idles
#: while every tasklet waits out its revolve constraint.
VERDICT_DISPATCH_STARVED = "dispatch-starved"

#: Default relative tolerance for the sim-vs-analytic cross-check.
#: Compute-bound kernels agree to ~1%; DMA-heavy ones see a few percent
#: of imperfect overlap (see tests/pim/test_sim.py).
DEFAULT_TOLERANCE = 0.15

#: Queue-wait histogram bucket upper bounds, in cycles.
QUEUE_WAIT_BUCKETS = (0.0, 10.0, 100.0, 1000.0, 10000.0)


@dataclass(frozen=True)
class TaskletOccupancy:
    """One tasklet's cycle accounting over a simulated run."""

    tasklet: int
    instructions: int
    dma_blocked_cycles: float
    revolve_stall_cycles: float
    dispatch_wait_cycles: float
    idle_cycles: float
    total_cycles: int

    @property
    def occupancy(self) -> float:
        """Fraction of all cycles in which this tasklet issued."""
        return self.instructions / self.total_cycles if self.total_cycles else 0.0

    def as_dict(self) -> dict:
        return {
            "tasklet": self.tasklet,
            "instructions": self.instructions,
            "occupancy": self.occupancy,
            "dma_blocked_cycles": self.dma_blocked_cycles,
            "revolve_stall_cycles": self.revolve_stall_cycles,
            "dispatch_wait_cycles": self.dispatch_wait_cycles,
            "idle_cycles": self.idle_cycles,
        }


@dataclass(frozen=True)
class DMAEngineProfile:
    """The shared DMA engine's utilization and queueing behaviour."""

    busy_cycles: float
    total_cycles: int
    n_transfers: int
    bytes_moved: int
    queue_waits: tuple  # per-transfer wait, cycles, issue order

    @property
    def busy_fraction(self) -> float:
        return self.busy_cycles / self.total_cycles if self.total_cycles else 0.0

    @property
    def total_queue_wait(self) -> float:
        return sum(self.queue_waits)

    @property
    def mean_queue_wait(self) -> float:
        return (
            self.total_queue_wait / len(self.queue_waits)
            if self.queue_waits
            else 0.0
        )

    @property
    def max_queue_wait(self) -> float:
        return max(self.queue_waits, default=0.0)

    def wait_histogram(self, buckets=QUEUE_WAIT_BUCKETS) -> list:
        """Queue waits bucketed as ``[(label, count), ...]``.

        Buckets are upper bounds (inclusive); a final ``> last`` bucket
        catches the tail.
        """
        bounds = sorted(buckets)
        counts = [0] * (len(bounds) + 1)
        for wait in self.queue_waits:
            for index, bound in enumerate(bounds):
                if wait <= bound:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
        labels = [f"<= {bound:g}" for bound in bounds]
        labels.append(f"> {bounds[-1]:g}" if bounds else "all")
        return list(zip(labels, counts))


@dataclass(frozen=True)
class KernelProfile:
    """Everything the profiler derived about one kernel invocation."""

    label: str
    kernel_name: str
    n_elements: int  # elements simulated on the profiled DPU
    tasklets: int
    simulated_cycles: int
    instructions_issued: int
    analytic_compute_cycles: float
    analytic_dma_cycles: float
    verdict: str
    model_error: float  # (simulated - analytic) / analytic
    occupancy: tuple  # TaskletOccupancy, one per tasklet
    dma: DMAEngineProfile
    trace: SimTrace = field(repr=False)
    load: LoadBalance | None = None
    full_elements: int | None = None  # pre-subsampling per-DPU share
    invocations: int = 1  # identical launches observed in the trace

    @property
    def analytic_cycles(self) -> float:
        """The closed-form prediction: ``max(compute, dma)``."""
        return max(self.analytic_compute_cycles, self.analytic_dma_cycles)

    @property
    def issue_utilization(self) -> float:
        """Fraction of cycles in which the dispatcher issued at all."""
        return (
            self.instructions_issued / self.simulated_cycles
            if self.simulated_cycles
            else 0.0
        )

    @property
    def subsampled(self) -> bool:
        return (
            self.full_elements is not None
            and self.full_elements != self.n_elements
        )


def classify_bottleneck(
    per_tasklet_instructions, revolve_cycles: int, analytic_dma: float
) -> str:
    """Name the binding constraint of a simulated kernel.

    DMA wins when its serialized engine time meets or exceeds the
    pipeline bound. Otherwise the pipeline bound itself splits: if the
    dispatch-limited term (total instructions) dominates, the kernel is
    genuinely pipeline-bound; if the revolve-limited term dominates,
    the dispatcher sits idle waiting for eligible tasklets —
    dispatch-starved, the "fewer than 11 tasklets" regime of the
    paper's Observation 1.
    """
    counts = [int(c) for c in per_tasklet_instructions]
    if not counts:
        raise ParameterError("at least one tasklet is required")
    compute = pipeline_cycles(counts, revolve_cycles)
    if analytic_dma >= compute:
        return VERDICT_DMA_BOUND
    if sum(counts) >= revolve_cycles * max(counts):
        return VERDICT_PIPELINE_BOUND
    return VERDICT_DISPATCH_STARVED


def _analytic_dma_cycles(programs, config: UPMEMConfig) -> float:
    """The serialized engine time of every DMA phase, closed-form.

    Exactly what the simulated engine charges (fixed cost + streaming
    term per phase), summed — transfers on one DPU's engine never
    overlap each other.
    """
    total = 0.0
    for program in programs:
        for phase in program.phases:
            if phase.kind == DMA:
                total += (
                    config.dma_fixed_cycles
                    + phase.amount * config.dma_cycles_per_byte
                )
    return total


def profile_programs(
    programs,
    config: UPMEMConfig | None = None,
    label: str = "programs",
    kernel_name: str = "programs",
    n_elements: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    check: bool = True,
    load: LoadBalance | None = None,
) -> KernelProfile:
    """Simulate tasklet programs under a trace and profile the run.

    With ``check`` (the default) the simulated cycle total is compared
    against the analytic ``max(pipeline bound, DMA bound)``; relative
    disagreement beyond ``tolerance`` raises
    :class:`~repro.errors.ModelValidationError`. Pass ``check=False``
    only for deliberately adversarial programs outside the streaming
    shape the closed forms model.
    """
    if tolerance <= 0:
        raise ParameterError(f"tolerance must be positive: {tolerance}")
    config = config if config is not None else UPMEMConfig()
    programs = list(programs)
    trace = SimTrace()
    result = DPUSimulator(config).run(programs, trace=trace)

    revolve = config.pipeline_revolve_cycles
    instructions = [p.total_instructions for p in programs]
    compute_bound = float(pipeline_cycles(instructions, revolve))
    dma_bound = _analytic_dma_cycles(programs, config)
    analytic = max(compute_bound, dma_bound)
    error = (
        (result.cycles - analytic) / analytic if analytic else 0.0
    )
    if check and abs(error) > tolerance:
        raise ModelValidationError(
            f"{label}: simulated {result.cycles} cycles disagrees with "
            f"the analytic bound max(compute={compute_bound:.0f}, "
            f"dma={dma_bound:.0f}) = {analytic:.0f} by "
            f"{error * 100:+.1f}% (tolerance {tolerance * 100:.0f}%) — "
            "the pipeline model and the simulator cannot both be right"
        )
    verdict = classify_bottleneck(instructions, revolve, dma_bound)

    activity = trace.tasklet_activity(revolve, result.cycles)
    occupancy = tuple(
        TaskletOccupancy(
            tasklet=tasklet,
            instructions=stats["issue"],
            dma_blocked_cycles=stats["dma_blocked"],
            revolve_stall_cycles=stats["revolve_stall"],
            dispatch_wait_cycles=stats["dispatch_wait"],
            idle_cycles=stats["idle"],
            total_cycles=result.cycles,
        )
        for tasklet, stats in sorted(activity.items())
    )
    dma_profile = DMAEngineProfile(
        busy_cycles=result.dma_busy_cycles,
        total_cycles=result.cycles,
        n_transfers=len(trace.dmas),
        bytes_moved=sum(n for *_rest, n in trace.dmas),
        queue_waits=tuple(trace.queue_waits()),
    )
    return KernelProfile(
        label=label,
        kernel_name=kernel_name,
        n_elements=n_elements,
        tasklets=len(programs),
        simulated_cycles=result.cycles,
        instructions_issued=result.instructions_issued,
        analytic_compute_cycles=compute_bound,
        analytic_dma_cycles=dma_bound,
        verdict=verdict,
        model_error=error,
        occupancy=occupancy,
        dma=dma_profile,
        trace=trace,
        load=load,
    )


def profile_kernel(
    kernel,
    n_elements: int = 256,
    tasklets: int = 16,
    config: UPMEMConfig | None = None,
    block_elements: int = 64,
    tolerance: float = DEFAULT_TOLERANCE,
    work_units: int | None = None,
) -> KernelProfile:
    """Profile one device kernel streaming ``n_elements`` on one DPU.

    Uses the same measured ``cycles_per_element`` and memory layout the
    analytic model prices, so the verdict and the cross-check speak
    about the production cost model, not a synthetic stand-in. Pass
    ``work_units`` to additionally report the full-system load balance
    of an invocation carrying that many indivisible units.
    """
    if n_elements <= 0:
        raise ParameterError(f"n_elements must be positive: {n_elements}")
    if tasklets <= 0:
        raise ParameterError(f"tasklets must be positive: {tasklets}")
    config = config if config is not None else UPMEMConfig()
    out_bytes = _kernel_out_bytes(kernel)
    in_bytes = kernel.mram_bytes_per_element() - out_bytes
    programs = streaming_programs(
        n_elements,
        tasklets,
        kernel.cycles_per_element(),
        in_bytes,
        out_bytes,
        block_elements,
    )
    load = None
    if work_units is not None:
        dpus = min(config.n_dpus, work_units)
        load = LoadBalance.from_distribution(
            n_elements, work_units, dpus, config
        )
    return profile_programs(
        programs,
        config=config,
        label=f"{kernel.name} ({kernel.limbs * 32}-bit)",
        kernel_name=kernel.name,
        n_elements=n_elements,
        tolerance=tolerance,
        load=load,
    )


#: Kernel specs ``repro profile`` accepts: name -> constructor taking
#: (limbs). Moduli come from the same helper the experiments use.
_KERNEL_SPECS = ("vec_add", "vec_mul", "tensor_mul", "reduce_sum")


def kernel_from_spec(spec: str):
    """Build a kernel from a CLI spec like ``vec_mul:128``.

    The spec is ``<kernel>[:<width-bits>]`` with a 128-bit default —
    the paper's headline container width. Unknown names or widths
    raise :class:`~repro.errors.ParameterError`.
    """
    name, _, width_text = spec.partition(":")
    width_text = width_text or "128"
    try:
        width = int(width_text)
    except ValueError:
        raise ParameterError(
            f"bad kernel width {width_text!r} in spec {spec!r}"
        ) from None
    if width <= 0 or width % 32:
        raise ParameterError(
            f"kernel width must be a positive multiple of 32: {width}"
        )
    limbs = width // 32
    if name == "vec_add":
        return VecAddKernel(limbs, modulus_for_width(width))
    if name == "vec_mul":
        return VecMulKernel(limbs)
    if name == "tensor_mul":
        return TensorMulKernel(limbs)
    if name == "reduce_sum":
        return ReduceSumKernel(limbs, modulus_for_width(width))
    raise ParameterError(
        f"unknown kernel {name!r}; expected one of {', '.join(_KERNEL_SPECS)}"
    )


def profile_experiment(
    experiment_id: str,
    config: UPMEMConfig | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_elements: int = 256,
    block_elements: int = 64,
) -> tuple:
    """Trace one experiment, then profile every distinct kernel launch.

    Runs the experiment under a recording tracer, collects each
    ``pim.time_kernel.*`` span, and re-simulates every *distinct*
    invocation shape (kernel, per-DPU share, tasklets) on one DPU.
    Per-DPU shares larger than ``max_elements`` are subsampled to keep
    the cycle-level simulation tractable — occupancy and the verdict
    are share-invariant for streaming kernels, and the profile records
    both the simulated and the full share.

    Returns ``(spans, profiles)`` — the spans so callers can merge the
    host timeline with the simulated device lanes in one Chrome trace.
    """
    if max_elements <= 0:
        raise ParameterError(f"max_elements must be positive: {max_elements}")
    config = config if config is not None else UPMEMConfig()
    _rows, spans = trace_experiment(experiment_id)

    invocations: dict = {}
    for span in spans:
        if not span.name.startswith("pim.time_kernel."):
            continue
        attrs = span.attrs
        required = (
            "kernel",
            "elements_per_dpu",
            "tasklets_per_dpu",
            "cycles_per_element",
            "mram_bytes_per_element",
            "output_bytes_per_element",
        )
        if any(attrs.get(key) in (None, 0) and key != "output_bytes_per_element"
               for key in required):
            continue  # pre-enrichment span: not enough shape to re-simulate
        key = tuple(attrs[k] for k in required) + (
            attrs.get("n_elements"),
            attrs.get("dpus_used"),
            attrs.get("work_units"),
        )
        invocations[key] = invocations.get(key, 0) + 1

    profiles = []
    for key, count in invocations.items():
        (
            kernel_name,
            elements_per_dpu,
            tasklets,
            cpe,
            mram_bytes,
            out_bytes,
            total_elements,
            dpus_used,
            work_units,
        ) = key
        simulated = min(int(elements_per_dpu), max_elements)
        programs = streaming_programs(
            simulated,
            int(tasklets),
            float(cpe),
            int(mram_bytes) - int(out_bytes),
            int(out_bytes),
            block_elements,
        )
        load = None
        if total_elements and work_units and dpus_used:
            load = LoadBalance.from_distribution(
                int(total_elements), int(work_units), int(dpus_used), config
            )
        profile = profile_programs(
            programs,
            config=config,
            label=(
                f"{kernel_name} x{count} ({elements_per_dpu} elements/DPU"
                + (f", {simulated} simulated" if simulated != elements_per_dpu else "")
                + f", {tasklets} tasklets)"
            ),
            kernel_name=str(kernel_name),
            n_elements=simulated,
            tolerance=tolerance,
            load=load,
        )
        profiles.append(
            replace(
                profile,
                full_elements=int(elements_per_dpu),
                invocations=count,
            )
        )
    profiles.sort(key=lambda p: (p.kernel_name, p.tasklets, p.n_elements))
    return spans, profiles


# -- text rendering ---------------------------------------------------------


def _pct(fraction: float) -> str:
    return f"{fraction * 100:.1f}%"


def render_profile_text(profile: KernelProfile) -> str:
    """One profile as an aligned terminal report."""
    lines = [f"profile: {profile.label}"]
    if profile.invocations > 1:
        lines[-1] += f"  [seen {profile.invocations}x in the trace]"
    lines.append(
        f"  verdict: {profile.verdict}  |  simulated "
        f"{profile.simulated_cycles} cycles vs analytic "
        f"max(compute={profile.analytic_compute_cycles:.0f}, "
        f"dma={profile.analytic_dma_cycles:.0f}) = "
        f"{profile.analytic_cycles:.0f}  "
        f"(error {profile.model_error * 100:+.2f}%)"
    )
    lines.append(
        f"  pipeline: {profile.tasklets} tasklets, issue utilization "
        f"{_pct(profile.issue_utilization)} "
        f"({profile.instructions_issued} instructions / "
        f"{profile.simulated_cycles} cycles)"
    )
    dma = profile.dma
    lines.append(
        f"  dma engine: busy {_pct(dma.busy_fraction)}, "
        f"{dma.n_transfers} transfers, {dma.bytes_moved} bytes; "
        f"queue wait mean {dma.mean_queue_wait:.1f} / "
        f"max {dma.max_queue_wait:.1f} cycles"
    )
    if dma.queue_waits:
        histogram = "  ".join(
            f"{label}: {count}"
            for label, count in dma.wait_histogram()
            if count
        )
        lines.append(f"  queue-wait histogram [cycles]: {histogram}")
    if profile.load is not None:
        load = profile.load
        lines.append(
            f"  load balance: {load.dpus_engaged} DPUs over "
            f"{load.ranks_engaged} ranks ({load.idle_dpus} idle); "
            f"elements/DPU min {load.min_elements} / mean "
            f"{load.mean_elements:.1f} / max {load.max_elements} "
            f"(imbalance x{load.imbalance:.2f})"
        )
    header = (
        "  tasklet",
        "instr",
        "occupancy",
        "dma-wait",
        "revolve",
        "dispatch",
        "idle",
    )
    rows = [header]
    for occ in profile.occupancy:
        rows.append(
            (
                f"  t{occ.tasklet}",
                str(occ.instructions),
                _pct(occ.occupancy),
                f"{occ.dma_blocked_cycles:.0f}",
                f"{occ.revolve_stall_cycles:.0f}",
                f"{occ.dispatch_wait_cycles:.0f}",
                f"{occ.idle_cycles:.0f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        lines.append(
            "  ".join(
                cell.ljust(w) if i == 0 else cell.rjust(w)
                for i, (cell, w) in enumerate(zip(row, widths))
            )
        )
    return "\n".join(lines)


def render_profiles_text(profiles, header: str | None = None) -> str:
    """Several profiles as one report, blank-line separated."""
    profiles = list(profiles)
    parts = []
    if header:
        parts.append(header)
    if not profiles:
        parts.append("(no PIM kernel launches to profile)")
    parts.extend(render_profile_text(p) for p in profiles)
    return "\n\n".join(parts)
