"""PIM runtime: work distribution and end-to-end kernel timing.

Ties the pieces together: given a kernel and a workload size, the
runtime decides how many DPUs participate, splits elements across
tasklets, prices compute (pipeline model) and MRAM traffic (DMA model),
applies the launch overhead, and optionally adds host<->DPU transfers.

Work distribution follows the paper's strategy (Section 4.3,
Observation 4): work is assigned at the granularity of indivisible
*work units* (ciphertexts, or users' ciphertext bundles), "dynamically
adjusting the utilization of PIM cores" — a workload with 640 units
engages 640 DPUs, one with 2,560 engages min(2560, 2524). Because each
DPU's share then stays constant as units grow (until the system is
full), PIM execution time stays flat while CPU/GPU times grow — exactly
the behaviour Figure 2 reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.errors import ParameterError, PermanentDeviceError
from repro.obs.energy import kernel_energy
from repro.obs.instrument import record_fault_metrics
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.pim.config import UPMEMConfig
from repro.pim.dma import dma_cycles
from repro.pim.faults import (
    DEFAULT_RETRY_POLICY,
    OUTCOME_OK,
    OUTCOME_TRANSIENT,
    DegradedRunReport,
    FaultPlan,
    RetryPolicy,
    get_active_plan,
    get_active_policy,
)
from repro.pim.kernels.base import Kernel, result_bytes
from repro.pim.tasklet import effective_tasklets, pipeline_cycles, split_evenly
from repro.pim.transfer import TransferModel

#: Default tasklets launched per DPU. Any value >= 11 saturates the
#: pipeline (see :mod:`repro.pim.tasklet`); 16 matches common UPMEM
#: practice (power of two, comfortably above the revolve depth).
DEFAULT_TASKLETS = 16


@dataclass(frozen=True)
class LoadBalance:
    """Per-DPU element distribution of one full-system invocation."""

    dpus_engaged: int
    idle_dpus: int
    ranks_engaged: int
    min_elements: int
    max_elements: int
    mean_elements: float

    @property
    def imbalance(self) -> float:
        """Slowest DPU's share over the mean (1.0 = perfectly even)."""
        return (
            self.max_elements / self.mean_elements
            if self.mean_elements
            else 1.0
        )

    @classmethod
    def from_distribution(
        cls,
        n_elements: int,
        work_units: int,
        dpus: int,
        config: UPMEMConfig,
    ) -> "LoadBalance":
        """The runtime's unit-granular distribution, summarized.

        Work is assigned in indivisible units (paper Section 4.3); each
        engaged DPU receives ``split_evenly`` units of
        ``ceil(n_elements / work_units)`` elements each.
        """
        if work_units <= 0 or n_elements <= 0:
            raise ParameterError(
                "need positive n_elements and work_units for load stats"
            )
        if dpus <= 0:
            raise ParameterError(f"dpus must be positive: {dpus}")
        elements_per_unit = math.ceil(n_elements / work_units)
        shares = [
            units * elements_per_unit
            for units in split_evenly(work_units, dpus)
        ]
        return cls(
            dpus_engaged=dpus,
            idle_dpus=max(0, config.n_dpus - dpus),
            ranks_engaged=math.ceil(dpus / config.dpus_per_rank),
            min_elements=min(shares),
            max_elements=max(shares),
            mean_elements=sum(shares) / len(shares),
        )


@dataclass(frozen=True)
class KernelTiming:
    """Timing breakdown of one modelled kernel invocation."""

    kernel_name: str
    n_elements: int
    dpus_used: int
    tasklets_per_dpu: int
    cycles_per_element: float
    compute_cycles: float  # per participating DPU (the slowest one)
    dma_cycles: float  # per participating DPU
    kernel_seconds: float  # max(compute, dma) / frequency
    launch_seconds: float
    host_to_dpu_seconds: float = 0.0
    dpu_to_host_seconds: float = 0.0
    # Invocation shape, carried so a trace record alone is enough to
    # re-simulate the kernel (repro.obs.profile does exactly that).
    work_units: int = 0
    elements_per_dpu: int = 0
    mram_bytes_per_element: int = 0
    output_bytes_per_element: int = 0
    # Fault-layer accounting (all zero on the fault-free path, which
    # keeps modelled times — and the MODEL-DRIFT gate — untouched).
    retries: int = 0
    fault_seconds: float = 0.0  # backoff + wasted launches + checksums
    dpus_disabled: int = 0
    faults: DegradedRunReport | None = None

    @property
    def total_seconds(self) -> float:
        return (
            self.kernel_seconds
            + self.launch_seconds
            + self.host_to_dpu_seconds
            + self.dpu_to_host_seconds
            + self.fault_seconds
        )

    @property
    def total_ms(self) -> float:
        return self.total_seconds * 1e3

    @property
    def compute_bound(self) -> bool:
        """True when the pipeline, not the DMA engine, is the bottleneck."""
        return self.compute_cycles >= self.dma_cycles

    def describe(self) -> str:
        parts = [
            f"{self.kernel_name}: {self.total_ms:.3f} ms",
            f"{self.dpus_used} DPUs x {self.tasklets_per_dpu} tasklets",
            f"{'compute' if self.compute_bound else 'DMA'}-bound",
            f"kernel {self.kernel_seconds * 1e3:.3f} ms",
            f"launch {self.launch_seconds * 1e3:.3f} ms",
        ]
        if self.host_to_dpu_seconds:
            parts.append(
                f"host->dpu {self.host_to_dpu_seconds * 1e3:.3f} ms"
            )
        if self.dpu_to_host_seconds:
            parts.append(
                f"dpu->host {self.dpu_to_host_seconds * 1e3:.3f} ms"
            )
        if self.retries or self.fault_seconds:
            parts.append(
                f"{self.retries} retries, "
                f"faults {self.fault_seconds * 1e3:.3f} ms"
            )
        if self.dpus_disabled:
            parts.append(f"{self.dpus_disabled} DPUs disabled")
        return " | ".join(parts)

    def as_attrs(self) -> dict:
        """The full breakdown as flat span attributes.

        This is what ``time_kernel`` attaches to its span, so traces
        carry the complete per-kernel timing story — compute vs. DMA
        cycles, the bound, and the host<->DPU transfer split.
        """
        attrs = {
            "kernel": self.kernel_name,
            "n_elements": self.n_elements,
            "dpus_used": self.dpus_used,
            "tasklets_per_dpu": self.tasklets_per_dpu,
            "cycles_per_element": self.cycles_per_element,
            "compute_cycles": self.compute_cycles,
            "dma_cycles": self.dma_cycles,
            "bound": "compute" if self.compute_bound else "dma",
            "kernel_s": self.kernel_seconds,
            "launch_s": self.launch_seconds,
            "host_to_dpu_s": self.host_to_dpu_seconds,
            "dpu_to_host_s": self.dpu_to_host_seconds,
            "modelled_s": self.total_seconds,
            "work_units": self.work_units,
            "elements_per_dpu": self.elements_per_dpu,
            "mram_bytes_per_element": self.mram_bytes_per_element,
            "output_bytes_per_element": self.output_bytes_per_element,
        }
        if self.faults is not None:
            attrs["retries"] = self.retries
            attrs["fault_s"] = self.fault_seconds
            attrs["dpus_disabled"] = self.dpus_disabled
            attrs.update(self.faults.as_attrs())
        return attrs


@dataclass
class PIMRuntime:
    """Times kernels on a modelled UPMEM system.

    ``retry_policy`` governs how launch faults injected by an active
    :class:`~repro.pim.faults.FaultPlan` are retried; ``None`` defers
    to the policy installed with the plan, then to
    :data:`~repro.pim.faults.DEFAULT_RETRY_POLICY`. With no plan active
    the policy is never consulted.
    """

    config: UPMEMConfig = field(default_factory=UPMEMConfig)
    tasklets: int = DEFAULT_TASKLETS
    retry_policy: RetryPolicy | None = None

    def __post_init__(self):
        if not 1 <= self.tasklets <= self.config.max_tasklets:
            raise ParameterError(
                f"tasklets must be in [1, {self.config.max_tasklets}]: "
                f"{self.tasklets}"
            )
        self.transfer = TransferModel(self.config)

    # -- work distribution ------------------------------------------------------

    def dpus_for(self, work_units: int) -> int:
        """DPUs engaged for ``work_units`` indivisible units."""
        if work_units <= 0:
            raise ParameterError(f"work_units must be positive: {work_units}")
        return min(self.config.n_dpus, work_units)

    # -- timing -----------------------------------------------------------------

    def time_kernel(
        self,
        kernel: Kernel,
        n_elements: int,
        work_units: int | None = None,
        tasklets: int | None = None,
        launches: int = 1,
        include_transfer: bool = False,
    ) -> KernelTiming:
        """Price one kernel invocation over ``n_elements`` elements.

        ``work_units`` is the number of indivisible chunks the elements
        arrive in (defaults to ``n_elements``: fully divisible).
        ``launches`` multiplies the fixed launch overhead for workloads
        that need several dependent kernel rounds.
        ``include_transfer`` adds host->DPU input scatter and
        DPU->host result gather — off by default, matching the paper's
        PIM-resident-data deployment model.

        When observability is enabled (:mod:`repro.obs`), every call
        emits a ``pim.time_kernel.<name>`` span carrying the full
        breakdown (:meth:`KernelTiming.as_attrs`) and updates launch /
        bound / DPU-occupancy metrics; with the default null tracer the
        pricing runs bare.

        When a :class:`~repro.pim.faults.FaultPlan` is active
        (:func:`~repro.pim.faults.use_fault_plan`), the invocation runs
        on the plan's surviving fleet with retries/backoff priced into
        the timing and a :class:`~repro.pim.faults.DegradedRunReport`
        attached; exhausted retries raise
        :class:`~repro.errors.PermanentDeviceError`. With no plan — the
        default — this path is bypassed entirely and modelled times are
        bit-identical to the fault-free build.
        """
        plan = get_active_plan()
        if plan is not None and not plan.active:
            plan = None
        tracer = get_tracer()
        registry = get_registry()
        if not (tracer.enabled or registry.enabled):
            return self._price(
                kernel, n_elements, work_units, tasklets, launches,
                include_transfer, plan,
            )
        with tracer.span(
            f"pim.time_kernel.{kernel.name}",
            attrs={"kernel": kernel.name, "launches": launches},
        ) as span:
            timing = self._price(
                kernel, n_elements, work_units, tasklets, launches,
                include_transfer, plan,
            )
            span.set_attrs(timing.as_attrs())
            energy = kernel_energy(timing)
            span.set_attrs(energy.as_attrs())
        registry.counter("pim.kernel_launches").inc(launches)
        registry.counter(f"energy.joules.pim.{kernel.name}").inc(
            energy.total_j
        )
        registry.counter("movement.bytes.wram_mram").inc(
            energy.wram_mram_bytes
        )
        registry.counter("movement.bytes.host_to_dpu").inc(
            energy.host_to_dpu_bytes
        )
        registry.counter("movement.bytes.dpu_to_host").inc(
            energy.dpu_to_host_bytes
        )
        registry.counter(f"pim.kernels.{kernel.name}").inc()
        registry.counter(
            "pim.compute_bound" if timing.compute_bound else "pim.dma_bound"
        ).inc()
        registry.histogram(
            "pim.dpus_engaged", buckets=(1, 64, 256, 1024, 2048, 2560)
        ).observe(timing.dpus_used)
        registry.histogram("pim.kernel_modelled_s").observe(
            timing.total_seconds
        )
        if timing.faults is not None:
            record_fault_metrics(registry, timing.faults)
        return timing

    def _price(
        self,
        kernel: Kernel,
        n_elements: int,
        work_units: int | None,
        tasklets: int | None,
        launches: int,
        include_transfer: bool,
        plan: FaultPlan | None,
    ) -> KernelTiming:
        """Route to the pure or the fault-injected pricing path."""
        if plan is None:
            return self._compute_timing(
                kernel, n_elements, work_units, tasklets, launches,
                include_transfer,
            )
        policy = (
            self.retry_policy
            or get_active_policy()
            or DEFAULT_RETRY_POLICY
        )
        return self._faulted_timing(
            kernel, n_elements, work_units, tasklets, launches,
            include_transfer, plan, policy,
        )

    def _compute_timing(
        self,
        kernel: Kernel,
        n_elements: int,
        work_units: int | None,
        tasklets: int | None,
        launches: int,
        include_transfer: bool,
        available_dpus: int | None = None,
    ) -> KernelTiming:
        """The pure pricing model behind :meth:`time_kernel`.

        ``available_dpus`` caps the engaged fleet below the configured
        size — the redispatch path of :meth:`_faulted_timing` prices a
        degraded fleet by pricing the same shape on fewer DPUs.
        """
        if n_elements <= 0:
            raise ParameterError(f"n_elements must be positive: {n_elements}")
        if launches <= 0:
            raise ParameterError(f"launches must be positive: {launches}")
        if work_units is None:
            work_units = n_elements
        if work_units > n_elements:
            raise ParameterError(
                f"work_units ({work_units}) cannot exceed n_elements "
                f"({n_elements})"
            )

        dpus = self.dpus_for(work_units)
        if available_dpus is not None:
            if available_dpus <= 0:
                raise ParameterError(
                    f"available_dpus must be positive: {available_dpus}"
                )
            dpus = min(available_dpus, dpus)
        units_per_dpu = math.ceil(work_units / dpus)
        elements_per_dpu = units_per_dpu * math.ceil(n_elements / work_units)
        kernel.check_mram_fit(elements_per_dpu, self.config.mram_per_dpu_bytes)

        n_tasklets = effective_tasklets(
            tasklets if tasklets is not None else self.tasklets,
            self.config.max_tasklets,
            elements_per_dpu,
        )
        cpe = kernel.cycles_per_element()
        per_tasklet_elements = split_evenly(elements_per_dpu, n_tasklets)
        per_tasklet_instructions = [
            int(round(e * cpe)) for e in per_tasklet_elements
        ]
        compute = float(
            pipeline_cycles(
                per_tasklet_instructions, self.config.pipeline_revolve_cycles
            )
        )
        dma = dma_cycles(
            elements_per_dpu * kernel.mram_bytes_per_element(), self.config
        )
        kernel_seconds = max(compute, dma) / self.config.frequency_hz
        launch_seconds = launches * self.config.launch_overhead_s

        host_in = out = 0.0
        if include_transfer:
            total_bytes = n_elements * kernel.mram_bytes_per_element()
            output_bytes = n_elements * result_bytes(kernel)
            input_bytes = max(total_bytes - output_bytes, 0)
            host_in = self.transfer.host_to_dpu_seconds(input_bytes, dpus)
            out = self.transfer.dpu_to_host_seconds(output_bytes, dpus)

        return KernelTiming(
            kernel_name=kernel.name,
            n_elements=n_elements,
            dpus_used=dpus,
            tasklets_per_dpu=n_tasklets,
            cycles_per_element=cpe,
            compute_cycles=compute,
            dma_cycles=dma,
            kernel_seconds=kernel_seconds,
            launch_seconds=launch_seconds,
            host_to_dpu_seconds=host_in,
            dpu_to_host_seconds=out,
            work_units=work_units,
            elements_per_dpu=elements_per_dpu,
            mram_bytes_per_element=kernel.mram_bytes_per_element(),
            output_bytes_per_element=min(
                result_bytes(kernel), kernel.mram_bytes_per_element()
            ),
        )

    def _faulted_timing(
        self,
        kernel: Kernel,
        n_elements: int,
        work_units: int | None,
        tasklets: int | None,
        launches: int,
        include_transfer: bool,
        plan: FaultPlan,
        policy: RetryPolicy,
    ) -> KernelTiming:
        """Price one invocation on the plan's degraded, flaky fleet.

        Permanent casualties shrink the fleet (work units redispatched
        over survivors, priced by :meth:`_compute_timing` with
        ``available_dpus``); transient launch failures and stuck
        tasklets cost modelled retry time under ``policy``; corrupted
        transfers cost checksums and retransmits. Every cost lands in
        ``fault_seconds`` or ``kernel_seconds`` deterministically, and
        the full story is attached as a
        :class:`~repro.pim.faults.DegradedRunReport`.
        """
        disabled = plan.disabled_dpu_ids(self.config)
        effective = self.config.n_dpus - len(disabled)
        if effective <= 0:
            raise PermanentDeviceError(
                "every DPU in the fleet is disabled by the fault plan",
                kernel=kernel.name,
                dpus_requested=self.config.n_dpus,
                dpus_available=0,
            )
        base = self._compute_timing(
            kernel, n_elements, work_units, tasklets, launches,
            include_transfer, available_dpus=effective,
        )

        # Redispatch accounting: units that lived on now-missing DPUs,
        # and the kernel-time overhead versus the full healthy fleet.
        redispatched = 0
        redispatch_overhead = 0.0
        full_dpus = self.dpus_for(base.work_units)
        if disabled and base.dpus_used < full_dpus:
            healthy = self._compute_timing(
                kernel, n_elements, work_units, tasklets, launches,
                include_transfer,
            )
            redispatch_overhead = base.kernel_seconds - healthy.kernel_seconds
            full_shares = split_evenly(base.work_units, full_dpus)
            redispatched = sum(full_shares[base.dpus_used :])

        # The survivors' per-DPU load.
        load = LoadBalance.from_distribution(
            n_elements, base.work_units, base.dpus_used, self.config
        )

        retries = transient = stuck = 0
        backoff_total = 0.0
        penalty = 0.0
        for _round in range(launches):
            failures = 0
            while True:
                outcome = plan.launch_outcome(kernel.name)
                if outcome == OUTCOME_OK:
                    break
                failures += 1
                if outcome == OUTCOME_TRANSIENT:
                    transient += 1
                    penalty += self.config.launch_overhead_s
                else:
                    stuck += 1
                    penalty += policy.stuck_timeout_s
                if failures >= policy.max_attempts:
                    dpu = plan.victim_dpu(self.config, kernel.name)
                    raise PermanentDeviceError(
                        f"kernel launch failed {failures} times, "
                        f"exhausting the retry budget",
                        kernel=kernel.name,
                        dpu=dpu,
                        rank=self.config.rank_of(dpu),
                        attempts=failures,
                        dpus_available=effective,
                    )
                backoff = policy.backoff_seconds(failures)
                backoff_total += backoff
                penalty += backoff
                retries += 1

        corrupted = 0
        armed = bool(plan.corruption_rate or plan.transfer_script)
        if include_transfer and armed:
            total_bytes = n_elements * kernel.mram_bytes_per_element()
            output_bytes = n_elements * result_bytes(kernel)
            input_bytes = max(total_bytes - output_bytes, 0)
            directions = (
                ("host_to_dpu", input_bytes, base.host_to_dpu_seconds),
                ("dpu_to_host", output_bytes, base.dpu_to_host_seconds),
            )
            for direction, n_bytes, seconds in directions:
                if n_bytes == 0:
                    continue
                penalty += self.transfer.checksum_seconds(n_bytes)
                failures = 0
                while plan.transfer_corrupted(kernel.name, direction):
                    failures += 1
                    corrupted += 1
                    if failures >= policy.max_attempts:
                        raise PermanentDeviceError(
                            f"{direction} transfer stayed corrupted for "
                            f"{failures} attempts, exhausting the retry "
                            f"budget",
                            kernel=kernel.name,
                            attempts=failures,
                            bytes_needed=n_bytes,
                        )
                    # Retransmit: the transfer again, plus its checksum.
                    penalty += seconds + self.transfer.checksum_seconds(
                        n_bytes
                    )
                    retries += 1

        report = DegradedRunReport(
            kernel_name=kernel.name,
            fleet_dpus=self.config.n_dpus,
            disabled_dpus=len(disabled),
            effective_dpus=effective,
            dpus_used=base.dpus_used,
            redispatched_units=redispatched,
            retries=retries,
            transient_failures=transient,
            stuck_timeouts=stuck,
            corrupted_transfers=corrupted,
            backoff_seconds=backoff_total,
            penalty_seconds=penalty,
            redispatch_overhead_seconds=redispatch_overhead,
            load=load,
        )
        return replace(
            base,
            retries=retries,
            fault_seconds=penalty,
            dpus_disabled=len(disabled),
            faults=report,
        )
