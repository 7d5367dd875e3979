"""Energy & data-movement observability: model, ledger, and gate.

The paper's whole argument for PIM is avoiding data movement, yet the
rest of the observability stack measures only *time*. This module adds
the missing dimension, in three layers:

* a mechanistic **per-kernel energy model**
  (:func:`kernel_energy`): DPU pipeline-active vs. idle energy split
  out of the existing :class:`~repro.pim.runtime.KernelTiming`
  decomposition, MRAM/WRAM DMA energy per byte, host<->DPU transfer
  energy per byte over the DDR interface, and fault-retry energy —
  all parameterized by a committed :class:`EnergyConfig` whose
  constants carry their provenance. CPU / CPU-SEAL / GPU baselines are
  priced as modelled runtime × configured TDP (:func:`op_energy`);
  the first-order ``ext_energy`` experiment prices every platform from
  the same watts (:func:`envelope_joules` per request, summed by
  :func:`workload_joules`: active power × modelled time, PIM power
  proportional to the engaged DPUs). This is the one
  energy model; processing-in-memory HE energy studies such as Reis
  et al.'s CiM-HE (see ``PAPERS.md``) are its provenance anchor;

* a **data-movement ledger**: every priced kernel attributes the bytes
  it moves at each level — WRAM<->MRAM DMA, host<->DPU over DDR, host
  DRAM streaming for the processor-centric baselines — to span
  attributes and ``movement.bytes.*`` counters, next to
  ``energy.joules.*``. Span attributes flow into the Perfetto export
  unchanged (:func:`repro.obs.export.to_chrome_trace` puts all attrs
  in event ``args``);

* an **ENERGY-DRIFT regression gate** (:data:`GATE`, on the shared
  :mod:`repro.obs.gate` framework): modelled joules are pure
  arithmetic over the deterministic cost model, so
  ``repro energy check`` compares a fresh capture against the
  committed ``baselines/energy.json`` **exactly** — any difference
  means the energy model or an upstream cost model changed, adopted
  only deliberately with ``--update``.

The energy layer is read-only over the timing layer: it never touches
a priced second, so the fault-free modelled *time* path stays
bit-identical and the existing MODEL-DRIFT gate is unaffected.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

from repro.errors import ParameterError
from repro.obs import gate, htmlreport
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.runident import run_identity

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_BASELINE_PATH",
    "EnergyConfig",
    "DEFAULT_ENERGY_CONFIG",
    "get_energy_config",
    "set_energy_config",
    "use_energy_config",
    "KernelEnergy",
    "kernel_energy",
    "movement_bytes",
    "op_energy",
    "envelope_joules",
    "workload_joules",
    "energy_rollup",
    "LEDGER",
    "GATE",
    "capture_energy_experiment",
    "capture_energy_run",
    "read_energy_run",
    "check_energy_runs",
]

#: The energy baseline and run-history format (``repro energy``), the
#: version stamped into every document, and where ``repro energy
#: record`` writes the baseline.
LEDGER = gate.ENERGY_CLI.ledger
SCHEMA_VERSION = LEDGER.schema
DEFAULT_BASELINE_PATH = gate.ENERGY_CLI.baseline_path


# -- the committed constants -------------------------------------------------


@dataclass(frozen=True)
class EnergyConfig:
    """Energy-model constants, each with its provenance.

    The *power* envelopes are also the first-order ``ext_energy``
    model's watts (:func:`envelope_joules`, whose totals are committed
    in ``baselines/perf.json``), so the per-kernel and first-order
    views never disagree about watts. The per-byte
    movement energies are the standard published figures for each
    interface — envelope estimates with documented sources, gated for
    *drift* (the model must not change silently), not for accuracy.
    """

    #: Active power per DPU: UPMEM's ~1.2 W per 8-DPU PIM chip under
    #: load (UPMEM published figures / the PrIM energy study [38]).
    dpu_active_watts: float = 1.2 / 8
    #: Standby power per DPU while the pipeline stalls on DMA, waits
    #: through a launch, or backs off a retry: DRAM refresh plus the
    #: clocked-but-idle pipeline, modelled at 40% of the active draw
    #: (the PrIM characterization reports idle draw as a large
    #: fraction of active for PIM chips).
    dpu_idle_watts: float = 1.2 / 8 * 0.4
    #: WRAM<->MRAM DMA energy: an in-package DRAM row access with no
    #: off-chip I/O, ~2.2 pJ/bit (DDR-class array energy without the
    #: interface), ~18 pJ/byte.
    mram_dma_pj_per_byte: float = 18.0
    #: Host<->DPU transfers cross the DDR4 interface: ~7.5 pJ/bit
    #: system energy (Micron DDR4 power figures), ~60 pJ/byte.
    host_link_pj_per_byte: float = 60.0
    #: Host DRAM streaming for the CPU baselines: the same DDR4
    #: interface (ledger attribution only — the DIMM watts are already
    #: inside ``cpu_watts``, so this is never double-billed).
    host_dram_pj_per_byte: float = 60.0
    #: GPU container traffic moves over HBM2: ~3.9 pJ/bit (ledger
    #: attribution only, inside ``gpu_watts``), ~31 pJ/byte.
    hbm_pj_per_byte: float = 31.0
    #: CPU package TDP (i5-8250U, Intel ARK: 15 W) plus ~5 W DDR4
    #: DIMM stream power; shared by the custom CPU and CPU-SEAL.
    cpu_watts: float = 15.0 + 5.0
    #: A100 PCIe board power (whitepaper [96]).
    gpu_watts: float = 250.0

    def backend_watts(self, backend: str) -> float:
        """Full-envelope active power of a processor-centric backend."""
        if backend in ("cpu", "cpu-seal"):
            return self.cpu_watts
        if backend == "gpu":
            return self.gpu_watts
        raise ParameterError(
            f"no TDP envelope for backend {backend!r}; PIM energy is "
            "per-kernel (kernel_energy), not a fixed envelope"
        )

    def to_dict(self) -> dict:
        return asdict(self)


#: The committed default constants (what the baseline is recorded with).
DEFAULT_ENERGY_CONFIG = EnergyConfig()

_active_config = DEFAULT_ENERGY_CONFIG
_config_lock = threading.Lock()


def get_energy_config() -> EnergyConfig:
    """The process-global energy constants (the defaults unless swapped)."""
    return _active_config


def set_energy_config(config: EnergyConfig | None) -> None:
    """Install ``config`` globally (``None`` restores the defaults)."""
    global _active_config
    with _config_lock:
        _active_config = (
            config if config is not None else DEFAULT_ENERGY_CONFIG
        )


class use_energy_config:
    """Context manager installing energy constants for a scoped region.

    The perturbation hook the gate tests use: price under a tweaked
    constant, capture, and watch ``check_energy_runs`` report
    ``ENERGY-DRIFT``.
    """

    def __init__(self, config: EnergyConfig):
        self.config = config
        self._previous = None

    def __enter__(self) -> EnergyConfig:
        self._previous = get_energy_config()
        set_energy_config(self.config)
        return self.config

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_energy_config(self._previous)
        return False


# -- the per-kernel model and movement ledger --------------------------------


@dataclass(frozen=True)
class KernelEnergy:
    """Energy and movement breakdown of one priced kernel invocation.

    Derived purely from the :class:`~repro.pim.runtime.KernelTiming`
    fields (the timing record alone re-simulates the launch, so it
    alone also prices the energy) — the timing itself is never
    touched.
    """

    kernel_name: str
    #: Pipeline-active joules: engaged DPUs × active seconds × active W.
    pipeline_j: float
    #: Stalled/launch joules: DMA-bound stall plus launch overhead at
    #: the standby draw.
    idle_j: float
    #: WRAM<->MRAM DMA joules over the per-byte array energy.
    dma_j: float
    #: Host->DPU scatter joules over the DDR interface.
    host_to_dpu_j: float
    #: DPU->host gather joules over the DDR interface.
    dpu_to_host_j: float
    #: Fault-layer joules: the engaged fleet holds in standby through
    #: retries, backoff, checksums, and retransmits (``fault_seconds``).
    fault_j: float
    #: The movement ledger: bytes moved at each memory level.
    wram_mram_bytes: int
    host_to_dpu_bytes: int
    dpu_to_host_bytes: int

    @property
    def total_j(self) -> float:
        return (
            self.pipeline_j
            + self.idle_j
            + self.dma_j
            + self.host_to_dpu_j
            + self.dpu_to_host_j
            + self.fault_j
        )

    @property
    def total_bytes(self) -> int:
        return (
            self.wram_mram_bytes
            + self.host_to_dpu_bytes
            + self.dpu_to_host_bytes
        )

    def as_attrs(self) -> dict:
        """The breakdown as flat span attributes.

        ``time_kernel`` attaches these next to the timing attrs, so
        traces (and the Perfetto export, which carries every attr in
        the event ``args``) tell the joules-and-bytes story per launch.
        """
        return {
            "energy_pipeline_j": self.pipeline_j,
            "energy_idle_j": self.idle_j,
            "energy_dma_j": self.dma_j,
            "energy_host_to_dpu_j": self.host_to_dpu_j,
            "energy_dpu_to_host_j": self.dpu_to_host_j,
            "energy_fault_j": self.fault_j,
            "energy_total_j": self.total_j,
            "movement_wram_mram_bytes": self.wram_mram_bytes,
            "movement_host_to_dpu_bytes": self.host_to_dpu_bytes,
            "movement_dpu_to_host_bytes": self.dpu_to_host_bytes,
        }


def movement_bytes(timing) -> dict:
    """The movement ledger of one :class:`KernelTiming`, by level.

    * ``wram_mram``: every engaged DPU streams its resident share
      through the WRAM<->MRAM DMA engine once per invocation — exactly
      the bytes the DMA cycle model was priced on
      (``elements_per_dpu × mram_bytes_per_element`` per DPU);
    * ``host_to_dpu`` / ``dpu_to_host``: the transfer split the timing
      already priced. Zero seconds means zero bytes (the
      PIM-resident-data deployment model), so the ledger and
      :class:`~repro.pim.transfer.TransferModel` agree exactly — the
      byte-conservation property test pins this.
    """
    ledger = {
        "wram_mram": (
            timing.elements_per_dpu
            * timing.mram_bytes_per_element
            * timing.dpus_used
        ),
        "host_to_dpu": 0,
        "dpu_to_host": 0,
    }
    output_bytes = timing.n_elements * timing.output_bytes_per_element
    if timing.host_to_dpu_seconds > 0.0:
        ledger["host_to_dpu"] = max(
            timing.n_elements * timing.mram_bytes_per_element
            - output_bytes,
            0,
        )
    if timing.dpu_to_host_seconds > 0.0:
        ledger["dpu_to_host"] = output_bytes
    return ledger


def kernel_energy(timing, config: EnergyConfig | None = None) -> KernelEnergy:
    """Price the energy of one kernel invocation from its timing.

    The pipeline-active window per DPU is the compute-cycle share of
    the kernel window (``kernel_seconds`` is ``max(compute, dma)`` over
    the frequency, so the active fraction is dimensionless); the
    remainder — DMA-bound stall — plus the launch overhead draws the
    standby power. Fault seconds (retry backoff, wasted launches,
    checksums, retransmits) hold the engaged fleet in standby too.
    Host transfers bill the DDR link per byte; the CPU-side cost of
    driving them is part of the host's own envelope, not billed here.
    """
    if config is None:
        config = get_energy_config()
    busy = max(timing.compute_cycles, timing.dma_cycles)
    active_fraction = timing.compute_cycles / busy if busy else 0.0
    active_s = timing.kernel_seconds * active_fraction
    stall_s = timing.kernel_seconds - active_s
    ledger = movement_bytes(timing)
    pj = 1e-12
    return KernelEnergy(
        kernel_name=timing.kernel_name,
        pipeline_j=timing.dpus_used * active_s * config.dpu_active_watts,
        idle_j=(
            timing.dpus_used
            * (stall_s + timing.launch_seconds)
            * config.dpu_idle_watts
        ),
        dma_j=ledger["wram_mram"] * config.mram_dma_pj_per_byte * pj,
        host_to_dpu_j=(
            ledger["host_to_dpu"] * config.host_link_pj_per_byte * pj
        ),
        dpu_to_host_j=(
            ledger["dpu_to_host"] * config.host_link_pj_per_byte * pj
        ),
        fault_j=(
            timing.dpus_used * timing.fault_seconds * config.dpu_idle_watts
        ),
        wram_mram_bytes=ledger["wram_mram"],
        host_to_dpu_bytes=ledger["host_to_dpu"],
        dpu_to_host_bytes=ledger["dpu_to_host"],
    )


def op_energy(
    backend: str,
    seconds: float,
    traffic_bytes: int,
    traffic_level: str = "host_dram",
    config: EnergyConfig | None = None,
) -> dict:
    """Energy and movement of one baseline-backend request.

    The processor-centric platforms burn their full envelope for the
    modelled runtime — the same first-order model ``ext_energy``
    commits — while ``traffic_bytes`` (container/RNS streaming through
    host DRAM, or HBM on the GPU: ``traffic_level``) goes to the
    movement ledger.
    """
    if config is None:
        config = get_energy_config()
    watts = config.backend_watts(backend)
    return {
        "joules": seconds * watts,
        "watts": watts,
        "traffic_bytes": traffic_bytes,
        "traffic_level": traffic_level,
    }


def envelope_joules(backend, request) -> float:
    """First-order energy of one device request: active power × time.

    The ``ext_energy`` model, with the watts of
    :func:`get_energy_config`. ``backend.time_op`` prices the request
    once. PIM draws ``dpu_active_watts`` on each engaged DPU only
    (memory-capacity-proportional compute also means
    workload-proportional power); the processor-centric platforms burn
    their full envelope (:meth:`EnergyConfig.backend_watts`) whatever
    their utilization — the asymmetry the experiment quantifies.
    """
    config = get_energy_config()
    timing = backend.time_op(request)
    if backend.name != "pim":
        return timing.seconds * config.backend_watts(backend.name)
    dpus = timing.detail.get("dpus_used")
    if not dpus:
        raise ParameterError("PIM timing did not report dpus_used")
    return timing.seconds * (config.dpu_active_watts * dpus)


def workload_joules(backend, workload) -> float:
    """First-order energy of a workload: :func:`envelope_joules` summed
    over its device requests — one ``ext_energy`` cell."""
    return sum(
        envelope_joules(backend, request)
        for request in workload.device_requests()
    )


# -- metrics rollup ----------------------------------------------------------


def energy_rollup(snapshot: dict) -> dict:
    """``energy.*`` / ``movement.*`` counters out of a metrics snapshot.

    Returns ``{"joules": {backend: J}, "pim_kernels": {kernel: J},
    "movement_bytes": {level: bytes}}`` — the shape the gate records
    per experiment and the registry stores as a run rollup.
    """
    joules: dict = {}
    pim_kernels: dict = {}
    movement: dict = {}
    for name, data in snapshot.items():
        if data.get("type") != "counter":
            continue
        if name.startswith("energy.joules.pim."):
            kernel = name[len("energy.joules.pim."):]
            pim_kernels[kernel] = data["value"]
            joules["pim"] = joules.get("pim", 0.0) + data["value"]
        elif name.startswith("energy.joules."):
            joules[name[len("energy.joules."):]] = data["value"]
        elif name.startswith("movement.bytes."):
            movement[name[len("movement.bytes."):]] = data["value"]
    return {
        "joules": joules,
        "pim_kernels": pim_kernels,
        "movement_bytes": movement,
    }


# -- capture -----------------------------------------------------------------


def capture_energy_experiment(experiment_id: str) -> dict:
    """Record one experiment's energy story under a fresh registry.

    One metered evaluation: the experiment runs with a private
    :class:`~repro.obs.metrics.MetricsRegistry`, and the captured
    document is the energy/movement counter rollup plus per-backend
    modelled seconds (histogram sums) and the energy-delay product.
    Everything is deterministic arithmetic — the gate compares it
    exactly.
    """
    # Deferred: repro.harness.experiments imports this module through
    # repro.backends.pim.
    from repro.harness.experiments import get_experiment

    experiment = get_experiment(experiment_id)
    registry = MetricsRegistry()
    with use_registry(registry):
        experiment.run()
    snapshot = registry.snapshot()
    doc = energy_rollup(snapshot)
    modelled_s: dict = {}
    for backend in doc["joules"]:
        histogram = snapshot.get(f"backend.{backend}.modelled_s", {})
        if histogram.get("type") == "histogram":
            modelled_s[backend] = histogram.get("sum", 0.0)
    doc["modelled_s"] = modelled_s
    doc["edp_js"] = {
        backend: doc["joules"][backend] * modelled_s[backend]
        for backend in sorted(doc["joules"])
        if backend in modelled_s
    }
    return doc


def capture_energy_run(ids=None, progress=None) -> dict:
    """Record a full energy run over ``ids`` (default: the fast set).

    The document carries the active :class:`EnergyConfig` next to the
    per-experiment captures, so a perturbed constant is itself a
    gate-visible drift even where its joules happen to cancel.
    """
    # Deferred: repro.obs.baseline imports this module through
    # repro.harness.experiments and repro.backends.pim.
    from repro.obs.baseline import FAST_SET

    selected = list(FAST_SET) if ids is None else list(ids)
    experiments = {}
    for eid in selected:
        if progress is not None:
            progress(eid)
        experiments[eid] = capture_energy_experiment(eid)
    doc = {"schema": SCHEMA_VERSION}
    doc.update(run_identity())
    doc["config"] = get_energy_config().to_dict()
    doc["experiments"] = experiments
    return doc


# -- persistence -------------------------------------------------------------

#: Read and schema-validate an energy run / baseline.
read_energy_run = LEDGER.read


# -- the gate ----------------------------------------------------------------


def check_energy_runs(baseline: dict, current: dict) -> list:
    """Compare a current energy run against the committed baseline.

    Exact-match policy throughout (:func:`repro.obs.gate.check_exact`):
    modelled joules are deterministic arithmetic, so *any* difference —
    a changed constant, a changed byte count, a changed kernel shape —
    is ``ENERGY-DRIFT``. The :class:`EnergyConfig` itself is compared
    first (as the ``<energy-config>`` row); experiments present only in
    the current run are ``new`` (adopt with ``--update``).
    """
    return gate.check_exact(
        GATE, baseline, current, "<energy-config>", ("config",)
    )


def _recorded(doc: dict) -> str:
    total_j = sum(
        exp["joules"].get("pim", 0.0) for exp in doc["experiments"].values()
    )
    return (
        f"recorded modelled energy for {len(doc['experiments'])} "
        f"experiments ({total_j:.4g} J on pim)"
    )


GATE = gate.Gate(
    cli=gate.ENERGY_CLI,
    title="energy check — current capture vs committed baseline",
    noun="checks",
    order=(gate.VERDICT_OK, gate.VERDICT_NEW, gate.ENERGY_DRIFT),
    drift_hint=(
        "modelled joules are deterministic; drift means the energy "
        "constants, the movement ledger, or an upstream cost model "
        "changed — re-baseline deliberately with "
        "'repro energy check --update'"
    ),
    capture=lambda args, progress: capture_energy_run(
        ids=args.ids or None, progress=progress
    ),
    capture_for_check=lambda baseline, args, progress: capture_energy_run(
        ids=list(baseline["experiments"]), progress=progress
    ),
    check=lambda baseline, current, args: check_energy_runs(baseline, current),
    html=htmlreport.render_energy_report,
    recorded=_recorded,
)
