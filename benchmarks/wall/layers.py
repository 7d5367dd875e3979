"""Per-layer spans recorded from outside the program.

The traced pass wraps public functions of each layer in spans on a
private :class:`repro.obs.trace.Tracer`. That tracer is never installed
globally, so the program's own instrumentation stays off and the spans
come only from the layer boundaries listed in :data:`TARGETS`. Every
wrapped attribute is put back, by identity, when the pass ends.

Self time comes from :func:`repro.obs.export.path_tree`: a span's
duration minus the part its wrapped children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field


def _ntt_attrs(args, result) -> dict:
    ctx = args[0]
    return {"n": ctx.n, "butterflies": ctx.butterflies_per_transform()}


def _degree_attrs(args, result) -> dict:
    """Ring degree of a core call: ``self.params`` or the ciphertext's."""
    return {"n": args[0].params.poly_degree}


def _sim_attrs(args, result) -> dict:
    phases = [phase for program in args[1] for phase in program.phases]
    return {
        "instructions": result.instructions_issued,
        "cycles": result.cycles,
        "phases": len(phases),
        "compute_phases": sum(p.kind == "compute" for p in phases),
    }


def _serve_attrs(args, result) -> dict:
    return {
        "requests": sum(r["completed"] for r in result.reports.values()),
        "launches": len(result.launches),
    }


#: (module, class or None, attribute, span name, span-attribute hook).
#: Methods are patched on their class; functions in every loaded module
#: that imported them.
TARGETS = (
    ("repro.poly.ntt", "NTTContext", "forward", "poly.ntt.forward", _ntt_attrs),
    ("repro.poly.ntt", "NTTContext", "inverse", "poly.ntt.inverse", _ntt_attrs),
    ("repro.poly.polynomial", None, "negacyclic_convolve", "poly.convolve", None),
    ("repro.core.encryptor", "Encryptor", "encrypt", "core.encrypt", _degree_attrs),
    (
        "repro.core.encryptor",
        "SymmetricEncryptor",
        "encrypt",
        "core.encrypt",
        _degree_attrs,
    ),
    ("repro.core.decryptor", "Decryptor", "decrypt", "core.decrypt", _degree_attrs),
    ("repro.core.evaluator", "Evaluator", "add", "core.add", _degree_attrs),
    ("repro.core.evaluator", "Evaluator", "multiply", "core.multiply", _degree_attrs),
    ("repro.core.evaluator", "Evaluator", "square", "core.square", _degree_attrs),
    (
        "repro.core.evaluator",
        "Evaluator",
        "relinearize",
        "core.relinearize",
        _degree_attrs,
    ),
    ("repro.core.noise", None, "noise_budget", "core.noise_budget", _degree_attrs),
    ("repro.pim.sim", "DPUSimulator", "run", "pim.sim.run", _sim_attrs),
    (
        "repro.pim.runtime",
        "PIMRuntime",
        "time_kernel",
        "pim.runtime.time_kernel",
        None,
    ),
    ("repro.backends.base", "Backend", "time_op", "backends.time_op", None),
    ("repro.harness.experiments", "Experiment", "run", "harness.experiment_run", None),
    ("repro.serve.arrivals", "OpenLoopArrivals", "times_until", "serve.arrivals", None),
    ("repro.serve.scheduler", "BatchScheduler", "schedule", "serve.schedule", None),
    ("repro.serve.scheduler", "BatchScheduler", "form_batches", "serve.schedule", None),
    ("repro.serve.service", None, "simulate", "serve.simulate", _serve_attrs),
    (
        "repro.serve.resilience",
        None,
        "simulate_resilient",
        "serve.simulate_resilient",
        _serve_attrs,
    ),
    ("repro.obs.noisegate", None, "capture_noise_run", "obs.noise.capture", None),
    ("repro.obs.noisegate", None, "check_noise_runs", "obs.noise.check", None),
    (
        "repro.serve.resilience",
        None,
        "capture_resilience_run",
        "obs.resil.capture",
        None,
    ),
    (
        "repro.serve.resilience",
        None,
        "check_resilience_runs",
        "obs.resil.check",
        None,
    ),
    ("repro.obs.baseline", None, "capture_run", "obs.perf.capture", None),
    ("repro.obs.perf", None, "check_runs", "obs.perf.check", None),
    ("repro.obs.energy", None, "capture_energy_run", "obs.energy.capture", None),
    ("repro.obs.energy", None, "check_energy_runs", "obs.energy.check", None),
)

#: Module prefixes searched for references to wrapped functions.
_PATCHED_PREFIXES = ("repro", "benchmarks")


def _wrap(tracer, name: str, original, attrs_of):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = original(*args, **kwargs)
            if attrs_of is not None:
                span.set_attrs(attrs_of(args, result))
        return result

    return wrapper


def _loaded_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name.startswith(_PATCHED_PREFIXES) and module is not None
    ]


def install(tracer) -> list:
    """Wrap every target; returns ``(owner, attribute, original, wrapper)``."""
    patches = []
    for module_name, cls_name, attr, span_name, attrs_of in TARGETS:
        module = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            wrapper = _wrap(tracer, span_name, original, attrs_of)
            setattr(owner, attr, wrapper)
            patches.append((owner, attr, original, wrapper))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, span_name, original, attrs_of)
        for loaded in _loaded_modules():
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    patches.append((loaded, key, original, wrapper))
    return patches


def restore(patches) -> None:
    """Undo :func:`install`, including wrappers bound by later imports."""
    originals = {
        id(wrapper): (wrapper, original) for *_, original, wrapper in patches
    }
    for owner, attr, original, _wrapper in patches:
        setattr(owner, attr, original)
    for loaded in _loaded_modules():
        for key, value in list(vars(loaded).items()):
            wrapper, original = originals.get(id(value), (None, None))
            if value is wrapper:
                setattr(loaded, key, original)


@dataclass
class TraceSession:
    """One traced region: its tracer, wall time, and exported spans."""

    tracer: object
    wall_s: float = 0.0
    records: list = field(default_factory=list)
    chrome: dict = field(default_factory=dict)


@contextlib.contextmanager
def traced(root: str):
    """Trace the enclosed region under a root span named ``root``.

    Wrapping and unwrapping happen outside the timed region; the spans
    are exported once, after it.
    """
    from repro.obs.export import span_to_dict, to_chrome_trace
    from repro.obs.trace import Tracer

    session = TraceSession(Tracer())
    patches = install(session.tracer)
    try:
        start = time.perf_counter()
        with session.tracer.span(root):
            yield session
        session.wall_s = time.perf_counter() - start
    finally:
        restore(patches)
    finished = session.tracer.finished
    session.records = [span_to_dict(s) for s in finished]
    session.chrome = to_chrome_trace(finished, process_name=root)


def merge_records(record_lists) -> list:
    """Span records of several tracers with their ids made distinct."""
    merged = []
    offset = 0
    for records in record_lists:
        for record in records:
            parent = record["parent_id"]
            merged.append(
                dict(
                    record,
                    span_id=record["span_id"] + offset,
                    parent_id=None if parent is None else parent + offset,
                )
            )
        offset = max((r["span_id"] for r in merged), default=0)
    return merged


#: Per-layer metric name -> (unit, better). Layers a workload does not
#: drive report zero.
PER_LAYER = {
    "poly.ntt.calls": ("count", "lower"),
    "poly.ntt.self_s": ("s", "lower"),
    "poly.ntt.ns_per_butterfly": ("ns", "lower"),
    "poly.convolve.calls": ("count", "lower"),
    "poly.convolve.self_s": ("s", "lower"),
    "poly.convolve.crt_primes_per_call": ("primes/call", "lower"),
    **{
        f"core.{op}.{kind}": unit
        for op in (
            "encrypt",
            "decrypt",
            "add",
            "multiply",
            "square",
            "relinearize",
            "noise_budget",
        )
        for kind, unit in (("calls", ("count", "lower")), ("self_s", ("s", "lower")))
    },
    "core.encrypt.p50_ms.n4096": ("ms", "lower"),
    "core.multiply.p50_ms.n4096": ("ms", "lower"),
    "core.relinearize.p50_ms.n4096": ("ms", "lower"),
    "pim.sim.run.calls": ("count", "lower"),
    "pim.sim.run.self_s": ("s", "lower"),
    "pim.sim.instructions": ("count", "higher"),
    "pim.sim.cycles": ("cycles", "higher"),
    "pim.sim.phases": ("count", "higher"),
    "pim.sim.instr_per_phase.compute": ("instr/phase", "higher"),
    "pim.sim.instr_per_phase.dma": ("instr/phase", "higher"),
    "pim.sim.ns_per_instr.compute": ("ns", "lower"),
    "pim.sim.ns_per_instr.dma": ("ns", "lower"),
    "pim.runtime.time_kernel.calls": ("count", "lower"),
    "pim.runtime.time_kernel.self_s": ("s", "lower"),
    "pim.runtime.time_kernel.us_per_call": ("us", "lower"),
    "backends.time_op.calls": ("count", "lower"),
    "backends.time_op.self_s": ("s", "lower"),
    "harness.experiment_run.calls": ("count", "lower"),
    "harness.experiment_run.self_s": ("s", "lower"),
    "serve.arrivals.self_s": ("s", "lower"),
    "serve.schedule.self_s": ("s", "lower"),
    "serve.simulate.self_s": ("s", "lower"),
    "serve.simulate_resilient.self_s": ("s", "lower"),
    "serve.requests": ("count", "higher"),
    "serve.launches": ("count", "lower"),
    "serve.time_op_per_launch": ("ratio", "lower"),
    "serve.us_per_request": ("us", "lower"),
    **{
        f"obs.{gate}.{phase}_s": ("s", "lower")
        for gate in ("noise", "resil", "perf", "energy")
        for phase in ("capture", "check")
    },
    "trace.overhead_frac": ("ratio", "lower"),
    "sim_compute_minstr_per_s": ("Minstr/s", "higher"),
    "sim_dma_minstr_per_s": ("Minstr/s", "higher"),
    "serve_kreq_per_s": ("kreq/s", "higher"),
    "gate_noise_s": ("s", "lower"),
    "gate_resil_s": ("s", "lower"),
    "gate_model_s": ("s", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(records) -> dict:
    """The span-derived :data:`PER_LAYER` metrics of one traced pass."""
    from repro.obs.export import path_tree

    table = path_tree(records)
    by_id = {r["span_id"]: r for r in records}

    def named(*names):
        return [r for r in records if r["name"] in names]

    def calls(*names):
        return sum(e["count"] for e in table.values() if e["name"] in names)

    def self_s(*names, parent=None):
        return sum(
            e["self_wall_s"]
            for path, e in table.items()
            if e["name"] in names
            and (parent is None or path.split(";")[-2:-1] == [parent])
        )

    def wall_s(*names):
        return sum(r["wall_s"] for r in named(*names))

    def attr_sum(key, *names, parent=None):
        return sum(
            r["attrs"].get(key, 0)
            for r in named(*names)
            if parent is None
            or by_id.get(r["parent_id"], {}).get("name") == parent
        )

    def p50_ms(name, n):
        walls = [r["wall_s"] for r in named(name) if r["attrs"].get("n") == n]
        return statistics.median(walls) * 1e3 if walls else 0.0

    ntt = ("poly.ntt.forward", "poly.ntt.inverse")
    sims = ("serve.simulate", "serve.simulate_resilient")
    metrics = {
        "poly.ntt.calls": calls(*ntt),
        "poly.ntt.self_s": self_s(*ntt),
        "poly.ntt.ns_per_butterfly": _ratio(
            self_s(*ntt) * 1e9, attr_sum("butterflies", *ntt)
        ),
        "poly.convolve.calls": calls("poly.convolve"),
        "poly.convolve.self_s": self_s("poly.convolve"),
        # Each CRT prime costs one inverse transform inside the convolve.
        "poly.convolve.crt_primes_per_call": _ratio(
            sum(
                1
                for r in named("poly.ntt.inverse")
                if by_id.get(r["parent_id"], {}).get("name") == "poly.convolve"
            ),
            calls("poly.convolve"),
        ),
    }
    for key in PER_LAYER:
        if key.startswith("core.") and key.endswith((".calls", ".self_s")):
            op, kind = key.rsplit(".", 1)
            metrics[key] = calls(op) if kind == "calls" else self_s(op)
    for op in ("encrypt", "multiply", "relinearize"):
        metrics[f"core.{op}.p50_ms.n4096"] = p50_ms(f"core.{op}", 4096)

    sim = "pim.sim.run"
    metrics.update(
        {
            "pim.sim.run.calls": calls(sim),
            "pim.sim.run.self_s": self_s(sim),
            "pim.sim.instructions": attr_sum("instructions", sim),
            "pim.sim.cycles": attr_sum("cycles", sim),
            "pim.sim.phases": attr_sum("phases", sim),
        }
    )
    for regime in ("compute", "dma"):
        group = f"dpu_sim.{regime}"
        instructions = attr_sum("instructions", sim, parent=group)
        metrics[f"pim.sim.instr_per_phase.{regime}"] = _ratio(
            instructions, attr_sum("compute_phases", sim, parent=group)
        )
        metrics[f"pim.sim.ns_per_instr.{regime}"] = _ratio(
            self_s(sim, parent=group) * 1e9, instructions
        )

    kernel = "pim.runtime.time_kernel"
    requests = attr_sum("requests", *sims)
    launches = attr_sum("launches", *sims)
    priced_in_serve = sum(
        e["count"]
        for path, e in table.items()
        if e["name"] == "backends.time_op" and ";serve.simulate" in path
    )
    metrics.update(
        {
            f"{kernel}.calls": calls(kernel),
            f"{kernel}.self_s": self_s(kernel),
            f"{kernel}.us_per_call": _ratio(self_s(kernel) * 1e6, calls(kernel)),
            "backends.time_op.calls": calls("backends.time_op"),
            "backends.time_op.self_s": self_s("backends.time_op"),
            "harness.experiment_run.calls": calls("harness.experiment_run"),
            "harness.experiment_run.self_s": self_s("harness.experiment_run"),
            "serve.arrivals.self_s": self_s("serve.arrivals"),
            "serve.schedule.self_s": self_s("serve.schedule"),
            "serve.simulate.self_s": self_s("serve.simulate"),
            "serve.simulate_resilient.self_s": self_s("serve.simulate_resilient"),
            "serve.requests": requests,
            "serve.launches": launches,
            "serve.time_op_per_launch": _ratio(priced_in_serve, launches),
            "serve.us_per_request": _ratio(wall_s(*sims) * 1e6, requests),
        }
    )
    for gate in ("noise", "resil", "perf", "energy"):
        for phase in ("capture", "check"):
            metrics[f"obs.{gate}.{phase}_s"] = wall_s(f"obs.{gate}.{phase}")
    return metrics
