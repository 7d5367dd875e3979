"""Performance-run capture and schema-versioned baselines.

Tracing (:mod:`repro.obs.trace`) makes the pipeline observable; this
module makes it *comparable over time*. A **run record** is one JSON
document capturing, for each recorded experiment:

* the **modelled** numbers (per-series totals across rows) — fully
  deterministic outputs of the cost model, the paper's actual story;
* the **wall** cost of evaluating the model in this Python process
  (median + dispersion over N untraced repeats);
* the **observability rollups** from one traced evaluation: kernel
  launches, compute-vs-DMA bound counts, limb-operation tallies,
  the host<->DPU transfer split summed from every
  :class:`~repro.pim.runtime.KernelTiming`, a per-span-name
  attribution table (count / wall / modelled seconds) for diffing, and
  a path-keyed span table with self-vs-children time split
  (:func:`repro.obs.export.path_tree`) that
  :mod:`repro.obs.forensics` aligns between runs.

A **baseline** is simply a committed run record
(``baselines/perf.json``); :mod:`repro.obs.perf` compares fresh runs
against it. Every record also carries an identity — ``run_id`` (uuid),
ISO timestamp, git SHA, captured by the shared
:mod:`repro.obs.runident` helpers (re-exported here) — and the same
identity helpers stamp the benchmark suite's ``metrics.jsonl`` lines
and the grid documents of :mod:`repro.obs.registry`.

Documents are schema-versioned (:data:`SCHEMA_VERSION`); readers
refuse unknown versions so a future layout change cannot be silently
misread as a regression.
"""

from __future__ import annotations

import os
import pathlib
import statistics
from time import perf_counter

from repro.errors import ParameterError
from repro.harness.experiments import get_experiment
from repro.obs.export import path_tree
from repro.obs.gate import Ledger
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.runident import git_sha, run_identity
from repro.obs.trace import Tracer, use_tracer

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_HISTORY_PATH",
    "git_sha",
    "run_identity",
    "capture_experiment",
    "capture_run",
    "LEDGER",
    "read_run",
    "find_run",
    "series_totals",
    "prepare_metrics_log",
    "FRESH_ENV_VAR",
    "FAST_SET",
]

#: Version stamped into every run record / baseline document.
SCHEMA_VERSION = 1

#: Where ``repro perf record`` writes the baseline by default.
DEFAULT_BASELINE_PATH = "baselines/perf.json"

#: Where recorded runs accumulate (one JSON line each) for trends/diffs.
DEFAULT_HISTORY_PATH = "baselines/history.jsonl"

#: Environment variable: truncate ``metrics.jsonl`` instead of appending.
FRESH_ENV_VAR = "REPRO_BENCH_FRESH"

#: Experiments cheap enough for the committed baseline and the CI gate
#: (everything that evaluates in well under a second; the cycle-level
#: simulator validation and the heaviest sweeps are excluded).
FAST_SET = (
    "fig1a",
    "fig1a_32bit",
    "fig1a_64bit",
    "fig1b",
    "fig1b_32bit",
    "fig1b_64bit",
    "fig2a",
    "fig2c",
    "tab_security",
    "obs_tasklets",
    "abl_karatsuba",
    "abl_ntt",
    "abl_residency",
    "ext_energy",
    "ext_covariance",
    "ext_end_to_end",
)


# ``git_sha`` / ``run_identity`` live in :mod:`repro.obs.runident` and
# are re-exported here: they predate that module and existing callers
# (and committed baselines) reference them through this namespace.

# -- capture ----------------------------------------------------------------


def _wall_stats(samples) -> dict:
    """Median + dispersion of wall-time samples.

    ``spread`` is (max - min) / median — the relative noise band the
    regression policy scales its threshold by.
    """
    median = statistics.median(samples)
    lo, hi = min(samples), max(samples)
    return {
        "repeats": len(samples),
        "median_s": median,
        "min_s": lo,
        "max_s": hi,
        "mean_s": statistics.fmean(samples),
        "spread": (hi - lo) / median if median > 0 else 0.0,
    }


def series_totals(rows) -> dict:
    """Per-series value totals across an experiment's rows."""
    totals: dict = {}
    for row in rows:
        for name, value in row.series.items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


def _attribution(spans) -> dict:
    """Span-name -> {count, wall_s, modelled_s} rollup.

    Flat by name (not by tree path): parent spans include their
    children's time, so the table reads as "total time attributed to
    regions of this name" — the same semantics as one level of the
    PR-1 text tree, but diffable between runs.
    """
    table: dict = {}
    for span in spans:
        entry = table.get(span.name)
        if entry is None:
            entry = table[span.name] = {
                "count": 0,
                "wall_s": 0.0,
                "modelled_s": 0.0,
            }
        entry["count"] += 1
        entry["wall_s"] += span.wall_s
        entry["modelled_s"] += span.modelled_s
    return dict(sorted(table.items()))


def _transfer_split(spans) -> dict:
    """Summed host<->DPU transfer seconds from ``pim.time_kernel`` spans."""
    host_in = out = 0.0
    for span in spans:
        if span.name.startswith("pim.time_kernel."):
            host_in += float(span.attrs.get("host_to_dpu_s", 0.0))
            out += float(span.attrs.get("dpu_to_host_s", 0.0))
    return {"host_to_dpu_s": host_in, "dpu_to_host_s": out}


def _counter_rollup(snapshot: dict) -> dict:
    """The regression-relevant counters out of a metrics snapshot."""
    limb_ops = {
        name.split(".", 1)[1]: data["value"]
        for name, data in snapshot.items()
        if name.startswith("limb_ops.") and data.get("type") == "counter"
    }
    backend_requests = {
        name.split(".")[1]: data["value"]
        for name, data in snapshot.items()
        if name.startswith("backend.")
        and name.endswith(".requests")
        and data.get("type") == "counter"
    }
    kernels = {
        name.split(".", 2)[2]: data["value"]
        for name, data in snapshot.items()
        if name.startswith("pim.kernels.") and data.get("type") == "counter"
    }

    def value(name):
        data = snapshot.get(name, {})
        return data.get("value", 0) if data.get("type") == "counter" else 0

    return {
        "kernel_launches": value("pim.kernel_launches"),
        "compute_bound": value("pim.compute_bound"),
        "dma_bound": value("pim.dma_bound"),
        "kernels": kernels,
        "backend_requests": backend_requests,
        "limb_ops": limb_ops,
    }


def capture_experiment(experiment_id: str, repeats: int = 3) -> dict:
    """Record one experiment: modelled totals, wall stats, obs rollups.

    The ``repeats`` wall-time runs are *untraced* so the statistics
    measure the model itself, not the tracer, and follow one untimed
    warm-up run so cold process caches (backend registries, lru_caches)
    don't inflate the recorded median; one extra traced run collects
    the modelled/attribution/counter story.
    """
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1: {repeats}")
    experiment = get_experiment(experiment_id)

    experiment.run()  # warm-up: not timed, not traced
    walls = []
    for _ in range(repeats):
        t0 = perf_counter()
        rows = experiment.run()
        walls.append(perf_counter() - t0)

    tracer, registry = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        rows = experiment.run()
    spans = tracer.finished

    return {
        "modelled": {
            "series_totals": series_totals(rows),
            "n_rows": len(rows),
            "unit": experiment.unit,
        },
        "wall": _wall_stats(walls),
        "counters": _counter_rollup(registry.snapshot()),
        "transfer": _transfer_split(spans),
        "attribution": _attribution(spans),
        "paths": path_tree(spans),
    }


def capture_run(ids=None, repeats: int = 3, progress=None) -> dict:
    """Record a full run document over ``ids`` (default: the fast set).

    ``progress`` is an optional callable receiving each experiment id
    as it starts (the CLI uses it for live feedback).
    """
    selected = list(FAST_SET) if ids is None else list(ids)
    experiments = {}
    for eid in selected:
        if progress is not None:
            progress(eid)
        experiments[eid] = capture_experiment(eid, repeats=repeats)
    doc = {"schema": SCHEMA_VERSION, "repeats": repeats}
    doc.update(run_identity())
    doc["experiments"] = experiments
    return doc


# -- persistence ------------------------------------------------------------

#: The perf baseline and run-history format (``repro perf``).
LEDGER = Ledger(
    noun="perf",
    what="perf baseline",
    family="experiments",
    hint="repro perf record",
    schema=SCHEMA_VERSION,
)

#: Read and schema-validate a run record / baseline.
read_run = LEDGER.read


def find_run(run_ref: str, history_path) -> dict:
    """Resolve a run reference: a JSON file path or a run-id prefix.

    File paths win; otherwise the newest history entry whose ``run_id``
    starts with ``run_ref`` is returned.
    """
    if os.path.exists(run_ref):
        return read_run(run_ref)
    matches = [
        doc
        for doc in LEDGER.history(history_path)
        if str(doc.get("run_id", "")).startswith(run_ref)
    ]
    if not matches:
        raise ParameterError(
            f"run {run_ref!r} is neither a file nor a run-id prefix in "
            f"{history_path}"
        )
    return matches[-1]


# -- benchmark-suite metrics log -------------------------------------------


def prepare_metrics_log(path, environ=None) -> pathlib.Path:
    """Ready the benchmark ``metrics.jsonl`` for a session.

    Default behaviour is **append** (history accumulates; every line
    carries a run identity so sessions stay distinguishable). With
    ``REPRO_BENCH_FRESH=1`` in the environment the file is truncated
    first, for a clean single-session log.
    """
    env = os.environ if environ is None else environ
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if env.get(FRESH_ENV_VAR, "").strip() or not path.exists():
        path.write_text("")
    return path
