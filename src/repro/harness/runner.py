"""Experiment runner: execute registered experiments by id.

Every experiment runs inside an ``experiment.<id>`` span (one per
experiment — the root of that experiment's trace tree when tracing is
enabled), and batch runs can either fail fast with the offending
experiment id named, or keep going and collect failures.
"""

from __future__ import annotations

from repro.errors import (
    ExperimentError,
    PermanentDeviceError,
    TransientDeviceError,
)
from repro.harness.experiments import EXPERIMENTS, get_experiment
from repro.obs.metrics import get_registry
from repro.obs.trace import Tracer, get_tracer, use_tracer


def failure_record(label: str, exc: BaseException) -> dict:
    """One failure as a structured, JSON-able record.

    The canonical shape every reporting surface shares — batch runs
    (:meth:`BatchResults.failure_records`), the chaos harness, and the
    experiment grid's failed cells all record ``{"experiment",
    "error_type", "message", "fault_class", "header"}``. ``header`` is
    the one-line form reports lead with, the label first;
    fault-injected failures carry their class (``[permanent]`` /
    ``[transient]``) in it so triage can tell a dead fleet from bad
    luck.
    """
    fault_class = classify_fault(exc)
    tag = f"[{fault_class}] " if fault_class else ""
    return {
        "experiment": label,
        "error_type": type(exc).__name__,
        "message": str(exc),
        "fault_class": fault_class,
        "header": f"{label}: {tag}{type(exc).__name__}: {exc}",
    }


def classify_fault(exc: BaseException) -> str | None:
    """The fault class of an exception, or ``None`` for ordinary errors.

    ``"permanent"`` for exhausted-retry / dead-fleet failures,
    ``"transient"`` for faults a retry could have cleared (these only
    escape when raised outside the retry machinery, e.g. by the
    simulator watchdog).
    """
    if isinstance(exc, PermanentDeviceError):
        return "permanent"
    if isinstance(exc, TransientDeviceError):
        return "transient"
    return None


class BatchResults(dict):
    """``run_all`` results: experiment id -> rows, plus failures.

    A plain dict (existing consumers iterate it unchanged) carrying a
    ``failures`` mapping of experiment id -> exception for experiments
    skipped under ``keep_going``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.failures: dict = {}

    def failure_records(self) -> list:
        """Collected failures as :func:`failure_record` dicts, so batch
        reporting never reduces a failure to just its id."""
        return [
            failure_record(eid, exc) for eid, exc in self.failures.items()
        ]


def run_experiment(experiment_id: str) -> list:
    """Run one experiment and return its rows."""
    experiment = get_experiment(experiment_id)
    tracer = get_tracer()
    registry = get_registry()
    if not (tracer.enabled or registry.enabled):
        return experiment.run()
    with tracer.span(
        f"experiment.{experiment_id}",
        attrs={
            "experiment": experiment_id,
            "paper_ref": experiment.paper_ref,
            "unit": experiment.unit,
        },
    ) as span:
        rows = experiment.run()
        span.set_attr("n_rows", len(rows))
    registry.counter("experiments.runs").inc()
    registry.counter(f"experiments.{experiment_id}.runs").inc()
    return rows


def trace_experiment(experiment_id: str) -> tuple:
    """Run one experiment under a recording tracer: ``(rows, spans)``.

    A local :class:`~repro.obs.trace.Tracer` is installed for the
    duration of the run (restoring whatever was active before), so the
    returned spans cover exactly this experiment — the raw material for
    :func:`repro.obs.profile.profile_experiment` and for merging host
    timelines with simulated device lanes.
    """
    tracer = Tracer()
    with use_tracer(tracer):
        rows = run_experiment(experiment_id)
    return rows, tracer.finished


def run_all(ids=None, keep_going: bool = False) -> BatchResults:
    """Run several experiments (default: all), id -> rows.

    Runs in registry order so reports are stable. On a per-experiment
    error the default is to fail fast with an
    :class:`~repro.errors.ExperimentError` naming the failed id (the
    original exception chained); with ``keep_going`` the failing
    experiment is skipped, recorded in the returned mapping's
    ``failures`` dict, and the batch continues.
    """
    selected = list(EXPERIMENTS) if ids is None else list(ids)
    results = BatchResults()
    for eid in selected:
        try:
            results[eid] = run_experiment(eid)
        except ExperimentError:
            # Unknown/malformed id: a caller error, never swallowed.
            raise
        except Exception as exc:
            if not keep_going:
                raise ExperimentError(
                    f"experiment {eid!r} failed: {exc}"
                ) from exc
            results.failures[eid] = exc
    return results
