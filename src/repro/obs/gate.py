"""One gate framework: ledger, verdict, exact check, and check report.

Every drift gate — perf (:mod:`repro.obs.perf`), noise
(:mod:`repro.obs.noisegate`), energy (:mod:`repro.obs.energy`) and
resilience (:mod:`repro.serve.resilience`) — records a JSON document,
re-captures it, and reports one :class:`Verdict` row per checked item.
This module is the one copy of what they share: the on-disk
:class:`Ledger` (the faults and serve sweeps use it too), the verdict
row, the exact-match policy (:func:`check_exact`), the exit code, and
the :class:`Gate` spec with its text report. Each gate's CLI face
(:class:`GateCli`) is the one source of its name, ledger, paths and
option defaults: the CLI generates the gate's commands from it without
importing the gate, and the gate module reads them from it. Policies
that genuinely differ — perf's wall band, noise's tolerances — stay in
their gate modules. The perf ledger (``PERF_CLI.ledger``) and its
cross-check (:func:`baseline_pairs`) live here too: the grid, the
serving sweep and the resilience gate check against a perf baseline
without running an experiment.

It imports only the standard library and :mod:`repro.errors`, so it
adds nothing to a gate's set-up time.
"""

from __future__ import annotations

import importlib
import json
import pathlib
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.errors import ParameterError

__all__ = [
    "VERDICT_OK",
    "VERDICT_NEW",
    "VERDICT_FASTER",
    "VERDICT_PARTIAL",
    "VERDICT_REGRESSION",
    "MODEL_DRIFT",
    "NOISE_DRIFT",
    "ENERGY_DRIFT",
    "RESILIENCE_DRIFT",
    "FAILING",
    "NEW_NOTE",
    "Ledger",
    "Verdict",
    "Gate",
    "GateCli",
    "GATE_CLIS",
    "RESIL_DEFAULTS",
    "CUSUM_K_REL",
    "CUSUM_H_MULT",
    "exact_diffs",
    "check_exact",
    "baseline_pairs",
    "exit_code",
]

VERDICT_OK = "ok"
VERDICT_NEW = "new"
VERDICT_FASTER = "faster"
VERDICT_PARTIAL = "partial"
VERDICT_REGRESSION = "REGRESSION"
MODEL_DRIFT = "MODEL-DRIFT"
NOISE_DRIFT = "NOISE-DRIFT"
ENERGY_DRIFT = "ENERGY-DRIFT"
RESILIENCE_DRIFT = "RESILIENCE-DRIFT"

#: The labels that fail a gate (exit 1); every other label is advisory.
FAILING = frozenset(
    (VERDICT_REGRESSION, MODEL_DRIFT, NOISE_DRIFT, ENERGY_DRIFT, RESILIENCE_DRIFT)
)

#: The note on a row the current capture has and the baseline lacks.
NEW_NOTE = "not in baseline; adopt with --update"


# -- the ledger ----------------------------------------------------------------


@dataclass(frozen=True)
class Ledger:
    """One schema-versioned JSON document store and its JSONL history.

    ``noun`` names the document in errors ("unsupported perf schema"),
    ``what`` names the recorded file ("no perf baseline at ..."),
    ``family`` is the mapping every document must carry, ``hint`` is
    the command that records one, and ``kind`` (when set) must match
    the document's ``kind`` field.
    """

    noun: str
    what: str
    family: str
    hint: str
    schema: int = 1
    kind: str | None = None

    def validate(self, doc, source: str) -> dict:
        """``doc`` itself, or :class:`ParameterError` naming ``source``."""
        if not isinstance(doc, dict):
            raise ParameterError(
                f"{source}: {self.noun} document must be a JSON object"
            )
        if doc.get("schema") != self.schema or doc.get("kind") != self.kind:
            kind = f", kind {doc.get('kind')!r}" if self.kind else ""
            raise ParameterError(
                f"{source}: unsupported {self.noun} schema "
                f"{doc.get('schema')!r}{kind} (this build reads version "
                f"{self.schema}); re-record with '{self.hint}'"
            )
        if not isinstance(doc.get(self.family), dict):
            raise ParameterError(
                f"{source}: {self.noun} document missing '{self.family}'"
            )
        return doc

    def _parse(self, text: str, source: str) -> dict:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(
                f"{source}: not valid JSON ({exc}); re-record with "
                f"'{self.hint}'"
            ) from None
        return self.validate(doc, source)

    def write(self, doc: dict, path) -> None:
        """Write one document as pretty-printed, key-sorted JSON."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    def read(self, path) -> dict:
        """Read and validate one document; a missing file is an error."""
        path = pathlib.Path(path)
        if not path.exists():
            raise ParameterError(
                f"no {self.what} at {path}; record one with '{self.hint}'"
            )
        return self._parse(path.read_text(), str(path))

    def append(self, doc: dict, path) -> None:
        """Append one document to the JSONL history."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as handle:
            handle.write(json.dumps(doc, sort_keys=True) + "\n")

    def history(self, path) -> list:
        """Every document in the history, oldest first (missing = [])."""
        path = pathlib.Path(path)
        if not path.exists():
            return []
        return [
            self._parse(line, f"{path} line {number}")
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if line.strip()
        ]


# -- verdicts ------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """One checked item's outcome.

    ``width`` is the gate's longest label, so every row of one report
    lines up; notes indent past the bracketed label. ``detail`` is an
    optional parenthesised suffix (perf's wall ratio).
    """

    key: str
    verdict: str
    notes: tuple = ()
    detail: str = ""
    width: int = len(MODEL_DRIFT)

    @property
    def failed(self) -> bool:
        return self.verdict in FAILING

    def describe(self) -> str:
        line = f"[{self.verdict:>{self.width}}] {self.key}"
        if self.detail:
            line += f"  ({self.detail})"
        indent = " " * (self.width + 3)
        for note in self.notes:
            line += f"\n{indent}- {note}"
        return line


def exit_code(verdicts) -> int:
    """0 when no verdict failed, 1 otherwise."""
    return 1 if any(v.failed for v in verdicts) else 0


# -- the exact-match policy ----------------------------------------------------


def exact_diffs(label: str, base, cur) -> list:
    """Human-readable notes for any exact mismatch, recursively."""
    notes = []
    if isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(set(base) | set(cur)):
            child = f"{label}.{key}" if label else str(key)
            if key not in cur:
                notes.append(f"{child}: removed (baseline {base[key]!r})")
            elif key not in base:
                notes.append(f"{child}: added (current {cur[key]!r})")
            else:
                notes.extend(exact_diffs(child, base[key], cur[key]))
        return notes
    if base != cur:
        notes.append(f"{label}: baseline {base!r} -> current {cur!r}")
    return notes


def _rows(doc: dict, family: str) -> dict:
    rows = doc.get(family, {})
    # List-valued families (the perf-baseline cross-check rows) are
    # keyed by the experiment each row checks.
    if isinstance(rows, list):
        return {row["experiment"]: row for row in rows}
    return rows


def check_exact(
    gate: Gate,
    baseline: dict,
    current: dict,
    config_label: str,
    config_fields,
    extra_families=(),
) -> list:
    """Exact-match verdicts for a deterministic gate document.

    The ``config_fields`` are compared first, as one ``config_label``
    row. Then every row of the ledger's family and of each extra family
    in the current document is compared exactly, in key order; extra
    families label their rows ``family:key``. Rows only the current
    document has are ``new``; rows only the baseline has are not
    checked (the caller narrowed the capture).
    """
    notes = [
        note
        for name in config_fields
        for note in exact_diffs(name, baseline.get(name), current.get(name))
    ]
    verdicts = [gate.verdict(config_label, notes)]
    own = gate.cli.ledger.family
    for family in (own, *extra_families):
        base_rows, cur_rows = _rows(baseline, family), _rows(current, family)
        for key in sorted(cur_rows):
            label = key if family == own else f"{family}:{key}"
            if key not in base_rows:
                verdicts.append(gate.verdict(label, (NEW_NOTE,), VERDICT_NEW))
                continue
            notes = exact_diffs("", base_rows[key], cur_rows[key])
            verdicts.append(gate.verdict(label, notes))
    return verdicts


def baseline_pairs(totals: dict, baseline: dict, backends) -> list:
    """Pair each priced (experiment, backend) total with the baseline's.

    ``totals`` maps experiment id -> {backend: modelled ms}, summed
    elsewhere (grid cells, serving launches) in the experiment's batch
    order. Every backend in ``backends`` gets one row per experiment, in
    ``totals`` order: ``{experiment, backend, expected_ms, got_ms,
    verdict}``. The verdict is ``new`` when the perf baseline has no
    such series total, ``partial`` when ``totals`` has none yet, and
    otherwise ``ok`` or ``MODEL-DRIFT`` by exact float equality — the
    perf gate's modelled-exactness policy
    (:func:`repro.obs.perf.modelled_drift`).
    """
    recorded = baseline.get("experiments", {})
    rows = []
    for eid, got in totals.items():
        series = recorded.get(eid, {}).get("modelled", {}).get("series_totals", {})
        for backend in backends:
            got_ms, expected_ms = got.get(backend), series.get(backend)
            if expected_ms is None:
                verdict = VERDICT_NEW
            elif got_ms is None:
                verdict = VERDICT_PARTIAL
            elif got_ms == expected_ms:
                verdict = VERDICT_OK
            else:
                verdict = MODEL_DRIFT
            rows.append(
                {
                    "experiment": eid,
                    "backend": backend,
                    "expected_ms": expected_ms,
                    "got_ms": got_ms,
                    "verdict": verdict,
                }
            )
    return rows


def _identity(role: str, doc: dict) -> str:
    return (
        f"  {role} run {str(doc.get('run_id', '?'))[:12]} "
        f"({doc.get('created_at', '?')}, git {str(doc.get('git_sha'))[:12]})"
    )


# -- the gate spec -------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """One drift gate: its CLI face, capture, check and report.

    ``cli`` is the gate's :class:`GateCli`: its name, ledger, paths and
    the commands' options. ``order`` lists the gate's verdict labels in
    summary order, the drift label last. The CLI
    (:mod:`repro.harness.cli`) runs ``repro <name> record|check|<html
    command>`` through the rest:

    * ``capture(args, progress)`` records a fresh document;
    * ``capture_for_check(baseline, args, progress)`` re-captures what
      the baseline recorded;
    * ``check(baseline, current, args)`` returns the verdicts;
    * ``html(current, baseline, history, verdicts)`` renders the
      dashboard for the newest recorded run from the verdicts the CLI
      computed with ``check`` (``None`` when there is no baseline);
    * ``recorded(doc)`` says what ``record`` captured.
    """

    cli: GateCli
    title: str
    noun: str
    order: tuple
    drift_hint: str | None
    capture: Callable
    capture_for_check: Callable
    check: Callable
    html: Callable
    recorded: Callable

    @property
    def drift(self) -> str:
        return self.order[-1]

    def verdict(self, key: str, notes=(), label: str | None = None, detail=""):
        """A row of this gate: the drift label when ``notes`` else ok."""
        if label is None:
            label = self.drift if notes else VERDICT_OK
        return Verdict(
            key, label, tuple(notes), detail, max(len(x) for x in self.order)
        )

    def render_check(self, verdicts, baseline: dict, current: dict) -> str:
        """The check report: identities, one row per verdict, summary.

        The summary counts each label in ``order``; ``drift_hint``
        follows it when any row carries the drift label.
        """
        lines = [
            self.title,
            _identity("baseline:", baseline),
            _identity("current: ", current),
            "",
        ]
        lines.extend(v.describe() for v in verdicts)
        counts = Counter(v.verdict for v in verdicts)
        lines.append("")
        lines.append(
            "summary: "
            + ", ".join(f"{counts[label]} {label}" for label in self.order)
            + f" of {len(verdicts)} {self.noun}"
        )
        if self.drift_hint and counts[self.drift]:
            lines.append(self.drift_hint)
        return "\n".join(lines)


# -- the gates' CLI faces ------------------------------------------------------


@dataclass(frozen=True)
class GateCli:
    """A gate's name, ledger and paths, and what the CLI needs of it.

    Building ``repro <name> record|check|<html command>`` and answering
    ``--help`` or a usage error read only this; the handler that runs a
    command loads the :class:`Gate` itself (:meth:`load`) from
    ``module``. The gate module reads its ledger and paths from here.

    * ``commands`` maps ``record``, ``check`` and the HTML command
      (``html`` or ``report``) to their help text;
    * ``add_arguments(parser, command)`` adds the gate's own options.
    """

    name: str
    module: str
    ledger: Ledger
    baseline_path: str
    history_path: str
    help: str
    description: str
    commands: dict
    add_arguments: Callable

    def load(self) -> Gate:
        """The gate this face stands for (imports its module)."""
        return importlib.import_module(self.module).GATE


#: CUSUM defaults of :mod:`repro.obs.forensics`' scan over the gates'
#: histories, tuned for (near-)deterministic modelled series: the
#: allowance is ``CUSUM_K_REL`` of the running regime mean (a regime at
#: 5 ms tolerates 1% wobble), the threshold ``CUSUM_H_MULT`` allowances.
CUSUM_K_REL = 0.01
CUSUM_H_MULT = 4.0


def _perf_arguments(parser, command: str) -> None:
    if command == "record":
        parser.add_argument(
            "ids",
            nargs="*",
            help="experiments to record (default: the fast set)",
        )
        parser.add_argument(
            "--repeats",
            type=int,
            default=3,
            help="untraced wall-time repeats per experiment (default: 3)",
        )
    elif command == "check":
        parser.add_argument(
            "ids",
            nargs="*",
            help="experiments to check (default: everything in the baseline)",
        )
        parser.add_argument(
            "--repeats", type=int, default=3, help="wall-time repeats"
        )
        parser.add_argument(
            "--skip-wall",
            action="store_true",
            help="modelled-exactness only (for CI / foreign machines)",
        )
    else:
        parser.add_argument(
            "--skip-wall",
            action="store_true",
            help="badge on modelled exactness only",
        )


PERF_CLI = GateCli(
    name="perf",
    module="repro.obs.perf",
    ledger=Ledger(
        noun="perf",
        what="perf baseline",
        family="experiments",
        hint="repro perf record",
    ),
    baseline_path="baselines/perf.json",
    history_path="baselines/history.jsonl",
    help="performance baselines, regression gate, and dashboard",
    description=(
        "Record schema-versioned performance baselines and gate "
        "changes against them: modelled times must match exactly "
        "(MODEL-DRIFT otherwise), wall times within a noise-aware "
        "band (REGRESSION otherwise). See docs/observability.md."
    ),
    commands={
        "record": "capture a baseline run (modelled + wall + rollups)",
        "check": "re-run and compare against the baseline",
        "html": "render the run history as a standalone HTML dashboard",
    },
    add_arguments=_perf_arguments,
)


def _noise_arguments(parser, command: str) -> None:
    if command == "record":
        parser.add_argument(
            "levels",
            nargs="*",
            type=int,
            help="security levels to record (default: all paper levels)",
        )
        parser.add_argument(
            "--seed",
            type=int,
            default=7,
            help="seed for keys, encryption randomness, and operand "
            "sampling (default: 7)",
        )
    elif command == "check":
        parser.add_argument(
            "levels",
            nargs="*",
            type=int,
            help="security levels to check (default: everything in the "
            "baseline)",
        )


NOISE_CLI = GateCli(
    name="noise",
    module="repro.obs.noisegate",
    ledger=Ledger(
        noun="noise",
        what="noise baseline",
        family="levels",
        hint="repro noise record",
    ),
    baseline_path="baselines/noise.json",
    history_path="baselines/noise-history.jsonl",
    help="noise-budget calibration: record, gate, and report "
    "predicted-vs-measured trajectories",
    description=(
        "Record seeded-deterministic noise-budget trajectories "
        "(predicted and measured bits per operation) for the paper "
        "security levels and gate the growth model against them: "
        "any change beyond tolerance is NOISE-DRIFT. See "
        "docs/observability.md."
    ),
    commands={
        "record": "capture the noise-calibration baseline",
        "check": "re-run trajectories and gate against the baseline",
        "report": "render the budget-vs-depth trajectories as standalone HTML",
    },
    add_arguments=_noise_arguments,
)


def _energy_arguments(parser, command: str) -> None:
    if command == "record":
        parser.add_argument(
            "ids",
            nargs="*",
            help="experiment ids to record (default: the fast set)",
        )


ENERGY_CLI = GateCli(
    name="energy",
    module="repro.obs.energy",
    ledger=Ledger(
        noun="energy",
        what="energy baseline",
        family="experiments",
        hint="repro energy record",
    ),
    baseline_path="baselines/energy.json",
    history_path="baselines/energy-history.jsonl",
    help="modelled energy & data movement: record, gate, and report "
    "joules and bytes moved per experiment",
    description=(
        "Price every experiment's modelled energy (DPU "
        "pipeline/idle/DMA split, host-link transfers, CPU/GPU TDP "
        "envelopes) and the bytes it moves at each memory level, "
        "and gate the model against the committed baseline: "
        "modelled joules are deterministic, so any difference is "
        "ENERGY-DRIFT. See docs/observability.md."
    ),
    commands={
        "record": "capture the modelled-energy baseline",
        "check": "re-price the experiments and gate against the baseline",
        "report": "render energy-per-op, EDP, and movement bars as "
        "standalone HTML",
    },
    add_arguments=_energy_arguments,
)


#: ``repro resil``'s grid and policy options: flag, default, metavar and
#: help. A tuple default takes one or more values.
_RESIL_OPTIONS = (
    ("--workload", "vec_add", None, "request-class workload"),
    ("--security", 54, "BITS", "security level"),
    # The fault seeds of the CI chaos matrix.
    ("--seeds", (1, 7), None, "fault seeds to sweep"),
    # Unsharded vs the reference partition.
    ("--shards", (1, 4), "K", "shard counts to sweep"),
    # The top of the grid straddles the degraded-fleet saturation knee
    # at vec_add@54: under one dead shard's ranks the unsharded model
    # breaches p99 at 144k (every request pays the global slowdown)
    # while the 4-shard fleet routes around the casualty and sustains
    # 144k, hedging stragglers at 176k.
    ("--qps", (2000.0, 96000.0, 144000.0, 176000.0), None,
     "offered rates to sweep"),
    ("--duration", 0.1, "S", "modelled arrival window in seconds"),
    ("--breaker-threshold", 3, "N",
     "consecutive failures that trip a shard's breaker"),
    ("--breaker-cooldown-ms", 25.0, "MS",
     "breaker cooldown in modelled milliseconds"),
    ("--retry-budget", 1, "N", "redispatches allowed after a failed dispatch"),
    ("--hedge-after-ms", 5.0, "MS",
     "queue wait that triggers a hedged duplicate launch"),
    ("--perf-baseline", PERF_CLI.baseline_path, "FILE",
     "perf baseline for the single-shard bit-identity cross-check"),
)

#: The defaults of ``repro resil``'s options by name (``seeds``,
#: ``breaker_cooldown_ms``, ...). :mod:`repro.serve.resilience` takes
#: its capture's and breaker's defaults from here.
RESIL_DEFAULTS = {
    flag[2:].replace("-", "_"): default for flag, default, _, _ in _RESIL_OPTIONS
}


def _resil_arguments(parser, command: str) -> None:
    for flag, default, metavar, text in _RESIL_OPTIONS:
        values = default if isinstance(default, tuple) else (default,)
        shown = " ".join(v if isinstance(v, str) else f"{v:g}" for v in values)
        parser.add_argument(
            flag,
            nargs="+" if isinstance(default, tuple) else None,
            type=type(values[0]),
            default=list(default) if isinstance(default, tuple) else default,
            metavar=metavar,
            help=f"{text} (default: {shown})",
        )
    parser.add_argument(
        "--skip-baseline",
        action="store_true",
        help="skip the single-shard perf cross-check",
    )


RESIL_CLI = GateCli(
    name="resil",
    module="repro.serve.resilience",
    ledger=Ledger(
        noun="resilience",
        what="resilience baseline",
        family="points",
        hint="repro resil record",
        kind="resilience-baseline",
    ),
    baseline_path="baselines/resilience.json",
    history_path="baselines/resilience-history.jsonl",
    help="fault-tolerant sharded serving: record, gate, and render "
    "degraded-fleet SLO attainment",
    description=(
        "Sweep the sharded resilient serving model — health-aware "
        "placement over K rank-aligned shards, per-shard circuit "
        "breakers, retry budgets, hedged dispatch — across a fault "
        "seed × shard count × offered QPS grid, healthy and with "
        "one shard's ranks disabled. Every point is deterministic "
        "modelled arithmetic, so the gate demands exact equality "
        "(RESILIENCE-DRIFT otherwise); the single-shard zero-fault "
        "pricer is cross-checked bit-for-bit against the perf "
        "baseline. See docs/robustness.md."
    ),
    commands={
        "record": "capture the RESILIENCE gate baseline",
        "check": "re-simulate the recorded grid and gate against the "
        "baseline",
        "html": "render the shard-health dashboard from the recorded run",
    },
    add_arguments=_resil_arguments,
)

#: Every gate, in the order ``repro gates`` checks them.
GATE_CLIS = (PERF_CLI, NOISE_CLI, ENERGY_CLI, RESIL_CLI)
