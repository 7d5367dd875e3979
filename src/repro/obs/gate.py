"""One gate framework: ledger, verdict, exact check, and check report.

Every drift gate — perf (:mod:`repro.obs.perf`), noise
(:mod:`repro.obs.noisegate`), energy (:mod:`repro.obs.energy`) and
resilience (:mod:`repro.serve.resilience`) — records a JSON document,
re-captures it, and reports one :class:`Verdict` row per checked item.
This module is the one copy of what they share: the on-disk
:class:`Ledger` (the faults and serve sweeps use it too), the verdict
row, the exact-match policy (:func:`check_exact`), the exit code, and
the :class:`Gate` spec with its text report, from which the CLI
generates each gate's commands. Policies that genuinely differ — perf's
wall band, noise's tolerances — stay in their gate modules.

It imports only the standard library and :mod:`repro.errors`, so it
adds nothing to a gate's set-up time.
"""

from __future__ import annotations

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
    "exact_diffs",
    "check_exact",
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
    for family in (gate.ledger.family, *extra_families):
        base_rows, cur_rows = _rows(baseline, family), _rows(current, family)
        for key in sorted(cur_rows):
            label = key if family == gate.ledger.family else f"{family}:{key}"
            if key not in base_rows:
                verdicts.append(gate.verdict(label, (NEW_NOTE,), VERDICT_NEW))
                continue
            notes = exact_diffs("", base_rows[key], cur_rows[key])
            verdicts.append(gate.verdict(label, notes))
    return verdicts


def _identity(role: str, doc: dict) -> str:
    return (
        f"  {role} run {str(doc.get('run_id', '?'))[:12]} "
        f"({doc.get('created_at', '?')}, git {str(doc.get('git_sha'))[:12]})"
    )


# -- the gate spec -------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """One drift gate: its ledger, report, and CLI surface.

    ``order`` lists the gate's verdict labels in summary order, the
    drift label last. The CLI (:mod:`repro.harness.cli`) builds
    ``repro <name> record|check|<html command>`` from the rest:

    * ``commands`` maps ``record``, ``check`` and the HTML command
      (``html`` or ``report``) to their help text;
    * ``add_arguments(parser, command)`` adds the gate's own options;
    * ``capture(args, progress)`` records a fresh document;
    * ``capture_for_check(baseline, args, progress)`` re-captures what
      the baseline recorded;
    * ``check(baseline, current, args)`` returns the verdicts;
    * ``html(current, baseline, history, verdicts)`` renders the
      dashboard for the newest recorded run from the verdicts the CLI
      computed with ``check`` (``None`` when there is no baseline);
    * ``recorded(doc)`` says what ``record`` captured.
    """

    name: str
    ledger: Ledger
    baseline_path: str
    history_path: str
    title: str
    noun: str
    order: tuple
    drift_hint: str | None
    help: str
    description: str
    commands: dict
    add_arguments: Callable
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
