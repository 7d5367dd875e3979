"""Exporters: JSONL span files, Chrome traces, text attribution trees.

Three consumers of the same finished-span list:

* **JSONL** (:func:`write_jsonl` / :func:`read_jsonl`): one JSON object
  per line, lossless round-trip of every span field — the archival
  format, and what ``REPRO_TRACE=file.jsonl`` produces;
* **Chrome trace** (:func:`to_chrome_trace` /
  :func:`write_chrome_trace`): a ``{"traceEvents": [...]}`` document
  loadable in ``chrome://tracing`` or Perfetto, with spans as complete
  ("ph": "X") events on a wall-clock timeline and attributes as event
  ``args``. This module owns the event format: the simulator's and the
  serving loop's timelines are built with the same
  :func:`chrome_metadata` / :func:`chrome_complete` /
  :func:`chrome_document` builders;
* **text tree** (:func:`render_time_tree`): an aggregated terminal
  report attributing wall and modelled time down the span hierarchy —
  the quick "where did the time go" answer;
* **path table** (:func:`path_tree` / :func:`to_collapsed`): the same
  hierarchy as a flat path-keyed table with self-vs-children time
  split, the alignment substrate for :mod:`repro.obs.forensics` and
  the collapsed-stack flamegraph export.
"""

from __future__ import annotations

import json
import pathlib

from repro.errors import ParameterError

__all__ = [
    "span_to_dict",
    "write_jsonl",
    "read_jsonl",
    "chrome_metadata",
    "chrome_complete",
    "chrome_document",
    "to_chrome_trace",
    "write_chrome_trace",
    "merge_chrome_traces",
    "render_time_tree",
    "path_tree",
    "to_collapsed",
    "write_collapsed",
]


def _jsonable(value):
    """Coerce attribute values to JSON-serializable equivalents."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


def span_to_dict(span) -> dict:
    """One span as a plain JSON-able dict."""
    return {
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "wall_s": span.wall_s,
        "attrs": _jsonable(span.attrs),
    }


def _write_text(text: str, path_or_file) -> None:
    """Write to an open text file, or to a path, creating its directories."""
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
        return
    path = pathlib.Path(path_or_file)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _as_records(spans_or_records) -> list:
    records = []
    for item in spans_or_records:
        if isinstance(item, dict):
            records.append(_jsonable(item))
        else:
            records.append(span_to_dict(item))
    return records


def write_jsonl(spans_or_records, path_or_file) -> int:
    """Write spans (or plain dict records) as JSON lines.

    Accepts a path or an open text file; returns the number of lines
    written.
    """
    records = _as_records(spans_or_records)
    _write_text("".join(json.dumps(r) + "\n" for r in records), path_or_file)
    return len(records)


def read_jsonl(path_or_file) -> list:
    """Read a JSONL trace back as a list of dicts (round-trip)."""
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file) as handle:
            lines = handle.read().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


# -- Chrome trace -----------------------------------------------------------


def chrome_metadata(kind: str, label: str, tid: int = 0) -> dict:
    """A ``process_name`` / ``thread_name`` metadata event ("ph": "M")."""
    return {
        "name": kind,
        "ph": "M",
        "pid": 1,
        "tid": tid,
        "args": {"name": label},
    }


def chrome_complete(
    name: str, cat: str, tid: int, ts: float, dur: float, args: dict
) -> dict:
    """A complete event ("ph": "X") on lane ``tid``, times in µs."""
    return {
        "name": name,
        "cat": cat,
        "ph": "X",
        "pid": 1,
        "tid": tid,
        "ts": ts,
        "dur": dur,
        "args": args,
    }


def chrome_document(events) -> dict:
    """Events as a Chrome-trace document.

    Every builder places its events in process 1;
    :func:`merge_chrome_traces` gives each merged document its own.
    """
    return {"traceEvents": list(events), "displayTimeUnit": "ms"}


def to_chrome_trace(spans, process_name: str = "repro model") -> dict:
    """Spans as a Chrome-trace (``chrome://tracing`` / Perfetto) document.

    Every finished span becomes one complete event ("ph": "X") whose
    timestamp/duration are **wall-clock** microseconds relative to the
    earliest span start; modelled device time and every other attribute
    ride along in ``args``, so both clock domains survive the export.
    """
    spans = [s for s in spans if s.end_s is not None]
    origin = min((s.start_s for s in spans), default=0.0)
    events = [chrome_metadata("process_name", process_name)]
    for span in spans:
        events.append(
            chrome_complete(
                span.name,
                span.name.split(".", 1)[0],
                1,
                (span.start_s - origin) * 1e6,
                span.wall_s * 1e6,
                _jsonable(span.attrs)
                | {"span_id": span.span_id, "parent_id": span.parent_id},
            )
        )
    return chrome_document(events)


def write_chrome_trace(spans, path_or_file, **kwargs) -> None:
    """Serialize :func:`to_chrome_trace` output as a JSON file."""
    _write_text(json.dumps(to_chrome_trace(spans, **kwargs)), path_or_file)


def merge_chrome_traces(documents) -> dict:
    """Several Chrome-trace documents as one multi-process document.

    Each input keeps its own event list verbatim but is moved to a
    distinct ``pid`` (input order, starting at 1), so the host span
    timeline and any number of simulated-DPU timelines
    (:meth:`repro.pim.sim.SimTrace.to_chrome_trace`) appear as separate
    process groups in one Perfetto view. Time axes are **not**
    reconciled — host processes show wall microseconds, simulated ones
    modelled cycles; the grouping is what makes that legible.
    """
    documents = list(documents)
    if not documents:
        raise ParameterError("need at least one chrome trace to merge")
    merged = []
    for index, document in enumerate(documents):
        validate_chrome_trace(document)
        for event in document["traceEvents"]:
            merged.append(dict(event, pid=index + 1))
    return chrome_document(merged)


# -- text attribution tree --------------------------------------------------


class _Node:
    __slots__ = ("name", "count", "wall_s", "modelled_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.wall_s = 0.0
        self.modelled_s = 0.0
        self.children: dict = {}


def _modelled_of(span_dict) -> float:
    try:
        return float(span_dict["attrs"].get("modelled_s", 0.0))
    except (TypeError, ValueError):
        return 0.0


def build_time_tree(spans) -> _Node:
    """Aggregate spans into a name-keyed hierarchy.

    Accepts ``Span`` objects or dicts as produced by
    :func:`span_to_dict` (so traces read back from JSONL render the
    same report). Sibling spans with the same name merge: counts,
    wall seconds, and modelled seconds accumulate.
    """
    records = _as_records(spans)
    by_id = {r["span_id"]: r for r in records}
    children: dict = {}
    roots = []
    for record in records:
        parent = record["parent_id"]
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)

    root = _Node("<root>")

    def fold(node: _Node, record) -> None:
        child = node.children.get(record["name"])
        if child is None:
            child = node.children[record["name"]] = _Node(record["name"])
        child.count += 1
        child.wall_s += record["wall_s"] or 0.0
        child.modelled_s += _modelled_of(record)
        for grandchild in children.get(record["span_id"], ()):
            fold(child, grandchild)

    for record in roots:
        fold(root, record)
    return root


def render_time_tree(spans, indent: str = "  ") -> str:
    """The aggregated time-attribution tree as aligned text.

    Wall time is what this process spent running the model; modelled
    time is what the simulated hardware would spend. A node's times
    include its children's (spans nest), so each level reads as "of the
    parent's time, this much is attributed here".
    """
    root = build_time_tree(spans)
    if not root.children:
        return "(no spans recorded)"
    rows = []

    def walk(node: _Node, depth: int) -> None:
        for name in sorted(
            node.children, key=lambda n: -node.children[n].wall_s
        ):
            child = node.children[name]
            rows.append(
                (
                    f"{indent * depth}{child.name}",
                    f"{child.count}x",
                    f"wall {child.wall_s * 1e3:10.3f} ms",
                    f"modelled {child.modelled_s * 1e3:14.3f} ms",
                )
            )
            walk(child, depth + 1)

    walk(root, 0)
    label_width = max(len(r[0]) for r in rows)
    count_width = max(len(r[1]) for r in rows)
    lines = ["time attribution (wall = this process, modelled = device)"]
    for label, count, wall, modelled in rows:
        lines.append(
            f"{label.ljust(label_width)}  {count.rjust(count_width)}"
            f"  {wall}  {modelled}"
        )
    return "\n".join(lines)


# -- path-keyed attribution table (drift forensics) -------------------------


def path_tree(spans_or_records) -> dict:
    """Spans as a path-keyed attribution table with self-time split.

    Every node is keyed by its span path — span names joined root→node
    with ``";"``, the native collapsed-stack separator — and carries
    inclusive *and* self values for both clock domains::

        {"experiment.fig1a;backend.pim.encrypt;pim.time_kernel.vec_add":
            {"name": "pim.time_kernel.vec_add", "depth": 2, "count": 4,
             "wall_s": ..., "modelled_s": ...,
             "self_wall_s": ..., "self_modelled_s": ...}}

    Same-name siblings merge (as in :func:`render_time_tree`), so the
    table is deterministic for deterministic span streams. Inclusive
    time is ``max(own recorded time, sum of children inclusive)``:
    container spans that record no ``modelled_s`` of their own (e.g.
    ``experiment.*``) inherit their children's total, while priced
    spans keep their recorded value. Self time is inclusive minus the
    children's inclusive sum and is therefore never negative — exactly
    the invariant flamegraph widths need.
    """
    root = build_time_tree(spans_or_records)
    table: dict = {}

    def walk(node: _Node, prefix: str, depth: int) -> tuple:
        path = f"{prefix};{node.name}" if prefix else node.name
        child_wall = 0.0
        child_modelled = 0.0
        for name in sorted(node.children):
            inc_w, inc_m = walk(node.children[name], path, depth + 1)
            child_wall += inc_w
            child_modelled += inc_m
        inclusive_wall = max(node.wall_s, child_wall)
        inclusive_modelled = max(node.modelled_s, child_modelled)
        table[path] = {
            "name": node.name,
            "depth": depth,
            "count": node.count,
            "wall_s": inclusive_wall,
            "modelled_s": inclusive_modelled,
            "self_wall_s": inclusive_wall - child_wall,
            "self_modelled_s": inclusive_modelled - child_modelled,
        }
        return inclusive_wall, inclusive_modelled

    for name in sorted(root.children):
        walk(root.children[name], "", 0)
    return table


def to_collapsed(tree: dict, metric: str = "self_modelled_s") -> str:
    """A path table as collapsed-stack text (``path value`` lines).

    ``metric`` picks the self column to export; values are scaled to
    integer nanoseconds (the format wants integers) and zero-valued
    stacks are dropped. The output feeds ``flamegraph.pl`` and friends
    directly.
    """
    if metric not in ("self_wall_s", "self_modelled_s"):
        raise ParameterError(f"unknown collapsed-stack metric: {metric!r}")
    lines = []
    for path in sorted(tree):
        value = int(round(tree[path][metric] * 1e9))
        if value > 0:
            lines.append(f"{path} {value}")
    return "".join(line + "\n" for line in lines)


def write_collapsed(tree: dict, path_or_file, **kwargs) -> None:
    """Serialize :func:`to_collapsed` output to a file."""
    _write_text(to_collapsed(tree, **kwargs), path_or_file)


def validate_chrome_trace(document) -> None:
    """Raise :class:`~repro.errors.ParameterError` on schema violations.

    Used by tests and the CLI as a cheap guard that exported documents
    will load in ``chrome://tracing``.
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ParameterError("chrome trace must be a dict with traceEvents")
    for event in document["traceEvents"]:
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ParameterError(f"trace event missing {key!r}: {event}")
        if event["ph"] == "X" and (
            "ts" not in event or "dur" not in event
        ):
            raise ParameterError(f"complete event missing ts/dur: {event}")
