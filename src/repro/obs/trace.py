"""Nested-span tracing for the model pipeline.

The paper's contribution is an *explained* performance story: per-kernel
compute-vs-DMA breakdowns, tasklet utilization, and host<->DPU transfer
costs. The model computes all of that deep inside ``time_kernel`` and
the backends and then discards everything but the final scalar. This
module keeps it: instrumented code opens **spans** — named, nestable
regions carrying attributes — on a process-global tracer, and exporters
(:mod:`repro.obs.export`) turn the finished spans into JSONL files,
Chrome traces, or text attribution trees.

Two clock domains coexist on every span:

* **wall time** (``start_s``/``end_s`` via ``perf_counter``): what this
  Python process actually spent — the cost of running the *model*;
* **modelled time** (the ``modelled_s`` attribute, set by
  instrumentation): what the simulated hardware would spend — the
  paper's numbers.

Tracing is **off by default**: the global tracer is a
:class:`NullTracer` whose spans are a single shared no-op object, so
instrumented code costs one dynamic dispatch when disabled and changes
no computed values either way. Enable it explicitly
(:func:`set_tracer` / :func:`use_tracer`), through the CLI
(``repro-experiments obs``), or with the ``REPRO_TRACE`` environment
variable (:func:`configure_from_env`).
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
from time import perf_counter

from repro.errors import ParameterError
from repro.obs.export import render_time_tree, write_chrome_trace, write_jsonl

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "configure_from_env",
    "TRACE_ENV_VAR",
]

#: Environment variable switching tracing on for a whole process.
TRACE_ENV_VAR = "REPRO_TRACE"


class Span:
    """One traced region: a name, attributes, and two clock readings.

    Spans are created by :meth:`Tracer.span` (as context managers) and
    should not be constructed directly. ``attrs`` may be extended while
    the span is open via :meth:`set_attr`; instrumentation uses this to
    attach results (e.g. the full ``KernelTiming`` breakdown) computed
    inside the region.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "start_s",
        "end_s",
    )

    def __init__(self, name: str, span_id: int, parent_id, attrs):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = dict(attrs) if attrs else {}
        self.start_s = perf_counter()
        self.end_s = None

    @property
    def wall_s(self) -> float:
        """Wall-clock duration (0.0 while the span is still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def modelled_s(self) -> float:
        """Modelled device seconds attached by instrumentation (or 0)."""
        return float(self.attrs.get("modelled_s", 0.0))

    def set_attr(self, key: str, value) -> None:
        """Attach (or overwrite) one attribute."""
        self.attrs[key] = value

    def set_attrs(self, mapping) -> None:
        """Attach several attributes at once."""
        self.attrs.update(mapping)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end_s is None else f"{self.wall_s:.6f}s"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class _SpanHandle:
    """Context manager pairing a span with its tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.set_attr("error", f"{exc_type.__name__}: {exc}")
        self._tracer._finish(self._span)
        return False


class Tracer:
    """Recording tracer: collects finished spans in completion order.

    Nesting is tracked per thread — a span opened while another is open
    on the same thread becomes its child (``parent_id``). The finished
    list is shared and lock-protected, so spans from worker threads land
    in the same trace.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._finished: list = []
        self._next_id = 1

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, attrs=None) -> _SpanHandle:
        """Open a span; use as ``with tracer.span("name") as s:``."""
        if not name:
            raise ParameterError("span name must be non-empty")
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        span = Span(name, span_id, parent_id, attrs)
        stack.append(span)
        return _SpanHandle(self, span)

    def _finish(self, span: Span) -> None:
        span.end_s = perf_counter()
        stack = self._stack()
        if span in stack:
            # Close any children left open by non-local exits too.
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        with self._lock:
            self._finished.append(span)

    # -- inspection ---------------------------------------------------------

    @property
    def current_span(self):
        """The innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    @property
    def finished(self) -> list:
        """Snapshot of finished spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        """Drop all finished spans (open spans are unaffected)."""
        with self._lock:
            self._finished.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


class _NullSpan:
    """Shared no-op span: every mutation is swallowed."""

    __slots__ = ()

    name = ""
    span_id = 0
    parent_id = None
    attrs: dict = {}
    start_s = 0.0
    end_s = 0.0
    wall_s = 0.0
    modelled_s = 0.0

    def set_attr(self, key: str, value) -> None:
        pass

    def set_attrs(self, mapping) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: hands out one shared no-op span.

    ``span()`` allocates nothing and records nothing, so instrumented
    hot paths pay only the call itself when tracing is off.
    """

    enabled = False
    finished: tuple = ()

    def span(self, name: str, attrs=None) -> _NullSpan:
        return _NULL_SPAN

    @property
    def current_span(self):
        return None

    def clear(self) -> None:
        pass


#: The process-wide disabled tracer (also the default).
NULL_TRACER = NullTracer()

_default_tracer = NULL_TRACER
_default_lock = threading.Lock()


def get_tracer():
    """The process-global tracer (a :class:`NullTracer` by default)."""
    return _default_tracer


def set_tracer(tracer) -> None:
    """Install ``tracer`` (or :data:`NULL_TRACER`) as the global tracer."""
    global _default_tracer
    with _default_lock:
        _default_tracer = tracer if tracer is not None else NULL_TRACER


class use_tracer:
    """Context manager installing a tracer for a scoped region.

    >>> tracer = Tracer()
    >>> with use_tracer(tracer):
    ...     with get_tracer().span("work"):
    ...         pass
    >>> [s.name for s in tracer.finished]
    ['work']
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._previous = None

    def __enter__(self):
        self._previous = get_tracer()
        set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_tracer(self._previous)
        return False


def configure_from_env(environ=None, register_atexit: bool = True):
    """Enable tracing when the ``REPRO_TRACE`` variable is set.

    Recognized values:

    * a path ending in ``.jsonl`` — finished spans are written there as
      JSON lines at process exit;
    * a path ending in ``.json`` — a Chrome-trace (``chrome://tracing``
      / Perfetto) file is written at process exit;
    * ``report`` / ``1`` / ``stderr`` — the text time-attribution tree
      is printed to stderr at process exit.

    Returns the installed :class:`Tracer`, or ``None`` when the
    variable is unset. Idempotent: if the global tracer is already a
    recording tracer, it is returned unchanged.
    """
    env = os.environ if environ is None else environ
    value = env.get(TRACE_ENV_VAR, "").strip()
    if not value:
        return None
    current = get_tracer()
    if isinstance(current, Tracer):
        return current
    tracer = Tracer()
    set_tracer(tracer)
    if register_atexit:
        atexit.register(flush_env_trace, tracer, value)
    return tracer


def flush_env_trace(tracer, destination: str) -> None:
    """Write a tracer's spans to a ``REPRO_TRACE``-style destination."""
    spans = tracer.finished
    if not spans:
        return
    if destination.endswith(".jsonl"):
        write_jsonl(spans, destination)
    elif destination.endswith(".json"):
        write_chrome_trace(spans, destination)
    else:
        print(render_time_tree(spans), file=sys.stderr)
