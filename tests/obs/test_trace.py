"""Tracer behaviour: nesting, null no-ops, the global default, env."""

import pytest

from repro.errors import ParameterError
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    configure_from_env,
    flush_env_trace,
    get_tracer,
    set_tracer,
    use_tracer,
)


class TestSpans:
    def test_span_records_name_and_wall_time(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            pass
        assert span.name == "work"
        assert span.end_s is not None
        assert span.wall_s >= 0.0
        assert tracer.finished == [span]

    def test_nesting_sets_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                with tracer.span("leaf") as leaf:
                    pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert leaf.parent_id == inner.span_id

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id

    def test_finished_in_completion_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.finished] == ["inner", "outer"]

    def test_current_span_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current_span is None
        with tracer.span("outer") as outer:
            assert tracer.current_span is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span is inner
            assert tracer.current_span is outer
        assert tracer.current_span is None

    def test_attrs_initial_and_set(self):
        tracer = Tracer()
        with tracer.span("k", attrs={"a": 1}) as span:
            span.set_attr("b", 2)
            span.set_attrs({"c": 3})
        assert span.attrs == {"a": 1, "b": 2, "c": 3}

    def test_modelled_s_defaults_to_zero(self):
        tracer = Tracer()
        with tracer.span("k") as span:
            pass
        assert span.modelled_s == 0.0
        span.set_attr("modelled_s", 1.5)
        assert span.modelled_s == 1.5

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("bad")
        (span,) = tracer.finished
        assert span.end_s is not None
        assert "RuntimeError" in span.attrs["error"]

    def test_empty_name_rejected(self):
        with pytest.raises(ParameterError):
            Tracer().span("")

    def test_clear_drops_finished(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        tracer.clear()
        assert tracer.finished == []

    def test_span_ids_unique(self):
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [s.span_id for s in tracer.finished]
        assert len(set(ids)) == 5


class TestNullTracer:
    def test_default_tracer_is_null(self):
        assert isinstance(get_tracer(), NullTracer)
        assert not get_tracer().enabled

    def test_null_span_is_shared_noop(self):
        a = NULL_TRACER.span("x")
        b = NULL_TRACER.span("y", attrs={"k": 1})
        assert a is b  # one shared object, no allocation per call
        with a as span:
            span.set_attr("k", 2)
            span.set_attrs({"j": 3})
        assert span.attrs == {}
        assert NULL_TRACER.finished == ()
        assert NULL_TRACER.current_span is None

    def test_null_span_swallows_nothing_exceptional(self):
        with pytest.raises(ValueError):
            with NULL_TRACER.span("x"):
                raise ValueError("propagates")


class TestGlobalTracer:
    def test_use_tracer_scopes_installation(self):
        tracer = Tracer()
        before = get_tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with get_tracer().span("scoped"):
                pass
        assert get_tracer() is before
        assert [s.name for s in tracer.finished] == ["scoped"]

    def test_set_tracer_none_restores_null(self):
        set_tracer(Tracer())
        try:
            assert get_tracer().enabled
        finally:
            set_tracer(None)
        assert isinstance(get_tracer(), NullTracer)


class TestEnvConfiguration:
    def test_unset_env_leaves_null(self):
        assert configure_from_env(environ={}) is None
        assert isinstance(get_tracer(), NullTracer)

    def test_env_installs_recording_tracer(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        tracer = configure_from_env(
            environ={"REPRO_TRACE": str(out)}, register_atexit=False
        )
        try:
            assert tracer is get_tracer()
            with tracer.span("env-span") as span:
                span.set_attr("modelled_s", 0.5)
            flush_env_trace(tracer, str(out))
        finally:
            set_tracer(None)
        from repro.obs.export import read_jsonl

        (record,) = read_jsonl(out)
        assert record["name"] == "env-span"
        assert record["attrs"]["modelled_s"] == 0.5

    def test_env_configuration_idempotent(self):
        tracer = configure_from_env(
            environ={"REPRO_TRACE": "report"}, register_atexit=False
        )
        try:
            again = configure_from_env(
                environ={"REPRO_TRACE": "report"}, register_atexit=False
            )
            assert again is tracer
        finally:
            set_tracer(None)

    def test_env_chrome_destination(self, tmp_path):
        out = tmp_path / "trace.json"
        tracer = configure_from_env(
            environ={"REPRO_TRACE": str(out)}, register_atexit=False
        )
        try:
            with tracer.span("chrome-span"):
                pass
            flush_env_trace(tracer, str(out))
        finally:
            set_tracer(None)
        import json

        document = json.loads(out.read_text())
        assert "traceEvents" in document

    @pytest.mark.parametrize("name", ["trace.jsonl", "trace.json"])
    def test_env_destination_under_a_missing_directory(self, tmp_path, name):
        out = tmp_path / "new" / name
        tracer = Tracer()
        with tracer.span("span"):
            pass
        flush_env_trace(tracer, str(out))
        assert out.read_text()
