"""Exporters: JSONL round-trip, Chrome-trace schema, text tree."""

import io
import json

import pytest

from repro.errors import ParameterError
from repro.obs.export import (
    chrome_complete,
    chrome_metadata,
    merge_chrome_traces,
    read_jsonl,
    render_time_tree,
    span_to_dict,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.trace import Tracer
from repro.serve.service import ServeSpec, simulate, timelines_to_chrome_trace


class TestMergeChromeTraces:
    def _sim_document(self):
        from repro.pim.config import UPMEMConfig
        from repro.pim.sim import DPUSimulator, Phase, SimTrace, TaskletProgram

        trace = SimTrace()
        DPUSimulator(UPMEMConfig()).run(
            [TaskletProgram((Phase("dma", 128), Phase("compute", 40)))] * 3,
            trace=trace,
        )
        return trace.to_chrome_trace(process_name="DPU sim")

    def test_host_and_device_lanes_in_one_document(self):
        tracer = Tracer()
        with tracer.span("experiment.fig1a"):
            pass
        merged = merge_chrome_traces(
            [to_chrome_trace(tracer.finished), self._sim_document()]
        )
        validate_chrome_trace(merged)
        by_pid: dict = {}
        for event in merged["traceEvents"]:
            if event["ph"] == "M" and event["name"] == "process_name":
                by_pid[event["pid"]] = event["args"]["name"]
        assert by_pid == {1: "repro model", 2: "DPU sim"}
        thread_names = {
            e["args"]["name"]
            for e in merged["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "dma engine" in thread_names
        assert "tasklet 0" in thread_names

    def test_inputs_not_mutated_and_events_preserved(self):
        document = self._sim_document()
        before = [dict(e) for e in document["traceEvents"]]
        merged = merge_chrome_traces([document, document])
        assert document["traceEvents"] == before
        assert len(merged["traceEvents"]) == 2 * len(before)
        assert {e["pid"] for e in merged["traceEvents"]} == {1, 2}

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            merge_chrome_traces([])

    def test_invalid_member_rejected(self):
        with pytest.raises(ParameterError):
            merge_chrome_traces([{"nope": []}])


@pytest.fixture()
def nested_spans():
    tracer = Tracer()
    with tracer.span("experiment.fig1a", attrs={"unit": "ms"}) as outer:
        with tracer.span("workload.Add", attrs={"backend": "pim"}) as mid:
            with tracer.span("pim.time_kernel.vec_add") as leaf:
                leaf.set_attr("modelled_s", 0.004)
            mid.set_attr("modelled_s", 0.005)
        outer.set_attr("n_rows", 5)
    return tracer.finished


class TestJsonl:
    def test_round_trip_preserves_every_field(self, nested_spans, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(nested_spans, path) == 3
        records = read_jsonl(path)
        assert records == [span_to_dict(s) for s in nested_spans]
        by_name = {r["name"]: r for r in records}
        kernel = by_name["pim.time_kernel.vec_add"]
        assert kernel["attrs"]["modelled_s"] == 0.004
        assert kernel["parent_id"] == by_name["workload.Add"]["span_id"]

    def test_each_line_is_standalone_json(self, nested_spans, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(nested_spans, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert isinstance(json.loads(line), dict)

    def test_file_object_and_dict_records(self):
        buffer = io.StringIO()
        write_jsonl([{"kind": "dma", "bytes": 64}], buffer)
        buffer.seek(0)
        assert read_jsonl(buffer) == [{"kind": "dma", "bytes": 64}]

    def test_non_jsonable_attrs_coerced(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s", attrs={"obj": object(), "t": (1, 2)}):
            pass
        path = tmp_path / "t.jsonl"
        write_jsonl(tracer.finished, path)
        (record,) = read_jsonl(path)
        assert record["attrs"]["t"] == [1, 2]
        assert isinstance(record["attrs"]["obj"], str)


class TestChromeTrace:
    def test_schema(self, nested_spans):
        document = to_chrome_trace(nested_spans)
        validate_chrome_trace(document)
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 3
        for event in complete:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["pid"] == 1

    def test_args_carry_attrs_and_hierarchy(self, nested_spans):
        document = to_chrome_trace(nested_spans)
        by_name = {
            e["name"]: e
            for e in document["traceEvents"]
            if e["ph"] == "X"
        }
        kernel = by_name["pim.time_kernel.vec_add"]
        assert kernel["args"]["modelled_s"] == 0.004
        assert (
            kernel["args"]["parent_id"]
            == by_name["workload.Add"]["args"]["span_id"]
        )

    def test_written_file_loads_as_json(self, nested_spans, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(nested_spans, path)
        document = json.loads(path.read_text())
        assert "traceEvents" in document
        validate_chrome_trace(document)

    def test_validator_rejects_bad_documents(self):
        with pytest.raises(ParameterError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ParameterError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 1}]}
            )


class TestOneEventFormat:
    """Every producer's events come from the same builders."""

    def test_every_event_has_the_builder_key_order(self, nested_spans):
        order = {
            "M": list(chrome_metadata("process_name", "p")),
            "X": list(chrome_complete("n", "c", 1, 0.0, 1.0, {})),
        }
        timelines = simulate(ServeSpec(duration_s=0.02)).timelines
        documents = {
            "spans": to_chrome_trace(nested_spans),
            "sim": TestMergeChromeTraces()._sim_document(),
            "serve": timelines_to_chrome_trace(timelines),
        }
        for producer, document in documents.items():
            validate_chrome_trace(document)
            assert list(document) == ["traceEvents", "displayTimeUnit"]
            phases = set()
            for event in document["traceEvents"]:
                phases.add(event["ph"])
                assert list(event) == order[event["ph"]], (producer, event)
            assert phases == {"M", "X"}, producer


class TestTimeTree:
    def test_tree_shows_hierarchy_and_counts(self, nested_spans):
        text = render_time_tree(nested_spans)
        lines = text.splitlines()
        assert "experiment.fig1a" in text
        assert "  workload.Add" in text
        assert "    pim.time_kernel.vec_add" in text
        assert any("1x" in line for line in lines)
        assert "modelled" in text and "wall" in text

    def test_sibling_spans_aggregate(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("parent"):
                with tracer.span("child") as child:
                    child.set_attr("modelled_s", 1.0)
        text = render_time_tree(tracer.finished)
        assert "3x" in text
        assert "modelled       3000.000 ms" in text

    def test_renders_from_jsonl_records(self, nested_spans, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(nested_spans, path)
        assert render_time_tree(read_jsonl(path)) == render_time_tree(
            nested_spans
        )

    def test_empty_trace(self):
        assert render_time_tree([]) == "(no spans recorded)"
