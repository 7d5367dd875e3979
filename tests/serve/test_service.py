"""Serving points and capacity sweeps: determinism, bit-identity,
registry resume, exports."""

import json

import pytest

from repro.errors import ParameterError
from repro.obs.export import validate_chrome_trace
from repro.obs.registry import GridSpec, RunRegistry
from repro.obs.slo import VERDICT_SLO_BREACH, VERDICT_SLO_OK
from repro.serve import (
    RequestClass,
    ServeSpec,
    check_serving_baseline,
    render_point_text,
    render_sweep_text,
    simulate,
    sweep_capacity,
    timelines_to_chrome_trace,
)
from repro.serve.service import SWEEPS

_IDENTITY = ("run_id", "created_at", "git_sha")


def _tiny_spec(**overrides):
    defaults = dict(
        classes=(RequestClass(rate_qps=2000.0),),
        duration_s=0.1,
        seed=0,
    )
    defaults.update(overrides)
    return ServeSpec(**defaults)


def _stripped(doc):
    doc = dict(doc)
    for key in _IDENTITY:
        doc.pop(key, None)
    return doc


class TestSpecValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ParameterError):
            RequestClass(workload="fft")

    def test_duplicate_classes_rejected(self):
        with pytest.raises(ParameterError):
            ServeSpec(
                classes=(
                    RequestClass(rate_qps=100.0),
                    RequestClass(rate_qps=200.0),
                )
            )

    def test_bad_scalars_rejected(self):
        with pytest.raises(ParameterError):
            RequestClass(rate_qps=0.0)
        with pytest.raises(ParameterError):
            RequestClass(ops_per_request=0)
        with pytest.raises(ParameterError):
            ServeSpec(duration_s=0.0)
        with pytest.raises(ParameterError):
            ServeSpec(healthy=0.0)

    def test_spec_token_ignores_offered_rate(self):
        # Same sweep at different QPS must share registry keys.
        slow = _tiny_spec(classes=(RequestClass(rate_qps=100.0),))
        fast = _tiny_spec(classes=(RequestClass(rate_qps=9000.0),))
        assert slow.token() == fast.token()
        assert slow.token() != _tiny_spec(seed=1).token()


class TestSimulateDeterminism:
    def test_same_spec_yields_byte_identical_documents(self):
        a = simulate(_tiny_spec())
        b = simulate(_tiny_spec())
        assert json.dumps(_stripped(a.doc), sort_keys=True) == json.dumps(
            _stripped(b.doc), sort_keys=True
        )

    def test_timelines_and_digest_state_are_bit_identical(self):
        a = simulate(_tiny_spec())
        b = simulate(_tiny_spec())
        assert [t.to_dict() for t in a.timelines] == [
            t.to_dict() for t in b.timelines
        ]
        key = a.spec.classes[0].key
        assert (
            a.reports[key]["digest"] == b.reports[key]["digest"]
        )

    def test_seed_changes_the_point(self):
        a = simulate(_tiny_spec(seed=0))
        b = simulate(_tiny_spec(seed=1))
        assert [t.arrival_s for t in a.timelines] != [
            t.arrival_s for t in b.timelines
        ]

    def test_every_request_is_served_exactly_once(self):
        result = simulate(_tiny_spec())
        report = result.reports[result.spec.classes[0].key]
        assert report["completed"] == len(result.timelines)
        assert sum(l.batch_size for l in result.launches) == len(
            result.timelines
        )

    def test_point_text_renders(self):
        text = render_point_text(simulate(_tiny_spec()))
        assert "p50" in text and "verdict" in text


class TestAdmissionControl:
    def test_impossible_margin_rejects_everything(self):
        spec = _tiny_spec(margin_bits=1e6)
        result = simulate(spec)
        report = result.reports[spec.classes[0].key]
        assert report["completed"] == 0
        assert report["rejected"] > 0
        assert report["verdict"] == VERDICT_SLO_BREACH
        assert result.launches == []


class TestZeroFaultBitIdentity:
    @pytest.fixture(scope="class")
    def baseline(self):
        with open("baselines/perf.json") as handle:
            return json.load(handle)

    def test_vec_add_series_match_bit_for_bit(self, baseline):
        verdicts = check_serving_baseline(baseline, workload="vec_add")
        assert verdicts, "no vec_add experiments found"
        for verdict in verdicts:
            assert verdict["verdict"] == "ok", verdict
            assert verdict["got_ms"] == verdict["expected_ms"]

    def test_vec_mul_series_match_bit_for_bit(self, baseline):
        verdicts = check_serving_baseline(baseline, workload="vec_mul")
        assert verdicts and all(
            v["verdict"] == "ok" for v in verdicts
        ), verdicts

    def test_drift_is_detected(self, baseline):
        doctored = json.loads(json.dumps(baseline))
        exp = doctored["experiments"]["fig1a"]
        exp["modelled"]["series_totals"]["pim"] += 1e-9
        verdicts = check_serving_baseline(doctored, workload="vec_add")
        by_exp = {v["experiment"]: v["verdict"] for v in verdicts}
        assert by_exp["fig1a"] == "MODEL-DRIFT"

    def test_unknown_experiment_is_new(self, baseline):
        doctored = json.loads(json.dumps(baseline))
        del doctored["experiments"]["fig1a"]
        verdicts = check_serving_baseline(doctored, workload="vec_add")
        by_exp = {v["experiment"]: v["verdict"] for v in verdicts}
        assert by_exp["fig1a"] == "new"


class TestSweep:
    _KW = dict(
        security_levels=(54, 109),
        healthy_grid=(1.0, 0.9),
        qps_grid=(1000.0, 4000.0),
        duration_s=0.05,
    )

    def test_sweep_document_shape(self):
        doc = sweep_capacity(**self._KW)
        assert doc["kind"] == "serve-sweep"
        assert set(doc["cells"]) == {"54", "109"}
        for by_health in doc["cells"].values():
            assert set(by_health) == {"1", "0.9"}
            for entry in by_health.values():
                assert len(entry["points"]) == 2
                for point in entry["points"]:
                    assert point["verdict"] in (
                        VERDICT_SLO_OK,
                        VERDICT_SLO_BREACH,
                    )

    def test_sweep_is_deterministic(self):
        a = _stripped(sweep_capacity(**self._KW))
        b = _stripped(sweep_capacity(**self._KW))
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )

    def test_registry_memoizes_and_resumes(self, tmp_path):
        db = tmp_path / "serve.db"
        RunRegistry.create(
            db,
            GridSpec(
                workloads=("vec_add",),
                backends=("pim",),
                security_bits=(54, 109),
                healthy=(1.0, 0.9),
                max_batches=1,
            ),
        )
        with RunRegistry.open(db) as registry:
            first = sweep_capacity(registry=registry, **self._KW)
            second = sweep_capacity(registry=registry, **self._KW)
            runs = registry.runs()
        assert len(runs) == 2
        by_memo = sorted(
            runs, key=lambda r: r["rollups"]["serve"]["memoized"]
        )
        assert by_memo[0]["rollups"]["serve"]["memoized"] == 0
        # The resumed sweep re-prices nothing...
        assert by_memo[1]["rollups"]["serve"]["memoized"] == 8
        assert by_memo[1]["cells_done"] == 0
        # ...and reproduces the document bit-for-bit.
        assert json.dumps(_stripped(first), sort_keys=True) == json.dumps(
            _stripped(second), sort_keys=True
        )

    def test_registry_matches_the_direct_path(self, tmp_path):
        db = tmp_path / "serve.db"
        RunRegistry.create(
            db,
            GridSpec(
                workloads=("vec_add",),
                backends=("pim",),
                security_bits=(54, 109),
                healthy=(1.0, 0.9),
                max_batches=1,
            ),
        )
        direct = sweep_capacity(**self._KW)
        with RunRegistry.open(db) as registry:
            recorded = sweep_capacity(registry=registry, **self._KW)
        assert _stripped(direct) == _stripped(recorded)

    def test_baseline_check_rides_along(self):
        with open("baselines/perf.json") as handle:
            baseline = json.load(handle)
        doc = sweep_capacity(baseline=baseline, **self._KW)
        assert doc["baseline_check"]
        assert all(v["verdict"] == "ok" for v in doc["baseline_check"])

    def test_sweep_text_has_the_verdict_summary(self):
        text = render_sweep_text(sweep_capacity(**self._KW))
        assert "SLO verdict summary:" in text
        assert "sustainable QPS" in text

    def test_empty_qps_grid_rejected(self):
        with pytest.raises(ParameterError):
            sweep_capacity(qps_grid=())


class TestPersistence:
    def test_round_trip(self, tmp_path):
        doc = sweep_capacity(
            security_levels=(109,),
            healthy_grid=(1.0,),
            qps_grid=(1000.0,),
            duration_s=0.05,
        )
        path = tmp_path / "sweep.json"
        SWEEPS.write(doc, path)
        assert SWEEPS.read(path) == doc

    def test_missing_file_raises_with_hint(self, tmp_path):
        with pytest.raises(ParameterError, match="repro serve sweep"):
            SWEEPS.read(tmp_path / "absent.json")

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, "kind": "perf-run"}))
        with pytest.raises(ParameterError, match="unsupported"):
            SWEEPS.read(path)


class TestChromeTrace:
    def test_trace_validates_and_covers_every_request(self):
        result = simulate(_tiny_spec())
        trace = timelines_to_chrome_trace(result.timelines)
        validate_chrome_trace(trace)
        requests = [
            e
            for e in trace["traceEvents"]
            if e.get("name") == "serve.request"
        ]
        assert len(requests) == len(result.timelines)
        # Modelled microseconds: every request event inside the window.
        for event in requests:
            assert 0.0 <= event["ts"] <= 0.2 * 1e6

    def test_phases_nest_inside_their_request(self):
        result = simulate(_tiny_spec())
        trace = timelines_to_chrome_trace(result.timelines)
        by_request = {}
        for event in trace["traceEvents"]:
            if event.get("ph") != "X":
                continue
            key = (event["pid"], event["args"]["request_id"])
            by_request.setdefault(key, []).append(event)
        for events in by_request.values():
            request = next(
                e for e in events if e["name"] == "serve.request"
            )
            lo = request["ts"] - 1e-6
            hi = request["ts"] + request["dur"] + 1e-6
            for event in events:
                assert event["tid"] == request["tid"]
                assert lo <= event["ts"]
                assert event["ts"] + event["dur"] <= hi

    def test_empty_timelines_rejected(self):
        with pytest.raises(ParameterError):
            timelines_to_chrome_trace([])
