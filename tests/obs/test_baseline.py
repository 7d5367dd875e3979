"""Run capture, schema-versioned persistence, history, identity."""

import json

import pytest

from repro.errors import ParameterError
from repro.obs import baseline as bl


@pytest.fixture(scope="module")
def run_doc():
    """One cheap recorded run shared across the module's tests."""
    return bl.capture_run(["abl_ntt", "fig1a"], repeats=2)


class TestIdentity:
    def test_identity_fields(self):
        identity = bl.run_identity()
        assert set(identity) == {"run_id", "created_at", "git_sha"}
        assert len(identity["run_id"]) == 32
        assert "T" in identity["created_at"]

    def test_run_ids_unique(self):
        assert bl.run_identity()["run_id"] != bl.run_identity()["run_id"]

    def test_git_sha_in_this_repo(self):
        sha = bl.git_sha()
        assert sha is None or (len(sha) == 40 and sha.strip() == sha)

    def test_git_sha_outside_a_repo(self, tmp_path):
        assert bl.git_sha(cwd=tmp_path) is None


class TestCaptureExperiment:
    def test_sections_present(self, run_doc):
        exp = run_doc["experiments"]["fig1a"]
        assert set(exp) == {
            "modelled",
            "wall",
            "counters",
            "transfer",
            "attribution",
            "paths",
        }

    def test_modelled_totals_match_a_direct_run(self, run_doc):
        from repro.harness.experiments import get_experiment

        rows = get_experiment("fig1a").run()
        expected = {}
        for row in rows:
            for name, value in row.series.items():
                expected[name] = expected.get(name, 0.0) + value
        modelled = run_doc["experiments"]["fig1a"]["modelled"]
        assert modelled["series_totals"] == expected
        assert modelled["n_rows"] == len(rows)

    def test_wall_stats_consistent(self, run_doc):
        wall = run_doc["experiments"]["abl_ntt"]["wall"]
        assert wall["repeats"] == 2
        assert wall["min_s"] <= wall["median_s"] <= wall["max_s"]
        assert wall["spread"] >= 0.0

    def test_counters_and_attribution_from_traced_run(self, run_doc):
        exp = run_doc["experiments"]["fig1a"]
        assert exp["counters"]["kernel_launches"] > 0
        assert exp["counters"]["backend_requests"]["pim"] > 0
        assert any(
            name.startswith("pim.time_kernel.") for name in exp["attribution"]
        )
        for entry in exp["attribution"].values():
            assert entry["count"] >= 1

    def test_transfer_split_keys(self, run_doc):
        transfer = run_doc["experiments"]["fig1a"]["transfer"]
        assert set(transfer) == {"host_to_dpu_s", "dpu_to_host_s"}

    def test_repeats_must_be_positive(self):
        with pytest.raises(ParameterError):
            bl.capture_experiment("abl_ntt", repeats=0)

    def test_capture_is_deterministic_in_the_modelled_domain(self):
        a = bl.capture_experiment("abl_ntt", repeats=1)
        b = bl.capture_experiment("abl_ntt", repeats=1)
        assert a["modelled"] == b["modelled"]
        assert a["counters"] == b["counters"]
        assert a["transfer"] == b["transfer"]


class TestPersistence:
    def test_round_trip(self, run_doc, tmp_path):
        path = tmp_path / "perf.json"
        bl.LEDGER.write(run_doc, path)
        assert bl.read_run(path) == run_doc

    def test_missing_file_names_the_remedy(self, tmp_path):
        with pytest.raises(ParameterError, match="repro perf record"):
            bl.read_run(tmp_path / "absent.json")

    def test_unknown_schema_rejected(self, run_doc, tmp_path):
        path = tmp_path / "perf.json"
        doc = dict(run_doc, schema=99)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match="schema"):
            bl.read_run(path)

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "perf.json"
        path.write_text(json.dumps({"schema": bl.SCHEMA_VERSION}))
        with pytest.raises(ParameterError, match="experiments"):
            bl.read_run(path)


class TestHistory:
    def test_append_and_read(self, run_doc, tmp_path):
        path = tmp_path / "history.jsonl"
        bl.LEDGER.append(run_doc, path)
        other = dict(run_doc, run_id="f" * 32)
        bl.LEDGER.append(other, path)
        history = bl.LEDGER.history(path)
        assert [doc["run_id"] for doc in history] == [
            run_doc["run_id"],
            "f" * 32,
        ]

    def test_read_missing_history_is_empty(self, tmp_path):
        assert bl.LEDGER.history(tmp_path / "none.jsonl") == []

    def test_find_run_by_prefix_and_by_path(self, run_doc, tmp_path):
        history = tmp_path / "history.jsonl"
        bl.LEDGER.append(run_doc, history)
        found = bl.find_run(run_doc["run_id"][:8], history)
        assert found["run_id"] == run_doc["run_id"]
        path = tmp_path / "run.json"
        bl.LEDGER.write(run_doc, path)
        assert bl.find_run(str(path), history)["run_id"] == run_doc["run_id"]

    def test_find_run_prefers_newest_match(self, run_doc, tmp_path):
        history = tmp_path / "history.jsonl"
        bl.LEDGER.append(dict(run_doc, run_id="a" * 32), history)
        bl.LEDGER.append(dict(run_doc, run_id="a" * 31 + "b"), history)
        assert bl.find_run("a" * 31, history)["run_id"] == "a" * 31 + "b"

    def test_find_run_unknown_reference(self, run_doc, tmp_path):
        history = tmp_path / "history.jsonl"
        bl.LEDGER.append(run_doc, history)
        with pytest.raises(ParameterError, match="neither a file"):
            bl.find_run("zzzz", history)


class TestPrepareMetricsLog:
    def test_appends_by_default(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"old": 1}\n')
        bl.prepare_metrics_log(path, environ={})
        assert path.read_text() == '{"old": 1}\n'

    def test_fresh_truncates(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"old": 1}\n')
        bl.prepare_metrics_log(path, environ={bl.FRESH_ENV_VAR: "1"})
        assert path.read_text() == ""

    def test_creates_missing_file_and_parents(self, tmp_path):
        path = tmp_path / "results" / "metrics.jsonl"
        assert bl.prepare_metrics_log(path, environ={}) == path
        assert path.read_text() == ""
