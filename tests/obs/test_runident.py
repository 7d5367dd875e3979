"""Shared run-identity stamping, and its re-export compatibility."""

import subprocess
import uuid

import pytest

from repro.obs import runident


@pytest.fixture(autouse=True)
def fresh_git_sha():
    """Each test starts and ends with an empty ``git_sha`` memo."""
    runident.git_sha.cache_clear()
    yield
    runident.git_sha.cache_clear()


@pytest.fixture
def forks(monkeypatch):
    """The ``subprocess.run`` calls made while the test runs."""
    calls = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(runident.subprocess, "run", counting_run)
    return calls


class TestRunIdentity:
    def test_identity_fields(self):
        identity = runident.run_identity()
        assert set(identity) == {"run_id", "created_at", "git_sha"}
        uuid.UUID(hex=identity["run_id"])  # 32 lowercase hex chars
        assert "T" in identity["created_at"]  # ISO-8601

    def test_run_ids_are_unique(self):
        assert (
            runident.run_identity()["run_id"]
            != runident.run_identity()["run_id"]
        )

    def test_stamp_updates_in_place_and_returns(self):
        doc = {"schema": 1}
        assert runident.stamp(doc) is doc
        assert doc["schema"] == 1
        assert "run_id" in doc

    def test_git_sha_in_repo(self):
        sha = runident.git_sha()
        assert sha is None or (
            len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
        )

    def test_git_sha_outside_repo_is_none(self, tmp_path):
        assert runident.git_sha(cwd=tmp_path) is None


class TestGitShaMemo:
    def test_repeated_calls_fork_once(self, forks):
        first = runident.git_sha()
        assert [runident.git_sha() for _ in range(5)] == [first] * 5
        assert len(forks) == 1

    def test_identities_share_one_fork(self, forks):
        shas = {runident.run_identity()["git_sha"] for _ in range(4)}
        assert len(shas) == 1
        assert len(forks) == 1

    def test_memo_is_per_directory(self, forks, tmp_path):
        assert runident.git_sha(cwd=tmp_path) is None
        assert runident.git_sha(cwd=tmp_path) is None
        runident.git_sha()
        assert len(forks) == 2


class TestReExports:
    def test_baseline_still_exposes_identity_helpers(self):
        """Callers predating runident keep importing these from
        baseline; all one function."""
        from repro.obs import baseline

        assert baseline.run_identity is runident.run_identity
        assert baseline.git_sha is runident.git_sha
