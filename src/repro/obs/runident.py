"""Run identity: one stamping discipline for every recorded artifact.

Every persistent record this project produces — perf baselines
(:mod:`repro.obs.baseline`), noise calibrations
(:mod:`repro.obs.noisegate`), serving sweeps (:mod:`repro.serve`),
and grid documents (:mod:`repro.obs.registry`) — carries the same three identity fields:

* ``run_id`` — a fresh uuid4 hex string, unique per recording;
* ``created_at`` — an ISO-8601 UTC timestamp (second precision);
* ``git_sha`` — the commit the recording process ran from, or ``None``
  outside a checkout.

Keeping the capture here (rather than per-recorder) is what makes
records *joinable*: a grid document, a perf-history line, and a noise
trajectory recorded by the same process share a ``run_id``, and the
longitudinal dashboards trend any of them against ``git_sha``.

The SHA is read once per process for each ``cwd`` argument: a serving
sweep stamps every point, and each ``git rev-parse`` is a fork. A
commit made while the process runs is therefore not seen; the stamp
stays the commit the process started from.
"""

from __future__ import annotations

import functools
import subprocess
import uuid
from datetime import datetime, timezone

__all__ = ["git_sha", "run_identity", "stamp"]


@functools.lru_cache(maxsize=None)
def git_sha(cwd=None) -> str | None:
    """The current git commit SHA, or ``None`` outside a checkout.

    Memoized per ``cwd`` argument: ``git rev-parse`` runs once per
    process.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def run_identity() -> dict:
    """A fresh run identity: uuid, ISO-8601 UTC timestamp, git SHA."""
    return {
        "run_id": uuid.uuid4().hex,
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": git_sha(),
    }


def stamp(doc: dict) -> dict:
    """Merge a fresh identity into ``doc`` in place and return it."""
    doc.update(run_identity())
    return doc
