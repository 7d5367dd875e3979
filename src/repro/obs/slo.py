"""Request-level SLO accounting: latency digests, objectives, budgets.

The serving loop (:mod:`repro.serve.resilience`) hands each request
class's end-to-end latencies (completion minus arrival, in modelled
seconds) to an :class:`SLOTracker` as arrays in service order: one per
serving point, or one per shedding decision when shedding is on. This
module turns those latencies into the operator-facing story:

* :class:`LatencyDigest` — a streaming percentile digest over
  fixed log-scaled buckets (built on
  :class:`repro.obs.metrics.Histogram` with interpolated
  :meth:`~repro.obs.metrics.Histogram.percentile`). Digests with the
  same resolution **merge** losslessly, so per-shard digests roll up
  into fleet-wide percentiles, and they serialize deterministically
  (sparse bucket dict, sorted keys) for byte-identical sweep documents.
* :class:`SLOObjective` — "fraction ``target`` of requests complete
  within ``threshold_s``" (e.g. 99% under 10 ms).
* :class:`SLOTracker` — one request class's accounting: the digest,
  exact per-objective bad-request counts (objectives are evaluated
  against each request's *exact* modelled latency, not the digest),
  burn rate, and error-budget remaining.

Burn-rate math (the standard SRE formulation): an objective allows a
``1 - target`` fraction of bad requests. With ``bad / total`` observed,

    ``burn_rate = (bad / total) / (1 - target)``

so 1.0 means the error budget is being consumed exactly as provisioned,
and anything above 1.0 over the window is a breach:
``error_budget_remaining = 1 - burn_rate`` (can go negative). Verdicts
are :data:`VERDICT_SLO_OK` / :data:`VERDICT_SLO_BREACH`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.obs.metrics import Histogram

__all__ = [
    "VERDICT_SLO_OK",
    "VERDICT_SLO_BREACH",
    "DEFAULT_OBJECTIVES",
    "LatencyDigest",
    "SLOObjective",
    "SLOTracker",
]

VERDICT_SLO_OK = "SLO-OK"
VERDICT_SLO_BREACH = "SLO-BREACH"


def _log_bounds(lo_exp: int, hi_exp: int, per_decade: int) -> tuple:
    """Log-spaced bucket upper bounds: ``10**(lo_exp .. hi_exp)``."""
    steps = (hi_exp - lo_exp) * per_decade
    return tuple(
        10.0 ** (lo_exp + k / per_decade) for k in range(steps + 1)
    )


class LatencyDigest:
    """Streaming latency percentiles over fixed log-scaled buckets.

    Resolution is ``per_decade`` buckets per factor of ten between
    ``10**lo_exp`` and ``10**hi_exp`` seconds (defaults: 1 µs … 1000 s
    at 20/decade, ~1.2% relative bucket width — comfortably inside any
    latency SLO's precision needs). Two digests with the same
    resolution merge exactly; serialization is sparse and sorted, so a
    digest's dict form is deterministic for a deterministic input
    stream.
    """

    __slots__ = ("lo_exp", "hi_exp", "per_decade", "_hist")

    def __init__(self, lo_exp: int = -6, hi_exp: int = 3, per_decade: int = 20):
        if hi_exp <= lo_exp:
            raise ParameterError(
                f"digest range must be increasing: 10^{lo_exp}..10^{hi_exp}"
            )
        if per_decade < 1:
            raise ParameterError(f"per_decade must be >= 1: {per_decade}")
        self.lo_exp = lo_exp
        self.hi_exp = hi_exp
        self.per_decade = per_decade
        self._hist = Histogram(
            "latency_s", buckets=_log_bounds(lo_exp, hi_exp, per_decade)
        )

    # -- recording ----------------------------------------------------------

    def observe(self, seconds: float) -> None:
        if seconds < 0:
            raise ParameterError(f"latency must be non-negative: {seconds}")
        self._hist.observe(seconds)

    def observe_many(self, latencies) -> None:
        """:meth:`observe` each of a sequence (list or array) in order,
        in one call; a negative latency raises before anything is
        recorded."""
        latencies = np.asarray(latencies, dtype=np.float64)
        if len(latencies) and latencies.min() < 0:
            raise ParameterError(
                f"latency must be non-negative: {latencies.min()}"
            )
        self._hist.observe_many(latencies)

    @property
    def count(self) -> int:
        return self._hist.count

    @property
    def sum(self) -> float:
        return self._hist.sum

    @property
    def min(self):
        return self._hist.min

    @property
    def max(self):
        return self._hist.max

    @property
    def mean(self) -> float:
        return self._hist.mean

    def percentile(self, p: float):
        """Interpolated percentile estimate in seconds (``None`` if empty)."""
        return self._hist.percentile(p)

    # -- merge & serialization ----------------------------------------------

    def merge(self, other: "LatencyDigest") -> None:
        """Fold another shard's digest into this one (same resolution)."""
        if (self.lo_exp, self.hi_exp, self.per_decade) != (
            other.lo_exp,
            other.hi_exp,
            other.per_decade,
        ):
            raise ParameterError(
                "cannot merge digests with different resolutions: "
                f"10^{self.lo_exp}..10^{self.hi_exp}@{self.per_decade} vs "
                f"10^{other.lo_exp}..10^{other.hi_exp}@{other.per_decade}"
            )
        self._hist.merge(other._hist)

    def to_dict(self) -> dict:
        """Deterministic JSON-able state (sparse, sorted buckets)."""
        return {
            "lo_exp": self.lo_exp,
            "hi_exp": self.hi_exp,
            "per_decade": self.per_decade,
            "count": self._hist.count,
            "sum": self._hist.sum,
            "min": self._hist.min,
            "max": self._hist.max,
            "buckets": {
                str(i): n
                for i, n in enumerate(self._hist.bucket_counts)
                if n
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyDigest":
        digest = cls(
            lo_exp=data["lo_exp"],
            hi_exp=data["hi_exp"],
            per_decade=data["per_decade"],
        )
        hist = digest._hist
        hist.count = data["count"]
        hist.sum = data["sum"]
        hist.min = data["min"]
        hist.max = data["max"]
        for index, n in data["buckets"].items():
            hist.bucket_counts[int(index)] = n
        return digest


@dataclass(frozen=True)
class SLOObjective:
    """``target`` fraction of requests must complete within ``threshold_s``."""

    name: str
    threshold_s: float
    target: float = 0.99

    def __post_init__(self):
        if self.threshold_s <= 0:
            raise ParameterError(
                f"threshold must be positive: {self.threshold_s}"
            )
        if not 0.0 < self.target < 1.0:
            raise ParameterError(
                f"target must be in (0, 1): {self.target}"
            )

    @property
    def allowed_bad_fraction(self) -> float:
        return 1.0 - self.target

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "threshold_s": self.threshold_s,
            "target": self.target,
        }


#: Default serving objectives: a p99-style bound and a looser p99.9-ish
#: guard one decade up, both against modelled end-to-end latency.
DEFAULT_OBJECTIVES = (
    SLOObjective(name="p99-under-50ms", threshold_s=50e-3, target=0.99),
    SLOObjective(name="p999-under-250ms", threshold_s=250e-3, target=0.999),
)


class SLOTracker:
    """One request class's SLO accounting over a stream of latencies.

    Tracks the :class:`LatencyDigest` plus exact per-objective bad
    counts and admission rejections; :meth:`report` snapshots
    percentiles, burn rates, error budgets, and the class verdict
    (breach of *any* objective, or any rejected admission, is
    :data:`VERDICT_SLO_BREACH`).
    """

    def __init__(self, objectives=DEFAULT_OBJECTIVES):
        self.objectives = tuple(objectives)
        self.digest = LatencyDigest()
        self.bad = [0] * len(self.objectives)
        self.rejected = 0

    def observe(self, latency_s: float) -> None:
        self.digest.observe(latency_s)
        for i, objective in enumerate(self.objectives):
            if latency_s > objective.threshold_s:
                self.bad[i] += 1

    def observe_many(self, latencies) -> None:
        """:meth:`observe` each of a sequence (list or array) in order,
        with the same digest state and bad counts."""
        latencies = np.asarray(latencies, dtype=np.float64)
        self.digest.observe_many(latencies)
        for i, objective in enumerate(self.objectives):
            self.bad[i] += int(
                np.count_nonzero(latencies > objective.threshold_s)
            )

    def reject(self, count: int = 1) -> None:
        """Count ``count`` requests refused at admission, or shed or
        failed before service (they have no latency)."""
        self.rejected += count

    def report(self, duration_s: float | None = None) -> dict:
        """Snapshot: counts, throughput, percentiles, objective verdicts."""
        completed = self.digest.count
        entries = []
        for objective, bad in zip(self.objectives, self.bad):
            if completed:
                bad_fraction = bad / completed
                burn = bad_fraction / objective.allowed_bad_fraction
            else:
                bad_fraction = 0.0
                burn = 0.0
            entries.append(
                objective.to_dict()
                | {
                    "bad": bad,
                    "bad_fraction": bad_fraction,
                    "burn_rate": burn,
                    "error_budget_remaining": 1.0 - burn,
                    "verdict": (
                        VERDICT_SLO_BREACH if burn > 1.0 else VERDICT_SLO_OK
                    ),
                }
            )
        breached = self.rejected > 0 or any(
            e["verdict"] == VERDICT_SLO_BREACH for e in entries
        )
        report = {
            "completed": completed,
            "rejected": self.rejected,
            "latency": {
                "p50_ms": _ms(self.digest.percentile(50)),
                "p99_ms": _ms(self.digest.percentile(99)),
                "p999_ms": _ms(self.digest.percentile(99.9)),
                "mean_ms": _ms(self.digest.mean) if completed else None,
                "max_ms": _ms(self.digest.max),
            },
            "objectives": entries,
            "verdict": VERDICT_SLO_BREACH if breached else VERDICT_SLO_OK,
            "digest": self.digest.to_dict(),
        }
        if duration_s:
            report["qps_completed"] = completed / duration_s
        return report


def _ms(seconds):
    return None if seconds is None else seconds * 1e3
