"""Fleet sharding: rank-aligned sub-fleets with deterministic placement.

The paper prices every homomorphic kernel as one launch over the whole
2,524-DPU fleet, and the serving layer inherited that assumption — so
one degraded rank slows *every* request. This module partitions the
fleet into K contiguous, rank-aligned sub-fleets (**shards**), each a
complete UPMEM system in miniature:

* :class:`ShardLayout` / :func:`make_layout` — the partition itself.
  Spans are rank-aligned (a rank never straddles shards — a disabled
  rank hurts exactly one shard) and cover the fleet exactly;
* :func:`home_shard` — deterministic ciphertext→shard placement by
  seeded hash, the same SHA-256 unit-draw discipline as the arrival
  process and the fault plans;
* :class:`ShardedPricer` — per-shard batch pricing through an
  unmodified :class:`~repro.pim.runtime.PIMRuntime` whose config is
  the shard's slice of the fleet, under the shard's
  :meth:`~repro.pim.faults.FaultPlan.shard_view`;
* :func:`check_sharded_baseline` — the bit-identity gate: the
  single-shard zero-fault pricer must reproduce
  ``baselines/perf.json`` series totals exactly (a single shard of the
  whole fleet *is* the whole fleet, so MODEL-DRIFT stays green).

The health-aware scheduling that rides on top (circuit breakers,
hedging, shedding) lives in :mod:`repro.serve.resilience`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.backends.base import TimingBreakdown
from repro.backends.pim import PIMBackend
from repro.errors import ParameterError
from repro.pim.config import UPMEMConfig
from repro.pim.faults import FaultPlan, _unit_hash, use_fault_plan
from repro.pim.runtime import PIMRuntime
from repro.pim.tasklet import split_evenly
from repro.serve.service import check_serving_baseline, price_launch

__all__ = [
    "ShardLayout",
    "make_layout",
    "home_shard",
    "ShardedPricer",
    "check_sharded_baseline",
]


@dataclass(frozen=True)
class ShardLayout:
    """A partition of the fleet into contiguous DPU-id spans."""

    n_dpus: int
    dpus_per_rank: int
    #: Half-open ``(start, stop)`` DPU-id spans, one per shard, in
    #: shard order; together they cover ``[0, n_dpus)`` exactly.
    spans: tuple

    def __post_init__(self):
        cursor = 0
        for start, stop in self.spans:
            if start != cursor or stop <= start:
                raise ParameterError(
                    f"shard spans must tile [0, {self.n_dpus}) in order: "
                    f"{self.spans}"
                )
            cursor = stop
        if cursor != self.n_dpus:
            raise ParameterError(
                f"shard spans cover [0, {cursor}) but the fleet has "
                f"{self.n_dpus} DPUs"
            )

    @property
    def n_shards(self) -> int:
        return len(self.spans)

    def span_of(self, shard: int) -> tuple:
        if not 0 <= shard < self.n_shards:
            raise ParameterError(
                f"shard out of range [0, {self.n_shards}): {shard}"
            )
        return self.spans[shard]

    def size_of(self, shard: int) -> int:
        start, stop = self.span_of(shard)
        return stop - start

    def ranks_of(self, shard: int) -> tuple:
        """Global rank ids whose DPUs fall (partly) inside the shard."""
        start, stop = self.span_of(shard)
        first = start // self.dpus_per_rank
        last = (stop - 1) // self.dpus_per_rank
        return tuple(range(first, last + 1))

    def shard_config(self, config: UPMEMConfig, shard: int) -> UPMEMConfig:
        """The shard as a standalone UPMEM system of its own size."""
        return replace(config, n_dpus=self.size_of(shard))

    def to_dict(self) -> dict:
        return {
            "n_dpus": self.n_dpus,
            "dpus_per_rank": self.dpus_per_rank,
            "spans": [list(span) for span in self.spans],
        }


def make_layout(
    n_shards: int, config: UPMEMConfig | None = None
) -> ShardLayout:
    """Partition the fleet into ``n_shards`` rank-aligned spans.

    Ranks are split as evenly as possible (larger shares first, the
    :func:`~repro.pim.tasklet.split_evenly` discipline); each shard's
    span is the contiguous run of its ranks' DPU ids, clipped to the
    fleet size (the last rank is partial: 2,524 = 39×64 + 28). When
    ``n_shards`` exceeds the rank count, the split falls back to plain
    DPU-count shares — still contiguous, no longer rank-aligned.
    """
    config = config or UPMEMConfig()
    if n_shards < 1:
        raise ParameterError(f"n_shards must be >= 1: {n_shards}")
    if n_shards > config.n_dpus:
        raise ParameterError(
            f"cannot cut {config.n_dpus} DPUs into {n_shards} shards"
        )
    spans = []
    cursor = 0
    if n_shards <= config.n_ranks:
        for share in split_evenly(config.n_ranks, n_shards):
            stop = min(
                (cursor // config.dpus_per_rank + share)
                * config.dpus_per_rank,
                config.n_dpus,
            )
            spans.append((cursor, stop))
            cursor = stop
    else:
        for share in split_evenly(config.n_dpus, n_shards):
            spans.append((cursor, cursor + share))
            cursor += share
    return ShardLayout(
        n_dpus=config.n_dpus,
        dpus_per_rank=config.dpus_per_rank,
        spans=tuple(spans),
    )


def home_shard(
    layout: ShardLayout, seed: int, class_key: str, request_index: int
) -> int:
    """The deterministic home shard of one request's ciphertext.

    A seeded hash draw, so placement is uniform, stable across
    processes, and independent of fleet health — a degraded shard keeps
    its assignments (the health-aware scheduler reroutes them, which is
    what the routed/redispatch counters measure).
    """
    draw = _unit_hash("serve.place", seed, class_key, request_index)
    return int(draw * layout.n_shards)


class ShardedPricer:
    """Per-shard batch pricing through shard-local runtimes.

    Each shard gets its own :class:`~repro.backends.pim.PIMBackend`
    over an **unmodified** :class:`~repro.pim.runtime.PIMRuntime` whose
    config is the shard's slice of the fleet, plus the installed fault
    plan's :meth:`~repro.pim.faults.FaultPlan.shard_view` — so all
    fault pricing (retries, backoff, redispatch, permanent failures)
    reuses the PR-5 machinery verbatim, just scoped to the shard.

    Successful breakdowns are memoized per ``(shard, class, batch)``
    exactly like the unsharded serving pricer; failed pricings are
    never cached, so a shard with live transient channels re-draws on
    every retry (which is what lets circuit breakers observe repeated
    failures).
    """

    def __init__(
        self,
        classes,
        layout: ShardLayout,
        plan: FaultPlan,
        config: UPMEMConfig | None = None,
        retry_policy=None,
    ):
        config = config or UPMEMConfig()
        if layout.n_dpus != config.n_dpus:
            raise ParameterError(
                f"layout is for a {layout.n_dpus}-DPU fleet, "
                f"config has {config.n_dpus}"
            )
        self.layout = layout
        self.config = config
        self.retry_policy = retry_policy
        self._by_key = {c.key: c for c in classes}
        self._views = []
        self._backends = []
        self._shard_configs = []
        for shard in range(layout.n_shards):
            start, stop = layout.span_of(shard)
            view = plan.shard_view(config, start, stop)
            shard_config = layout.shard_config(config, shard)
            self._views.append(view)
            self._shard_configs.append(shard_config)
            self._backends.append(
                PIMBackend(runtime=PIMRuntime(config=shard_config))
            )
        self._cache: dict = {}

    def healthy_dpus(self, shard: int) -> int:
        """Healthy DPU count inside one shard (0 = the shard is dead)."""
        view = self._views[shard]
        shard_config = self._shard_configs[shard]
        if not view.active:
            return shard_config.n_dpus
        return view.effective_dpus(shard_config)

    def shard_plan(self, shard: int) -> FaultPlan:
        """The shard-scoped fault view (for reports and tests)."""
        return self._views[shard]

    def price(
        self, shard: int, class_key: str, batch_size: int
    ) -> TimingBreakdown:
        """Price one shared launch of ``batch_size`` requests on a shard.

        Raises :class:`~repro.errors.PermanentDeviceError` when the
        shard's fault view exhausts the retry budget — the caller's
        circuit breaker and redispatch logic decide what happens next.
        """
        cached = self._cache.get((shard, class_key, batch_size))
        if cached is not None:
            return cached
        with use_fault_plan(self._views[shard], self.retry_policy):
            merged = price_launch(
                self._backends[shard], self._by_key[class_key], batch_size
            )
        merged.detail["shard"] = shard
        self._cache[(shard, class_key, batch_size)] = merged
        return merged


def check_sharded_baseline(
    baseline: dict,
    workload: str = "vec_add",
    security_levels=(27, 54, 109),
    ops_per_request: int = 64,
) -> list:
    """Gate the single-shard zero-fault pricer against ``perf.json``.

    The one-shard layout of the whole fleet under an inactive fault
    plan must price every experiment's canonical batch ladder to the
    committed series totals **bit-for-bit** — the sharded path adds
    machinery, never arithmetic. Same verdict rows as
    :func:`repro.serve.service.check_serving_baseline`, which does the
    comparison.
    """
    config = UPMEMConfig()
    layout = make_layout(1, config)

    pricers: dict = {}

    def price(cls, n_requests: int) -> TimingBreakdown:
        if cls not in pricers:
            pricers[cls] = ShardedPricer((cls,), layout, FaultPlan(), config)
        return pricers[cls].price(0, cls.key, n_requests)

    return check_serving_baseline(
        baseline, workload, security_levels, ops_per_request, price
    )
