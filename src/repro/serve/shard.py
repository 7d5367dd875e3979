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
  process and the fault plans; :func:`home_shards` places a class's
  first N requests at once from the memoized draw stream;
* :class:`ShardedPricer` — per-shard batch pricing through an
  unmodified :class:`~repro.pim.runtime.PIMRuntime` whose config is
  the shard's slice of the fleet, under the shard's
  :meth:`~repro.pim.faults.FaultPlan.shard_view`, into immutable
  :class:`PricedLaunch` records that fault-free shards share through
  one per-process memo. The single-shard zero-fault pricer is the one
  serving pricer:
  :func:`repro.serve.service.check_serving_baseline` gates it against
  ``baselines/perf.json`` series totals exactly (a single shard of the
  whole fleet *is* the whole fleet, so MODEL-DRIFT stays green).

The health-aware scheduling that rides on top (circuit breakers,
hedging, shedding) lives in :mod:`repro.serve.resilience`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.backends.base import TimingBreakdown
from repro.backends.pim import PIMBackend
from repro.core.params import BFVParameters
from repro.errors import ParameterError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.pim.config import UPMEMConfig
from repro.pim.faults import (
    FaultPlan,
    _unit_hash,
    unit_draws,
    use_fault_plan,
)
from repro.pim.isa import DEFAULT_CYCLES_PER_OP
from repro.pim.runtime import PIMRuntime
from repro.pim.tasklet import split_evenly
from repro.serve.service import price_launch

__all__ = [
    "ShardLayout",
    "make_layout",
    "home_shard",
    "home_shards",
    "PricedLaunch",
    "ShardedPricer",
    "LAUNCH_MEMO_LIMIT",
    "clear_launch_memo",
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
    what the routed/redispatch counters measure). With one shard every
    draw maps to 0, so no draw is made.
    """
    if layout.n_shards == 1:
        return 0
    draw = _unit_hash("serve.place", seed, class_key, request_index)
    return int(draw * layout.n_shards)


def home_shards(
    layout: ShardLayout, seed: int, class_key: str, count: int
) -> np.ndarray:
    """:func:`home_shard` of requests ``0 .. count - 1``, in order, as
    an ``intp`` array.

    The draws come from the ``(seed, class)`` placement stream of
    :func:`~repro.pim.faults.unit_draws`, which every shard count
    shares; one shard makes no draws. Scaling and truncating the draw
    array is the same IEEE multiply and truncation as ``int(u * n)``.
    """
    n_shards = layout.n_shards
    if n_shards == 1:
        return np.zeros(count, dtype=np.intp)
    draws = np.frombuffer(
        unit_draws("serve.place", seed, class_key).first(count)
    )
    return (draws * n_shards).astype(np.intp)


#: Most fault-free launch prices the per-process memo holds; once it
#: is full, the oldest entry makes room for the next.
LAUNCH_MEMO_LIMIT = 4096

#: (shard config, class pricing model, batch size) -> PricedLaunch, for
#: launches priced with no faults, no retry policy and observability
#: off. Shared by every :class:`ShardedPricer` in the process.
_LAUNCH_MEMO: dict = {}


def clear_launch_memo() -> None:
    """Forget every memoized fault-free launch price."""
    _LAUNCH_MEMO.clear()


@dataclass(frozen=True, slots=True)
class PricedLaunch:
    """One successfully priced shared launch, as dispatch reads it.

    Built once from :func:`~repro.serve.service.price_launch`'s
    breakdown. Immutable, because one record is shared by every pricer
    and shard that draws it from the per-process memo.
    """

    seconds: float
    launch_s: float
    kernel_s: float
    #: Retry/backoff seconds: whatever of ``seconds`` is neither launch
    #: overhead nor kernel time.
    fault_s: float
    transfer_s: float
    energy_j: float
    movement_bytes: int
    ops: int
    bound: str
    dpus_used: int

    @classmethod
    def of(cls, breakdown: TimingBreakdown) -> "PricedLaunch":
        detail = breakdown.detail
        launch_s = float(detail["launch_s"])
        kernel_s = float(detail["kernel_s"])
        return cls(
            seconds=breakdown.seconds,
            launch_s=launch_s,
            kernel_s=kernel_s,
            fault_s=breakdown.seconds - launch_s - kernel_s,
            transfer_s=float(detail["transfer_s"]),
            energy_j=float(detail["energy_j"]),
            movement_bytes=int(detail["movement_bytes"]),
            ops=int(detail["ops"]),
            bound=str(detail["bound"]),
            dpus_used=int(detail["dpus_used"]),
        )


class ShardedPricer:
    """Per-shard batch pricing through shard-local runtimes.

    Each shard gets its own :class:`~repro.backends.pim.PIMBackend`
    over an **unmodified** :class:`~repro.pim.runtime.PIMRuntime` whose
    config is the shard's slice of the fleet, plus the installed fault
    plan's :meth:`~repro.pim.faults.FaultPlan.shard_view` — so all
    fault pricing (retries, backoff, redispatch, permanent failures)
    reuses the runtime's fault machinery verbatim, just scoped to the
    shard.

    Successful prices are kept at two levels:

    * **per process**, for fault-free launches: the shard's view is
      inactive, the pricer has no ``retry_policy``, and tracing and
      metrics are both off (the runtime's bare path, so a traced or
      metered run prices, and emits its spans and ``pim.*`` metrics,
      exactly as without the memo). The key is what the price depends
      on: the shard's config, the class's workload, BFV parameters and
      ops per request, the ISA cycle table, and the batch size — not
      the class's rate. :func:`clear_launch_memo` empties it;
    * **per pricer** (one serving point), for every ``(shard, class,
      batch)``, faulted shards included.

    Failed pricings are never cached, so a shard with live transient
    channels re-draws on every retry (which is what lets circuit
    breakers observe repeated failures).
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
        cycles = tuple(sorted(DEFAULT_CYCLES_PER_OP.items()))
        self._models = {
            c.key: (
                c.workload,
                BFVParameters.security_level(c.security_bits),
                c.ops_per_request,
                cycles,
            )
            for c in classes
        }
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
        self._shared = [
            not view.active and retry_policy is None for view in self._views
        ]
        self._cache: dict = {}

    def healthy_dpus(self, shard: int) -> int:
        """Healthy DPU count inside one shard (0 = the shard is dead)."""
        view = self._views[shard]
        shard_config = self._shard_configs[shard]
        if not view.active:
            return shard_config.n_dpus
        return view.effective_dpus(shard_config)

    def price(
        self, shard: int, class_key: str, batch_size: int
    ) -> PricedLaunch:
        """Price one shared launch of ``batch_size`` requests on a shard.

        Raises :class:`~repro.errors.PermanentDeviceError` when the
        shard's fault view exhausts the retry budget — the caller's
        circuit breaker and redispatch logic decide what happens next.
        """
        key = (shard, class_key, batch_size)
        priced = self._cache.get(key)
        if priced is not None:
            return priced
        memo_key = None
        if self._shared[shard] and not (
            get_tracer().enabled or get_registry().enabled
        ):
            memo_key = (
                self._shard_configs[shard],
                self._models[class_key],
                batch_size,
            )
            priced = _LAUNCH_MEMO.get(memo_key)
        if priced is None:
            with use_fault_plan(self._views[shard], self.retry_policy):
                priced = PricedLaunch.of(
                    price_launch(
                        self._backends[shard],
                        self._by_key[class_key],
                        batch_size,
                    )
                )
            if memo_key is not None:
                if len(_LAUNCH_MEMO) >= LAUNCH_MEMO_LIMIT:
                    del _LAUNCH_MEMO[next(iter(_LAUNCH_MEMO))]
                _LAUNCH_MEMO[memo_key] = priced
        self._cache[key] = priced
        return priced
