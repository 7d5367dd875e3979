"""Deterministic fault injection and resilience for the PIM model.

The paper's "2,524-DPU" system is really a 2,560-DPU machine with ~36
faulty DPUs fused off — a degraded fleet is the *normal* operating
condition of real UPMEM hardware. This module makes that condition (and
the transient faults that accompany it) a first-class, reproducible
input to the timing model:

* :class:`FaultPlan` — a seeded, deterministic description of what
  fails: permanently disabled DPUs/ranks, transient kernel-launch
  failures, host<->DPU transfer corruption, stuck-tasklet timeouts.
  Built either from a seed + rates or from an explicit spec (exact DPU
  ids, a scripted launch-outcome sequence), so both statistical chaos
  runs and surgical tests are expressible.
* :class:`RetryPolicy` — bounded retries with exponential backoff in
  *modelled* time, so resilience overhead shows up in
  :class:`~repro.pim.runtime.KernelTiming` deterministically.
* :class:`DegradedRunReport` — what actually happened to one kernel
  invocation under the plan: effective fleet size, retries, redispatch
  overhead, load balance across survivors.
* :func:`redistribute_units` — the redispatch primitive: work units
  from failed DPUs redistributed over survivors, conserving the total.

Injection is driven by counter-free hashing (SHA-256 over seed, fault
channel, kernel name, and a per-channel draw index), never by
:mod:`random` state — so a chaos run with a fixed seed is bit-identical
across invocations and across processes, and :meth:`FaultPlan.reset`
replays it exactly. :func:`unit_draws` serves the same draws for a
whole index range at once, hashing the shared prefix only once.

A plan is installed process-globally with :func:`use_fault_plan`
(mirroring ``use_tracer`` / ``use_registry``);
:meth:`~repro.pim.runtime.PIMRuntime.time_kernel` resolves the active
plan per call, so the default — no plan — leaves the pricing model
bit-identical to the fault-free build (the MODEL-DRIFT perf gate
depends on this).
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ParameterError, PermanentDeviceError
from repro.pim.config import UPMEMConfig
from repro.pim.tasklet import split_evenly

# CPython's built-in SHA-256 gives hashlib's digest at about half the
# cost per short message (hashlib's constructor goes through OpenSSL).
# The module is ``_sha2`` from 3.12 and ``_sha256`` before.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "OUTCOME_OK",
    "OUTCOME_TRANSIENT",
    "OUTCOME_STUCK",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
    "FaultPlan",
    "DEFAULT_HEALTHY",
    "plan_for_healthy_fraction",
    "DegradedRunReport",
    "redistribute_units",
    "unit_draws",
    "get_active_plan",
    "get_active_policy",
    "set_fault_plan",
    "use_fault_plan",
]

#: Scripted launch outcomes (see :attr:`FaultPlan.launch_script`).
OUTCOME_OK = "ok"
OUTCOME_TRANSIENT = "transient"
OUTCOME_STUCK = "stuck"

_LAUNCH_OUTCOMES = (OUTCOME_OK, OUTCOME_TRANSIENT, OUTCOME_STUCK)


def _unit_hash(*parts) -> float:
    """A deterministic draw in ``[0, 1)`` from the given parts.

    SHA-256 over the ``:``-joined string forms; the first 8 bytes read
    as an unsigned integer scaled to the unit interval. Stable across
    processes and Python versions — unlike ``random.Random``, whose
    sequence semantics this layer must not depend on.
    """
    digest = _sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


#: Draws a :class:`UnitDrawStream` hashes each time it runs short.
#: Fixed, so a stream never holds more than one chunk it was not asked
#: for.
_STREAM_CHUNK = 1024

#: Streams :func:`unit_draws` keeps; the least recently used goes first.
_STREAM_CACHE = 16


class UnitDrawStream:
    """The draws ``_unit_hash(*prefix, i)`` for ``i = 0, 1, 2, …``.

    The ``:``-joined prefix is encoded once; each chunk hashes
    ``b"%b%d" % (prefix, i)`` for its indices in one pass and scales the
    digests' leading 8 bytes to the unit interval as one array, so every
    value is bit-identical to :func:`_unit_hash`. What remains is the
    digest itself, about 0.4 µs each. Draws are kept in a compact
    ``array('d')`` (8 bytes each) that grows :data:`_STREAM_CHUNK`
    draws at a time, only as far as a caller has asked. Callers get
    copies or values, never the array itself, so a shared stream
    cannot be altered through them.
    """

    __slots__ = ("_prefix", "_draws", "_lock")

    def __init__(self, prefix: tuple):
        self._prefix = (":".join(str(p) for p in prefix) + ":").encode()
        self._draws = array("d")
        # Streams are shared process-wide: two threads growing one at
        # once would append the same indices twice.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._draws)

    def _grow(self, count: int) -> None:
        """Extend the stream to at least ``count`` draws."""
        with self._lock:
            draws = self._draws
            prefix = self._prefix
            sha256 = _sha256
            while len(draws) < count:
                start = len(draws)
                digests = b"".join(
                    [
                        sha256(b"%b%d" % (prefix, i)).digest()
                        for i in range(start, start + _STREAM_CHUNK)
                    ]
                )
                # Each 32-byte digest is four big-endian words; keep the first.
                heads = np.frombuffer(digests, ">u8")[::4]
                draws.frombytes((heads.astype(np.float64) / 2.0**64).tobytes())

    def first(self, count: int) -> array:
        """Draws ``0 .. count - 1``, as a fresh array."""
        if len(self._draws) < count:
            self._grow(count)
        return self._draws[:count]

    def __iter__(self):
        """Every draw in index order; the stream never ends."""
        return itertools.chain.from_iterable(self._chunks())

    def _chunks(self):
        # Copies, not views: a buffer export would stop the array
        # from growing.
        start = 0
        while True:
            if start == len(self._draws):
                self._grow(start + 1)
            chunk = self._draws[start:]
            start += len(chunk)
            yield chunk


@functools.lru_cache(maxsize=_STREAM_CACHE, typed=True)
def unit_draws(channel: str, *parts) -> UnitDrawStream:
    """The memoized draw stream of ``_unit_hash(channel, *parts, i)``.

    At most :data:`_STREAM_CACHE` streams are kept, each 8 bytes per
    draw computed so far. A stream evicted and asked for again is
    rebuilt with the same values. The cache is typed, so a seed of
    ``7`` and one of ``7.0`` (which hash differently) never share a
    stream.
    """
    return UnitDrawStream((channel, *parts))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff in modelled time."""

    #: Total launch attempts allowed per invocation (first try + retries).
    max_attempts: int = 3

    #: Modelled backoff before the first retry, in seconds.
    backoff_base_s: float = 1e-3

    #: Multiplier applied to the backoff per additional retry.
    backoff_factor: float = 2.0

    #: Ceiling on any single backoff, in seconds. Exponential growth
    #: saturates here instead of overflowing ``float`` for large
    #: failure counts (a resilience layer retrying across shards can
    #: legitimately see attempt numbers far beyond ``max_attempts``).
    backoff_cap_s: float = 1.0

    #: Modelled time lost waiting out a stuck tasklet before the
    #: watchdog fires and the launch is abandoned, in seconds.
    stuck_timeout_s: float = 50e-3

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ParameterError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        if self.backoff_base_s < 0:
            raise ParameterError(
                f"backoff_base_s must be non-negative: {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            raise ParameterError(
                f"backoff_factor must be >= 1: {self.backoff_factor}"
            )
        if self.backoff_cap_s < 0:
            raise ParameterError(
                f"backoff_cap_s must be non-negative: {self.backoff_cap_s}"
            )
        if self.stuck_timeout_s < 0:
            raise ParameterError(
                f"stuck_timeout_s must be non-negative: {self.stuck_timeout_s}"
            )

    def backoff_seconds(self, failures: int) -> float:
        """Backoff charged before retry number ``failures`` (1-based).

        Saturates at :attr:`backoff_cap_s`: below the cap the closed
        form ``base * factor ** (failures - 1)`` is evaluated exactly
        as before (bit-identical modelled times for in-budget retries);
        at or beyond the saturation point the cap is returned directly,
        so arbitrarily large failure counts never overflow the float
        exponent.
        """
        if failures < 1:
            raise ParameterError(f"failures must be >= 1: {failures}")
        if self.backoff_base_s == 0.0 or self.backoff_cap_s == 0.0:
            return min(self.backoff_base_s, self.backoff_cap_s)
        exponent = failures - 1
        if self.backoff_factor > 1.0:
            # Smallest exponent whose closed form would reach the cap;
            # beyond it, skip the power entirely (it may overflow).
            saturation = math.log(
                self.backoff_cap_s / self.backoff_base_s
            ) / math.log(self.backoff_factor)
            if exponent >= saturation:
                return self.backoff_cap_s
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * self.backoff_factor**exponent,
        )


DEFAULT_RETRY_POLICY = RetryPolicy()


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must be in [0, 1]: {value}")


@dataclass
class FaultPlan:
    """A seeded, deterministic description of what fails and when.

    Two construction styles compose freely:

    * **seed + rates** — ``dpu_fail_rate`` disables each DPU
      independently; ``transient_rate`` / ``stuck_rate`` /
      ``corruption_rate`` fire per launch or transfer attempt, drawn
      from the plan's hash stream;
    * **explicit spec** — ``disabled_dpus`` / ``disabled_ranks`` name
      exact casualties, ``disable_dpus`` fuses off a count of
      hash-ranked DPUs (the paper's 2,560 -> 2,524 situation), and
      ``launch_script`` / ``transfer_script`` force exact outcome
      sequences for surgical tests.

    The plan carries per-channel draw counters so repeated launches of
    the same kernel see fresh draws; :meth:`reset` rewinds them for a
    bit-identical replay.
    """

    seed: int = 0
    dpu_fail_rate: float = 0.0
    transient_rate: float = 0.0
    corruption_rate: float = 0.0
    stuck_rate: float = 0.0

    #: Explicitly disabled DPU ids.
    disabled_dpus: tuple = ()
    #: Explicitly disabled ranks (every DPU on them is lost).
    disabled_ranks: tuple = ()
    #: Disable this many additional DPUs, chosen by hash rank — the
    #: deterministic analogue of "36 of the 2,560 DPUs are fused off".
    disable_dpus: int = 0

    #: Scripted launch outcomes (``"ok"``/``"transient"``/``"stuck"``),
    #: consumed FIFO across all launches before the rates take over.
    launch_script: tuple = ()
    #: Scripted transfer outcomes (``"ok"``/``"corrupt"``), same FIFO
    #: discipline, consumed per guarded transfer direction.
    transfer_script: tuple = ()

    _draws: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _launch_cursor: int = field(
        default=0, init=False, repr=False, compare=False
    )
    _transfer_cursor: int = field(
        default=0, init=False, repr=False, compare=False
    )
    #: Per-config survivor index: config -> (disabled frozenset,
    #: sorted disabled tuple, prefix-sum of disabled counts). The
    #: disabled set is a pure function of the plan *spec* and the
    #: config (no draw counters), so the cache survives :meth:`reset`
    #: and makes membership/span queries O(1) after one O(n) build.
    _survivors: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        _check_rate("dpu_fail_rate", self.dpu_fail_rate)
        _check_rate("transient_rate", self.transient_rate)
        _check_rate("corruption_rate", self.corruption_rate)
        _check_rate("stuck_rate", self.stuck_rate)
        if self.transient_rate + self.stuck_rate > 1.0:
            raise ParameterError(
                "transient_rate + stuck_rate cannot exceed 1: "
                f"{self.transient_rate} + {self.stuck_rate}"
            )
        if self.disable_dpus < 0:
            raise ParameterError(
                f"disable_dpus must be non-negative: {self.disable_dpus}"
            )
        for outcome in self.launch_script:
            if outcome not in _LAUNCH_OUTCOMES:
                raise ParameterError(
                    f"unknown launch outcome {outcome!r}; "
                    f"expected one of {_LAUNCH_OUTCOMES}"
                )
        for outcome in self.transfer_script:
            if outcome not in (OUTCOME_OK, "corrupt"):
                raise ParameterError(
                    f"unknown transfer outcome {outcome!r}; "
                    "expected 'ok' or 'corrupt'"
                )

    # -- activity ----------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether this plan can change anything at all.

        An inactive plan (all rates zero, nothing disabled, no scripts)
        leaves the pricing model on its untouched fault-free path —
        the property the 100%-healthy sweep point and the MODEL-DRIFT
        gate rely on.
        """
        return bool(
            self.dpu_fail_rate
            or self.transient_rate
            or self.corruption_rate
            or self.stuck_rate
            or self.disabled_dpus
            or self.disabled_ranks
            or self.disable_dpus
            or self.launch_script
            or self.transfer_script
        )

    def reset(self) -> None:
        """Rewind all draw counters and script cursors for a replay."""
        self._draws.clear()
        self._launch_cursor = 0
        self._transfer_cursor = 0

    # -- permanent faults --------------------------------------------------

    def _survivor_index(self, config: UPMEMConfig) -> tuple:
        """The cached ``(disabled set, sorted ids)`` index.

        Span queries are two bisections of the sorted ids.
        """
        cached = self._survivors.get(config)
        if cached is not None:
            return cached
        disabled = set()
        for dpu in self.disabled_dpus:
            if not 0 <= dpu < config.n_dpus:
                raise ParameterError(
                    f"disabled dpu id out of range [0, {config.n_dpus}): {dpu}"
                )
            disabled.add(dpu)
        for rank in self.disabled_ranks:
            if not 0 <= rank < config.n_ranks:
                raise ParameterError(
                    f"disabled rank out of range [0, {config.n_ranks}): {rank}"
                )
            first = rank * config.dpus_per_rank
            disabled.update(
                range(first, min(first + config.dpus_per_rank, config.n_dpus))
            )
        # Draw i of a stream is _unit_hash(seed, channel, i): the per-DPU
        # draws, hashed once per seed and channel and kept.
        if self.disable_dpus:
            draws = self._dpu_draws("disable", config.n_dpus)
            # Stable, so tied draws rank by id, as sorted() would.
            ranked = np.argsort(draws, kind="stable")[: self.disable_dpus]
            disabled.update(ranked.tolist())
        if self.dpu_fail_rate:
            draws = self._dpu_draws("dpu", config.n_dpus)
            disabled.update(np.flatnonzero(draws < self.dpu_fail_rate).tolist())
        cached = (frozenset(disabled), tuple(sorted(disabled)))
        self._survivors[config] = cached
        return cached

    def _dpu_draws(self, channel: str, count: int) -> np.ndarray:
        """``_unit_hash(seed, channel, dpu)`` for the first ``count`` DPUs,
        from the memoized stream (:func:`unit_draws`)."""
        return np.frombuffer(unit_draws(self.seed, channel).first(count), np.float64)

    def disabled_dpu_ids(self, config: UPMEMConfig) -> frozenset:
        """The full set of permanently disabled DPU ids under ``config``.

        Union of the explicit ids, every DPU on a disabled rank, the
        ``disable_dpus`` hash-ranked count, and the per-DPU
        ``dpu_fail_rate`` draw. Pure function of the plan spec and the
        config — no draw counters involved, so it is stable for the
        plan's whole lifetime and served from the precomputed survivor
        index after the first call.
        """
        return self._survivor_index(config)[0]

    def effective_dpus(self, config: UPMEMConfig) -> int:
        """Healthy fleet size under this plan."""
        return config.n_dpus - len(self.disabled_dpu_ids(config))

    # -- shard-scoped queries (all from the survivor index) ---------------

    def is_disabled(self, config: UPMEMConfig, dpu: int) -> bool:
        """Whether one DPU is permanently disabled under this plan."""
        if not 0 <= dpu < config.n_dpus:
            raise ParameterError(
                f"dpu id out of range [0, {config.n_dpus}): {dpu}"
            )
        return dpu in self._survivor_index(config)[0]

    def disabled_in_span(
        self, config: UPMEMConfig, start: int, stop: int
    ) -> int:
        """Disabled-DPU count in the half-open id span ``[start, stop)``."""
        if not 0 <= start <= stop <= config.n_dpus:
            raise ParameterError(
                f"span [{start}, {stop}) out of range "
                f"[0, {config.n_dpus}]"
            )
        ordered = self._survivor_index(config)[1]
        return bisect_left(ordered, stop) - bisect_left(ordered, start)

    def effective_in_span(
        self, config: UPMEMConfig, start: int, stop: int
    ) -> int:
        """Healthy-DPU count in the half-open id span ``[start, stop)``."""
        return (stop - start) - self.disabled_in_span(config, start, stop)

    def disabled_in_rank(self, config: UPMEMConfig, rank: int) -> int:
        """Disabled-DPU count on one rank."""
        if not 0 <= rank < config.n_ranks:
            raise ParameterError(
                f"rank out of range [0, {config.n_ranks}): {rank}"
            )
        first = rank * config.dpus_per_rank
        last = min(first + config.dpus_per_rank, config.n_dpus)
        return self.disabled_in_span(config, first, last)

    def shard_view(
        self, config: UPMEMConfig, start: int, stop: int
    ) -> "FaultPlan":
        """A plan scoped to the sub-fleet ``[start, stop)``.

        Permanently disabled DPUs inside the span are renumbered to
        shard-local ids; transient/stuck/corruption rates carry over
        unchanged, drawn from a seed salted with the span so sibling
        shards see independent fault streams. Scripted outcome
        sequences are *not* forwarded — they are global FIFO channels
        with no well-defined per-shard split (surgical tests script the
        shard view directly instead).
        """
        if not 0 <= start < stop <= config.n_dpus:
            raise ParameterError(
                f"shard span [{start}, {stop}) out of range "
                f"[0, {config.n_dpus}]"
            )
        ordered = self._survivor_index(config)[1]
        local = tuple(
            dpu - start for dpu in ordered if start <= dpu < stop
        )
        return FaultPlan(
            seed=int(_unit_hash(self.seed, "shard", start, stop) * 2**63),
            transient_rate=self.transient_rate,
            corruption_rate=self.corruption_rate,
            stuck_rate=self.stuck_rate,
            disabled_dpus=local,
        )

    # -- transient faults --------------------------------------------------

    def _draw(self, channel: str, key: str) -> float:
        index = self._draws.get((channel, key), 0)
        self._draws[(channel, key)] = index + 1
        return _unit_hash(self.seed, channel, key, index)

    def launch_outcome(self, kernel_name: str) -> str:
        """Outcome of one kernel-launch attempt.

        Scripted outcomes are consumed first (FIFO across all
        launches); after the script runs dry the ``stuck_rate`` /
        ``transient_rate`` bands of a fresh hash draw decide.
        """
        if self._launch_cursor < len(self.launch_script):
            outcome = self.launch_script[self._launch_cursor]
            self._launch_cursor += 1
            return outcome
        if not (self.transient_rate or self.stuck_rate):
            return OUTCOME_OK
        draw = self._draw("launch", kernel_name)
        if draw < self.stuck_rate:
            return OUTCOME_STUCK
        if draw < self.stuck_rate + self.transient_rate:
            return OUTCOME_TRANSIENT
        return OUTCOME_OK

    def transfer_corrupted(self, kernel_name: str, direction: str) -> bool:
        """Whether one guarded transfer arrives corrupted."""
        if self._transfer_cursor < len(self.transfer_script):
            outcome = self.transfer_script[self._transfer_cursor]
            self._transfer_cursor += 1
            return outcome == "corrupt"
        if not self.corruption_rate:
            return False
        return (
            self._draw("transfer", f"{kernel_name}:{direction}")
            < self.corruption_rate
        )

    def victim_dpu(self, config: UPMEMConfig, kernel_name: str) -> int:
        """A deterministic healthy DPU to blame for an exhausted launch.

        Real SDKs report the failing DPU; the model picks one by hash
        over the survivors so the error context is stable per seed.
        """
        healthy = sorted(
            set(range(config.n_dpus)) - self.disabled_dpu_ids(config)
        )
        if not healthy:
            raise PermanentDeviceError(
                "no healthy DPUs left in the fleet",
                kernel=kernel_name,
                dpus_available=0,
            )
        draw = self._draw("victim", kernel_name)
        return healthy[int(draw * len(healthy))]

    def scaled(self, **changes) -> "FaultPlan":
        """A fresh plan with the given fields replaced (counters reset)."""
        plan = replace(self, **changes)
        plan.reset()
        return plan


#: Fleet-health fractions the experiment grid and the serving sweep
#: enumerate by default (100% … 80%).
DEFAULT_HEALTHY = (1.0, 0.9, 0.8)


def plan_for_healthy_fraction(
    fraction: float, seed: int, config: UPMEMConfig
) -> FaultPlan:
    """A plan that fuses off ``(1 - fraction)`` of the fleet by count.

    At ``fraction == 1.0`` the plan disables nothing and is inactive —
    the pricing model runs its untouched fault-free path.
    """
    if not 0.0 < fraction <= 1.0:
        raise ParameterError(f"healthy fraction must be in (0, 1]: {fraction}")
    disable = round(config.n_dpus * (1.0 - fraction))
    return FaultPlan(seed=seed, disable_dpus=disable)


@dataclass(frozen=True)
class DegradedRunReport:
    """What the fault layer did to one kernel invocation."""

    kernel_name: str
    fleet_dpus: int  # configured fleet size
    disabled_dpus: int  # permanently lost to the plan
    effective_dpus: int  # fleet_dpus - disabled_dpus
    dpus_used: int  # survivors actually engaged
    redispatched_units: int  # work units re-homed from failed DPUs
    retries: int  # launch retries absorbed
    transient_failures: int
    stuck_timeouts: int
    corrupted_transfers: int
    backoff_seconds: float  # modelled backoff waiting
    penalty_seconds: float  # all fault-induced modelled time
    redispatch_overhead_seconds: float  # degraded vs. full-fleet kernel time
    load: object = None  # LoadBalance of the surviving distribution

    @property
    def availability(self) -> float:
        """Healthy fraction of the configured fleet."""
        return self.effective_dpus / self.fleet_dpus if self.fleet_dpus else 0.0

    def as_attrs(self) -> dict:
        """The report as flat span attributes."""
        attrs = {
            "faults.kernel": self.kernel_name,
            "faults.fleet_dpus": self.fleet_dpus,
            "faults.disabled_dpus": self.disabled_dpus,
            "faults.effective_dpus": self.effective_dpus,
            "faults.dpus_used": self.dpus_used,
            "faults.redispatched_units": self.redispatched_units,
            "faults.retries": self.retries,
            "faults.transient_failures": self.transient_failures,
            "faults.stuck_timeouts": self.stuck_timeouts,
            "faults.corrupted_transfers": self.corrupted_transfers,
            "faults.backoff_s": self.backoff_seconds,
            "faults.penalty_s": self.penalty_seconds,
            "faults.redispatch_overhead_s": self.redispatch_overhead_seconds,
        }
        if self.load is not None:
            attrs["faults.imbalance"] = self.load.imbalance
        return attrs

    def describe(self) -> str:
        parts = [
            f"{self.kernel_name}: {self.effective_dpus}/{self.fleet_dpus} "
            f"DPUs healthy",
            f"{self.dpus_used} engaged",
        ]
        if self.redispatched_units:
            parts.append(f"{self.redispatched_units} units redispatched")
        if self.retries:
            parts.append(
                f"{self.retries} retries "
                f"({self.transient_failures} transient, "
                f"{self.stuck_timeouts} stuck)"
            )
        if self.corrupted_transfers:
            parts.append(f"{self.corrupted_transfers} corrupt transfers")
        parts.append(f"penalty {self.penalty_seconds * 1e3:.3f} ms")
        return " | ".join(parts)


def redistribute_units(work_units: int, healthy_dpus: int) -> list:
    """Per-DPU work-unit shares after redispatch onto the survivors.

    Work units are indivisible (paper Section 4.3); units originally
    mapped to failed DPUs are re-homed by splitting the *whole* unit
    count evenly over ``min(healthy_dpus, work_units)`` engaged
    survivors. The sum of the returned shares always equals
    ``work_units`` — redispatch conserves work.
    """
    if work_units <= 0:
        raise ParameterError(f"work_units must be positive: {work_units}")
    if healthy_dpus <= 0:
        raise PermanentDeviceError(
            "cannot redispatch: no healthy DPUs",
            dpus_requested=work_units,
            dpus_available=healthy_dpus,
        )
    engaged = min(healthy_dpus, work_units)
    return split_evenly(work_units, engaged)


# -- process-global plan (mirrors use_tracer / use_registry) ---------------

_ACTIVE_PLAN: FaultPlan | None = None
_ACTIVE_POLICY: RetryPolicy | None = None


def get_active_plan() -> FaultPlan | None:
    """The installed fault plan, or ``None`` (the default: no faults)."""
    return _ACTIVE_PLAN


def get_active_policy() -> RetryPolicy | None:
    """The retry policy installed alongside the plan, if any."""
    return _ACTIVE_POLICY


def set_fault_plan(
    plan: FaultPlan | None, policy: RetryPolicy | None = None
) -> tuple:
    """Install ``plan``/``policy`` globally; returns the previous pair."""
    global _ACTIVE_PLAN, _ACTIVE_POLICY
    previous = (_ACTIVE_PLAN, _ACTIVE_POLICY)
    _ACTIVE_PLAN = plan
    _ACTIVE_POLICY = policy
    return previous


@contextmanager
def use_fault_plan(plan: FaultPlan, policy: RetryPolicy | None = None):
    """Install a fault plan for the duration of a ``with`` block."""
    previous = set_fault_plan(plan, policy)
    try:
        yield plan
    finally:
        set_fault_plan(*previous)
