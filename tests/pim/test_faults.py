"""Fault injection, retry/redispatch, degraded-fleet timing."""

import hashlib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CapacityError,
    DeviceError,
    ParameterError,
    PermanentDeviceError,
    TransientDeviceError,
)
from repro.pim.config import UPMEMConfig
from repro.pim.faults import (
    DEFAULT_RETRY_POLICY,
    OUTCOME_OK,
    OUTCOME_STUCK,
    OUTCOME_TRANSIENT,
    FaultPlan,
    RetryPolicy,
    _STREAM_CACHE,
    _STREAM_CHUNK,
    _unit_hash,
    get_active_plan,
    get_active_policy,
    plan_for_healthy_fraction,
    redistribute_units,
    set_fault_plan,
    unit_draws,
    use_fault_plan,
)
from repro.pim.kernels import VecAddKernel
from repro.pim.runtime import PIMRuntime

#: The paper's physical machine: 2,560 DPUs over 40 ranks.
PHYSICAL = UPMEMConfig(n_dpus=2560)

#: The modelled fleet: the 2,524 DPUs that work.
CFG = UPMEMConfig()


def make_runtime(**config_changes) -> PIMRuntime:
    return PIMRuntime(config=UPMEMConfig(**config_changes))


class TestUnitHash:
    def test_deterministic_and_in_unit_interval(self):
        values = {_unit_hash(7, "launch", "vec_add", i) for i in range(64)}
        assert len(values) == 64  # distinct draws per index
        assert all(0.0 <= v < 1.0 for v in values)
        assert _unit_hash(7, "x") == _unit_hash(7, "x")

    def test_seed_changes_the_stream(self):
        assert _unit_hash(1, "dpu", 5) != _unit_hash(2, "dpu", 5)


class TestUnitDrawStream:
    """The memoized stream is bit-identical to per-index _unit_hash."""

    @settings(max_examples=40, deadline=None)
    @given(
        channel=st.sampled_from(("serve.arrival", "serve.place", "x:y")),
        seed=st.integers(-(2**63), 2**63),
        class_key=st.one_of(
            st.sampled_from(("vec_add@54", "a:b@c", "@", ":", "")),
            st.text(alphabet="ab@:7-", max_size=8),
        ),
    )
    def test_values_equal_unit_hash(self, channel, seed, class_key):
        stream = unit_draws(channel, seed, class_key)
        draws = stream.first(40)
        assert list(draws) == [
            _unit_hash(channel, seed, class_key, i) for i in range(40)
        ]
        for index, value in zip(range(40), stream):
            assert value == draws[index]

    def test_indices_across_chunk_boundaries(self):
        prefix = ("serve.arrival", -3, "vec_mul@109")
        count = 2 * _STREAM_CHUNK + 5
        draws = unit_draws(*prefix).first(count)
        assert len(draws) == count
        for index in (
            0,
            _STREAM_CHUNK - 1,
            _STREAM_CHUNK,
            _STREAM_CHUNK + 1,
            2 * _STREAM_CHUNK - 1,
            2 * _STREAM_CHUNK,
            count - 1,
        ):
            assert draws[index] == _unit_hash(*prefix, index), index
        iterated = [v for _, v in zip(range(count), unit_draws(*prefix))]
        assert iterated == list(draws)

    def test_stream_grows_in_fixed_chunks(self):
        stream = unit_draws("serve.place", 11, "chunked")
        stream.first(1)
        assert len(stream) == _STREAM_CHUNK
        stream.first(_STREAM_CHUNK + 1)
        assert len(stream) == 2 * _STREAM_CHUNK

    def test_evicted_stream_is_rebuilt_with_the_same_values(self):
        prefix = ("serve.place", 5, "evict@54")
        first = unit_draws(*prefix)
        before = first.first(_STREAM_CHUNK + 3)
        for other in range(_STREAM_CACHE):
            unit_draws("serve.place", 5, f"filler-{other}")
        rebuilt = unit_draws(*prefix)
        assert rebuilt is not first
        assert rebuilt.first(_STREAM_CHUNK + 3) == before
        assert list(before) == [
            _unit_hash(*prefix, i) for i in range(_STREAM_CHUNK + 3)
        ]

    def test_threads_growing_one_stream_agree(self):
        """Concurrent growth appends each index once."""
        prefix = ("serve.arrival", 13, "threads@54")
        count = 4 * _STREAM_CHUNK + 1
        results = [None] * 8

        def worker(slot):
            results[slot] = unit_draws(*prefix).first(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(len(results))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        expected = [_unit_hash(*prefix, i) for i in range(count)]
        assert all(list(r) == expected for r in results)
        assert len(unit_draws(*prefix)) == 5 * _STREAM_CHUNK

    def test_draws_equal_hashlib_sha256(self):
        """The built-in SHA-256 the draws use gives hashlib's digests:
        two chunks of a stream and ``_unit_hash`` match values
        computed here with ``hashlib.sha256``."""

        def reference(*parts):
            message = ":".join(str(p) for p in parts).encode()
            digest = hashlib.sha256(message).digest()
            return int.from_bytes(digest[:8], "big") / 2**64

        prefix = ("serve.arrival", 2**40 + 3, "vec_add@54")
        count = 2 * _STREAM_CHUNK
        draws = unit_draws(*prefix).first(count)
        assert list(draws) == [reference(*prefix, i) for i in range(count)]
        assert _unit_hash(7, "launch", -1, 2.5) == reference(
            7, "launch", -1, 2.5
        )

    def test_int_and_float_seeds_are_separate_streams(self):
        # 7 == 7.0, but str() differs, so so do the draws.
        ints = unit_draws("serve.arrival", 7, "k").first(3)
        floats = unit_draws("serve.arrival", 7.0, "k").first(3)
        assert list(ints) == [
            _unit_hash("serve.arrival", 7, "k", i) for i in range(3)
        ]
        assert list(floats) == [
            _unit_hash("serve.arrival", 7.0, "k", i) for i in range(3)
        ]
        assert ints != floats


class TestRetryPolicy:
    def test_defaults_are_sane(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 3

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_s=1e-3, backoff_factor=2.0)
        assert policy.backoff_seconds(1) == pytest.approx(1e-3)
        assert policy.backoff_seconds(3) == pytest.approx(4e-3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_s": -1.0},
            {"backoff_factor": 0.5},
            {"stuck_timeout_s": -1e-3},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ParameterError):
            RetryPolicy(**kwargs)

    def test_backoff_rejects_zero_failures(self):
        with pytest.raises(ParameterError):
            DEFAULT_RETRY_POLICY.backoff_seconds(0)


class TestFaultPlanValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dpu_fail_rate": 1.5},
            {"transient_rate": -0.1},
            {"transient_rate": 0.7, "stuck_rate": 0.7},
            {"disable_dpus": -1},
            {"launch_script": ("ok", "explode")},
            {"transfer_script": ("garbled",)},
        ],
    )
    def test_rejects_bad_spec(self, kwargs):
        with pytest.raises(ParameterError):
            FaultPlan(**kwargs)

    def test_default_plan_is_inactive(self):
        assert not FaultPlan().active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dpu_fail_rate": 0.1},
            {"transient_rate": 0.1},
            {"corruption_rate": 0.1},
            {"stuck_rate": 0.1},
            {"disabled_dpus": (3,)},
            {"disabled_ranks": (0,)},
            {"disable_dpus": 36},
            {"launch_script": ("transient",)},
            {"transfer_script": ("corrupt",)},
        ],
    )
    def test_any_fault_source_makes_it_active(self, kwargs):
        assert FaultPlan(**kwargs).active


class TestPlanForHealthyFraction:
    def test_full_health_is_inactive(self):
        plan = plan_for_healthy_fraction(1.0, seed=0, config=CFG)
        assert not plan.active
        assert plan.effective_dpus(CFG) == CFG.n_dpus

    def test_fraction_maps_to_disable_count(self):
        plan = plan_for_healthy_fraction(0.9, seed=0, config=CFG)
        assert plan.disable_dpus == round(CFG.n_dpus * 0.1)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.1])
    def test_rejects_bad_fractions(self, fraction):
        with pytest.raises(ParameterError):
            plan_for_healthy_fraction(fraction, seed=0, config=CFG)


class TestDisabledDPUs:
    def test_explicit_ids_and_ranks_union(self):
        plan = FaultPlan(disabled_dpus=(0, 1, 64), disabled_ranks=(1,))
        disabled = plan.disabled_dpu_ids(PHYSICAL)
        # Rank 1 spans DPUs 64..127; DPU 64 is not double-counted.
        assert disabled == frozenset({0, 1} | set(range(64, 128)))
        assert plan.effective_dpus(PHYSICAL) == 2560 - 66

    def test_paper_fleet_2560_minus_36_is_2524(self):
        plan = FaultPlan(seed=5, disable_dpus=36)
        assert plan.effective_dpus(PHYSICAL) == 2524

    def test_count_disable_is_seeded_and_stable(self):
        a = FaultPlan(seed=5, disable_dpus=36).disabled_dpu_ids(PHYSICAL)
        b = FaultPlan(seed=5, disable_dpus=36).disabled_dpu_ids(PHYSICAL)
        c = FaultPlan(seed=6, disable_dpus=36).disabled_dpu_ids(PHYSICAL)
        assert a == b
        assert a != c

    def test_rate_disables_roughly_that_fraction(self):
        plan = FaultPlan(seed=1, dpu_fail_rate=0.1)
        lost = len(plan.disabled_dpu_ids(PHYSICAL))
        assert 0.05 * 2560 < lost < 0.15 * 2560

    @pytest.mark.parametrize(
        "kwargs",
        [{"disabled_dpus": (2560,)}, {"disabled_ranks": (40,)}],
    )
    def test_out_of_range_spec_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            FaultPlan(**kwargs).disabled_dpu_ids(PHYSICAL)


class TestSurvivorsAgainstPerDPUHashes:
    """Disabled DPUs ranked and drawn from the memoized streams equal
    the per-DPU ``_unit_hash`` forms they replaced."""

    @staticmethod
    def reference(plan: FaultPlan, n_dpus: int) -> set:
        ranked = sorted(
            range(n_dpus), key=lambda dpu: _unit_hash(plan.seed, "disable", dpu)
        )
        disabled = set(ranked[: plan.disable_dpus])
        if plan.dpu_fail_rate:
            disabled.update(
                dpu
                for dpu in range(n_dpus)
                if _unit_hash(plan.seed, "dpu", dpu) < plan.dpu_fail_rate
            )
        return disabled

    @pytest.mark.parametrize("seed", [0, 1, 7, 2023, 2**40 + 5])
    @pytest.mark.parametrize("count", [1, 2, 36, 500, 2559, 2560])
    def test_hash_ranked_counts(self, seed, count):
        config = UPMEMConfig(n_dpus=2560)
        plan = FaultPlan(seed=seed, disable_dpus=count)
        assert plan.disabled_dpu_ids(config) == self.reference(plan, 2560)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("rate", [0.01, 0.3, 1.0])
    def test_fail_rates_with_counts(self, seed, rate):
        config = UPMEMConfig(n_dpus=640)
        plan = FaultPlan(seed=seed, dpu_fail_rate=rate, disable_dpus=17)
        assert plan.disabled_dpu_ids(config) == self.reference(plan, 640)

    def test_tied_draws_rank_by_id(self, monkeypatch):
        """Equal draws keep id order, as ``sorted`` does."""
        import repro.pim.faults as faults

        class Tied:
            def first(self, count):
                return faults.array("d", [0.5] * count)

        monkeypatch.setattr(faults, "unit_draws", lambda *parts: Tied())
        plan = FaultPlan(seed=1, disable_dpus=5)
        assert sorted(plan.disabled_dpu_ids(UPMEMConfig(n_dpus=64))) == [0, 1, 2, 3, 4]


class TestLaunchOutcomes:
    def test_script_consumed_fifo_then_rates(self):
        plan = FaultPlan(launch_script=("transient", "stuck", "ok"))
        assert plan.launch_outcome("k") == OUTCOME_TRANSIENT
        assert plan.launch_outcome("k") == OUTCOME_STUCK
        assert plan.launch_outcome("k") == OUTCOME_OK
        # Script exhausted, no rates: always ok from here.
        assert plan.launch_outcome("k") == OUTCOME_OK

    def test_rate_one_always_fails(self):
        plan = FaultPlan(transient_rate=1.0)
        assert all(
            plan.launch_outcome("k") == OUTCOME_TRANSIENT for _ in range(5)
        )

    def test_repeated_draws_advance_the_stream(self):
        plan = FaultPlan(seed=3, transient_rate=0.5)
        outcomes = [plan.launch_outcome("vec_add") for _ in range(32)]
        assert OUTCOME_TRANSIENT in outcomes and OUTCOME_OK in outcomes

    def test_reset_replays_bit_identically(self):
        plan = FaultPlan(seed=9, transient_rate=0.4, stuck_rate=0.2)
        first = [plan.launch_outcome("vec_add") for _ in range(20)]
        plan.reset()
        assert [plan.launch_outcome("vec_add") for _ in range(20)] == first

    def test_victim_dpu_is_healthy_and_deterministic(self):
        plan = FaultPlan(seed=2, disable_dpus=100)
        disabled = plan.disabled_dpu_ids(PHYSICAL)
        victim = plan.victim_dpu(PHYSICAL, "vec_add")
        assert victim not in disabled
        assert 0 <= victim < PHYSICAL.n_dpus
        replay = plan.scaled()
        assert replay.victim_dpu(PHYSICAL, "vec_add") == victim

    def test_scaled_copy_does_not_share_counters(self):
        plan = FaultPlan(seed=9, transient_rate=0.4)
        plan.launch_outcome("k")
        copy = plan.scaled(transient_rate=0.5)
        assert copy._draws == {}  # fresh counters, not the original's
        before = dict(plan._draws)
        copy.launch_outcome("k")
        copy.launch_outcome("k")
        assert plan._draws == before  # the original never sees them


class TestRedistributeUnits:
    def test_conserves_and_balances(self):
        shares = redistribute_units(100, 30)
        assert sum(shares) == 100
        assert max(shares) - min(shares) <= 1
        assert len(shares) == 30

    def test_engages_at_most_one_dpu_per_unit(self):
        assert redistribute_units(5, 100) == [1, 1, 1, 1, 1]

    def test_no_survivors_is_permanent(self):
        with pytest.raises(PermanentDeviceError):
            redistribute_units(10, 0)

    def test_rejects_nonpositive_work(self):
        with pytest.raises(ParameterError):
            redistribute_units(0, 4)


class TestActivePlanPlumbing:
    def test_default_is_no_plan(self):
        assert get_active_plan() is None
        assert get_active_policy() is None

    def test_use_fault_plan_restores_previous(self):
        outer = FaultPlan(disable_dpus=1)
        policy = RetryPolicy(max_attempts=5)
        with use_fault_plan(outer):
            with use_fault_plan(FaultPlan(disable_dpus=2), policy):
                assert get_active_plan().disable_dpus == 2
                assert get_active_policy() is policy
            assert get_active_plan() is outer
            assert get_active_policy() is None
        assert get_active_plan() is None

    def test_set_fault_plan_returns_previous_pair(self):
        plan = FaultPlan(disable_dpus=1)
        assert set_fault_plan(plan) == (None, None)
        try:
            assert get_active_plan() is plan
        finally:
            assert set_fault_plan(None) == (plan, None)


class TestDegradedTiming:
    """The acceptance path: 2,560 - 36 = 2,524, and slower when saturated."""

    def test_disabled_fleet_shrinks_engagement(self):
        runtime = make_runtime(n_dpus=2560)
        kernel = VecAddKernel(2)
        plan = FaultPlan(seed=11, disable_dpus=36)
        with use_fault_plan(plan):
            timing = runtime.time_kernel(kernel, 256_000)
        assert timing.dpus_disabled == 36
        assert timing.faults.effective_dpus == 2524
        assert timing.dpus_used == 2524
        assert timing.faults.redispatched_units > 0

    def test_saturating_kernel_slower_on_degraded_fleet(self):
        """36 lost DPUs make a fleet-saturating kernel measurably
        slower: the survivors carry the redispatched units."""
        runtime = make_runtime(n_dpus=2560)
        kernel = VecAddKernel(2)
        healthy = runtime.time_kernel(kernel, 256_000)
        with use_fault_plan(FaultPlan(seed=11, disable_dpus=36)):
            degraded = runtime.time_kernel(kernel, 256_000)
        assert degraded.kernel_seconds > healthy.kernel_seconds
        assert degraded.total_seconds > healthy.total_seconds
        assert degraded.faults.redispatch_overhead_seconds == pytest.approx(
            degraded.kernel_seconds - healthy.kernel_seconds
        )

    def test_unsaturated_kernel_unaffected_by_disables(self):
        """A 100-unit workload never touches the lost DPUs: identical
        kernel time, zero redispatch, only the report differs."""
        runtime = make_runtime(n_dpus=2560)
        kernel = VecAddKernel(2)
        healthy = runtime.time_kernel(kernel, 100)
        with use_fault_plan(FaultPlan(seed=11, disable_dpus=36)):
            degraded = runtime.time_kernel(kernel, 100)
        assert degraded.kernel_seconds == healthy.kernel_seconds
        assert degraded.total_seconds == healthy.total_seconds
        assert degraded.faults.redispatched_units == 0

    def test_inactive_plan_prices_bit_identically(self):
        runtime = make_runtime()
        kernel = VecAddKernel(2)
        bare = runtime.time_kernel(kernel, 4096, include_transfer=True)
        with use_fault_plan(FaultPlan()):
            under_plan = runtime.time_kernel(
                kernel, 4096, include_transfer=True
            )
        assert under_plan == bare
        assert under_plan.faults is None

    def test_disable_only_plan_adds_no_fault_time(self):
        """Permanent disables change *kernel* time via redispatch, never
        inject penalty seconds — checksums stay unarmed."""
        runtime = make_runtime(n_dpus=2560)
        with use_fault_plan(FaultPlan(seed=1, disable_dpus=36)):
            timing = runtime.time_kernel(
                VecAddKernel(2), 256_000, include_transfer=True
            )
        assert timing.fault_seconds == 0.0
        assert timing.retries == 0

    def test_all_dpus_disabled_is_permanent(self):
        runtime = make_runtime(n_dpus=4)
        with use_fault_plan(FaultPlan(disabled_dpus=(0, 1, 2, 3))):
            with pytest.raises(PermanentDeviceError, match="every DPU"):
                runtime.time_kernel(VecAddKernel(2), 64)


class TestTransientRetries:
    def test_below_budget_never_surfaces(self):
        """One scripted transient failure: absorbed, priced, reported —
        the caller still gets a timing."""
        runtime = make_runtime()
        plan = FaultPlan(launch_script=("transient", "ok"))
        with use_fault_plan(plan):
            timing = runtime.time_kernel(VecAddKernel(2), 4096)
        assert timing.retries == 1
        assert timing.faults.transient_failures == 1
        expected = (
            runtime.config.launch_overhead_s
            + DEFAULT_RETRY_POLICY.backoff_seconds(1)
        )
        assert timing.fault_seconds == pytest.approx(expected)
        assert timing.faults.backoff_seconds == pytest.approx(
            DEFAULT_RETRY_POLICY.backoff_seconds(1)
        )

    def test_fault_time_lands_in_total(self):
        runtime = make_runtime()
        bare = runtime.time_kernel(VecAddKernel(2), 4096)
        with use_fault_plan(FaultPlan(launch_script=("transient", "ok"))):
            faulted = runtime.time_kernel(VecAddKernel(2), 4096)
        assert faulted.total_seconds == pytest.approx(
            bare.total_seconds + faulted.fault_seconds
        )

    def test_stuck_launch_costs_the_watchdog_timeout(self):
        runtime = make_runtime()
        policy = RetryPolicy(stuck_timeout_s=0.25, backoff_base_s=0.0)
        with use_fault_plan(FaultPlan(launch_script=("stuck", "ok")), policy):
            timing = runtime.time_kernel(VecAddKernel(2), 4096)
        assert timing.faults.stuck_timeouts == 1
        assert timing.fault_seconds == pytest.approx(0.25)

    def test_exhausted_budget_is_permanent_with_context(self):
        runtime = make_runtime()
        with use_fault_plan(FaultPlan(transient_rate=1.0)):
            with pytest.raises(PermanentDeviceError) as excinfo:
                runtime.time_kernel(VecAddKernel(2), 4096)
        exc = excinfo.value
        assert exc.context["attempts"] == DEFAULT_RETRY_POLICY.max_attempts
        assert 0 <= exc.context["dpu"] < runtime.config.n_dpus
        assert exc.context["rank"] == runtime.config.rank_of(
            exc.context["dpu"]
        )
        assert "kernel=vec_add" in str(exc)

    def test_runtime_policy_overrides_installed_one(self):
        runtime = make_runtime()
        runtime.retry_policy = RetryPolicy(max_attempts=1)
        loose = RetryPolicy(max_attempts=10)
        with use_fault_plan(FaultPlan(launch_script=("transient",)), loose):
            with pytest.raises(PermanentDeviceError):
                runtime.time_kernel(VecAddKernel(2), 4096)

    def test_replay_is_bit_identical(self):
        runtime = make_runtime()
        plan = FaultPlan(seed=13, transient_rate=0.3)
        with use_fault_plan(plan):
            first = [
                runtime.time_kernel(VecAddKernel(2), 4096) for _ in range(8)
            ]
        plan.reset()
        with use_fault_plan(plan):
            second = [
                runtime.time_kernel(VecAddKernel(2), 4096) for _ in range(8)
            ]
        assert first == second


class TestTransferCorruption:
    def test_corruption_costs_checksum_and_retransmit(self):
        runtime = make_runtime()
        kernel = VecAddKernel(2)
        clean = runtime.time_kernel(kernel, 4096, include_transfer=True)
        plan = FaultPlan(transfer_script=("corrupt", "ok", "ok"))
        with use_fault_plan(plan):
            timing = runtime.time_kernel(kernel, 4096, include_transfer=True)
        assert timing.faults.corrupted_transfers == 1
        assert timing.retries == 1
        # Both directions are checksummed; the corrupted one also pays
        # a retransmit (the transfer again) plus its re-checksum.
        total = 4096 * kernel.mram_bytes_per_element()
        out = 4096 * 4 * kernel.limbs
        checksums = runtime.transfer.checksum_seconds(
            total - out
        ) + runtime.transfer.checksum_seconds(out)
        retransmit = clean.host_to_dpu_seconds + (
            runtime.transfer.checksum_seconds(total - out)
        )
        assert timing.fault_seconds == pytest.approx(checksums + retransmit)

    def test_persistent_corruption_exhausts_with_bytes_context(self):
        runtime = make_runtime()
        with use_fault_plan(FaultPlan(corruption_rate=1.0)):
            with pytest.raises(PermanentDeviceError) as excinfo:
                runtime.time_kernel(
                    VecAddKernel(2), 4096, include_transfer=True
                )
        assert excinfo.value.context["bytes_needed"] > 0

    def test_corruption_irrelevant_without_transfers(self):
        """PIM-resident data never crosses the bus: corruption plans
        cost nothing when include_transfer is off."""
        runtime = make_runtime()
        bare = runtime.time_kernel(VecAddKernel(2), 4096)
        with use_fault_plan(FaultPlan(corruption_rate=1.0)):
            timing = runtime.time_kernel(VecAddKernel(2), 4096)
        assert timing.fault_seconds == 0.0
        assert timing.total_seconds == bare.total_seconds


class TestReportAndAttrs:
    def test_report_attrs_and_describe(self):
        runtime = make_runtime(n_dpus=2560)
        plan = FaultPlan(
            seed=11, disable_dpus=36, launch_script=("transient", "ok")
        )
        with use_fault_plan(plan):
            timing = runtime.time_kernel(VecAddKernel(2), 256_000)
        report = timing.faults
        assert report.availability == pytest.approx(2524 / 2560)
        attrs = timing.as_attrs()
        assert attrs["faults.effective_dpus"] == 2524
        assert attrs["faults.retries"] == 1
        assert attrs["faults.imbalance"] >= 0.0
        assert "2524/2560 DPUs healthy" in report.describe()
        assert "retries" in timing.describe()

    def test_faultless_timing_attrs_stay_unchanged(self):
        """No plan -> no faults.* keys, no retry keys: traces written by
        fault-free runs are byte-compatible with earlier baselines."""
        runtime = make_runtime()
        attrs = runtime.time_kernel(VecAddKernel(2), 4096).as_attrs()
        assert not any(k.startswith("faults.") for k in attrs)
        assert "retries" not in attrs

    def test_fault_metrics_recorded(self):
        from repro.obs.metrics import MetricsRegistry, use_registry

        runtime = make_runtime(n_dpus=2560)
        registry = MetricsRegistry()
        plan = FaultPlan(
            seed=11, disable_dpus=36, launch_script=("transient", "ok")
        )
        with use_registry(registry), use_fault_plan(plan):
            runtime.time_kernel(VecAddKernel(2), 256_000)
        snapshot = registry.snapshot()
        assert snapshot["faults.retries"]["value"] == 1
        assert snapshot["faults.injected.transient_launch"]["value"] == 1
        assert snapshot["pim.effective_dpus"]["value"] == 2524
        assert snapshot["pim.disabled_dpus"]["value"] == 36
        assert snapshot["faults.redispatched_units"]["value"] > 0


class TestDeviceEvaluatorUnderFaults:
    def test_results_bit_identical_below_retry_budget(self, tiny_ctx):
        """Transient faults below the budget are invisible to the
        workload: the ciphertext is bit-identical to the fault-free
        run, only the timing carries the story."""
        from repro.pim.executor import DeviceEvaluator

        device = DeviceEvaluator(tiny_ctx.params)
        a = tiny_ctx.encrypt_slots([1, 2, 3])
        b = tiny_ctx.encrypt_slots([10, 20, 30])
        clean_ct, clean_run = device.add(a, b)
        with use_fault_plan(FaultPlan(launch_script=("transient", "ok"))):
            faulted_ct, faulted_run = device.add(a, b)
        assert faulted_ct == clean_ct
        assert clean_run.faults is None
        assert faulted_run.faults.retries == 1
        assert faulted_run.timing.total_seconds > clean_run.timing.total_seconds

    def test_exhausted_budget_surfaces_through_evaluator(self, tiny_ctx):
        from repro.pim.executor import DeviceEvaluator

        device = DeviceEvaluator(
            tiny_ctx.params, retry_policy=RetryPolicy(max_attempts=2)
        )
        a = tiny_ctx.encrypt_slots([1])
        with use_fault_plan(FaultPlan(transient_rate=1.0)):
            with pytest.raises(PermanentDeviceError) as excinfo:
                device.add(a, a)
        assert excinfo.value.context["attempts"] == 2


class TestSimulatorWatchdog:
    def test_stuck_tasklet_trips_the_watchdog(self):
        from repro.pim.sim import DPUSimulator, Phase, TaskletProgram

        sim = DPUSimulator(UPMEMConfig())
        program = TaskletProgram((Phase("compute", 10_000),))
        with pytest.raises(TransientDeviceError, match="stuck"):
            sim.run([program] * 2, max_cycles=100)

    def test_generous_budget_never_fires(self):
        from repro.pim.sim import DPUSimulator, Phase, TaskletProgram

        sim = DPUSimulator(UPMEMConfig())
        program = TaskletProgram((Phase("compute", 50),))
        result = sim.run([program], max_cycles=10**6)
        assert result.cycles > 0

    def test_trailing_dma_past_the_budget_trips_the_watchdog(self):
        """A final DMA marks its tasklet done as soon as it is enqueued;
        the transfer still runs past the budget."""
        from repro.pim.sim import DPUSimulator, Phase, TaskletProgram

        sim = DPUSimulator(UPMEMConfig())
        for phases in (
            (Phase("dma", 2048),),
            (Phase("compute", 1), Phase("dma", 2048)),
        ):
            with pytest.raises(
                TransientDeviceError, match="1 tasklet.*first stuck: tasklet 0"
            ):
                sim.run([TaskletProgram(phases)], max_cycles=10)

    def test_budget_of_exactly_the_run_length_is_enough(self):
        from repro.pim.sim import DPUSimulator, Phase, TaskletProgram

        sim = DPUSimulator(UPMEMConfig())
        programs = [
            TaskletProgram((Phase("compute", 30), Phase("dma", 64))),
            TaskletProgram((Phase("compute", 40),)),
        ]
        cycles = sim.run(programs).cycles
        assert sim.run(programs, max_cycles=cycles).cycles == cycles
        with pytest.raises(TransientDeviceError, match="watchdog"):
            sim.run(programs, max_cycles=cycles - 1)

    def test_rejects_nonpositive_budget(self):
        from repro.pim.sim import DPUSimulator, Phase, TaskletProgram

        sim = DPUSimulator(UPMEMConfig())
        with pytest.raises(ParameterError):
            sim.run([TaskletProgram((Phase("compute", 1),))], max_cycles=0)


class TestErrorTaxonomy:
    def test_device_error_context_and_str(self):
        exc = DeviceError("launch failed", kernel="vec_add", dpu=7, rank=0)
        assert exc.context == {"kernel": "vec_add", "dpu": 7, "rank": 0}
        assert str(exc) == "launch failed [kernel=vec_add, dpu=7, rank=0]"

    def test_plain_message_has_no_bracket_suffix(self):
        assert str(DeviceError("plain")) == "plain"

    def test_subclass_hierarchy(self):
        assert issubclass(TransientDeviceError, DeviceError)
        assert issubclass(PermanentDeviceError, DeviceError)
        assert issubclass(CapacityError, DeviceError)

    def test_mram_overflow_is_capacity_error_with_bytes(self):
        """Satellite: an MRAM-exceeding workload raises CapacityError
        carrying how many bytes were needed vs. available."""
        runtime = make_runtime(n_dpus=1)
        kernel = VecAddKernel(2)
        too_many = UPMEMConfig().mram_per_dpu_bytes  # elements >> capacity
        with pytest.raises(CapacityError) as excinfo:
            runtime.time_kernel(kernel, too_many)
        exc = excinfo.value
        assert exc.context["bytes_needed"] > exc.context["bytes_available"]
        assert exc.context["kernel"] == "vec_add"
        assert "bytes_needed" in str(exc)


class TestSurvivorIndex:
    """O(1) shard/rank membership queries over the precomputed index."""

    CONFIG = UPMEMConfig()

    def plan(self) -> FaultPlan:
        return FaultPlan(
            seed=11,
            dpu_fail_rate=0.05,
            disabled_dpus=(3, 500),
            disabled_ranks=(2,),
            disable_dpus=7,
        )

    def test_queries_match_brute_force(self):
        plan = self.plan()
        disabled = plan.disabled_dpu_ids(self.CONFIG)
        for dpu in (0, 3, 500, self.CONFIG.n_dpus - 1):
            assert plan.is_disabled(self.CONFIG, dpu) == (dpu in disabled)
        for start, stop in ((0, 64), (100, 1000), (0, self.CONFIG.n_dpus)):
            brute = sum(1 for d in disabled if start <= d < stop)
            assert plan.disabled_in_span(self.CONFIG, start, stop) == brute
            assert plan.effective_in_span(self.CONFIG, start, stop) == (
                (stop - start) - brute
            )
        for rank in range(self.CONFIG.n_ranks):
            first = rank * self.CONFIG.dpus_per_rank
            last = min(
                first + self.CONFIG.dpus_per_rank, self.CONFIG.n_dpus
            )
            brute = sum(1 for d in disabled if first <= d < last)
            assert plan.disabled_in_rank(self.CONFIG, rank) == brute

    def test_same_seed_same_survivors_before_and_after_reset(self):
        """Determinism regression: the disabled set is a pure function
        of the plan spec — draw counters and reset() cannot move it."""
        plan = self.plan()
        before = plan.disabled_dpu_ids(self.CONFIG)
        for _ in range(5):
            plan.launch_outcome("vec_add")  # advance draw counters
        assert plan.disabled_dpu_ids(self.CONFIG) == before
        plan.reset()
        assert plan.disabled_dpu_ids(self.CONFIG) == before
        assert FaultPlan(
            seed=11,
            dpu_fail_rate=0.05,
            disabled_dpus=(3, 500),
            disabled_ranks=(2,),
            disable_dpus=7,
        ).disabled_dpu_ids(self.CONFIG) == before

    def test_whole_fleet_span_equals_effective_dpus(self):
        plan = self.plan()
        assert plan.effective_in_span(
            self.CONFIG, 0, self.CONFIG.n_dpus
        ) == plan.effective_dpus(self.CONFIG)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, c: p.is_disabled(c, c.n_dpus),
            lambda p, c: p.disabled_in_span(c, -1, 4),
            lambda p, c: p.disabled_in_span(c, 8, 4),
            lambda p, c: p.disabled_in_rank(c, c.n_ranks),
            lambda p, c: p.shard_view(c, 4, 4),
            lambda p, c: p.shard_view(c, 0, c.n_dpus + 1),
        ],
    )
    def test_out_of_range_queries_rejected(self, call):
        with pytest.raises(ParameterError):
            call(self.plan(), self.CONFIG)


class TestShardView:
    CONFIG = UPMEMConfig()

    def test_disabled_ids_are_renumbered_shard_local(self):
        plan = FaultPlan(disabled_dpus=(100, 150, 700))
        view = plan.shard_view(self.CONFIG, 64, 640)
        local = view.disabled_dpu_ids(
            UPMEMConfig(n_dpus=640 - 64)
        )
        assert local == {100 - 64, 150 - 64}  # 700 is outside the span

    def test_rates_carry_over_scripts_do_not(self):
        plan = FaultPlan(
            transient_rate=0.25,
            stuck_rate=0.01,
            corruption_rate=0.125,
            launch_script=(OUTCOME_TRANSIENT,),
        )
        view = plan.shard_view(self.CONFIG, 0, 64)
        assert view.transient_rate == 0.25
        assert view.stuck_rate == 0.01
        assert view.corruption_rate == 0.125
        assert view.launch_script == ()

    def test_sibling_shards_draw_independent_streams(self):
        plan = FaultPlan(transient_rate=0.5)
        a = plan.shard_view(self.CONFIG, 0, 64)
        b = plan.shard_view(self.CONFIG, 64, 128)
        assert a.seed != b.seed
        # Deterministic: the same span always yields the same view.
        assert plan.shard_view(self.CONFIG, 0, 64).seed == a.seed
