"""Cross-cutting property-based tests.

Broader invariants spanning modules: cost-model monotonicity, Galois
group structure, scheme-level algebra, and planner monotonicity —
the properties a downstream user implicitly relies on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import OpRequest, get_backend
from repro.backends.registry import BACKEND_ORDER


class TestCostModelMonotonicity:
    @pytest.mark.parametrize("backend_name", BACKEND_ORDER)
    @given(
        n=st.integers(min_value=1024, max_value=10**7),
        factor=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=10, deadline=None)
    def test_more_elements_never_cheaper(self, backend_name, n, factor):
        backend = get_backend(backend_name)
        small = backend.time_op(
            OpRequest(op="vec_add", width_bits=128, n_elements=n)
        ).seconds
        large = backend.time_op(
            OpRequest(op="vec_add", width_bits=128, n_elements=n * factor)
        ).seconds
        assert large >= small

    @pytest.mark.parametrize("backend_name", BACKEND_ORDER)
    @pytest.mark.parametrize("op", ["vec_add", "vec_mul", "tensor_mul"])
    def test_wider_elements_never_cheaper(self, backend_name, op):
        backend = get_backend(backend_name)
        times = [
            backend.time_op(
                OpRequest(op=op, width_bits=w, n_elements=10**6)
            ).seconds
            for w in (32, 64, 128)
        ]
        assert times[0] <= times[1] <= times[2]

    # The GPU is excluded deliberately: the paper's measured shapes are
    # only consistent with its custom add kernel being far less
    # bandwidth-efficient than its multiply kernel (see GPUSpec), so on
    # that platform multiplication IS cheaper per element than addition.
    @pytest.mark.parametrize(
        "backend_name", [n for n in BACKEND_ORDER if n != "gpu"]
    )
    def test_mul_never_cheaper_than_add(self, backend_name):
        backend = get_backend(backend_name)
        add = backend.time_op(
            OpRequest(op="vec_add", width_bits=128, n_elements=10**6)
        ).seconds
        mul = backend.time_op(
            OpRequest(op="vec_mul", width_bits=128, n_elements=10**6)
        ).seconds
        assert mul >= add


class TestGaloisGroupStructure:
    @given(
        i=st.integers(min_value=0, max_value=15),
        j=st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=20, deadline=None)
    def test_automorphism_composition(self, i, j):
        """phi_{g1} . phi_{g2} == phi_{g1*g2 mod 2n} on the ring."""
        from repro.core.galois import apply_automorphism
        from repro.poly.polynomial import Polynomial

        n = 16
        q = 257
        p = Polynomial([(k * 37 + 5) % q for k in range(n)], q)
        g1 = pow(3, i, 2 * n)
        g2 = pow(3, j, 2 * n)
        composed = apply_automorphism(apply_automorphism(p, g2), g1)
        direct = apply_automorphism(p, g1 * g2 % (2 * n))
        assert composed == direct

    def test_galois_elements_form_the_odd_units(self):
        """{3^i} U {-3^i} covers every odd residue mod 2n exactly once
        — the structure the canonical slot ordering relies on."""
        n = 64
        two_n = 2 * n
        orbit = set()
        for i in range(n // 2):
            e = pow(3, i, two_n)
            orbit.add(e)
            orbit.add(two_n - e)
        assert orbit == {k for k in range(1, two_n) if k % 2 == 1}


class TestSchemeAlgebra:
    @given(
        values=st.lists(
            st.integers(min_value=-40, max_value=40), min_size=2, max_size=6
        )
    )
    @settings(max_examples=8, deadline=None)
    def test_bfv_bgv_agree_on_linear_forms(self, values):
        """3a - 2b computed identically by both exact schemes."""
        from tests.conftest import make_tiny_params
        from repro.core import BatchEncoder
        from repro.core.bgv import (
            BGVDecryptor,
            BGVEncryptor,
            BGVEvaluator,
            BGVKeyGenerator,
        )
        from repro.workloads.context import WorkloadContext

        params = make_tiny_params()
        a = values
        b = values[::-1]
        expected = [3 * x - 2 * y for x, y in zip(a, b)]
        if any(abs(e) > params.plain_modulus // 2 for e in expected):
            return

        ctx = WorkloadContext.from_params(params, seed=3)
        ev = ctx.evaluator
        ct = ev.sub(
            ev.add_many([ctx.encrypt_slots(a)] * 3),
            ev.add_many([ctx.encrypt_slots(b)] * 2),
        )
        bfv = ctx.decrypt_slots(ct, len(a))

        keys = BGVKeyGenerator(params, seed=4).generate()
        enc = BGVEncryptor(params, keys.public_key, seed=5)
        dec = BGVDecryptor(params, keys.secret_key)
        bev = BGVEvaluator(params)
        encoder = BatchEncoder(params)
        ca = enc.encrypt(encoder.encode(a))
        cb = enc.encrypt(encoder.encode(b))
        three_a = bev.add(bev.add(ca, ca), ca)
        two_b = bev.add(cb, cb)
        bgv = encoder.decode(dec.decrypt(bev.sub(three_a, two_b)))[: len(a)]

        assert bfv == bgv == expected


class TestPlannerMonotonicity:
    def test_deeper_circuits_never_gain_budget(self):
        from repro.core.params import BFVParameters
        from repro.core.planner import CircuitShape, plan_budget

        params = BFVParameters.security_level(109)
        remaining = [
            plan_budget(params, CircuitShape(multiplicative_depth=d)).remaining_bits
            for d in range(4)
        ]
        assert remaining == sorted(remaining, reverse=True)

    def test_bigger_fanin_never_gains_budget(self):
        from repro.core.params import BFVParameters
        from repro.core.planner import CircuitShape, plan_budget

        params = BFVParameters.security_level(54)
        remaining = [
            plan_budget(
                params, CircuitShape(additions_per_level=f)
            ).remaining_bits
            for f in (1, 8, 64, 4096)
        ]
        assert remaining == sorted(remaining, reverse=True)


class TestFaultResilienceProperties:
    @given(
        work_units=st.integers(min_value=1, max_value=50_000),
        healthy=st.integers(min_value=1, max_value=4096),
    )
    @settings(max_examples=50, deadline=None)
    def test_redispatch_conserves_work(self, work_units, healthy):
        """Redistribution over any surviving fleet moves every unit
        somewhere: the per-DPU shares always sum to the original total,
        and stay within one unit of each other."""
        from repro.pim.faults import redistribute_units

        shares = redistribute_units(work_units, healthy)
        assert sum(shares) == work_units
        assert len(shares) == min(work_units, healthy)
        assert max(shares) - min(shares) <= 1

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_timing_monotone_as_fleet_degrades(self, seed):
        """Whatever the seed picks as casualties, losing more DPUs
        never makes the modelled kernel time decrease."""
        from repro.pim.config import UPMEMConfig
        from repro.pim.faults import FaultPlan, use_fault_plan
        from repro.pim.kernels import VecAddKernel
        from repro.pim.runtime import PIMRuntime

        runtime = PIMRuntime(config=UPMEMConfig(n_dpus=256))
        kernel = VecAddKernel(2)
        times = []
        for disable in (0, 32, 64, 128, 192):
            plan = FaultPlan(seed=seed, disable_dpus=disable)
            with use_fault_plan(plan):
                times.append(
                    runtime.time_kernel(kernel, 25_600).total_seconds
                )
        assert times == sorted(times)


class TestKernelExecutionInvariance:
    def test_output_independent_of_batching(self, rng):
        """Executing elements one-by-one or in a batch gives identical
        outputs and identical tallies."""
        from repro.mpint.cost import OpTally
        from repro.pim.kernels import VecMulKernel

        kernel = VecMulKernel(2)
        elements = [kernel.random_element(rng) for _ in range(16)]
        batch_out, batch_tally = kernel.execute(elements)
        single_tally = OpTally()
        single_out = [
            kernel.run_element(e, single_tally) for e in elements
        ]
        assert batch_out == single_out
        assert batch_tally.as_dict() == single_tally.as_dict()


class TestShardedResilienceProperties:
    """PR 10 invariants: sharding re-routes work, never loses it."""

    @given(n_shards=st.integers(min_value=1, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_every_layout_partitions_the_fleet(self, n_shards):
        from repro.pim.config import UPMEMConfig
        from repro.serve.shard import make_layout

        config = UPMEMConfig()
        layout = make_layout(n_shards, config)
        covered = []
        for shard in range(layout.n_shards):
            start, stop = layout.span_of(shard)
            covered.extend(range(start, stop))
        assert covered == list(range(config.n_dpus))

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_shards=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=10, deadline=None)
    def test_sharded_redispatch_conserves_work(self, seed, n_shards):
        """Whatever shard a batch lands on — home, rerouted, hedged —
        every admitted request is accounted exactly once."""
        from repro.pim.config import UPMEMConfig
        from repro.pim.faults import FaultPlan
        from repro.serve.resilience import (
            ResilienceSpec,
            simulate_resilient,
        )
        from repro.serve.service import RequestClass, ServeSpec
        from repro.serve.shard import make_layout

        layout = make_layout(max(n_shards, 2), UPMEMConfig())
        victim_ranks = layout.ranks_of(seed % layout.n_shards)
        result = simulate_resilient(
            ResilienceSpec(
                serve=ServeSpec(
                    classes=(
                        RequestClass(security_bits=54, rate_qps=2000.0),
                    ),
                    duration_s=0.1,
                    seed=seed,
                ),
                n_shards=n_shards,
                plan=FaultPlan(disabled_ranks=victim_ranks),
                hedge_after_s=1e-3,
            )
        )
        reports = result.reports.values()
        completed = sum(r["completed"] for r in reports)
        rejected = sum(r["rejected"] for r in reports)
        assert completed + rejected == (
            result.doc["resilience"]["offered_requests"]
        )
        assert len(result.timelines) == completed
        winner_members = sum(
            launch.batch_size
            for launch in result.launches
            if not launch.hedged or launch.hedge_winner
        )
        assert winner_members == completed
        assert sum(s["launches"] for s in result.doc["shards"]) == len(
            result.launches
        )

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=5, deadline=None)
    def test_latency_monotone_as_shards_are_disabled(self, seed):
        """Extending PR 5's invariant to the fleet level: killing more
        shards never makes aggregate modelled latency decrease."""
        from repro.pim.config import UPMEMConfig
        from repro.pim.faults import FaultPlan
        from repro.serve.resilience import (
            ResilienceSpec,
            simulate_resilient,
        )
        from repro.serve.service import RequestClass, ServeSpec
        from repro.serve.shard import make_layout

        layout = make_layout(4, UPMEMConfig())
        spec = ServeSpec(
            classes=(RequestClass(security_bits=54, rate_qps=48000.0),),
            duration_s=0.05,
            seed=seed,
        )
        means = []
        dead: tuple = ()
        # Kill full-size shards (1, then 2) so rerouted traffic never
        # lands on a *larger* shard than its home: shard 3 is the
        # partial-rank shard (604 DPUs), and a batch rehomed from it to
        # a 640-DPU shard would price marginally faster.
        for extra in (None, 1, 2):
            if extra is not None:
                dead = dead + layout.ranks_of(extra)
            result = simulate_resilient(
                ResilienceSpec(
                    serve=spec,
                    n_shards=4,
                    plan=FaultPlan(disabled_ranks=dead),
                )
            )
            report = list(result.reports.values())[0]
            assert report["completed"] == len(result.timelines)
            means.append(report["latency"]["mean_ms"])
        assert means == sorted(means)
