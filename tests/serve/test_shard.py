"""Fleet sharding: layouts, placement, per-shard pricing, bit-identity."""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.registry import get_backend
from repro.errors import ParameterError
from repro.pim.config import UPMEMConfig
from repro.pim.faults import FaultPlan
from repro.serve.service import (
    RequestClass,
    ServeSpec,
    check_serving_baseline,
    price_launch,
)
from repro.serve.shard import (
    ShardedPricer,
    ShardLayout,
    home_shard,
    home_shards,
    make_layout,
)

CONFIG = UPMEMConfig()
REPO = pathlib.Path(__file__).resolve().parents[2]


def assert_same_homes(got, want) -> None:
    """``got`` is an ``intp`` array of exactly the shards of ``want``."""
    assert isinstance(got, np.ndarray) and got.dtype == np.intp
    assert got.tolist() == [int(home) for home in want]


class TestShardLayout:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 5, 8, 40])
    def test_spans_tile_the_fleet_exactly(self, n_shards):
        layout = make_layout(n_shards, CONFIG)
        assert layout.n_shards == n_shards
        cursor = 0
        for shard in range(n_shards):
            start, stop = layout.span_of(shard)
            assert start == cursor and stop > start
            cursor = stop
        assert cursor == CONFIG.n_dpus
        assert sum(layout.size_of(s) for s in range(n_shards)) == (
            CONFIG.n_dpus
        )

    @pytest.mark.parametrize("n_shards", [2, 4, 8, 40])
    def test_rank_aligned_up_to_rank_count(self, n_shards):
        layout = make_layout(n_shards, CONFIG)
        ranks_seen = set()
        for shard in range(n_shards):
            ranks = layout.ranks_of(shard)
            assert not ranks_seen & set(ranks)  # no rank straddles shards
            ranks_seen.update(ranks)
            start, stop = layout.span_of(shard)
            assert start % CONFIG.dpus_per_rank == 0
        assert ranks_seen == set(range(CONFIG.n_ranks))

    def test_single_shard_is_the_whole_fleet(self):
        layout = make_layout(1, CONFIG)
        assert layout.span_of(0) == (0, CONFIG.n_dpus)
        assert layout.shard_config(CONFIG, 0) == CONFIG

    def test_more_shards_than_ranks_falls_back_to_dpu_split(self):
        layout = make_layout(CONFIG.n_ranks + 10, CONFIG)
        assert layout.n_shards == CONFIG.n_ranks + 10
        assert sum(layout.size_of(s) for s in range(layout.n_shards)) == (
            CONFIG.n_dpus
        )

    @pytest.mark.parametrize("n_shards", [0, -1, CONFIG.n_dpus + 1])
    def test_bad_shard_counts_rejected(self, n_shards):
        with pytest.raises(ParameterError):
            make_layout(n_shards, CONFIG)

    def test_non_tiling_spans_rejected(self):
        with pytest.raises(ParameterError):
            ShardLayout(
                n_dpus=128, dpus_per_rank=64, spans=((0, 64), (65, 128))
            )
        with pytest.raises(ParameterError):
            ShardLayout(n_dpus=128, dpus_per_rank=64, spans=((0, 64),))


class TestHomeShard:
    def test_in_range_deterministic_and_seed_sensitive(self):
        layout = make_layout(4, CONFIG)
        homes = [
            home_shard(layout, 0, "vec_add@54", i) for i in range(200)
        ]
        assert all(0 <= h < 4 for h in homes)
        assert homes == [
            home_shard(layout, 0, "vec_add@54", i) for i in range(200)
        ]
        assert homes != [
            home_shard(layout, 1, "vec_add@54", i) for i in range(200)
        ]
        assert len(set(homes)) == 4  # every shard gets traffic

    def test_single_shard_everything_is_home_zero(self):
        layout = make_layout(1, CONFIG)
        assert all(
            home_shard(layout, 9, "k", i) == 0 for i in range(50)
        )


class TestHomeShards:
    """The streamed placement against per-index ``home_shard``."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    @pytest.mark.parametrize("seed", [0, 7, -1])
    def test_equals_per_index_home_shard(self, n_shards, seed):
        layout = make_layout(n_shards, CONFIG)
        count = 2500  # crosses the stream's chunk boundaries
        assert_same_homes(
            home_shards(layout, seed, "vec_add@54", count),
            [home_shard(layout, seed, "vec_add@54", i) for i in range(count)],
        )

    def test_shard_counts_share_one_stream(self):
        """Placement at 4 shards after 7, and 7 after 4, is unchanged."""
        four, seven = make_layout(4, CONFIG), make_layout(7, CONFIG)
        a = home_shards(four, 3, "mean@54", 300)
        b = home_shards(seven, 3, "mean@54", 900)
        assert_same_homes(home_shards(four, 3, "mean@54", 900)[:300], a)
        assert_same_homes(home_shards(seven, 3, "mean@54", 300), b[:300])

    @settings(max_examples=60, deadline=None)
    @given(
        n_shards=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=-5, max_value=50),
        class_key=st.sampled_from(("vec_add@54", "mean@109", "k")),
        count=st.integers(min_value=0, max_value=300),
    )
    def test_random_layouts_equal_per_index_home_shard(
        self, n_shards, seed, class_key, count
    ):
        layout = make_layout(n_shards, CONFIG)
        assert_same_homes(
            home_shards(layout, seed, class_key, count),
            [home_shard(layout, seed, class_key, i) for i in range(count)],
        )

    def test_zero_requests(self):
        assert_same_homes(home_shards(make_layout(4, CONFIG), 0, "k", 0), [])
        assert_same_homes(home_shards(make_layout(1, CONFIG), 0, "k", 0), [])


class TestShardedPricerBitIdentity:
    def test_single_shard_matches_the_serving_pricer_bitwise(self):
        """One shard of the whole fleet IS the whole fleet: the sharded
        pricer must reproduce the unsharded serving pricer exactly."""
        spec = ServeSpec(
            classes=(RequestClass(security_bits=54, rate_qps=1.0),),
        )
        sharded = ShardedPricer(
            spec.classes, make_layout(1, CONFIG), FaultPlan(), CONFIG
        )
        cls = spec.classes[0]
        for batch in (1, 7, 64):
            a = price_launch(get_backend("pim"), cls, batch)
            b = sharded.price(0, cls.key, batch)
            assert b.seconds == a.seconds
            for field in ("launch_s", "kernel_s", "transfer_s", "energy_j"):
                assert getattr(b, field) == a.detail[field]

    def test_healthy_dpus_reflects_the_shard_view(self):
        layout = make_layout(4, CONFIG)
        victim_ranks = layout.ranks_of(1)
        plan = FaultPlan(disabled_ranks=victim_ranks)
        pricer = ShardedPricer(
            (RequestClass(rate_qps=1.0),), layout, plan, CONFIG
        )
        assert pricer.healthy_dpus(1) == 0
        for shard in (0, 2, 3):
            assert pricer.healthy_dpus(shard) == layout.size_of(shard)


class TestSharedBaselineCheck:
    @pytest.fixture(scope="class")
    def baseline(self):
        return json.loads((REPO / "baselines" / "perf.json").read_text())

    def test_all_ok_against_committed_perf_baseline(self, baseline):
        verdicts = check_serving_baseline(baseline)
        assert verdicts, "expected vec_add experiments in the baseline"
        assert all(v["verdict"] == "ok" for v in verdicts)

    def test_doctored_baseline_is_model_drift(self, baseline):
        doctored = json.loads(json.dumps(baseline))
        eid = check_serving_baseline(baseline)[0]["experiment"]
        doctored["experiments"][eid]["modelled"]["series_totals"][
            "pim"
        ] *= 1.01
        verdicts = {
            v["experiment"]: v["verdict"]
            for v in check_serving_baseline(doctored)
        }
        assert verdicts[eid] == "MODEL-DRIFT"

    def test_unknown_experiment_is_new(self, baseline):
        trimmed = json.loads(json.dumps(baseline))
        eid = check_serving_baseline(baseline)[0]["experiment"]
        del trimmed["experiments"][eid]
        verdicts = {
            v["experiment"]: v["verdict"]
            for v in check_serving_baseline(trimmed)
        }
        assert verdicts[eid] == "new"
