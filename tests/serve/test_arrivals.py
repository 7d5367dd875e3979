"""Seeded open-loop arrivals: determinism, ordering, rate semantics."""

import json
import math
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.pim.faults import _STREAM_CHUNK, unit_draws
from repro.serve import OpenLoopArrivals
from repro.serve.arrivals import _gap_stream

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def per_index_times(arrivals: OpenLoopArrivals, duration_s: float) -> list:
    """The arrival times rebuilt one ``interarrival(index)`` at a time."""
    times = []
    t = 0.0
    index = 0
    while True:
        t += arrivals.interarrival(index)
        if t >= duration_s:
            return times
        times.append(t)
        index += 1


def assert_same_times(got, want) -> None:
    """``got`` is a float64 array of exactly the floats of ``want``."""
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert [t.hex() for t in got.tolist()] == [float(t).hex() for t in want]


def fresh_process_times(class_key, rate_qps, seed, duration_s) -> list:
    """``times_until`` in a new interpreter, with an empty stream memo."""
    code = (
        "import json, sys\n"
        "from repro.serve import OpenLoopArrivals\n"
        "key, rate, seed, duration = json.loads(sys.argv[1])\n"
        "times = OpenLoopArrivals(key, rate, seed=seed).times_until(duration)\n"
        "print(json.dumps([t.hex() for t in times.tolist()]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            code,
            json.dumps([class_key, rate_qps, seed, duration_s]),
        ],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    return [float.fromhex(t) for t in json.loads(out)]


class TestOpenLoopArrivals:
    def test_same_seed_is_bit_identical(self):
        a = OpenLoopArrivals("vec_add@109", 1000.0, seed=7)
        b = OpenLoopArrivals("vec_add@109", 1000.0, seed=7)
        assert_same_times(a.times_until(0.25), b.times_until(0.25))

    def test_different_seeds_differ(self):
        a = OpenLoopArrivals("vec_add@109", 1000.0, seed=0)
        b = OpenLoopArrivals("vec_add@109", 1000.0, seed=1)
        assert not np.array_equal(a.times_until(0.25), b.times_until(0.25))

    def test_different_classes_draw_independently(self):
        a = OpenLoopArrivals("vec_add@109", 1000.0, seed=0)
        b = OpenLoopArrivals("vec_mul@109", 1000.0, seed=0)
        assert not np.array_equal(a.times_until(0.25), b.times_until(0.25))

    def test_strictly_increasing_within_window(self):
        times = OpenLoopArrivals("k", 5000.0, seed=3).times_until(0.1)
        assert times.dtype == np.float64
        assert all(0.0 < t < 0.1 for t in times.tolist())
        assert np.all(np.diff(times) > 0.0)

    def test_rate_sets_the_expected_count(self):
        # Poisson with rate 2000/s over 1 s: ~2000 arrivals; 10
        # standard deviations of slack keeps this deterministic test
        # meaningful without being brittle.
        times = OpenLoopArrivals("k", 2000.0, seed=0).times_until(1.0)
        assert abs(len(times) - 2000) < 10 * 2000**0.5

    def test_doubling_the_rate_roughly_doubles_arrivals(self):
        slow = len(OpenLoopArrivals("k", 1000.0, seed=0).times_until(1.0))
        fast = len(OpenLoopArrivals("k", 2000.0, seed=0).times_until(1.0))
        assert fast == pytest.approx(2 * slow, rel=0.15)

    def test_validation(self):
        with pytest.raises(ParameterError):
            OpenLoopArrivals("k", 0.0)
        with pytest.raises(ParameterError):
            OpenLoopArrivals("k", -5.0)
        with pytest.raises(ParameterError):
            OpenLoopArrivals("k", 100.0).times_until(0.0)


class TestStreamedDraws:
    """``times_until`` reads memoized draws; the per-index path is the
    oracle."""

    @pytest.mark.parametrize(
        "class_key, rate_qps, seed, duration_s",
        [
            ("vec_add@54", 2000.0, 1, 0.1),
            ("vec_add@54", 176000.0, 7, 0.1),  # crosses chunk boundaries
            ("mean@109", 3.5, -4, 2.0),
            ("a:b@c", 50000.0, 0, 0.05),
        ],
    )
    def test_equals_per_index_interarrival_sum(
        self, class_key, rate_qps, seed, duration_s
    ):
        arrivals = OpenLoopArrivals(class_key, rate_qps, seed=seed)
        assert_same_times(
            arrivals.times_until(duration_s),
            per_index_times(arrivals, duration_s),
        )

    def test_long_window_crosses_chunks(self):
        arrivals = OpenLoopArrivals("k", 1000.0, seed=2)
        duration_s = 3 * _STREAM_CHUNK / 1000.0
        times = arrivals.times_until(duration_s)
        assert len(times) > 2 * _STREAM_CHUNK
        assert_same_times(times, per_index_times(arrivals, duration_s))

    @pytest.mark.parametrize("order", ["slow-first", "fast-first"])
    def test_memo_carries_no_rate(self, order):
        """Two rates share one (seed, class) stream; whichever runs
        first, each gives the times of a fresh process."""
        rates = (2000.0, 144000.0)
        if order == "fast-first":
            rates = rates[::-1]
        unit_draws.cache_clear()
        _gap_stream.cache_clear()
        got = {
            rate: OpenLoopArrivals("vec_add@54", rate, seed=7).times_until(
                0.05
            )
            for rate in rates
        }
        for rate in rates:
            assert_same_times(
                got[rate], fresh_process_times("vec_add@54", rate, 7, 0.05)
            )

    def test_random_points_equal_per_index_sum(self):
        """The cumulative sum over memoized gaps against the per-index
        oracle, bit for bit, across seeds, classes, rates and windows
        (rates revisit streams whose gap memo is already longer)."""
        rng = random.Random(2023)
        for _ in range(60):
            arrivals = OpenLoopArrivals(
                rng.choice(("vec_add@54", "mean@109", "k")),
                rng.choice((rng.uniform(0.5, 200.0), rng.uniform(1e3, 6e4))),
                seed=rng.randrange(-3, 12),
            )
            duration_s = rng.uniform(1e-3, 0.05)
            assert_same_times(
                arrivals.times_until(duration_s),
                per_index_times(arrivals, duration_s),
            )

    def test_each_gap_is_computed_once(self, monkeypatch):
        """Longer windows and other rates extend the gap memo; no gap
        is ever computed twice."""
        import repro.serve.arrivals as arrivals_module

        logs = []

        class CountingMath:
            sqrt = staticmethod(math.sqrt)

            @staticmethod
            def log(x):
                logs.append(x)
                return math.log(x)

        monkeypatch.setattr(arrivals_module, "math", CountingMath)
        _gap_stream.cache_clear()
        lengths = [
            len(OpenLoopArrivals("grow", rate, seed=4).times_until(window))
            for rate, window in (
                (10000.0, 0.05),
                (10000.0, 0.05),
                (10000.0, 0.2),
                (2000.0, 0.2),
                (40000.0, 0.2),
            )
        ]
        assert lengths[0] == lengths[1] < lengths[2] < lengths[4]
        assert len(logs) == len(_gap_stream(4, "grow")._gaps) > lengths[4]

    def test_short_first_estimate_grows_to_the_window(self, monkeypatch):
        """A window holding more arrivals than the first estimate keeps
        growing the memo and still gives the per-index times."""
        import repro.serve.arrivals as arrivals_module

        class NoMargin:
            log = staticmethod(math.log)

            @staticmethod
            def sqrt(x):
                return 0.0

        monkeypatch.setattr(arrivals_module, "math", NoMargin)
        _gap_stream.cache_clear()
        # 553 arrivals where 500 are expected: the estimate of 508
        # gaps falls short several times.
        arrivals = OpenLoopArrivals("grow", 10000.0, seed=6)
        times = arrivals.times_until(0.05)
        assert len(times) == 553
        assert_same_times(times, per_index_times(arrivals, 0.05))
