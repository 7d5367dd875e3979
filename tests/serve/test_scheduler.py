"""Batch formation and the serial device timeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.base import TimingBreakdown
from repro.errors import ParameterError
from repro.serve import BatchScheduler


def _pricer(seconds=1e-3, launch=2e-4, kernel=8e-4, transfer=1e-4):
    def pricer(class_key, batch_size):
        return TimingBreakdown(
            backend="pim",
            op="vec_add",
            seconds=seconds,
            detail={
                "launch_s": launch,
                "kernel_s": kernel,
                "transfer_s": transfer,
                "dpus_used": 8,
                "bound": "compute",
                "ops": batch_size,
            },
        )

    return pricer


def reference_form_batches(arrivals, max_batch, max_wait_s) -> list:
    """Batch formation one arrival at a time: the differential oracle.

    A batch opens at its first arrival with a deadline ``max_wait_s``
    later; each arrival at or before the deadline joins it, and the
    ``max_batch``-th arrival seals it at its own time. Returns
    ``[(seal, [index, ...]), ...]``.
    """
    batches = []
    current: list = []
    deadline = 0.0
    for index, t in enumerate(arrivals):
        if current and t > deadline:
            batches.append((deadline, current))
            current = []
        if not current:
            deadline = t + max_wait_s
        current.append(index)
        if len(current) == max_batch:
            batches.append((t, current))
            current = []
    if current:
        batches.append((deadline, current))
    return batches


def _exact(batches) -> list:
    """Batches with seal times as hex strings and members as lists."""
    return [(seal.hex(), list(members)) for seal, members in batches]


class TestBatchFormationOracle:
    """The batch-by-batch walk against the per-arrival oracle."""

    # Arrivals and timers on a 2**-10 grid make ``t == first + wait``
    # exact, so arrivals land on their batch's deadline often.
    @settings(max_examples=300, deadline=None)
    @given(
        ticks=st.lists(st.integers(min_value=0, max_value=200), max_size=60),
        wait_ticks=st.integers(min_value=0, max_value=24),
        max_batch=st.integers(min_value=1, max_value=9),
    )
    def test_grid_arrivals(self, ticks, wait_ticks, max_batch):
        arrivals = [tick / 1024 for tick in sorted(ticks)]
        max_wait_s = wait_ticks / 1024
        scheduler = BatchScheduler(max_batch=max_batch, max_wait_s=max_wait_s)
        assert _exact(scheduler.form_batches(arrivals)) == _exact(
            reference_form_batches(arrivals, max_batch, max_wait_s)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=5e-3), max_size=80
        ),
        max_wait_s=st.sampled_from((0.0, 1e-4, 2e-3, 1e-2)),
        max_batch=st.integers(min_value=1, max_value=70),
    )
    def test_float_arrivals(self, gaps, max_wait_s, max_batch):
        arrivals = []
        t = 0.0
        for gap in gaps:
            t += gap
            arrivals.append(t)
        scheduler = BatchScheduler(max_batch=max_batch, max_wait_s=max_wait_s)
        got = scheduler.form_batches(np.array(arrivals))
        assert _exact(got) == _exact(
            reference_form_batches(arrivals, max_batch, max_wait_s)
        )
        assert all(type(seal) is float for seal, _ in got)

    @pytest.mark.parametrize(
        "arrivals, max_batch, max_wait_s, expected",
        [
            # The arrival at t == deadline still joins the batch.
            ([0.0, 0.5, 1.0, 1.5], 10, 1.0, [(1.0, [0, 1, 2]), (2.5, [3])]),
            # A batch that fills exactly at its deadline seals then.
            ([0.0, 0.5, 1.0, 1.25], 3, 1.0, [(1.0, [0, 1, 2]), (2.25, [3])]),
            # One request per batch, sealed at its own arrival.
            ([0.0, 0.25, 0.5], 1, 1.0, [(0.0, [0]), (0.25, [1]), (0.5, [2])]),
            # No timer: only simultaneous arrivals share a batch.
            ([0.0, 0.0, 0.5], 4, 0.0, [(0.0, [0, 1]), (0.5, [2])]),
        ],
    )
    def test_edges(self, arrivals, max_batch, max_wait_s, expected):
        scheduler = BatchScheduler(max_batch=max_batch, max_wait_s=max_wait_s)
        got = scheduler.form_batches(arrivals)
        assert _exact(got) == _exact(expected)
        assert _exact(
            reference_form_batches(arrivals, max_batch, max_wait_s)
        ) == _exact(expected)


class TestBatchFormation:
    def test_max_batch_seals_at_the_filling_arrival(self):
        scheduler = BatchScheduler(max_batch=2, max_wait_s=10.0)
        batches = scheduler.form_batches([0.0, 0.1, 0.2])
        assert batches[0] == (0.1, range(0, 2))  # sealed by request 1
        # The straggler waits out its own timer.
        assert batches[1] == (0.2 + 10.0, range(2, 3))

    def test_timer_seals_a_partial_batch(self):
        scheduler = BatchScheduler(max_batch=100, max_wait_s=1e-3)
        batches = scheduler.form_batches([0.0, 0.5e-3, 5.0e-3])
        # First two inside the 1 ms window; the third opens a new batch.
        assert batches[0] == (1e-3, range(0, 2))
        assert batches[1] == (5e-3 + 1e-3, range(2, 3))

    def test_timer_fires_without_a_later_arrival(self):
        scheduler = BatchScheduler(max_batch=100, max_wait_s=2e-3)
        batches = scheduler.form_batches([0.04])
        assert batches == [(0.042, range(0, 1))]

    def test_empty_arrivals_form_no_batches(self):
        assert BatchScheduler().form_batches([]) == []

    def test_validation(self):
        with pytest.raises(ParameterError):
            BatchScheduler(max_batch=0)
        with pytest.raises(ParameterError):
            BatchScheduler(max_wait_s=-1.0)


class TestSchedule:
    def test_device_is_serial_and_work_conserving(self):
        scheduler = BatchScheduler(max_batch=1, max_wait_s=0.0)
        arrivals = {"k": [0.0, 1e-4, 2e-4]}
        _timelines, launches = scheduler.schedule(arrivals, _pricer())
        assert len(launches) == 3
        for earlier, later in zip(launches, launches[1:]):
            assert later.service_start_s >= earlier.complete_s
        # First launch starts the moment its batch seals.
        assert launches[0].service_start_s == 0.0

    def test_timeline_phase_decomposition_is_complete(self):
        scheduler = BatchScheduler(max_batch=2, max_wait_s=1e-3)
        arrivals = {"k": [0.0, 2e-3, 4e-3]}
        timelines, _launches = scheduler.schedule(arrivals, _pricer())
        for timeline in timelines:
            assert timeline.queue_s >= 0.0
            assert timeline.dispatch_s >= 0.0
            phases = (
                timeline.queue_s
                + timeline.dispatch_s
                + timeline.launch_s
                + timeline.kernel_s
                + timeline.fault_s
                + timeline.transfer_s
            )
            assert phases == pytest.approx(timeline.latency_s)

    def test_fault_seconds_are_the_pricing_residual(self):
        # A breakdown whose total exceeds launch+kernel carries retry
        # or redispatch cost; the scheduler must attribute it.
        pricer = _pricer(seconds=2e-3, launch=2e-4, kernel=8e-4)
        _timelines, launches = BatchScheduler().schedule(
            {"k": [0.0]}, pricer
        )
        assert launches[0].fault_s == pytest.approx(1e-3)

    def test_latency_includes_transfer(self):
        _timelines, launches = BatchScheduler().schedule(
            {"k": [0.0]}, _pricer(transfer=5e-4)
        )
        launch = launches[0]
        assert launch.complete_s == pytest.approx(
            launch.service_start_s + launch.service_seconds + 5e-4
        )

    def test_classes_interleave_on_one_device(self):
        scheduler = BatchScheduler(max_batch=1, max_wait_s=0.0)
        arrivals = {"b": [0.0], "a": [1e-4]}
        _timelines, launches = scheduler.schedule(arrivals, _pricer())
        assert [l.class_key for l in launches] == ["b", "a"]
        assert launches[1].service_start_s >= launches[0].complete_s

    def test_deterministic_output_order(self):
        scheduler = BatchScheduler(max_batch=4, max_wait_s=1e-3)
        arrivals = {"a": [0.0, 1e-4], "b": [0.0, 2e-4]}
        first = scheduler.schedule(arrivals, _pricer())
        second = scheduler.schedule(arrivals, _pricer())
        assert [t.to_dict() for t in first[0]] == [
            t.to_dict() for t in second[0]
        ]
        assert [l.to_dict() for l in first[1]] == [
            l.to_dict() for l in second[1]
        ]
