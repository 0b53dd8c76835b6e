"""Tests of the benchmark's own arithmetic.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math

import pytest

from perfbench import stats
from perfbench.layers import summarize
from perfbench.spans import Tracer, wrap_attribute


# -- percentiles: reported only with ten samples beyond them -----------------


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50.0) == 50
    assert stats.percentile(samples, 99.0) == 99
    assert stats.percentile(samples, 100.0) == 100
    assert stats.percentile([7.0], 99.0) == 7.0


@pytest.mark.parametrize(
    "count, q, supported",
    [
        (1000, 99.0, True),  # 10 beyond p99
        (999, 99.0, False),  # 9 beyond
        (100, 90.0, True),
        (99, 90.0, False),
        (0, 50.0, False),
    ],
)
def test_percentile_needs_ten_samples_beyond(count, q, supported):
    assert stats.supported(count, q) is supported
    if count:
        assert (stats.beyond(count, q) >= stats.MIN_BEYOND) is supported


def test_tail_percentile_picks_highest_supported():
    assert stats.tail_percentile(list(range(1000)))[0] == 99.0
    q, value = stats.tail_percentile(list(range(500)))
    assert q == 90.0 and value == 449
    assert stats.tail_percentile(list(range(99))) is None


# -- self time from nested spans ---------------------------------------------


def test_self_time_subtracts_union_of_children():
    # root [0, 10]; children [1, 4] and [3, 6] overlap -> cover [1, 6];
    # grandchild [2, 3] belongs to the first child only.
    starts = [0.0, 1.0, 3.0, 2.0]
    ends = [10.0, 4.0, 6.0, 3.0]
    parents = [-1, 0, 0, 1]
    own = stats.self_times(starts, ends, parents)
    assert own == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_self_time_clips_overhanging_child():
    own = stats.self_times([0.0, 8.0], [10.0, 12.0], [-1, 0])
    assert own == pytest.approx([8.0, 4.0])


def test_tracer_records_nesting_and_self_time():
    clock = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(clock))

    class Box:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    wrap_attribute(tracer, Box, "outer", "outer")
    wrap_attribute(tracer, Box, "inner", "inner")
    assert Box().outer() == 2
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert parents == [-1, 0, 0]
    own = stats.self_times(
        [s[1] for s in tracer.spans], [s[2] for s in tracer.spans], parents
    )
    # outer [0, 5], inners [1, 2] and [3, 4]
    assert own == pytest.approx([3.0, 1.0, 1.0])


def test_wrap_keeps_classmethods_and_properties():
    tracer = Tracer()

    class Thing:
        @classmethod
        def make(cls):
            return cls()

        @property
        def size(self):
            return 3

    wrap_attribute(tracer, Thing, "make", "make")
    wrap_attribute(tracer, Thing, "size", "size")
    assert isinstance(Thing.make(), Thing)
    assert Thing().size == 3
    assert [s[0] for s in tracer.spans] == ["make", "size"]


def test_summarize_counts_only_spans_under_a_tick():
    spans = [
        ["runtime.session.tick", 0.0, 1.0, -1, None, ["reuse", False, False]],
        ["sim.engine.execute", 0.2, 0.6, 0, None, 10],
        # The benchmark's own check, outside any tick: not counted.
        ["sim.engine.execute", 2.0, 3.0, -1, None, 99],
    ]
    layers = summarize(spans, (0.0, 5.0))
    assert layers["sim.engine.execute_ms_per_tick"][0] == pytest.approx(400.0)
    assert layers["sim.engine.events_per_tick"][0] == 10
    assert layers["runtime.session.self_ms"][0] == pytest.approx(600.0)
    assert layers["runtime.session.decision_share.reuse"][0] == 1.0
    assert layers["adaptive.delta.ms_per_call"] == (0.0, 0)


# -- open-loop lateness --------------------------------------------------------


def test_lateness_is_measured_from_due_time():
    due = [0.0, 1.0, 2.0]
    sent = [0.0005, 1.2, 1.999]  # early sends count as on time
    assert stats.lateness(due, sent) == pytest.approx([0.0005, 0.2, 0.0])


def test_generator_fell_behind():
    limits = dict(median_limit_s=0.002, p99_limit_s=0.05)
    on_time = [0.0005] * 1000
    assert not stats.fell_behind(on_time, **limits)
    # One brief stall: the requests it delayed still count as late.
    stalled = on_time[:-5] + [0.06] * 5
    assert not stats.fell_behind(stalled, **limits)
    lagging = [0.003] * 1000
    assert stats.fell_behind(lagging, **limits)
    stalling_often = on_time[:-20] + [0.06] * 20
    assert stats.fell_behind(stalling_often, **limits)


# -- first-half / second-half stationarity -----------------------------------


def test_stationary_mix_passes():
    decisions = ["reuse"] * 8 + ["refine", "reschedule"]
    ok, distance, _ = stats.stationarity(decisions * 40)
    assert ok and distance == 0.0


def test_mix_that_drifts_fails():
    # A drift trace that runs out turns the second half into pure reuse.
    first = ["reschedule"] * 150 + ["reuse"] * 50
    second = ["reuse"] * 200
    ok, distance, tolerance = stats.stationarity(first + second)
    assert not ok
    assert distance == pytest.approx(0.75)
    assert tolerance == pytest.approx(max(0.1, 2 / math.sqrt(200)))


def test_stationarity_tolerance_narrows_with_samples():
    assert stats.stationarity_tolerance(50) > stats.stationarity_tolerance(400)
    assert stats.stationarity_tolerance(10_000) == 0.1
