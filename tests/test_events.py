"""CommEvent and Schedule tests."""

import numpy as np
import pytest

from repro.timing.events import (
    CommEvent,
    Schedule,
    merge_schedules,
    schedule_from_columns,
    schedule_from_fields,
)


def ev(start, src, dst, duration, size=0.0):
    return CommEvent(start=start, src=src, dst=dst, duration=duration, size=size)


class TestCommEvent:
    def test_finish(self):
        assert ev(1.0, 0, 1, 2.5).finish == pytest.approx(3.5)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            ev(0.0, 0, 1, -1.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            ev(-0.1, 0, 1, 1.0)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            CommEvent(start=0.0, src=-1, dst=0, duration=1.0)

    def test_shifted(self):
        shifted = ev(1.0, 0, 1, 2.0).shifted(3.0)
        assert shifted.start == pytest.approx(4.0)
        assert shifted.duration == pytest.approx(2.0)

    def test_overlaps_true(self):
        assert ev(0.0, 0, 1, 2.0).overlaps(ev(1.0, 0, 2, 2.0))

    def test_overlaps_false_adjacent(self):
        # Half-open intervals: touching endpoints do not overlap.
        assert not ev(0.0, 0, 1, 1.0).overlaps(ev(1.0, 0, 2, 1.0))

    def test_zero_duration_never_overlaps(self):
        assert not ev(0.5, 0, 1, 0.0).overlaps(ev(0.0, 0, 2, 2.0))

    def test_ordering_by_start(self):
        events = sorted([ev(2.0, 0, 1, 1.0), ev(0.0, 1, 2, 1.0)])
        assert events[0].start == 0.0


class TestSchedule:
    def test_completion_time(self):
        s = Schedule.from_events(3, [ev(0, 0, 1, 2), ev(1, 1, 2, 5)])
        assert s.completion_time == pytest.approx(6.0)

    def test_empty_completion(self):
        assert Schedule(num_procs=2).completion_time == 0.0

    def test_rejects_bad_proc_count(self):
        with pytest.raises(ValueError):
            Schedule(num_procs=0)

    def test_rejects_out_of_range_event(self):
        with pytest.raises(ValueError):
            Schedule.from_events(2, [ev(0, 0, 5, 1)])

    def test_events_sorted(self):
        s = Schedule.from_events(3, [ev(5, 0, 1, 1), ev(0, 1, 2, 1)])
        assert [e.start for e in s] == [0.0, 5.0]

    def test_sender_receiver_events(self):
        s = Schedule.from_events(3, [ev(0, 0, 1, 2), ev(2, 0, 2, 1), ev(0, 1, 2, 1)])
        assert len(s.sender_events(0)) == 2
        assert len(s.receiver_events(2)) == 2

    def test_send_orders(self):
        s = Schedule.from_events(3, [ev(3, 0, 2, 1), ev(0, 0, 1, 2)])
        assert s.send_orders()[0] == [1, 2]

    def test_busy_time(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 2), ev(2, 1, 0, 3)])
        send, recv = s.busy_time(0)
        assert send == pytest.approx(2.0)
        assert recv == pytest.approx(3.0)

    def test_idle_time(self):
        s = Schedule.from_events(3, [ev(0, 0, 1, 1), ev(5, 0, 2, 1)])
        assert s.idle_time(0) == pytest.approx(4.0)

    def test_idle_time_no_events(self):
        assert Schedule(num_procs=2).idle_time(0) == 0.0

    def test_finish_time_of(self):
        s = Schedule.from_events(3, [ev(0, 0, 1, 2), ev(4, 2, 0, 3)])
        assert s.finish_time_of(0) == pytest.approx(7.0)
        assert s.finish_time_of(1) == pytest.approx(2.0)

    def test_event_map_rejects_duplicates(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 1), ev(2, 0, 1, 1)])
        with pytest.raises(ValueError):
            s.event_map()

    def test_duration_matrix(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 2.5)])
        m = s.duration_matrix()
        assert m[0, 1] == pytest.approx(2.5)
        assert m[1, 0] == 0.0

    def test_utilisation_perfect(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 2), ev(0, 1, 0, 2)])
        assert s.utilisation() == pytest.approx(1.0)

    def test_without_trivial_events(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 0.0), ev(0, 1, 0, 1.0)])
        assert len(s.without_trivial_events()) == 1

    def test_len_and_iter(self):
        s = Schedule.from_events(2, [ev(0, 0, 1, 1)])
        assert len(s) == 1
        assert [e.src for e in s] == [0]


class TestMergeSchedules:
    def test_merge(self):
        a = Schedule.from_events(3, [ev(0, 0, 1, 1)])
        b = Schedule.from_events(3, [ev(1, 1, 2, 1)])
        merged = merge_schedules(3, [a, b])
        assert len(merged) == 2

    def test_merge_mismatched_procs_raises(self):
        a = Schedule.from_events(2, [ev(0, 0, 1, 1)])
        with pytest.raises(ValueError):
            merge_schedules(3, [a])


class TestLazyScheduleEdgeCases:
    """Degenerate inputs to the trusted lazy constructors."""

    def test_empty_fields(self):
        s = schedule_from_fields(3, [])
        assert len(s) == 0
        assert s.completion_time == 0.0
        assert s.events == ()
        # Still consistent after materialization.
        assert len(s) == 0
        assert s.completion_time == 0.0

    def test_empty_columns(self):
        empty = np.array([])
        s = schedule_from_columns(
            2,
            empty,
            empty.astype(np.intp),
            empty.astype(np.intp),
            empty,
            empty,
        )
        assert len(s) == 0
        assert s.completion_time == 0.0
        assert s.events == ()

    def test_materialization_is_idempotent_and_cached(self):
        fields = [(1.0, 0, 1, 2.0, 0.0), (0.0, 1, 0, 0.5, 0.0)]
        s = schedule_from_fields(2, list(fields))
        assert len(s) == 2  # pre-materialization, straight off the fields
        first = s.events
        assert s.events is first  # cached tuple, not rebuilt
        assert [e.start for e in first] == [0.0, 1.0]  # sorted on access
        assert len(s) == 2
        assert s.completion_time == pytest.approx(3.0)

    def test_lazy_equals_eager(self):
        fields = [(3.0, 0, 1, 1.0, 0.0), (0.0, 1, 0, 2.0, 0.0)]
        lazy = schedule_from_fields(2, list(fields))
        eager = Schedule.from_events(
            2,
            [
                ev(start, src, dst, duration, size)
                for start, src, dst, duration, size in fields
            ],
        )
        assert lazy == eager
        assert lazy.completion_time == eager.completion_time
