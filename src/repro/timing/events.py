"""Communication events and schedules.

A :class:`CommEvent` is one rectangle of the paper's timing diagram: the
message from one processor to another, with a start time and duration.  A
:class:`Schedule` is the full diagram — every event of a collective
communication pattern with concrete start times.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True, order=True)
class CommEvent:
    """One point-to-point message in a schedule.

    Ordering is lexicographic on ``(start, src, dst)`` so sorted event lists
    read top-to-bottom like a timing diagram.

    Attributes
    ----------
    start:
        Time (seconds) at which the transfer begins.
    src, dst:
        Sender and receiver processor indices.
    duration:
        Transfer time in seconds (``T_ij + m / B_ij`` under the paper's
        model).
    size:
        Message size in bytes; informational (the duration is authoritative
        for scheduling).
    """

    start: float
    src: int
    dst: int
    duration: float
    size: float = 0.0

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ValueError(f"processor indices must be >= 0: {self}")
        if self.duration < 0:
            raise ValueError(f"event duration must be >= 0: {self}")
        if self.start < 0:
            raise ValueError(f"event start must be >= 0: {self}")

    @property
    def finish(self) -> float:
        """Completion time of the transfer."""
        return self.start + self.duration

    def shifted(self, delta: float) -> "CommEvent":
        """Return a copy of this event translated in time by ``delta``."""
        return replace(self, start=self.start + delta)

    def overlaps(self, other: "CommEvent") -> bool:
        """True when the two events' half-open time intervals intersect.

        Zero-duration events never overlap anything — they model the
        paper's free diagonal (local copy) entries.
        """
        if self.duration == 0 or other.duration == 0:
            return False
        return self.start < other.finish and other.start < self.finish


@dataclass(frozen=True)
class Schedule:
    """A complete communication schedule over ``num_procs`` processors.

    Instances are immutable; the event tuple is stored sorted so equal
    schedules compare equal regardless of construction order.

    Schedules built by the trusted constructors
    (:func:`schedule_from_fields`, :func:`schedule_from_columns`,
    :func:`schedule_from_unsorted_columns`) hold their event data in raw
    form and materialise the :class:`CommEvent` tuple only when
    ``events`` is first read.  All behaviour is unchanged — equality,
    iteration, hashing and every accessor see the same tuple — but
    makespan-style consumers (:attr:`completion_time`, ``len``,
    :meth:`send_orders`) read the raw form directly, so a sweep that
    only scores schedules, or a serving tick that re-executes a plan,
    never pays the per-event object cost.
    """

    num_procs: int
    events: Tuple[CommEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_procs <= 0:
            raise ValueError(f"num_procs must be positive, got {self.num_procs}")
        events = tuple(sorted(self.events))
        for event in events:
            if event.src >= self.num_procs or event.dst >= self.num_procs:
                raise ValueError(
                    f"event {event} references a processor outside "
                    f"[0, {self.num_procs})"
                )
        object.__setattr__(self, "events", events)

    def __getattr__(self, name: str):
        # Only ever reached for attributes missing from the instance
        # dict — i.e. ``events`` on a lazily-constructed schedule.
        if name == "events":
            pending = self.__dict__.get("_pending")
            if pending is not None:
                events = _materialize_events(pending)
                d = self.__dict__
                d["events"] = events
                d.pop("_pending", None)
                return events
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @classmethod
    def from_events(
        cls, num_procs: int, events: Iterable[CommEvent]
    ) -> "Schedule":
        """Build a schedule from any iterable of events."""
        return cls(num_procs=num_procs, events=tuple(events))

    def __iter__(self) -> Iterator[CommEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        pending = self.__dict__.get("_pending")
        if pending is not None:
            return (
                len(pending[1][0])
                if pending[0].endswith("columns")
                else len(pending[1])
            )
        return len(self.events)

    @property
    def completion_time(self) -> float:
        """Makespan: finish time of the last event (0 for an empty schedule)."""
        pending = self.__dict__.get("_pending")
        if pending is not None:
            kind, data = pending
            if kind.endswith("columns"):
                starts, _, _, durations, _ = data
                if len(starts) == 0:
                    return 0.0
                return float((starts + durations).max())
            return max(
                (start + duration for start, _, _, duration, _ in data),
                default=0.0,
            )
        return max((event.finish for event in self.events), default=0.0)

    def sender_events(self, src: int) -> List[CommEvent]:
        """Events sent by processor ``src``, in start order."""
        return [event for event in self.events if event.src == src]

    def receiver_events(self, dst: int) -> List[CommEvent]:
        """Events received by processor ``dst``, in start order."""
        return [event for event in self.events if event.dst == dst]

    def send_orders(self) -> List[List[int]]:
        """Per-sender destination lists, in dispatch order.

        This recovers the *order-based* form of the schedule, suitable for
        re-execution under different network conditions via
        :func:`repro.sim.engine.execute_orders`.  A column-form schedule
        answers from its columns: a lexsort by ``(src, start, dst)``
        gives each sender's events in the order the sorted event tuple
        lists them, without building the events.
        """
        pending = self.__dict__.get("_pending")
        if pending is not None and pending[0].endswith("columns"):
            starts, srcs, dsts, _, _ = pending[1]
            order = np.lexsort((dsts, starts, srcs))
            flat = dsts[order].tolist()
            ends = np.cumsum(
                np.bincount(srcs, minlength=self.num_procs)
            ).tolist()
            return [
                flat[begin:end]
                for begin, end in zip([0] + ends[:-1], ends)
            ]
        orders: List[List[int]] = [[] for _ in range(self.num_procs)]
        for event in self.events:  # already start-sorted
            orders[event.src].append(event.dst)
        return orders

    def busy_time(self, proc: int) -> Tuple[float, float]:
        """Return ``(send_busy, recv_busy)`` seconds for processor ``proc``."""
        send = sum(event.duration for event in self.events if event.src == proc)
        recv = sum(event.duration for event in self.events if event.dst == proc)
        return send, recv

    def idle_time(self, proc: int) -> float:
        """Sender-side idle time of ``proc`` before its last send finishes."""
        events = self.sender_events(proc)
        if not events:
            return 0.0
        span = max(event.finish for event in events)
        busy = sum(event.duration for event in events)
        return span - busy

    def finish_time_of(self, proc: int) -> float:
        """Time at which ``proc`` has completed all its sends and receives."""
        return max(
            (
                event.finish
                for event in self.events
                if event.src == proc or event.dst == proc
            ),
            default=0.0,
        )

    def event_map(self) -> Dict[Tuple[int, int], CommEvent]:
        """Map ``(src, dst) -> event``; raises if a pair repeats."""
        mapping: Dict[Tuple[int, int], CommEvent] = {}
        for event in self.events:
            key = (event.src, event.dst)
            if key in mapping:
                raise ValueError(f"duplicate event for pair {key}")
            mapping[key] = event
        return mapping

    def duration_matrix(self) -> np.ndarray:
        """Dense ``[src, dst]`` duration matrix (0 where no event exists)."""
        matrix = np.zeros((self.num_procs, self.num_procs))
        for event in self.events:
            matrix[event.src, event.dst] = event.duration
        return matrix

    def utilisation(self) -> float:
        """Mean sender busy fraction over the schedule's makespan.

        1.0 means every processor sends continuously until the makespan —
        only possible when the lower bound is met by every sender.
        """
        makespan = self.completion_time
        if makespan == 0:
            return 1.0
        total_busy = sum(event.duration for event in self.events)
        return total_busy / (self.num_procs * makespan)

    def without_trivial_events(self) -> "Schedule":
        """Drop zero-duration events (e.g. diagonal self-messages)."""
        return Schedule.from_events(
            self.num_procs, (e for e in self.events if e.duration > 0)
        )


def _materialize_events(pending) -> Tuple[CommEvent, ...]:
    """Build the event tuple of a lazily-constructed schedule.

    ``pending`` is ``("unsorted_fields", [(start, src, dst, duration,
    size), ...])`` (tuples in arbitrary order, sorted here on first
    access), ``("columns", (starts, srcs, dsts, durations, sizes))``
    (presorted parallel numpy arrays), or ``("unsorted_columns", ...)``
    (same arrays in arbitrary order, lexsorted here on first access).
    Events are built by populating the instance dict directly: the
    frozen-dataclass ``__setattr__`` and per-field validation are
    bypassed by the trusted constructors' contract.
    """
    kind, data = pending
    if kind.endswith("columns"):
        starts, srcs, dsts, durations, sizes = data
        if kind == "unsorted_columns":
            order = np.lexsort((dsts, srcs, starts))
            starts = starts[order]
            srcs = srcs[order]
            dsts = dsts[order]
            durations = durations[order]
            sizes = sizes[order]
        rows = zip(
            starts.tolist(), srcs.tolist(), dsts.tolist(),
            durations.tolist(), sizes.tolist(),
        )
    else:
        # Field tuples share CommEvent's field order, so one tuple sort
        # yields the canonical event order.
        data.sort()
        rows = data
    new = object.__new__
    events = []
    append = events.append
    for start, src, dst, duration, size in rows:
        event = new(CommEvent)
        d = event.__dict__
        d["start"] = start
        d["src"] = src
        d["dst"] = dst
        d["duration"] = duration
        d["size"] = size
        append(event)
    return tuple(events)


def schedule_from_fields(num_procs: int, fields: List[Tuple]) -> Schedule:
    """Trusted lazy construction from *unsorted* event field tuples.

    ``fields`` holds ``(start, src, dst, duration, size)`` tuples — the
    exact field order of :class:`CommEvent`, so tuple lexicographic order
    equals event order — in any order: the list is sorted in place when
    ``events`` is first materialised.  Schedulers that emit events in
    pick order (open shop) use this so callers that only score the
    schedule — ``completion_time`` needs one max, not an ordering —
    never pay for the sort or the per-event objects.

    Caller contract (checked only by the golden-equivalence tests, not
    here): indices lie in ``[0, num_procs)`` and starts/durations are
    non-negative.  Anything else produces a schedule that violates the
    class invariants.
    """
    schedule = object.__new__(Schedule)
    d = schedule.__dict__
    d["num_procs"] = num_procs
    d["_pending"] = ("unsorted_fields", fields)
    return schedule


def schedule_from_columns(
    num_procs: int,
    starts: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    durations: np.ndarray,
    sizes: np.ndarray,
) -> Schedule:
    """Trusted lazy construction from presorted parallel event columns.

    Same contract as :func:`schedule_from_fields`, but the event data
    arrives as numpy arrays already ordered by ``(start, src, dst)``.
    The step executors build these columns without any per-event
    Python work; makespan queries then run vectorized on the columns,
    and :class:`CommEvent` objects exist only if somebody inspects the
    schedule event by event.
    """
    schedule = object.__new__(Schedule)
    d = schedule.__dict__
    d["num_procs"] = num_procs
    d["_pending"] = ("columns", (starts, srcs, dsts, durations, sizes))
    return schedule


def schedule_from_unsorted_columns(
    num_procs: int,
    starts: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    durations: np.ndarray,
    sizes: np.ndarray,
) -> Schedule:
    """Trusted lazy construction from *unsorted* parallel event columns.

    Same contract as :func:`schedule_from_columns` except the arrays may
    arrive in any order: they are lexsorted by ``(start, src, dst)``
    when ``events`` is first materialised.  The hierarchical scheduler
    emits its spliced events in matrix order and the order executor in
    flattened dispatch order; callers that only score the schedule
    never pay for the sort.
    """
    schedule = object.__new__(Schedule)
    d = schedule.__dict__
    d["num_procs"] = num_procs
    d["_pending"] = (
        "unsorted_columns", (starts, srcs, dsts, durations, sizes)
    )
    return schedule


def merge_schedules(
    num_procs: int, schedules: Sequence[Schedule]
) -> Schedule:
    """Union the events of several schedules over the same processor set."""
    events: List[CommEvent] = []
    for schedule in schedules:
        if schedule.num_procs != num_procs:
            raise ValueError(
                f"schedule over {schedule.num_procs} processors cannot be "
                f"merged into a {num_procs}-processor schedule"
            )
        events.extend(schedule.events)
    return Schedule.from_events(num_procs, events)
