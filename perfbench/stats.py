"""The arithmetic the benchmark reports with.

Everything here is pure: lists of numbers in, numbers out.  The harness
tests in ``perfbench/test_harness.py`` pin each rule:

* a percentile is reported only when at least :data:`MIN_BEYOND`
  samples lie beyond it (:func:`supported`, :func:`tail_percentile`);
* a span's self time is its duration minus the union of its children
  (:func:`self_times`);
* open-loop lateness is measured against each request's due time
  (:func:`lateness`, :func:`fell_behind`);
* a run is stationary when the decision mixes of its first and second
  halves agree (:func:`stationarity`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first (see :func:`tail_percentile`).
TAIL_PERCENTILES = (99.0, 90.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank
    ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def supported(count: int, q: float) -> bool:
    """True when ``count`` samples support reporting the ``q``-th
    percentile: at least :data:`MIN_BEYOND` samples lie beyond it."""
    return count > 0 and beyond(count, q) >= MIN_BEYOND


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest of :data:`TAIL_PERCENTILES` the
    samples support, or ``None`` when none is supported."""
    for q in TAIL_PERCENTILES:
        if supported(len(samples), q):
            return q, percentile(samples, q)
    return None


# -- spans -------------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Spans are given as parallel columns; ``parents[i]`` is the index of
    span ``i``'s parent, or ``-1`` for a root.  A child is clipped to
    its parent's interval before the union is taken, so overlapping or
    overhanging children are never subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            lo = max(starts[index], starts[parent])
            hi = min(ends[index], ends[parent])
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    return [
        (ends[i] - starts[i]) - _covered(children.get(i, []))
        for i in range(len(starts))
    ]


# -- open loop ---------------------------------------------------------------


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late each request left the generator (never negative)."""
    if len(due) != len(sent):
        raise ValueError("due and sent differ in length")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def fell_behind(
    late: Sequence[float], *, median_limit_s: float, p99_limit_s: float
) -> bool:
    """True when the generator could not keep its schedule: its median
    lateness shows it lagging throughout, or its p99 lateness alone
    would put requests over the latency limit.  A brief stall (the host
    pausing the process) does neither; it still counts, because latency
    runs from the due time."""
    if not late:
        return False
    return (
        percentile(late, 50.0) > median_limit_s
        or percentile(late, 99.0) > p99_limit_s
    )


# -- stationarity ------------------------------------------------------------


def decision_mix(decisions: Sequence[str]) -> Dict[str, float]:
    """Share of each decision."""
    counts: Dict[str, int] = {}
    for decision in decisions:
        counts[decision] = counts.get(decision, 0) + 1
    total = len(decisions)
    return {name: count / total for name, count in sorted(counts.items())}


def mix_distance(a: Dict[str, float], b: Dict[str, float]) -> float:
    """Total-variation distance between two decision mixes."""
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def stationarity_tolerance(half: int) -> float:
    """The largest first/second-half mix distance accepted for halves of
    ``half`` decisions: sampling noise shrinks as ``1/sqrt(half)``, so
    short runs get a wider margin, never narrower than 0.1."""
    return max(0.1, 2.0 / math.sqrt(max(half, 1)))


def stationarity(decisions: Sequence[str]) -> Tuple[bool, float, float]:
    """``(ok, distance, tolerance)`` comparing the decision mix of the
    first half of ``decisions`` with that of the second half."""
    half = len(decisions) // 2
    if half < 1:
        raise ValueError("need at least two decisions")
    first = decision_mix(decisions[:half])
    second = decision_mix(decisions[half: 2 * half])
    distance = mix_distance(first, second)
    tolerance = stationarity_tolerance(half)
    return distance <= tolerance, distance, tolerance
