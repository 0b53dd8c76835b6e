"""Per-layer metrics from a traced run's spans.

Layer names follow the modules under ``src/repro``.  Every metric is
normalised by the number of session ticks the traced window served (one
tick per request), by the layer's own call count (``*_per_call``), or is
a share.  Layer sums use self time — a span's duration minus its
children's — so nested layers are never counted twice; ``*_per_call``
figures use the whole call, as a caller sees it.

Only spans inside the measured window count, and, apart from the codec,
only spans under a session tick or a daemon batch: the benchmark's own
checks call the same functions outside them.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from perfbench import stats

DECISIONS = ("reuse", "refine", "repair", "reschedule")

#: Span names whose self time makes up each summed layer.
_DIRECTORY = ("directory.snapshot", "directory.advance")
_PROBLEM = ("core.problem.build", "core.problem.validate")
_POLICY = ("runtime.policy.drift", "runtime.policy.dirty", "runtime.policy.decide")
_EVENTS = (
    "timing.events.send_orders",
    "timing.events.completion_time",
    "timing.events.materialize",
)
_SERVED_ROOTS = ("runtime.session.tick", "serve.daemon.batch")

#: Per-layer metrics the spans give, with their units.
SPAN_METRICS: Tuple[Tuple[str, str], ...] = (
    ("serve.protocol.codec_us", "us"),
    ("runtime.session.tick_ms.p50", "ms"),
    ("runtime.session.tick_ms.tail", "ms"),
    *((f"runtime.session.tick_ms.{d}.p50", "ms") for d in DECISIONS),
    *((f"runtime.session.decision_share.{d}", "share") for d in DECISIONS),
    ("runtime.session.self_ms", "ms"),
    ("runtime.session.fallback_share", "share"),
    ("runtime.policy.drift_ms", "ms"),
    ("directory.snapshot_ms", "ms"),
    ("directory.trace_build_ms", "ms"),
    ("core.problem.build_ms", "ms"),
    ("core.scheduler.ms_per_call", "ms"),
    ("core.scheduler.calls_per_req", "count"),
    ("adaptive.refine.ms_per_call", "ms"),
    ("adaptive.refine.calls_per_req", "count"),
    ("adaptive.delta.ms_per_call", "ms"),
    ("adaptive.delta.reinserted_per_call", "count"),
    ("timing.validate.ms_per_call", "ms"),
    ("timing.validate.events_per_call", "count"),
    ("sim.engine.execute_ms_per_tick", "ms"),
    ("sim.engine.events_per_tick", "count"),
    ("timing.events.ms_per_tick", "ms"),
    ("perf.memo.hit_rate", "share"),
    ("perf.memo.lookup_us", "us"),
    ("perf.memo.put_us", "us"),
    ("perf.memo.entries", "count"),
    ("runtime.metrics.emit_us", "us"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(
    spans: Sequence[list], window: Tuple[float, float]
) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, samples)`` for every metric in
    :data:`SPAN_METRICS`, over spans that start and end inside
    ``window`` — except trace builds, which happen while tenants open
    and count wherever they fall.  A layer the window never reached
    reads 0."""
    starts = [s[1] for s in spans]
    ends = [s[2] for s in spans]
    parents = [s[3] for s in spans]
    self_time = stats.self_times(starts, ends, parents)
    served = [False] * len(spans)
    for index, span in enumerate(spans):
        parent = span[3]
        served[index] = span[0] in _SERVED_ROOTS or (
            parent >= 0 and served[parent]
        )
    lo, hi = window
    names: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        inside = span[1] >= lo and span[2] <= hi
        if (
            inside and (served[index] or span[0].startswith("serve.protocol"))
        ) or span[0] == "directory.trace_build":
            names.setdefault(span[0], []).append(index)

    def total(name: str) -> float:
        return sum(ends[i] - starts[i] for i in names.get(name, ()))

    def own(*group: str) -> float:
        return sum(self_time[i] for name in group for i in names.get(name, ()))

    def count(name: str) -> int:
        return len(names.get(name, ()))

    def infos(name: str) -> list:
        return [spans[i][5] for i in names.get(name, ())]

    ticks = names.get("runtime.session.tick", [])
    n = len(ticks)
    tick_ms = [1e3 * (ends[i] - starts[i]) for i in ticks]
    decisions = [spans[i][5][0] for i in ticks]
    out: Dict[str, Tuple[float, int]] = {}

    codec = total("serve.protocol.decode") + total("serve.protocol.encode")
    out["serve.protocol.codec_us"] = (1e6 * _ratio(codec, n), n)
    out["runtime.session.tick_ms.p50"] = (
        statistics.median(tick_ms) if tick_ms else 0.0, n
    )
    tail = stats.tail_percentile(tick_ms)
    out["runtime.session.tick_ms.tail"] = (tail[1] if tail else 0.0, n)
    for decision in DECISIONS:
        chosen = [t for t, d in zip(tick_ms, decisions) if d == decision]
        out[f"runtime.session.tick_ms.{decision}.p50"] = (
            statistics.median(chosen) if chosen else 0.0, len(chosen)
        )
        out[f"runtime.session.decision_share.{decision}"] = (
            _ratio(len(chosen), n), n
        )
    out["runtime.session.self_ms"] = (
        1e3 * _ratio(own("runtime.session.tick"), n), n
    )
    out["runtime.session.fallback_share"] = (
        _ratio(sum(1 for i in ticks if spans[i][5][1]), n), n
    )
    out["runtime.policy.drift_ms"] = (1e3 * _ratio(own(*_POLICY), n), n)
    out["directory.snapshot_ms"] = (1e3 * _ratio(own(*_DIRECTORY), n), n)
    builds = count("directory.trace_build")
    out["directory.trace_build_ms"] = (
        1e3 * _ratio(total("directory.trace_build"), builds), builds
    )
    out["core.problem.build_ms"] = (1e3 * _ratio(own(*_PROBLEM), n), n)
    for layer in ("core.scheduler", "adaptive.refine"):
        calls = count(layer)
        out[f"{layer}.ms_per_call"] = (1e3 * _ratio(total(layer), calls), calls)
        out[f"{layer}.calls_per_req"] = (_ratio(calls, n), n)
    repairs = count("adaptive.delta")
    reinserted = [r for r in infos("adaptive.delta") if r is not None]
    out["adaptive.delta.ms_per_call"] = (
        1e3 * _ratio(own("adaptive.delta"), repairs), repairs
    )
    out["adaptive.delta.reinserted_per_call"] = (
        _ratio(sum(reinserted), len(reinserted)), len(reinserted)
    )
    checks = count("timing.validate")
    out["timing.validate.ms_per_call"] = (
        1e3 * _ratio(total("timing.validate"), checks), checks
    )
    out["timing.validate.events_per_call"] = (
        _ratio(sum(infos("timing.validate")), checks), checks
    )
    out["sim.engine.execute_ms_per_tick"] = (
        1e3 * _ratio(total("sim.engine.execute"), n), n
    )
    out["sim.engine.events_per_tick"] = (
        _ratio(sum(infos("sim.engine.execute")), n), n
    )
    out["timing.events.ms_per_tick"] = (1e3 * _ratio(own(*_EVENTS), n), n)
    lookups = infos("perf.memo.lookup")
    out["perf.memo.hit_rate"] = (_ratio(sum(lookups), len(lookups)), len(lookups))
    out["perf.memo.lookup_us"] = (
        1e6 * _ratio(total("perf.memo.lookup"), len(lookups)), len(lookups)
    )
    puts = infos("perf.memo.put")
    out["perf.memo.put_us"] = (
        1e6 * _ratio(total("perf.memo.put"), len(puts)), len(puts)
    )
    last_size: Dict[int, int] = {}
    for cache_id, size in puts:
        last_size[cache_id] = size
    out["perf.memo.entries"] = (float(sum(last_size.values())), len(puts))
    out["runtime.metrics.emit_us"] = (
        1e6 * _ratio(total("runtime.metrics.emit"), n), n
    )
    return out
