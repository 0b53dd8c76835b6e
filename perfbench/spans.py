"""In-memory spans around the program's layer entry points.

The traced run installs wrappers from this file; nothing under ``src/``
changes.  Each wrapper replaces a *module attribute* — the name a caller
looks up at call time — so ``repro.runtime.session.execute_orders`` is
wrapped where the session imports it, not where ``repro.sim.engine``
defines it.  Methods, classmethods and properties are wrapped on their
class.

A span is ``[name, start, end, parent, request_id, info]``: ``start`` and
``end`` come from ``time.monotonic`` (one clock for every process on the
machine, so daemon spans line up with the generator's timestamps),
``parent`` is the index of the enclosing span or ``-1``, and ``info``
holds what the wrapper read off the call (a decision, an event count).
Spans stay in a list until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Info = Optional[Callable[[tuple, dict, Any], Any]]


class Tracer:
    """Span recorder shared by every wrapper one process installs."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Request id stamped on spans opened while it is set.
        self.rid: Optional[str] = None
        #: Daemon bookkeeping: request object id -> request id, the
        #: per-tenant request sequence, and the last decode span.
        self.rids: Dict[int, str] = {}
        self.sequence: Dict[str, int] = {}
        self.last_decode: Optional[int] = None

    def wrap(self, fn: Callable, name: str, info: Info = None) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [
                name, clock(), 0.0, stack[-1] if stack else -1, self.rid, None
            ]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if info is not None:
                record[5] = info(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def load_spans(path: str) -> List[list]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["spans"]


# -- what the wrappers read off each call ------------------------------------


def _tick_info(args, kwargs, result):
    event = result.event
    return [event.decision, bool(event.fallback), bool(event.cache_hit)]


def _events_of_result(args, kwargs, result):
    return len(result)


def _events_of_first_arg(args, kwargs, result):
    return len(args[0])


def _reinserted(args, kwargs, result):
    return None if result is None else int(result.reinserted)


def _hit(args, kwargs, result):
    return result is not None


def _entries(args, kwargs, result):
    cache = args[0]
    return [id(cache), len(cache)]


#: ``(module, attribute path, span name, info)`` for every layer entry
#: point the traced run wraps.
WRAP_POINTS: Tuple[Tuple[str, str, str, Info], ...] = (
    ("repro.serve.daemon", "encode_message", "serve.protocol.encode", None),
    ("repro.serve.daemon", "SchedulerDaemon._run_batch",
     "serve.daemon.batch", None),
    ("repro.runtime.session", "AdaptiveSession.tick",
     "runtime.session.tick", _tick_info),
    ("repro.runtime.session", "drift_magnitude", "runtime.policy.drift", None),
    ("repro.runtime.session", "dirty_fraction", "runtime.policy.dirty", None),
    ("repro.runtime.session", "decide", "runtime.policy.decide", None),
    ("repro.sim.replay", "TraceDirectory.snapshot", "directory.snapshot",
     None),
    ("repro.sim.replay", "TraceDirectory.advance", "directory.advance", None),
    ("repro.sim.replay", "synthetic_drift_trace", "directory.trace_build",
     None),
    ("repro.core.problem", "TotalExchangeProblem.from_snapshot",
     "core.problem.build", None),
    ("repro.core.problem", "TotalExchangeProblem.__post_init__",
     "core.problem.validate", None),
    ("repro.runtime.session", "schedule_baseline", "core.scheduler", None),
    ("repro.runtime.session", "refine_orders", "adaptive.refine", None),
    ("repro.runtime.session", "repair_plan", "adaptive.delta", _reinserted),
    ("repro.adaptive.delta", "check_schedule_fast", "timing.validate",
     _events_of_first_arg),
    ("repro.timing.validate", "check_schedule_fast", "timing.validate",
     _events_of_first_arg),
    ("repro.runtime.session", "execute_orders", "sim.engine.execute",
     _events_of_result),
    ("repro.timing.events", "Schedule.send_orders",
     "timing.events.send_orders", None),
    ("repro.timing.events", "Schedule.completion_time",
     "timing.events.completion_time", None),
    ("repro.timing.events", "_materialize_events",
     "timing.events.materialize", None),
    ("repro.perf.memo", "ScheduleCache.lookup", "perf.memo.lookup", _hit),
    ("repro.perf.memo", "ScheduleCache.put", "perf.memo.put", _entries),
    ("repro.runtime.metrics", "RuntimeMetrics.emit", "runtime.metrics.emit",
     None),
)


def wrap_attribute(
    tracer: Tracer, owner: Any, attr: str, name: str, info: Info = None
) -> None:
    """Replace ``owner.attr`` by its traced version, keeping its kind
    (function, method, classmethod, staticmethod or property)."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr
    )
    if isinstance(raw, classmethod):
        wrapped: Any = classmethod(tracer.wrap(raw.__func__, name, info))
    elif isinstance(raw, staticmethod):
        wrapped = staticmethod(tracer.wrap(raw.__func__, name, info))
    elif isinstance(raw, property):
        wrapped = property(tracer.wrap(raw.fget, name, info))
    else:
        wrapped = tracer.wrap(raw, name, info)
    setattr(owner, attr, wrapped)


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class _TracedScheduler:
    """A scheduler whose calls are ``core.scheduler`` spans; every other
    attribute (the hierarchical scheduler's delta hook and cluster-cache
    binding) passes through to the wrapped scheduler."""

    def __init__(self, tracer: Tracer, scheduler: Callable):
        self._inner = scheduler
        self._call = tracer.wrap(scheduler, "core.scheduler")

    def __call__(self, problem):
        return self._call(problem)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def _install_daemon_points(tracer: Tracer) -> None:
    """Decode, admission and response wrappers that stamp each
    schedule request with ``"<tenant>#<n>"``: the tenant's n-th schedule
    request, counting from 0 — the same key the generator derives from
    the tenant and the response's tick."""
    protocol = importlib.import_module("repro.serve.protocol")
    daemon = importlib.import_module("repro.serve.daemon").SchedulerDaemon

    traced_decode = tracer.wrap(
        protocol.decode_request, "serve.protocol.decode"
    )

    def decode_request(line):
        tracer.last_decode = len(tracer.spans)
        return traced_decode(line)

    protocol.decode_request = decode_request

    traced_admit = tracer.wrap(daemon._admit, "serve.daemon.admit")

    def _admit(self, conn, request):
        seq = tracer.sequence.get(request.tenant, 0)
        tracer.sequence[request.tenant] = seq + 1
        rid = f"{request.tenant}#{seq}"
        tracer.rids[id(request)] = rid
        if tracer.last_decode is not None:
            tracer.spans[tracer.last_decode][4] = rid
        previous, tracer.rid = tracer.rid, rid
        try:
            return traced_admit(self, conn, request)
        finally:
            tracer.rid = previous

    daemon._admit = _admit

    traced_respond = tracer.wrap(daemon._respond_tick, "serve.daemon.respond")

    def _respond_tick(self, conn, request, **kwargs):
        previous, tracer.rid = tracer.rid, tracer.rids.pop(id(request), None)
        try:
            return traced_respond(self, conn, request, **kwargs)
        finally:
            tracer.rid = previous

    daemon._respond_tick = _respond_tick


def install(
    tracer: Tracer,
    extra: Sequence[Tuple[Any, str, str, Info]] = (),
) -> None:
    """Wrap every entry point in :data:`WRAP_POINTS`, the daemon's
    request path, the session's scheduler factory, and ``extra``
    ``(owner, attribute, span name, info)`` points."""
    for module_name, path, name, info in WRAP_POINTS:
        owner, attr = _resolve(module_name, path)
        wrap_attribute(tracer, owner, attr, name, info)
    for owner, attr, name, info in extra:
        wrap_attribute(tracer, owner, attr, name, info)
    _install_daemon_points(tracer)

    session = importlib.import_module("repro.runtime.session")
    make_scheduler = session.make_scheduler

    def traced_make_scheduler(*args, **kwargs):
        return _TracedScheduler(tracer, make_scheduler(*args, **kwargs))

    session.make_scheduler = traced_make_scheduler
