"""Online adaptive scheduling runtime (the paper's run-time loop).

The paper's core claim is *run-time* adaptivity: a directory service
reports drifting latency/bandwidth, and the framework decides per total
exchange whether to reuse, incrementally refine, or fully recompute the
schedule.  This package closes that loop as a long-lived serving
component:

* :mod:`repro.runtime.session` — :class:`AdaptiveSession`, the serving
  loop with digest-keyed schedule caching, scheduler deadlines with
  baseline fallback, and staleness caps;
* :mod:`repro.runtime.policy` — the reuse/refine/repair/reschedule
  decision and its :class:`PolicyConfig` tunables (the repair tier
  delta-patches the active schedule via :mod:`repro.adaptive.delta`);
* :mod:`repro.runtime.metrics` — counters, histograms, structured
  per-tick events; JSON and Chrome-trace export.

``python -m repro.cli serve`` drives a session from a
:mod:`repro.sim.replay` drift trace and prints the summary table.
"""

from repro.ops.sink import MetricsSink
from repro.runtime.metrics import (
    Counter,
    DECISIONS,
    Histogram,
    RuntimeMetrics,
    TickEvent,
)
from repro.runtime.policy import (
    PolicyConfig,
    REFINE,
    REPAIR,
    RESCHEDULE,
    REUSE,
    decide,
    drift_magnitude,
)
from repro.runtime.session import AdaptiveSession, TickResult

__all__ = [
    "AdaptiveSession",
    "Counter",
    "DECISIONS",
    "Histogram",
    "MetricsSink",
    "PolicyConfig",
    "REFINE",
    "REPAIR",
    "RESCHEDULE",
    "REUSE",
    "RuntimeMetrics",
    "TickEvent",
    "TickResult",
    "decide",
    "drift_magnitude",
]
