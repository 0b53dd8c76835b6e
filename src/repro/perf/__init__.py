"""Performance subsystem: kernel timing, memoization, and benchmarks.

The scheduling algorithms only "pay off" at run time when computing a
schedule is cheap relative to the communication it saves (paper Section
6.2; see :mod:`repro.experiments.overhead`).  This package makes
schedule-construction cost a first-class, measured quantity:

* :mod:`repro.perf.timer` — :class:`KernelTimer`, a tiny wall-clock
  harness for best-of-N kernel timing;
* :mod:`repro.perf.reference` — the original scalar-Python kernels,
  frozen as golden references for equivalence tests and before/after
  benchmarking;
* :mod:`repro.perf.memo` — schedule and lower-bound memoization keyed by
  a cost-matrix digest, for repeated-instance experiment paths;
* :mod:`repro.perf.bench` — the micro-benchmark runner behind
  ``python -m repro.cli bench``, which writes ``BENCH_core.json``;
* :mod:`repro.perf.tiers` — the guarded bench tiers (``bench --tier``),
  judged by :mod:`repro.perf.regression`.
"""

from repro.perf.bench import run_bench, update_bench_json
from repro.perf.memo import (
    ScheduleCache,
    cost_digest,
    default_schedule_cache,
    lower_bound_cached,
    problem_digest,
    schedule_digest,
)
from repro.perf.timer import KernelTimer, KernelTiming

__all__ = [
    "KernelTimer",
    "KernelTiming",
    "ScheduleCache",
    "cost_digest",
    "default_schedule_cache",
    "lower_bound_cached",
    "problem_digest",
    "run_bench",
    "schedule_digest",
    "update_bench_json",
]
