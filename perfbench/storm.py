"""storm_repair: one in-process session under node-correlated storms.

An :class:`~repro.runtime.session.AdaptiveSession` at P=256 plans
uniform 1 MiB total exchanges on a clustered platform (clusters of 64)
with the hierarchical scheduler.  :class:`StormDirectory` reprices it:
on one tick in :data:`STORM_EVERY` a storm congests a contiguous window
of about 10% of the nodes (each node's whole outgoing row slows by one
log-normal factor), and the ticks between are calm, with light per-pair
noise.  Every snapshot is priced against the fixed base platform, so
storms never compound and the cluster structure holds for the whole
run: the decision mix of the first half matches the second.

Storms fall on ticks ``2 (mod 5)``, never on the multiples of 25 where
the session's default plan-age cap (24 ticks) forces a reschedule.  A
plan rebuilt during a storm would make every calm tick after it look
dirty until the next rebuild, so the mix would depend on where the
rebuilds landed.

Storms land in the policy's repair band, so ``adaptive.delta`` repair
with its inline ``timing.validate`` check, the ``runtime.policy`` drift
metrics on P² pairs, ``sim.engine`` execution and the periodic
hierarchical reschedule carry the tick.  No daemon or codec is involved.

The session is a closed loop — the next tick starts when the last one
returns — so ``max_rate_rps`` here is the tick rate it sustains, and
``server_cpu_ms_per_req`` is this process's CPU time per tick.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List

import numpy as np

from perfbench import layers, procfs, stats
from perfbench.result import Result
from perfbench.spans import Tracer, install
from repro.core.problem import TotalExchangeProblem
from repro.directory.perturb import perturb_snapshot
from repro.directory.service import DirectoryService, DirectorySnapshot
from repro.network.generators import clustered_pairwise_parameters
from repro.runtime.session import AdaptiveSession
from repro.serve.tenants import make_workload_sizes
from repro.timing.validate import check_schedule, check_schedule_fast
from repro.util.rng import stable_seed, to_rng

PROCS = 256
CLUSTER = 64
#: The platform is the same in every run; the run's seed draws the
#: storms (where, how hard) and the calm-tick noise.  Drawing the
#: platform too moved the mean makespan ratio between 1.10 and 1.31
#: from seed to seed, more than any bound a quality guard could use.
PLATFORM_SEED = 1998
WORKLOAD = "uniform:size_bytes=1048576"
SCHEDULER = "hierarchical"
#: A storm on ticks STORM_PHASE (mod STORM_EVERY); calm ticks between.
STORM_EVERY, STORM_PHASE = 5, 2
#: Share of nodes one storm congests.
STORM_SHARE = 0.1
#: Storm factor per node: exp(STORM_BASE + |N(0, STORM_SIGMA)|), at
#: least 1.65, so a storm's mean drift clears the reuse threshold.
STORM_BASE, STORM_SIGMA = 0.5, 0.5
#: Log-normal per-pair bandwidth noise of calm ticks.
CALM_SIGMA = 0.01
DT = 1.0
#: Ticks a timed phase runs at least: p90 needs ten ticks beyond it.
MIN_TICKS = 100
SETUPS = 3


class StormDirectory(DirectoryService):
    """A fixed base platform repriced by seeded storms, tick by tick."""

    def __init__(self, base: DirectorySnapshot, seed: int):
        self._base = base
        self._seed = int(seed)
        self._time = 0.0
        self._span = max(1, round(STORM_SHARE * base.num_procs))

    @property
    def num_procs(self) -> int:
        return self._base.num_procs

    @property
    def time(self) -> float:
        return self._time

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        self._time += dt

    def snapshot(self) -> DirectorySnapshot:
        step = int(round(self._time / DT))
        rng = to_rng(stable_seed("perfbench-storm", self._seed, step))
        base = self._base
        if step % STORM_EVERY != STORM_PHASE:
            calm = perturb_snapshot(base, bandwidth_sigma=CALM_SIGMA, rng=rng)
            return DirectorySnapshot(
                latency=calm.latency, bandwidth=calm.bandwidth, time=self._time
            )
        n = base.num_procs
        start = int(rng.integers(0, n - self._span + 1))
        factors = np.exp(
            STORM_BASE + np.abs(rng.normal(0.0, STORM_SIGMA, size=self._span))
        )
        latency = base.latency.copy()
        bandwidth = base.bandwidth.copy()
        rows = slice(start, start + self._span)
        latency[rows, :] *= factors[:, None]
        bandwidth[rows, :] /= factors[:, None]
        np.fill_diagonal(latency, 0.0)
        return DirectorySnapshot(latency=latency, bandwidth=bandwidth, time=self._time)


def build(seed: int):
    """Platform, directory and session, then the cold first tick."""
    latency, bandwidth = clustered_pairwise_parameters(
        PROCS, cluster_size=CLUSTER, rng=PLATFORM_SEED
    )
    directory = StormDirectory(
        DirectorySnapshot(latency=latency, bandwidth=bandwidth), seed
    )
    sizes = make_workload_sizes(WORKLOAD, PROCS)
    session = AdaptiveSession(directory, sizes, scheduler=SCHEDULER)
    session.tick()
    return directory, sizes, session


def _timed_build(seed: int):
    started = time.perf_counter()
    built = build(seed)
    return built, time.perf_counter() - started


class Phase:
    """Ticks served back to back, each checked after its timing ends."""

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.cpu: List[float] = []
        self.decisions: List[str] = []
        self.ratios: List[float] = []
        self.spans_from = 0.0
        self.spans_to = 0.0
        self.invalid = 0
        self.checked = 0
        self.below_bound = 0
        self.full_checks = 0
        #: Peak RSS once :data:`MIN_TICKS` ticks are done.  Read then,
        #: not at the end, because the session keeps every tick's event:
        #: read at the end it grew with the ticks a run fitted in its
        #: seconds, so with the host's speed.
        self.rss_mb = 0.0

    def run(self, directory, sizes, session, seconds: float, *, full_check: bool):
        # Each tick is checked after the *next* one: the check builds the
        # schedule's event objects, and holding the schedule until then
        # keeps their deallocation out of the session's next tick.
        self.spans_from = time.monotonic()
        started = time.monotonic()
        previous = None
        while len(self.wall) < MIN_TICKS or time.monotonic() - started < seconds:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            result = session.tick(dt=DT)
            t1 = time.perf_counter()
            self.cpu.append(time.process_time() - cpu0)
            self.wall.append(t1 - t0)
            self.decisions.append(result.decision)
            actual = TotalExchangeProblem.from_snapshot(directory.snapshot(), sizes)
            if previous is not None:
                self._check(*previous, full_check)
            previous = (result, actual)
            del result
            if len(self.wall) == MIN_TICKS:
                self.rss_mb = procfs.peak_rss_mb(os.getpid())
        self.spans_to = time.monotonic()
        self._check(*previous, full_check)

    def _check(self, result, actual, full_check: bool) -> None:
        try:
            if full_check and result.decision == "repair" and not self.full_checks:
                # The full oracle takes seconds at P=256: once per run,
                # on a repaired plan.
                check_schedule(result.schedule, actual.cost)
                self.full_checks += 1
            elif result.decision != "reuse":
                # Every new plan goes through the vectorised checker (the
                # same validity conditions).  Reuse ticks re-execute a
                # checked plan; checking them too would cost more than
                # the ticks themselves, which the run time cannot carry.
                check_schedule_fast(result.schedule, actual.cost)
                self.checked += 1
        except ValueError:
            self.invalid += 1
        bound = actual.lower_bound()
        makespan = result.event.executed_makespan
        if makespan < bound * (1 - 1e-9):
            self.below_bound += 1
        self.ratios.append(makespan / bound)


def _checks(
    result: Result, phase: Phase, *, full_check: bool, prefix: str = ""
) -> None:
    result.check(f"{prefix}new plans valid", phase.invalid == 0,
                 f"{phase.invalid} of {phase.checked + phase.full_checks} "
                 f"checked invalid ({len(phase.wall)} ticks)")
    if full_check:
        result.check(f"{prefix}full oracle ran on a repaired plan",
                     phase.full_checks == 1, f"{phase.full_checks} full checks")
    result.check(f"{prefix}makespan >= lower bound",
                 phase.below_bound == 0, f"{phase.below_bound} below")
    ok, distance, tolerance = stats.stationarity(phase.decisions)
    result.check(
        f"{prefix}stationary decision mix", ok,
        f"halves differ by {distance:.3f} (tolerance {tolerance:.3f}); "
        f"mix {stats.decision_mix(phase.decisions)}",
    )
    result.check(f"{prefix}repair tier exercised", "repair" in phase.decisions,
                 f"mix {stats.decision_mix(phase.decisions)}")


def run(*, seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    result = Result("storm_repair")
    (directory, sizes, session), setup_s = _timed_build(seed)
    phase = Phase()
    phase.run(directory, sizes, session, seconds, full_check=not trace)
    _checks(result, phase, full_check=not trace)
    del directory, sizes, session
    result.attempted = len(phase.wall) + 1
    if not trace:
        setups = [setup_s] + [_timed_build(seed)[1] for _ in range(SETUPS - 1)]
        wall_ms = [1e3 * w for w in phase.wall]
        n = len(wall_ms)
        result.metric("setup_s", statistics.median(setups), "s", len(setups))
        result.metric("latency_p50_ms", statistics.median(wall_ms), "ms", n,
                      label="latency_p50_ms (tick wall p50)")
        result.metric("server_cpu_ms_per_req", 1e3 * statistics.fmean(phase.cpu),
                      "ms", n, label="server_cpu_ms_per_req (CPU per tick)")
        result.metric("peak_rss_mb", phase.rss_mb, "MB", 1,
                      label=f"peak_rss_mb (after {MIN_TICKS} ticks)")
        result.metric("makespan_ratio", statistics.fmean(phase.ratios), "ratio", n)
        return result

    # Traced: the same inputs again, on a session built after the
    # wrappers went in (the scheduler is wrapped when it is made).
    tracer = Tracer()
    install(tracer, extra=[
        (StormDirectory, "snapshot", "directory.snapshot", None),
        (StormDirectory, "advance", "directory.advance", None),
    ])
    directory, sizes, session = build(seed)
    traced = Phase()
    traced.run(directory, sizes, session, seconds, full_check=False)
    _checks(result, traced, full_check=False, prefix="traced: ")
    result.attempted += len(traced.wall) + 1
    tracer.dump(os.path.join(workdir, "spans.json"))
    window = (traced.spans_from, traced.spans_to)
    for name, (value, samples) in layers.summarize(tracer.spans, window).items():
        result.metric(name, value, dict(layers.SPAN_METRICS)[name], samples)
    for name, unit in (
        ("serve.daemon.overhead_ms.p50", "ms"),
        ("serve.daemon.overhead_ms.p99", "ms"),
        ("serve.daemon.queue_depth.p99", "count"),
        ("serve.daemon.batched_share", "share"),
        ("serve.daemon.idle_cpu_share", "share"),
        ("bench.generator_late_ms.max", "ms"),
    ):
        result.metric(name, 0.0, unit, 0, label=f"{name} (no daemon)")
    wall_ms = [1e3 * w for w in phase.wall]
    q, tail = stats.tail_percentile(wall_ms)
    result.metric("latency_tail_ms", tail, "ms", len(wall_ms),
                  label=f"latency_p{q:g}_ms (untraced tick wall p{q:g})")
    result.metric("max_rate_rps", len(phase.wall) / sum(phase.wall), "req/s",
                  len(phase.wall), label="max_rate_rps (closed-loop ticks/s)")
    result.metric("bench.trace_overhead_share",
                  statistics.median(traced.wall) / statistics.median(phase.wall) - 1.0,
                  "share", len(traced.wall))
    tick_spans = [
        s[2] - s[1] for s in tracer.spans
        if s[0] == "runtime.session.tick" and s[3] < 0
        and window[0] <= s[1] and s[2] <= window[1]
    ]
    result.metric("bench.span_coverage_share",
                  sum(tick_spans) / sum(traced.wall), "share", len(tick_spans))
    return result
