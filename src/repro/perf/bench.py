"""Micro-benchmark runner for the scheduling kernels.

Times the optimized greedy/executor/matching kernels against the frozen
seed implementations (:mod:`repro.perf.reference`) on deterministic
mixed-workload instances, and writes the machine-readable
``BENCH_core.json`` that records the perf trajectory across PRs.

Invoke as ``python -m repro.cli bench`` (``--smoke`` for a seconds-long
CI variant).  Matching is excluded above ``matching_max_p`` — its
``O(P^4)`` round extraction is not a P=1024 kernel, which is exactly why
the scale study leans on greedy + open shop there.  The frozen seed
kernels stop at ``reference_max_p``: the seed open shop scan alone needs
tens of seconds per repeat at ``P = 512``, so above the cap only the
optimized kernels are timed and the speedup column goes blank rather
than the bench budget exploding.
"""

from __future__ import annotations

import json
import pathlib
import platform
import time
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.greedy import greedy_orders, greedy_steps, schedule_greedy
from repro.core.matching import matching_rounds
from repro.core.openshop import schedule_openshop
from repro.core.problem import TotalExchangeProblem
from repro.directory.service import DirectorySnapshot
from repro.model.messages import MixedSizes
from repro.network.generators import random_pairwise_parameters
from repro.perf import reference
from repro.perf.timer import KernelTimer
from repro.sim.engine import execute_orders_on_cost, execute_steps_strict
from repro.util.rng import stable_seed, to_rng

#: The scale ladder: the paper's P=50, the seed repo's P=100 headroom
#: point, the PR-1 P=256 target, and the new P=512 / P=1024 tiers.
DEFAULT_PROC_COUNTS: Tuple[int, ...] = (50, 100, 256, 512, 1024)

#: Small sizes for the CI smoke run.
SMOKE_PROC_COUNTS: Tuple[int, ...] = (16, 32)

#: Kernel name -> its seed-reference counterpart in the timing tables.
REFERENCE_OF: Dict[str, str] = {
    "greedy_steps": "greedy_steps_reference",
    "greedy_end_to_end": "greedy_end_to_end_reference",
    "execute_orders": "execute_orders_reference",
    "execute_steps_strict": "execute_steps_strict_reference",
    "openshop": "openshop_reference",
}

#: Largest size at which the frozen seed kernels are timed.
DEFAULT_REFERENCE_MAX_P = 256

#: Largest size at which the matching backends are timed.  The scipy
#: round extraction alone is ~16 s at P=512; past that the ladder relies
#: on greedy + open shop.
DEFAULT_MATCHING_MAX_P = 512

PathLike = Union[str, pathlib.Path]


def bench_instance(num_procs: int, *, seed: int = 0) -> TotalExchangeProblem:
    """The deterministic mixed-workload instance benched at ``num_procs``."""
    rng = to_rng(stable_seed("bench", seed, num_procs))
    latency, bandwidth = random_pairwise_parameters(num_procs, rng=rng)
    snapshot = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
    return TotalExchangeProblem.from_snapshot(snapshot, MixedSizes(), rng=rng)


def clustered_instance(
    num_procs: int, *, cluster_size: int = 64, seed: int = 0
) -> TotalExchangeProblem:
    """The deterministic cluster-structured instance for the scale ladder.

    A :func:`~repro.network.generators.clustered_pairwise_parameters`
    platform carrying uniform 1 MB messages — the workload the
    hierarchical scheduler targets at ``P > 1024``.
    """
    from repro.model.messages import UniformSizes
    from repro.network.generators import clustered_pairwise_parameters

    rng = to_rng(stable_seed("bench.hier", seed, num_procs, cluster_size))
    latency, bandwidth = clustered_pairwise_parameters(
        num_procs, cluster_size=cluster_size, rng=rng
    )
    snapshot = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
    return TotalExchangeProblem.from_snapshot(
        snapshot, UniformSizes(1e6), rng=rng
    )


def run_hier_scale(
    proc_counts: Sequence[int] = (1024, 2048, 4096, 8192),
    *,
    cluster_size: int = 64,
    seed: int = 0,
    flat_max_p: int = 1024,
    validate: bool = False,
) -> Dict[str, Dict[str, Any]]:
    """Bench the hierarchical scheduler on the extended scale ladder.

    For each ``P`` the deterministic :func:`clustered_instance` is
    scheduled by the hierarchical scheduler — and, up to ``flat_max_p``,
    by the flat open shop for comparison — recording wall-clock seconds
    and the makespan ratio to the lower bound.  ``bench --tier hier``
    files each tier under ``extra["scale_p{P}"]``
    (``extra["scale_hier_p{P}"]`` for the tiers the flat benchmarks
    already own).  ``validate`` additionally runs the vectorized
    schedule checker on every result (off by default: checking is
    slower than scheduling at these sizes).
    """
    from repro.core.hierarchical import schedule_hierarchical
    from repro.timing.validate import check_schedule_fast

    results: Dict[str, Dict[str, Any]] = {}
    for num_procs in proc_counts:
        num_procs = int(num_procs)
        problem = clustered_instance(
            num_procs, cluster_size=cluster_size, seed=seed
        )
        lower_bound = problem.lower_bound()
        tier: Dict[str, Any] = {
            "meta": {
                "cluster_size": cluster_size,
                "seed": seed,
                "workload": "uniform 1 MB, clustered platform",
                "lower_bound_s": lower_bound,
            }
        }
        contenders = [("hierarchical", schedule_hierarchical)]
        if num_procs <= flat_max_p:
            contenders.append(("openshop", schedule_openshop))
        for name, scheduler in contenders:
            t0 = time.perf_counter()
            schedule = scheduler(problem)
            makespan = schedule.completion_time
            elapsed = time.perf_counter() - t0
            if validate:
                check_schedule_fast(schedule, problem.cost)
            tier[name] = {
                "seconds": elapsed,
                "ratio_to_lb": makespan / lower_bound if lower_bound else 1.0,
                "events": len(schedule),
            }
        results[str(num_procs)] = tier
    return results


def run_drift_response(
    proc_counts: Sequence[int] = (256, 1024, 4096),
    *,
    ticks: int = 8,
    dirty_node_fraction: float = 0.05,
    cluster_size: int = 64,
    hier_min_p: int = 2048,
    seed: int = 0,
) -> Dict[str, Dict[str, Any]]:
    """Drift-tick latency: delta repair vs. a full reschedule.

    For each ``P`` the deterministic :func:`clustered_instance` is
    planned once; each subsequent tick congests a different contiguous
    ~5% window of nodes (every outgoing link of an affected node
    repriced by its own factor in [0.9, 1.15] — a moving congestion
    spot relative to the plan's basis, the moderate-drift regime the
    policy routes to the repair tier) and the plan is updated both
    ways under a wall clock:

    * **repair** — :mod:`repro.adaptive.delta` event-level repair below
      ``hier_min_p`` (the flat open shop tiers), block-level
      :meth:`HierarchicalScheduler.delta_repair` at and above it; both
      validated inline with the fast checker, exactly like the serving
      hot path;
    * **full** — the matching from-scratch scheduler on the same costs.

    Every repair splices the *anchored* plan — exactly what the session
    does on its repair tier — so the first tick pays the splice's
    one-time level pass and later ticks show the warm steady state the
    p50 reports.  Results land under ``extra["drift_response_p{P}"]``
    with p50/p99 latencies for both paths, the p50 speedup, and the
    worst repaired/from-scratch makespan ratio across the ticks.
    """
    from repro.adaptive.delta import repair_schedule_delta
    from repro.core.hierarchical import HierarchicalScheduler
    from repro.timing.validate import check_schedule_fast

    if ticks < 2:
        raise ValueError(f"ticks must be >= 2, got {ticks}")

    results: Dict[str, Dict[str, Any]] = {}
    for num_procs in proc_counts:
        num_procs = int(num_procs)
        hierarchical = num_procs >= hier_min_p
        problem = clustered_instance(
            num_procs, cluster_size=cluster_size, seed=seed
        )
        dirty_nodes = max(1, round(dirty_node_fraction * num_procs))
        rng = to_rng(stable_seed("bench.drift", seed, num_procs))

        if hierarchical:
            scheduler = HierarchicalScheduler()
            incumbent = scheduler(problem)
        else:
            incumbent = schedule_openshop(problem)
        basis = problem.cost

        repair_s, full_s, ratios = [], [], []
        dirty_fracs, repaired_events = [], []
        for _ in range(ticks - 1):
            start = int(rng.integers(0, num_procs - dirty_nodes + 1))
            factors = rng.uniform(0.9, 1.15, size=(dirty_nodes, num_procs))
            cost = basis.copy()
            cost[start:start + dirty_nodes, :] *= factors
            np.fill_diagonal(cost, basis.diagonal())
            current = TotalExchangeProblem(cost=cost, sizes=problem.sizes)

            t0 = time.perf_counter()
            if hierarchical:
                result = scheduler.delta_repair(current, validate=True)
            else:
                result = repair_schedule_delta(
                    incumbent, basis, current, validate=True
                )
            repair_s.append(time.perf_counter() - t0)
            assert result is not None, "repair refused a moderate storm"

            t0 = time.perf_counter()
            if hierarchical:
                scratch = HierarchicalScheduler()(current)
            else:
                scratch = schedule_openshop(current)
            full_s.append(time.perf_counter() - t0)
            check_schedule_fast(scratch, current.cost)

            ratios.append(
                result.completion_time / scratch.completion_time
            )
            relevant = (basis > 0) | (cost > 0)
            dirty_fracs.append(
                float(((basis != cost) & relevant).sum() / relevant.sum())
            )
            repaired_events.append(result.reinserted)

        def _stats(samples) -> Dict[str, float]:
            values = np.asarray(samples, dtype=float)
            return {
                "p50_s": float(np.quantile(values, 0.50)),
                "p99_s": float(np.quantile(values, 0.99)),
                "mean_s": float(values.mean()),
            }

        repair_stats = _stats(repair_s)
        full_stats = _stats(full_s)
        tier: Dict[str, Any] = {
            "meta": {
                "ticks": ticks,
                "dirty_nodes": dirty_nodes,
                "cluster_size": cluster_size,
                "seed": seed,
                "scheduler": (
                    "hierarchical" if hierarchical else "openshop"
                ),
                "workload": "uniform 1 MB, clustered platform",
            },
            "repair": repair_stats,
            "full": full_stats,
            "speedup_p50": full_stats["p50_s"] / repair_stats["p50_s"],
            "makespan_ratio_max": float(max(ratios)),
            "dirty_fraction_mean": float(np.mean(dirty_fracs)),
            "repaired_events_mean": float(np.mean(repaired_events)),
        }
        results[str(num_procs)] = tier
    return results


def run_drift_metrics_bench(
    num_procs: int = 1024,
    *,
    repeats: int = 5,
    seed: int = 0,
    output: Optional[PathLike] = None,
) -> Dict[str, Any]:
    """Micro-bench the per-tick drift metrics at serving scale.

    ``drift_magnitude``, ``changed_mask`` and ``dirty_fraction`` run on
    *every* serving tick before any decision is made, so their cost is a
    floor on tick latency; this pins them (vectorized, milliseconds at
    P=1024) into the bench record.
    """
    from repro.adaptive.incremental import changed_mask, dirty_fraction
    from repro.runtime.policy import drift_magnitude

    rng = to_rng(stable_seed("bench.drift-metrics", seed, num_procs))
    basis = rng.uniform(0.5, 5.0, (num_procs, num_procs))
    current = basis * rng.uniform(0.9, 1.1, basis.shape)
    timer = KernelTimer(repeats=repeats)
    timer.time("drift_magnitude", drift_magnitude, basis, current)
    timer.time("changed_mask", changed_mask, basis, current)
    timer.time("dirty_fraction", dirty_fraction, basis, current)
    payload = {
        "meta": {"num_procs": num_procs, "repeats": repeats, "seed": seed},
        **timer.summary(),
    }
    if output is not None:
        update_bench_json(
            f"drift_metrics_p{num_procs}", payload, output
        )
    return payload


def collectives_instance(num_procs: int, *, seed: int = 0) -> DirectorySnapshot:
    """The deterministic clustered snapshot the collectives are benched on."""
    from repro.network.generators import clustered_pairwise_parameters

    rng = to_rng(stable_seed("bench.collectives", seed, num_procs))
    cluster_size = min(64, max(2, num_procs // 4))
    latency, bandwidth = clustered_pairwise_parameters(
        num_procs, cluster_size=cluster_size, rng=rng
    )
    return DirectorySnapshot(latency=latency, bandwidth=bandwidth)


def run_collectives_bench(
    proc_counts: Sequence[int] = (64, 256),
    *,
    size_bytes: float = float(1 << 20),
    seed: int = 0,
) -> Dict[str, Dict[str, Any]]:
    """Bench the collective planners on clustered heterogeneous platforms.

    For each ``P`` every planner schedules a ``size_bytes`` payload on
    the deterministic :func:`collectives_instance`, recording planning
    wall-clock, modelled completion time and event count.  The tier also
    pins the headline quality ratios — the log-round broadcast vs the
    binomial tree and the pipelined straggler-aware ring vs the lockstep
    rank-order ring — which the regression guard holds tight.  Tiers
    land under ``extra["collectives_p{P}"]``.
    """
    from repro.collectives import (
        allreduce_log_tree,
        allreduce_rs_ag,
        alltoall_direct_plan,
        broadcast_log_plan,
        make_collective,
    )

    binomial_fn = make_collective("broadcast_binomial")
    lockstep_fn = make_collective("allreduce_ring")

    results: Dict[str, Dict[str, Any]] = {}
    for num_procs in proc_counts:
        num_procs = int(num_procs)
        snapshot = collectives_instance(num_procs, seed=seed)
        tier: Dict[str, Any] = {
            "meta": {
                "size_bytes": size_bytes,
                "seed": seed,
                "platform": "clustered",
            }
        }

        def timed(name: str, fn, *args, **kwargs):
            t0 = time.perf_counter()
            plan = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            tier[name] = {
                "seconds": elapsed,
                "completion_s": float(plan.completion_time),
                "events": len(plan.schedule),
            }
            return plan.completion_time

        binomial = timed(
            "broadcast_binomial", binomial_fn, snapshot, size_bytes
        )
        log_bcast = timed(
            "broadcast_log", broadcast_log_plan, snapshot, size_bytes
        )
        lockstep = timed(
            "allreduce_lockstep", lockstep_fn, snapshot, size_bytes
        )
        ring_auto = timed(
            "allreduce_ring_auto", allreduce_rs_ag, snapshot, size_bytes
        )
        timed(
            "allreduce_ring_rank_order", allreduce_rs_ag,
            snapshot, size_bytes, ring=range(num_procs),
        )
        timed(
            "allreduce_tree", allreduce_log_tree, snapshot, size_bytes
        )
        timed(
            "alltoall_direct_ring", alltoall_direct_plan,
            snapshot, size_bytes, topology="ring",
        )
        timed(
            "alltoall_direct_torus", alltoall_direct_plan,
            snapshot, size_bytes, topology="torus",
        )
        if num_procs & (num_procs - 1) == 0:
            timed(
                "alltoall_direct_hypercube", alltoall_direct_plan,
                snapshot, size_bytes, topology="hypercube",
            )
        tier["broadcast_log_vs_binomial"] = float(binomial) / float(log_bcast)
        tier["allreduce_pipelined_vs_lockstep"] = (
            float(lockstep) / float(ring_auto)
        )
        results[str(num_procs)] = tier
    return results


def run_allreduce_straggler_serve(
    num_procs: int = 512,
    *,
    ticks: int = 8,
    block_bytes: float = float(1 << 26),
    straggler_factor: float = 8.0,
    straggler_tick: int = 3,
    straggler_ticks: int = 2,
    scheduler: str = "greedy",
    seed: int = 0,
) -> Dict[str, Any]:
    """Serve ring all-reduce traffic through a straggler episode.

    The gradient-synchronisation demand matrix
    (:func:`repro.workloads.mltraining.allreduce_ring_sizes`) is served
    by an :class:`~repro.runtime.AdaptiveSession` over a hand-built
    drift trace: calm ticks, then ``straggler_ticks`` ticks during which
    one node's links collapse by ``straggler_factor``, then recovery.
    Records per-tick planning latency, the session's decision mix (the
    straggler must push the policy off the pure-reuse path) and the
    worst executed-makespan degradation.  Lands under
    ``extra["collectives_allreduce_straggler_p{P}"]``.
    """
    from repro.runtime import AdaptiveSession, PolicyConfig
    from repro.sim.replay import DriftTrace, TraceDirectory
    from repro.workloads.mltraining import allreduce_ring_sizes

    if ticks < straggler_tick + straggler_ticks + 1:
        raise ValueError(
            f"need ticks > {straggler_tick + straggler_ticks}, got {ticks}"
        )
    base = collectives_instance(num_procs, seed=seed)
    # The straggler is the node on the critical ring edge: the ring
    # makespan is the slowest edge's time, so slowing anyone else by
    # straggler_factor can vanish below it and the episode would be
    # invisible at large P.
    per_edge = 2.0 * (num_procs - 1) / num_procs * block_bytes
    ring_edge_times = np.array([
        base.latency[i, (i + 1) % num_procs]
        + per_edge / base.bandwidth[i, (i + 1) % num_procs]
        for i in range(num_procs)
    ])
    straggler = int(ring_edge_times.argmax())
    slow_bandwidth = base.bandwidth.copy()
    slow_bandwidth[straggler, :] /= straggler_factor
    slow_bandwidth[:, straggler] /= straggler_factor
    np.fill_diagonal(slow_bandwidth, base.bandwidth.diagonal())
    snapshots = []
    for tick in range(ticks):
        if straggler_tick <= tick < straggler_tick + straggler_ticks:
            snapshots.append(DirectorySnapshot(
                latency=base.latency, bandwidth=slow_bandwidth,
                time=float(tick),
            ))
        else:
            snapshots.append(DirectorySnapshot(
                latency=base.latency, bandwidth=base.bandwidth,
                time=float(tick),
            ))
    trace = DriftTrace(
        times=tuple(float(t) for t in range(ticks)),
        snapshots=tuple(snapshots),
    )
    sizes = allreduce_ring_sizes(num_procs, block_bytes)
    # The policy's drift measure is a *mean* over demand pairs, so a
    # single straggler (2 of P ring edges) dilutes below the default
    # reuse threshold once P is large.  Ring gradient sync is governed
    # by its slowest edge, so scale the thresholds with P: one edge
    # drifting by ~straggler_factor must register.
    policy = PolicyConfig(
        reuse_threshold=min(0.05, 2.0 / num_procs),
        refine_threshold=min(0.25, 8.0 / num_procs),
    )
    session = AdaptiveSession(
        TraceDirectory(trace), sizes, scheduler=scheduler, policy=policy
    )
    tick_s, makespans, decisions_seq = [], [], []
    for tick in range(ticks):
        t0 = time.perf_counter()
        result = session.tick(dt=1.0 if tick else 0.0)
        tick_s.append(time.perf_counter() - t0)
        makespans.append(result.event.executed_makespan)
        decisions_seq.append(result.event.decision)
    latencies = np.asarray(tick_s)
    baseline = makespans[0]
    payload: Dict[str, Any] = {
        "meta": {
            "num_procs": num_procs,
            "ticks": ticks,
            "block_bytes": block_bytes,
            "straggler_node": straggler,
            "straggler_factor": straggler_factor,
            "straggler_window": [
                straggler_tick, straggler_tick + straggler_ticks
            ],
            "scheduler": scheduler,
            "seed": seed,
            "workload": "ring all-reduce gradient sync",
        },
        "tick_latency": {
            "p50_s": float(np.quantile(latencies, 0.50)),
            "p99_s": float(np.quantile(latencies, 0.99)),
            "max_s": float(latencies.max()),
        },
        "decisions": {
            name: decisions_seq.count(name)
            for name in ("reuse", "refine", "repair", "reschedule")
        },
        "decision_sequence": decisions_seq,
        "makespan": {
            "baseline_s": float(baseline),
            "straggler_worst_s": float(max(makespans)),
            "degradation_max": (
                float(max(makespans) / baseline) if baseline else 1.0
            ),
        },
    }
    return payload


def _drive_daemon(
    *,
    tenants: int,
    cohorts: int,
    procs: int,
    connections: int,
    duration_s: float,
    scheduler: str,
    directory: str,
    workload: str,
    workloads: Optional[Sequence[str]] = None,
    max_queue: int = 512,
    batch_max: int = 64,
) -> Tuple[Any, Dict[str, Any]]:
    """Start a daemon on a temp unix socket, drive load, tear down.

    Returns the generator's :class:`~repro.serve.client.LoadReport` and
    the daemon's final ``stats()`` payload.
    """
    import os
    import tempfile
    import threading

    from repro.serve import (
        DaemonClient,
        DaemonConfig,
        LoadGenerator,
        SchedulerDaemon,
    )

    sock = os.path.join(
        tempfile.mkdtemp(prefix="repro-bench-daemon-"), "daemon.sock"
    )
    daemon = SchedulerDaemon(
        DaemonConfig(
            socket_path=sock, max_queue=max_queue, batch_max=batch_max
        )
    )
    daemon.bind()
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    try:
        generator = LoadGenerator(
            sock,
            tenants=tenants,
            cohorts=cohorts,
            procs=procs,
            scheduler=scheduler,
            directory=directory,
            workload=workload,
            workloads=workloads,
            connections=connections,
        )
        report = generator.run(duration_s)
        with DaemonClient(sock) as client:
            stats = client.stats()
            client.shutdown()
    finally:
        thread.join(timeout=10)
    return report, stats


def _daemon_payload(
    report: Any, stats: Dict[str, Any], meta: Dict[str, Any]
) -> Dict[str, Any]:
    return {
        "meta": meta,
        "throughput": {
            "requests_per_s": report.requests_per_s,
            "requests": report.requests,
            "accepted": report.accepted,
            "retried": report.retried,
            "dropped": report.dropped,
            "errors": report.errors,
            "backpressured": report.backpressured,
        },
        "decision_latency": {
            "p50_s": report.decision_p50_s,
            "p99_s": report.decision_p99_s,
        },
        "client_latency": {
            "p50_s": report.latency_p50_s,
            "p99_s": report.latency_p99_s,
        },
        "decisions": dict(report.decisions),
        "batching": {
            "batched": report.batched,
            "cache_hits": report.cache_hits,
            "daemon_batched": stats["counters"]["batched"],
        },
        "daemon": {
            "counters": dict(stats["counters"]),
            "cache": dict(stats["cache"]),
            "decision_latency": dict(stats["decision_latency"]),
        },
    }


def run_daemon_load(
    tenants: int = 100,
    *,
    cohorts: int = 16,
    procs: int = 6,
    connections: int = 4,
    duration_s: float = 6.0,
    scheduler: str = "openshop",
    directory: str = "drift:sigma=0.02",
    workload: str = "mixed",
) -> Dict[str, Any]:
    """Multi-tenant daemon load tier: throughput and decision latency.

    Spins up a :class:`~repro.serve.SchedulerDaemon` on a temp unix
    socket and drives it with the closed-loop pipelined load generator
    (``tenants`` sessions over ``cohorts`` shared profiles, so
    same-digest requests exercise cross-tenant batching).  Records
    end-to-end req/s, daemon-side decision-latency percentiles, the
    decision mix, and batching/cache effectiveness.  Lands under
    ``extra["daemon_load_t{tenants}"]``.
    """
    report, stats = _drive_daemon(
        tenants=tenants,
        cohorts=cohorts,
        procs=procs,
        connections=connections,
        duration_s=duration_s,
        scheduler=scheduler,
        directory=directory,
        workload=workload,
    )
    payload = _daemon_payload(report, stats, {
        "tenants": tenants,
        "cohorts": cohorts,
        "num_procs": procs,
        "connections": connections,
        "duration_s": duration_s,
        "scheduler": scheduler,
        "directory": directory,
        "workload": workload,
    })
    return payload


def run_daemon_ps_fanin(
    tenants: int = 100,
    *,
    cohorts: int = 16,
    procs: int = 6,
    connections: int = 4,
    duration_s: float = 6.0,
    servers: int = 1,
    block_scale: float = float(1 << 20),
    pareto_alpha: float = 1.2,
    scheduler: str = "openshop",
    directory: str = "drift:sigma=0.02",
    seed: int = 0,
) -> Dict[str, Any]:
    """Parameter-server fan-in through the daemon with a heavy-tail mix.

    Each cohort serves the parameter-server demand matrix
    (:func:`repro.workloads.mltraining.parameter_server_sizes`) with its
    own gradient size drawn from a Pareto(``pareto_alpha``) distribution
    scaled by ``block_scale`` — a heavy-tail tenant mix where a few
    cohorts push order-of-magnitude larger pushes/pulls through the same
    daemon.  Fan-in concentrates all demand on the server rows, the
    worst case for the per-tenant planning problems.  Lands under
    ``extra["daemon_ps_fanin_t{tenants}"]``.
    """
    rng = np.random.default_rng(seed)
    block_sizes = [
        float(block_scale * (1.0 + draw))
        for draw in rng.pareto(pareto_alpha, size=cohorts)
    ]
    workloads = [
        f"ps:block_bytes={block:.0f},servers={servers}"
        for block in block_sizes
    ]
    report, stats = _drive_daemon(
        tenants=tenants,
        cohorts=cohorts,
        procs=procs,
        connections=connections,
        duration_s=duration_s,
        scheduler=scheduler,
        directory=directory,
        workload=workloads[0],
        workloads=workloads,
    )
    payload = _daemon_payload(report, stats, {
        "tenants": tenants,
        "cohorts": cohorts,
        "num_procs": procs,
        "connections": connections,
        "duration_s": duration_s,
        "scheduler": scheduler,
        "directory": directory,
        "servers": servers,
        "block_scale": block_scale,
        "pareto_alpha": pareto_alpha,
        "seed": seed,
        "workload": "parameter-server fan-in, heavy-tail cohort mix",
        "cohort_block_bytes": block_sizes,
    })
    return payload


def run_soak_smoke(
    *,
    seed: int = 0,
    ops_dir: Optional[PathLike] = None,
) -> Dict[str, Any]:
    """Chaos-soak smoke tier: the seeded CI soak as a guarded benchmark.

    Runs :func:`repro.ops.soak.run_soak` with the smoke configuration
    (6 tenants x 40 ticks of drift storms, faults, and forced scheduler
    timeouts, plus the daemon restart/backup phase) and records the
    outcome the regression guard cares about: zero oracle violations,
    zero dropped requests, the deterministic ``fallback_rate`` alert
    firing *and* resolving, backup/restart bit-identity, and the wall
    time.  Lands under ``extra["soak_smoke"]``.
    """
    import shutil
    import tempfile

    from repro.ops.soak import SoakConfig, run_soak

    config = SoakConfig.smoke(seed)
    workdir = pathlib.Path(ops_dir) if ops_dir else pathlib.Path(
        tempfile.mkdtemp(prefix="repro-soak-")
    )
    try:
        report = run_soak(config, workdir)
    finally:
        if ops_dir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    payload = {
        "meta": {
            "tenants": config.tenants,
            "num_procs": config.procs,
            "ticks": config.ticks,
            "sim_seconds": config.sim_seconds,
            "seed": seed,
            "scheduler": config.scheduler,
        },
        "ok": report.ok,
        "oracle_checks": report.oracle_checks,
        "oracle_violations": report.oracle_violations,
        "decisions": report.decisions,
        "fallback_activations": report.fallback_activations,
        "alerts_fired": report.alerts_fired,
        "alerts_resolved": report.alerts_resolved,
        "daemon": {
            "accepted": report.daemon.get("accepted", 0),
            "served": report.daemon.get("served", 0),
            "dropped": report.daemon.get("dropped", 0),
            "zero_loss": report.daemon.get("zero_loss", False),
            "restart_bit_identical": report.daemon.get(
                "restart_bit_identical", False
            ),
        },
        "backup_bit_identical": bool(
            report.backup.get("bit_identical", False)
        ),
        "store": {
            "segments": report.store.get("segments", 0),
            "sealed_segments": report.store.get("sealed_segments", 0),
            "records_written": report.store.get("records_written", 0),
        },
        "wall_s": report.wall_s,
    }
    return payload


def _bench_one_size(
    num_procs: int,
    *,
    repeats: int,
    include_reference: bool,
    matching_max_p: int,
    reference_max_p: int,
    seed: int,
) -> KernelTimer:
    problem = bench_instance(num_procs, seed=seed)
    cost = problem.cost
    timer = KernelTimer(repeats=repeats)

    steps = timer.time("greedy_steps", greedy_steps, cost)
    orders = greedy_orders(problem)
    timer.time(
        "execute_orders", execute_orders_on_cost, cost, orders,
        sizes=problem.sizes,
    )
    timer.time(
        "execute_steps_strict", execute_steps_strict, cost, steps,
        sizes=problem.sizes,
    )
    timer.time("greedy_end_to_end", schedule_greedy, problem)
    timer.time("openshop", schedule_openshop, problem)
    if num_procs <= matching_max_p:
        # One extraction takes tens of seconds per backend at P=512;
        # a single repeat keeps the tier inside the bench budget.
        matching_repeats = repeats if num_procs <= 256 else 1
        timer.time(
            "matching_rounds_scipy", matching_rounds, cost,
            repeats=matching_repeats,
        )
        timer.time(
            "matching_rounds_auction", matching_rounds, cost,
            backend="auction", repeats=matching_repeats,
        )

    if include_reference and num_procs <= reference_max_p:
        timer.time(
            "greedy_steps_reference", reference.greedy_steps_reference, cost
        )
        timer.time(
            "execute_orders_reference",
            reference.execute_orders_on_cost_reference,
            cost,
            orders,
            sizes=problem.sizes,
        )
        timer.time(
            "execute_steps_strict_reference",
            reference.execute_steps_strict_reference,
            cost,
            steps,
            sizes=problem.sizes,
        )
        timer.time(
            "greedy_end_to_end_reference",
            reference.schedule_greedy_reference,
            problem,
        )
        timer.time(
            "openshop_reference", reference.schedule_openshop_reference,
            problem,
        )
    return timer


def run_bench(
    proc_counts: Optional[Sequence[int]] = None,
    *,
    repeats: int = 3,
    smoke: bool = False,
    include_reference: bool = True,
    matching_max_p: int = DEFAULT_MATCHING_MAX_P,
    reference_max_p: int = DEFAULT_REFERENCE_MAX_P,
    seed: int = 0,
    output: Optional[PathLike] = None,
) -> Dict[str, Any]:
    """Run the kernel benchmarks and return (and optionally write) results.

    ``smoke`` swaps in tiny sizes and a single repeat so CI can exercise
    the whole path in seconds.  With ``output``, the result is written as
    JSON (``BENCH_core.json`` at the repo root by convention).
    """
    if smoke:
        proc_counts = SMOKE_PROC_COUNTS if proc_counts is None else proc_counts
        repeats = 1
    elif proc_counts is None:
        proc_counts = DEFAULT_PROC_COUNTS

    kernels: Dict[str, Dict[str, Any]] = {}
    speedups: Dict[str, Dict[str, float]] = {}
    for num_procs in proc_counts:
        timer = _bench_one_size(
            int(num_procs),
            repeats=repeats,
            include_reference=include_reference,
            matching_max_p=matching_max_p,
            reference_max_p=reference_max_p,
            seed=seed,
        )
        kernels[str(num_procs)] = timer.summary()
        per_p = {}
        for name, ref_name in REFERENCE_OF.items():
            if name in timer.timings and ref_name in timer.timings:
                per_p[name] = timer.speedup(ref_name, name)
        if per_p:
            speedups[str(num_procs)] = per_p

    result: Dict[str, Any] = {
        "meta": {
            "generated_by": "repro.perf.bench",
            "timestamp": time.time(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "proc_counts": [int(p) for p in proc_counts],
            "repeats": repeats,
            "matching_max_p": matching_max_p,
            "reference_max_p": reference_max_p,
            "smoke": smoke,
            "seed": seed,
            "workload": "mixed (1 kB / 1 MB)",
        },
        "kernels": kernels,
        "speedups_vs_reference": speedups,
    }
    if output is not None:
        write_bench_json(result, output)
    return result


def write_bench_json(result: Dict[str, Any], path: PathLike) -> pathlib.Path:
    """Write a bench result as pretty-printed JSON."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def update_bench_json(
    section: str, payload: Dict[str, Any], path: PathLike
) -> pathlib.Path:
    """Merge ``payload`` under ``extra[section]`` of an existing bench file.

    Lets external measurements (e.g. the P=256 benchmark scale point)
    land in the same ``BENCH_core.json`` the bench runner maintains.  A
    missing or unreadable file starts fresh rather than failing.
    """
    path = pathlib.Path(path)
    data: Dict[str, Any] = {}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict):
                data = loaded
        except (OSError, json.JSONDecodeError):
            data = {}
    data.setdefault("extra", {})[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def render_bench(result: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`run_bench` result."""
    from repro.util.tables import format_table

    rows = []
    for p_label, timings in result["kernels"].items():
        per_p_speedups = result.get("speedups_vs_reference", {}).get(
            p_label, {}
        )
        for name, timing in timings.items():
            speedup = per_p_speedups.get(name)
            rows.append([
                int(p_label),
                name,
                timing["best_s"],
                timing["mean_s"],
                f"{speedup:.1f}x" if speedup is not None else "-",
            ])
    return format_table(
        ["P", "kernel", "best (s)", "mean (s)", "speedup vs seed"],
        rows,
        precision=4,
        title="repro.perf kernel benchmarks",
    )
