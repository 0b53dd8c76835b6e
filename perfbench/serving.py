"""Serving workloads: the daemon as users run it, driven open loop.

The daemon runs in a child process exactly as a user starts it —
``python -m repro.cli daemon --socket PATH`` with default settings —
and this process is the single-threaded generator that drives it over
two connections.  Requests leave on a seeded Poisson schedule whether
or not earlier ones were answered, and each request's latency runs from
the time it was *due*, so a stall shows on every request it delays.

These numbers are not comparable with ``BENCH_core.json``'s
``daemon_load_t100`` tier, whose closed-loop generator runs inside the
daemon's own process and shares its interpreter lock.

A timed run (``trace=0``) measures, in order:

1. set-up: spawn the daemon, open every tenant, warm each one up (done
   twice more after the run; the median is reported);
2. the nominal phase: open-loop Poisson load at the workload's nominal
   rate for ``seconds``, and at least :data:`MIN_REQUESTS` requests —
   latency, daemon CPU per request, decision mix.

A traced run (``trace=1``) serves the nominal phase twice.  A plain
daemon gives ``latency_tail_ms`` (the p99 of every nominal request; see
``perfbench/run.py`` for why it is not bounded), the untraced
response-field and ``/proc`` metrics, then
the saturation phase: a closed loop keeping :data:`INFLIGHT` requests
unanswered, whose throughput is ``max_rate_rps`` — the highest offered
rate the daemon sustains without a growing backlog.  A daemon started
through ``perfbench/daemon_main.py`` then serves the same phase, and
its spans give the per-layer breakdown.

``max_rate_rps`` is reported without the p99 <= 50 ms condition the
rate would ideally meet, and without a bound: the p99 of a short
constant-rate step is set by rare events (a cohort's staleness-cap
refines arriving together), so step verdicts did not repeat from run to
run, and even the saturation throughput moved by a third between runs.
Each timed run prints the share of nominal requests over the limit
instead.
"""

from __future__ import annotations

import gc
import math
import os
import selectors
import socket
import subprocess
import sys
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import layers, procfs, stats
from perfbench.result import Result
from perfbench.spans import load_spans
from repro.core.problem import TotalExchangeProblem
from repro.directory.factory import make_directory
from repro.serve import protocol
from repro.serve.client import DaemonClient
from repro.serve.protocol import ErrorResponse, ScheduleResponse
from repro.serve.tenants import make_workload_sizes

#: The serving latency limit on p99; each run reports the share of
#: nominal requests over it.
LIMIT_S = 0.050
#: Directory seconds each request advances its tenant's clock.
DT = 1.0
#: Load connections: at most two, as the daemon serves from one process.
CONNECTIONS = 2
#: Fewest requests in the nominal phase: their p99 has ten samples
#: beyond it.
MIN_REQUESTS = 1000
#: Unanswered requests the saturation phase keeps in flight (well under
#: the daemon's default admission limit of 256).
INFLIGHT = 64
#: Median generator lateness beyond which a run is rejected (p99
#: lateness is held to the latency limit).
LATE_MEDIAN_S = 0.002
#: How long the idle probe holds the load connections open.
IDLE_PROBE_S = 2.0
#: Set-ups per timed run (the median is reported).
SETUPS = 3
#: Directory ticks past the last request a tenant can be sent.
TICK_MARGIN = 2
#: Both serving workloads use the paper's small/large message mix and
#: the open-shop scheduler.
SIZES, SCHEDULER = "mixed", "openshop"


@dataclass(frozen=True)
class ServingWorkload:
    name: str
    tenants: int
    cohorts: int
    procs: int
    directory: str
    rate_rps: float
    #: Requests in the saturation phase.
    saturation_requests: int
    #: Cohort clocks are staggered over this many ticks at set-up (see
    #: :func:`stagger`).
    stagger: int

    @property
    def mean_burst(self) -> float:
        return self.tenants / self.cohorts


SERVE_COHORTS = ServingWorkload(
    "serve_cohorts", tenants=100, cohorts=16, procs=6,
    directory="drift:sigma=0.02", rate_rps=200.0, saturation_requests=2000,
    stagger=9,
)


@dataclass(frozen=True)
class Tenant:
    name: str
    cohort: int
    seed: int
    trace_seed: int


def plan_tenants(
    workload: ServingWorkload, rng: np.random.Generator
) -> Tuple[List[Tenant], List[List[str]]]:
    """Tenants and cohort membership, all drawn from ``rng``.  Members
    of a cohort share the open seed and the trace seed, so they plan the
    same problem every tick and the daemon can batch them."""
    seeds = rng.integers(1, 2**31 - 1, size=(workload.cohorts, 2))
    tenants: List[Tenant] = []
    members: List[List[str]] = [[] for _ in range(workload.cohorts)]
    for position, index in enumerate(rng.permutation(workload.tenants).tolist()):
        cohort = position % workload.cohorts
        name = f"t{index:03d}"
        tenants.append(
            Tenant(name, cohort, int(seeds[cohort, 0]), int(seeds[cohort, 1]))
        )
        members[cohort].append(name)
    return sorted(tenants, key=lambda t: t.name), members


def stagger(
    workload: ServingWorkload, rng: np.random.Generator
) -> List[Tuple[float, int]]:
    """Warm-up bursts that leave each cohort's clock at a seeded offset
    in ``[0, stagger)`` ticks: every tenant gets one warm-up request,
    and a cohort at offset ``k`` gets ``k`` more.

    Every tenant refines when its reuse streak hits the policy's cap, so
    tenants opened together would all refine on the same tick, forever.
    Cohorts of independent users start at different times; staggering
    their clocks over the refine period (the cap plus one tick) spreads
    that work the way independent start times would.  Each cohort's own
    members still refine together, in one burst.
    """
    offsets = rng.permutation(workload.cohorts) % workload.stagger
    return [
        (0.0, cohort)
        for round_ in range(workload.stagger)
        for cohort in range(workload.cohorts)
        if offsets[cohort] >= round_
    ]


def poisson_bursts(
    rng: np.random.Generator,
    workload: ServingWorkload,
    members: Sequence[Sequence[str]],
    requests: int,
) -> List[Tuple[float, int]]:
    """Cohort bursts arriving as a Poisson process that carries the
    workload's nominal rate, until they hold ``requests`` requests.

    Cohorts are picked in back-to-back seeded permutations, so every
    cohort's clock advances at the same pace.
    """
    bursts: List[Tuple[float, int]] = []
    mean_gap = workload.mean_burst / workload.rate_rps
    t = count = 0.0
    while count < requests:
        for cohort in rng.permutation(workload.cohorts).tolist():
            if count >= requests:
                break
            t += rng.exponential(mean_gap)
            bursts.append((t, cohort))
            count += len(members[cohort])
    return bursts


# -- the daemon child ----------------------------------------------------------


class DaemonChild:
    """One daemon process, started the way a user starts it."""

    def __init__(self, root: str, workdir: str, tag: str,
                 spans_path: Optional[str] = None):
        # Relative to the checkout (both processes run there): unix
        # socket paths are limited to about a hundred bytes.
        self.address = os.path.join(os.path.relpath(workdir, root), f"{tag}.sock")
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli"]
        else:
            command = [sys.executable, os.path.join("perfbench", "daemon_main.py"),
                       spans_path]
        command += ["daemon", "--socket", self.address]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
        self.log_path = os.path.join(workdir, f"{tag}.log")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=log
            )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early: {self.log_tail()}")
            try:
                with DaemonClient(self.address, timeout_s=5.0) as client:
                    client.hello()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon did not come up") from None
                time.sleep(0.01)

    def stats(self) -> dict:
        with DaemonClient(self.address, timeout_s=30.0) as client:
            return client.stats()

    def shutdown(self) -> None:
        with DaemonClient(self.address, timeout_s=30.0) as client:
            client.shutdown()
        self.proc.wait(timeout=30.0)

    def stop(self) -> None:
        """Make sure the child is gone (after an error, or always)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30.0)

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")


# -- the open-loop generator ---------------------------------------------------


@dataclass
class Record:
    tenant: str
    due: float
    sent: float = 0.0
    recv: Optional[float] = None
    line: Optional[bytes] = None
    response: object = None

    @property
    def latency(self) -> float:
        if isinstance(self.response, ScheduleResponse):
            return self.recv - self.due
        return math.inf  # refused or unanswered: misses every limit


@dataclass
class Phase:
    records: List[Record]
    start: float
    end: float
    #: Answers that named no tenant (refusals).
    errors: List[bytes] = field(default_factory=list)

    def throughput(self) -> float:
        """Answered requests per second, first send to last answer."""
        answered = [r.recv for r in self.records if r.recv is not None]
        first = min(r.sent for r in self.records)
        return len(answered) / (max(answered) - first)


class Generator:
    """Single-threaded load generator over :data:`CONNECTIONS` sockets.

    All of a cohort's requests go down one connection, back to back, so
    they sit in the daemon's queue together and batching has something
    to group.
    """

    def __init__(self, address: str, tenants: Sequence[Tenant]):
        self.socks: List[socket.socket] = []
        self.selector = selectors.DefaultSelector()
        for index in range(CONNECTIONS):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.socks.append(sock)
            sock.connect(address)
            self.selector.register(sock, selectors.EVENT_READ, index)
        self.lines = {
            t.name: protocol.encode_message(
                protocol.ScheduleRequest(tenant=t.name, dt=DT)
            )
            for t in tenants
        }
        self.conn_of = {t.name: t.cohort % CONNECTIONS for t in tenants}
        self.buffers = [bytearray() for _ in self.socks]

    def close(self) -> None:
        self.selector.close()
        for sock in self.socks:
            sock.close()

    def run(
        self,
        bursts: Sequence[Tuple[float, int]],
        members: Sequence[Sequence[str]],
        *,
        inflight: Optional[int] = None,
        drain_s: float = 30.0,
    ) -> Phase:
        """Send every burst; return once every request is answered, or
        ``drain_s`` after the last one went out.

        Open loop (the default): each burst leaves at its offset from
        now, and is due then.  Closed loop (``inflight``): the offsets
        are ignored and the next burst leaves as soon as it fits under
        ``inflight`` unanswered requests; it is due when it leaves.
        """
        collecting = gc.isenabled()
        gc.disable()  # a collection here would delay receipts, not the daemon
        try:
            return self._run(bursts, members, inflight, drain_s)
        finally:
            if collecting:
                gc.enable()

    def _run(self, bursts, members, inflight, drain_s) -> Phase:
        clock = time.monotonic
        start = clock() + 0.05
        records: List[Record] = []
        # The daemon answers each tenant's requests in order but may
        # answer tenants out of order (a batch answers its digest groups
        # first), so an answer is matched by the tenant it names.  An
        # error (a refusal) names none: it is kept as an error line, and
        # the request it refused stays unanswered, so it counts failed.
        by_tenant: Dict[str, Deque[Record]] = {t: deque() for t in self.lines}
        errors: List[bytes] = []
        outstanding = index = 0
        last_sent = start
        while True:
            now = clock()
            while index < len(bursts):
                offset, cohort = bursts[index]
                tenants = members[cohort]
                if inflight is None:
                    if start + offset > now:
                        break
                    due = start + offset
                elif outstanding + len(tenants) > inflight:
                    break
                else:
                    due = now
                out = [bytearray() for _ in self.socks]
                burst = []
                for tenant in tenants:
                    conn = self.conn_of[tenant]
                    out[conn] += self.lines[tenant]
                    record = Record(tenant, due)
                    by_tenant[tenant].append(record)
                    burst.append(record)
                sent = clock()
                for conn, data in enumerate(out):
                    if data:
                        self.socks[conn].sendall(data)
                for record in burst:
                    record.sent = sent
                records.extend(burst)
                outstanding += len(burst)
                index += 1
                last_sent = now = clock()
            done_sending = index >= len(bursts)
            if done_sending and (not outstanding or now > last_sent + drain_s):
                break
            # Open loop: poll, never sleep.  A process that sleeps on a
            # shared VM wakes up late by a varying amount (and the epoll
            # timeout alone rounds up to a whole millisecond), which would
            # be measured as daemon latency.  Polling only while answers
            # were outstanding still spread p50 twice as wide.
            wait = 0.2 if inflight is not None else 0.0
            for key, _ in self.selector.select(wait):
                conn = key.data
                chunk = self.socks[conn].recv(1 << 16)
                if not chunk:
                    raise ConnectionError("daemon closed a load connection")
                got = clock()
                buffer = self.buffers[conn]
                buffer += chunk
                newline = buffer.find(b"\n")
                while newline >= 0:
                    line = bytes(buffer[:newline])
                    del buffer[: newline + 1]
                    record = _answered(line, by_tenant)
                    if record is None:
                        errors.append(line)
                    else:
                        record.line = line
                        record.recv = got
                    outstanding -= 1
                    newline = buffer.find(b"\n")
        return Phase(records, start, clock(), errors)


_TENANT_KEY = b'"tenant":"'


def _answered(line: bytes, by_tenant: Dict[str, Deque[Record]]) -> Optional[Record]:
    """The request ``line`` answers: the oldest unanswered one of the
    tenant it names.  An error names no tenant and answers none."""
    at = line.find(_TENANT_KEY)
    if at < 0:
        return None
    at += len(_TENANT_KEY)
    queue = by_tenant.get(line[at: line.index(b'"', at)].decode("utf-8"))
    return queue.popleft() if queue else None


# -- checking responses --------------------------------------------------------


class Checker:
    """Validates every response and tracks each tenant's tick."""

    def __init__(self) -> None:
        self.next_tick: Dict[str, int] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, phase: "Phase") -> None:
        """Decode each answer into ``record.response`` and count an
        unanswered request as failed; every refusal must carry a
        ``retry_after_s`` hint."""
        for line in phase.errors:
            try:
                response = protocol.decode_response(line)
            except protocol.ProtocolError as exc:
                self.problem(f"malformed response: {exc}")
                continue
            if not isinstance(response, ErrorResponse):
                self.problem(f"answer names no tenant: {line[:80]!r}")
            elif response.code in ("saturated", "draining") and (
                response.retry_after_s is None
            ):
                self.problem(f"{response.code} refusal without retry_after_s")
        for record in phase.records:
            self.attempted += 1
            if record.line is None:
                self.failed += 1
                continue
            try:
                response = protocol.decode_response(record.line)
            except protocol.ProtocolError as exc:
                self.problem(f"malformed response: {exc}")
                self.failed += 1
                continue
            record.response = response
            if not isinstance(response, ScheduleResponse):
                self.problem(f"unexpected {type(response).__name__}")
                self.failed += 1
                continue
            expected = self.next_tick.get(record.tenant, 0)
            if response.tenant != record.tenant or response.tick != expected:
                self.problem(
                    f"{record.tenant}: got {response.tenant} tick "
                    f"{response.tick}, expected tick {expected}"
                )
            self.next_tick[record.tenant] = response.tick + 1
            if response.decision not in layers.DECISIONS:
                self.problem(f"unknown decision {response.decision!r}")
            if not (response.executed_s > 0 and math.isfinite(response.executed_s)):
                self.problem(f"bad makespan {response.executed_s}")

    def final(self, result: Result, daemon_stats: dict, prefix: str = "") -> None:
        counters = daemon_stats["counters"]
        served = counters["served"]
        result.check(f"{prefix}accepted == served",
                     counters["accepted"] == served,
                     f"accepted {counters['accepted']}, served {served}")
        result.check(f"{prefix}no internal errors", counters["internal_errors"] == 0,
                     f"{counters['internal_errors']} internal errors")
        result.check(f"{prefix}responses well formed", not self.problems,
                     "; ".join(self.problems[:5]))
        result.check(f"{prefix}attempted == succeeded + failed",
                     self.attempted == served + self.failed,
                     f"attempted {self.attempted}, served {served}, "
                     f"failed {self.failed}")


def directory_spec(workload: ServingWorkload, tenant: Tenant, ticks: int) -> str:
    """The tenant's directory: a drift trace long enough that its clock
    never reaches the last snapshot, after which it would stop changing."""
    return f"{workload.directory},ticks={ticks},seed={tenant.trace_seed}"


def lower_bounds(
    workload: ServingWorkload, tenant: Tenant, ticks: int, count: int
) -> List[float]:
    """The lower bound of the tenant's first ``count`` ticks, recomputed
    from its specs with the public directory and workload factories."""
    directory = make_directory(
        directory_spec(workload, tenant, ticks),
        num_procs=workload.procs, rng=tenant.seed,
    )
    sizes = make_workload_sizes(
        SIZES, workload.procs, rng=np.random.default_rng(tenant.seed)
    )
    bounds = []
    for _ in range(count):
        directory.advance(DT)
        problem = TotalExchangeProblem.from_snapshot(directory.snapshot(), sizes)
        bounds.append(problem.lower_bound())
    return bounds


def _successes(records: Sequence[Record]) -> List[Record]:
    return [r for r in records if isinstance(r.response, ScheduleResponse)]


def _nominal_checks(
    result: Result,
    checker: Checker,
    workload: ServingWorkload,
    plan: "Plan",
    phase: Phase,
) -> List[float]:
    """Trace length, makespan, stationarity and generator checks on the
    nominal phase; returns executed makespan / lower bound per request."""
    ticks = plan.ticks
    last_tick = max(checker.next_tick.values())
    result.check("trace covers every request", last_tick < ticks,
                 f"last tick {last_tick - 1} of a {ticks}-tick trace")
    by_name = {t.name: t for t in plan.tenants}
    bounds: Dict[Tuple[int, int], List[float]] = {}
    ratios = []
    below = 0
    served = _successes(phase.records)
    for record in served:
        tenant = by_name[record.tenant]
        key = (tenant.seed, tenant.trace_seed)
        if key not in bounds:
            bounds[key] = lower_bounds(workload, tenant, ticks, last_tick)
        bound = bounds[key][record.response.tick]
        below += record.response.executed_s < bound * (1 - 1e-9)
        ratios.append(record.response.executed_s / bound)
    result.check("makespan >= lower bound", below == 0, f"{below} below")
    decisions = [r.response.decision for r in sorted(served, key=lambda r: r.due)]
    ok, distance, tolerance = stats.stationarity(decisions)
    result.check("stationary decision mix", ok,
                 f"halves differ by {distance:.3f} (tolerance {tolerance:.3f}); "
                 f"mix {stats.decision_mix(decisions)}")
    late = stats.lateness([r.due for r in phase.records],
                          [r.sent for r in phase.records])
    result.check(
        "generator kept its schedule",
        not stats.fell_behind(late, median_limit_s=LATE_MEDIAN_S,
                              p99_limit_s=LIMIT_S),
        f"lateness median {1e3 * stats.percentile(late, 50.0):.2f} ms, "
        f"p99 {1e3 * stats.percentile(late, 99.0):.2f} ms, "
        f"max {1e3 * max(late):.2f} ms",
    )
    return ratios


# -- one service instance ------------------------------------------------------


@dataclass
class Service:
    daemon: DaemonChild
    generator: Generator
    setup_s: float
    warmup: Optional[Phase] = None

    def stop(self) -> dict:
        """The daemon's final stats, then an orderly shutdown."""
        daemon_stats = self.daemon.stats()
        self.generator.close()
        self.daemon.shutdown()
        return daemon_stats

    def close(self) -> None:
        self.generator.close()
        self.daemon.stop()


def start_service(
    workload: ServingWorkload,
    plan: "Plan",
    *,
    root: str,
    workdir: str,
    tag: str,
    spans_path: Optional[str] = None,
) -> Service:
    """Spawn a daemon, open every tenant and warm each one up (staggered,
    see :func:`stagger`); the elapsed time is the set-up time."""
    started = time.monotonic()
    daemon = DaemonChild(root, workdir, tag, spans_path)
    try:
        daemon.wait_ready()
        with DaemonClient(daemon.address, timeout_s=60.0) as client:
            for tenant in plan.tenants:
                client.open(
                    tenant.name,
                    procs=workload.procs,
                    scheduler=SCHEDULER,
                    directory=directory_spec(workload, tenant, plan.ticks),
                    workload=SIZES,
                    seed=tenant.seed,
                )
        generator = Generator(daemon.address, plan.tenants)
        warmup = generator.run(plan.warmup, plan.members, inflight=INFLIGHT)
    except BaseException:
        daemon.stop()
        raise
    return Service(daemon, generator, time.monotonic() - started, warmup)


@dataclass(frozen=True)
class Plan:
    """Everything a run sends, drawn from its seed before it starts."""

    tenants: List[Tenant]
    members: List[List[str]]
    warmup: List[Tuple[float, int]]
    nominal: List[Tuple[float, int]]
    #: Closed-loop bursts (their offsets are unused).
    saturation: List[Tuple[float, int]]
    #: Trace length: the warm-up plus the most requests any tenant can
    #: be sent, plus a margin.
    ticks: int

    @classmethod
    def draw(cls, workload: ServingWorkload, seed: int, seconds: float) -> "Plan":
        rng = np.random.default_rng([seed, 0x5E12E])
        tenants, members = plan_tenants(workload, rng)
        warmup = stagger(workload, rng)
        nominal = poisson_bursts(
            rng, workload, members,
            max(MIN_REQUESTS, round(seconds * workload.rate_rps)),
        )
        saturation = poisson_bursts(
            rng, workload, members, workload.saturation_requests
        )
        per_tenant: Dict[str, int] = {}
        for bursts in (warmup, nominal, saturation):
            for _, cohort in bursts:
                for tenant in members[cohort]:
                    per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
        ticks = max(per_tenant.values()) + TICK_MARGIN
        return cls(tenants, members, warmup, nominal, saturation, ticks)


def run(
    workload: ServingWorkload, *, seed: int, seconds: float, trace: bool,
    root: str, workdir: str,
) -> Result:
    plan = Plan.draw(workload, seed, seconds)
    result = Result(workload.name)
    checker = Checker()
    (_traced if trace else _timed)(
        result, checker, workload, plan, root=root, workdir=workdir
    )
    result.attempted = checker.attempted
    result.failed = checker.failed
    return result


def _timed(result, checker, workload, plan, *, root, workdir) -> None:
    members = plan.members
    service = start_service(workload, plan, root=root, workdir=workdir, tag="timed")
    try:
        setups = [service.setup_s]
        checker.check(service.warmup)
        pid = service.daemon.pid
        cpu_before = procfs.cpu_seconds(pid)
        phase = service.generator.run(plan.nominal, members)
        cpu = procfs.cpu_seconds(pid) - cpu_before
        checker.check(phase)
        rss = procfs.peak_rss_mb(pid)
        daemon_stats = service.stop()
    finally:
        service.close()
    for repeat in range(SETUPS - 1):
        extra = start_service(workload, plan, root=root, workdir=workdir,
                              tag=f"setup{repeat}")
        try:
            setups.append(extra.setup_s)
            extra.stop()
        finally:
            extra.close()

    checker.final(result, daemon_stats)
    ratios = _nominal_checks(result, checker, workload, plan, phase)
    served = _successes(phase.records)
    result.metric("setup_s", statistics.median(setups), "s", len(setups))
    latencies = [1e3 * r.latency for r in phase.records]
    result.metric(
        "latency_p50_ms", statistics.median(latencies), "ms", len(latencies),
        label=f"latency_p50_ms (p99 {_p99(latencies):.1f} ms, "
        f"{100 * _share_over(latencies, 1e3 * LIMIT_S):.2f}% over "
        f"{1e3 * LIMIT_S:g} ms)",
    )
    result.metric("server_cpu_ms_per_req", 1e3 * cpu / len(served), "ms",
                  len(served))
    result.metric("peak_rss_mb", rss, "MB", 1)
    result.metric("makespan_ratio", statistics.fmean(ratios), "ratio", len(ratios))


def _traced(result, checker, workload, plan, *, root, workdir) -> None:
    service = start_service(workload, plan, root=root, workdir=workdir, tag="plain")
    try:
        checker.check(service.warmup)
        plain = service.generator.run(plan.nominal, plan.members)
        checker.check(plain)
        pid = service.daemon.pid
        cpu_before = procfs.cpu_seconds(pid)
        idle_start = time.monotonic()
        time.sleep(IDLE_PROBE_S)
        idle_share = (procfs.cpu_seconds(pid) - cpu_before) / (
            time.monotonic() - idle_start
        )
        saturated = service.generator.run(plan.saturation, plan.members,
                                          inflight=INFLIGHT)
        checker.check(saturated)
        daemon_stats = service.stop()
    finally:
        service.close()
    checker.final(result, daemon_stats)
    _nominal_checks(result, checker, workload, plan, plain)

    spans_path = os.path.join(workdir, "spans.json")
    traced_checker = Checker()
    service = start_service(workload, plan, root=root, workdir=workdir,
                            tag="traced", spans_path=spans_path)
    try:
        traced_checker.check(service.warmup)
        traced = service.generator.run(plan.nominal, plan.members)
        traced_checker.check(traced)
        daemon_stats = service.stop()
    finally:
        service.close()
    traced_checker.final(result, daemon_stats, prefix="traced: ")
    checker.attempted += traced_checker.attempted
    checker.failed += traced_checker.failed

    spans = load_spans(spans_path)
    units = dict(layers.SPAN_METRICS)
    for name, (value, samples) in layers.summarize(
        spans, (traced.start, traced.end)
    ).items():
        result.metric(name, value, units[name], samples)
    served = _successes(plain.records)
    overhead = [1e3 * (r.latency - r.response.decision_latency_s) for r in served]
    result.metric("serve.daemon.overhead_ms.p50", statistics.median(overhead), "ms",
                  len(overhead))
    result.metric("serve.daemon.overhead_ms.p99", _p99(overhead), "ms",
                  len(overhead))
    depth = [float(r.response.queue_depth) for r in served]
    result.metric("serve.daemon.queue_depth.p99", _p99(depth), "count", len(depth))
    result.metric("serve.daemon.batched_share",
                  sum(r.response.batched for r in served) / len(served), "share",
                  len(served))
    result.metric("serve.daemon.idle_cpu_share", idle_share, "share", 1)
    result.metric("max_rate_rps", saturated.throughput(), "req/s",
                  len(saturated.records),
                  label=f"max_rate_rps ({INFLIGHT} in flight)")
    late = stats.lateness([r.due for r in plain.records],
                          [r.sent for r in plain.records])
    result.metric("bench.generator_late_ms.max", 1e3 * max(late), "ms", len(late))
    latencies = [1e3 * r.latency for r in plain.records]
    result.metric(
        "latency_tail_ms", _p99(latencies), "ms", len(latencies),
        label=f"latency_p99_ms ({100 * _share_over(latencies, 1e3 * LIMIT_S):.2f}% "
        f"over {1e3 * LIMIT_S:g} ms)",
    )
    plain_p50 = statistics.median([r.latency for r in plain.records])
    traced_p50 = statistics.median([r.latency for r in traced.records])
    result.metric("bench.trace_overhead_share", traced_p50 / plain_p50 - 1.0,
                  "share", len(traced.records))
    result.metric("bench.span_coverage_share", _coverage(spans, traced.records),
                  "share", len(traced.records))


def _share_over(samples: Sequence[float], limit: float) -> float:
    return sum(1 for x in samples if x > limit) / len(samples)


def _p99(samples: Sequence[float]) -> float:
    """p99 when the samples support it, else 0 (too few to report)."""
    if stats.supported(len(samples), 99.0):
        return stats.percentile(samples, 99.0)
    return 0.0


def _coverage(spans: Sequence[list], records: Sequence[Record]) -> float:
    """Median share of each request's latency its daemon spans account
    for: decode, admission, queue wait and the response (tick, encode,
    send)."""
    by_rid: Dict[Tuple[str, str], list] = {}
    for span in spans:
        if span[4] is not None and span[0] in (
            "serve.protocol.decode", "serve.daemon.admit", "serve.daemon.respond"
        ):
            by_rid[(span[4], span[0])] = span
    shares = []
    for record in _successes(records):
        rid = f"{record.tenant}#{record.response.tick}"
        decode = by_rid.get((rid, "serve.protocol.decode"))
        admit = by_rid.get((rid, "serve.daemon.admit"))
        respond = by_rid.get((rid, "serve.daemon.respond"))
        if decode is None or admit is None or respond is None:
            continue
        accounted = (decode[2] - decode[1]) + (respond[2] - admit[1])
        shares.append(accounted / record.latency)
    return statistics.median(shares) if shares else 0.0
