"""The bench tiers, declared once.

``BENCH_core.json`` keeps the repo's guarded claims under ``extra``:
one record per tier and size, e.g. ``scale_p2048`` or
``drift_response_p256``.  :data:`TIERS` is the single table that says,
for each tier, which runner in :mod:`repro.perf.bench` measures it,
which ``extra`` key prefix its records land under, and which guard rows
judge a fresh record against the committed one.  ``bench --tier
NAME[:p=N]`` runs tiers from this table and
:func:`repro.perf.regression.bench_regressions` judges every record by
it, so adding a tier is adding one entry here.

A guard row is ``(metric path, kind, bound)``.  The path is
``/``-separated into the record; a leading ``*`` stands for every entry
of the record except ``meta`` (one row per scheduler or collective).
Relative kinds take their tolerance from ``bench_regressions``:

* ``quality`` — lower is better and deterministic given the seed:
  fails above ``committed * (1 + quality_rtol)``;
* ``quality_min`` — the same for higher-is-better ratios: fails below
  ``committed * (1 - quality_rtol)``;
* ``seconds`` — wall clock, machine dependent: fails above
  ``committed * seconds_factor``;
* ``speedup`` — a ratio of two latencies on one machine: fails below
  ``committed / speedup_factor``.

Absolute kinds (``<=``, ``<``, ``>=``, ``==``) hold the fresh value to
the row's fixed bound and need no committed baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.perf.bench import (
    run_allreduce_straggler_serve,
    run_collectives_bench,
    run_daemon_load,
    run_daemon_ps_fanin,
    run_drift_response,
    run_hier_scale,
    run_soak_smoke,
)
from repro.util.spec import parse_spec

__all__ = [
    "Guard",
    "TIERS",
    "Tier",
    "parse_tier",
    "render_record",
    "scale_key",
    "tier_of",
]

Records = Dict[str, Dict[str, Any]]


class Guard(NamedTuple):
    """One guard row; ``why`` is appended to its violation message."""

    path: str
    kind: str
    bound: Any = None
    why: str = ""


@dataclass(frozen=True)
class Tier:
    """One bench tier: how to run it, where it lands, how it is judged.

    ``run(p, seed=, ops_dir=)`` returns the fresh records keyed by their
    ``extra`` key; ``p=None`` means the runner's default sizes.
    """

    name: str
    key: str
    run: Callable[..., Records]
    guards: Tuple[Guard, ...]
    options: Tuple[str, ...] = ("p",)


def _ladder(runner, key: Callable[[int], str]):
    """Adapter for the runners that take a P ladder and return
    ``{"P": record}``."""

    def run(p: Optional[int], *, seed: int, ops_dir=None) -> Records:
        results = runner(*([(p,)] if p else []), seed=seed)
        return {key(int(label)): record for label, record in results.items()}

    return run


def scale_key(p: int) -> str:
    """The ``extra`` key of a hierarchical rung: the flat ladder owns
    ``scale_p{P}`` up to P=1024."""
    return f"scale_p{p}" if p > 1024 else f"scale_hier_p{p}"


def _straggler(p: Optional[int], *, seed: int, ops_dir=None) -> Records:
    record = run_allreduce_straggler_serve(*([p] if p else []), seed=seed)
    procs = record["meta"]["num_procs"]
    return {f"collectives_allreduce_straggler_p{procs}": record}


def _daemon(runner, prefix: str):
    """Adapter for the daemon tiers; ``p`` is processors per tenant."""

    def run(p: Optional[int], *, seed: int, ops_dir=None) -> Records:
        record = runner(**({"procs": p} if p else {}))
        return {f"{prefix}{record['meta']['tenants']}": record}

    return run


def _soak(p: Optional[int], *, seed: int, ops_dir=None) -> Records:
    return {"soak_smoke": run_soak_smoke(seed=seed, ops_dir=ops_dir)}


TIERS: Dict[str, Tier] = {tier.name: tier for tier in (
    Tier(
        "hier", "scale_", _ladder(run_hier_scale, scale_key),
        (
            Guard("*/ratio_to_lb", "quality"),
            Guard("*/seconds", "seconds"),
            Guard("hierarchical/ratio_to_lb", "<=", 1.25),
        ),
    ),
    Tier(
        "drift", "drift_response_p",
        _ladder(run_drift_response, lambda p: f"drift_response_p{p}"),
        (
            Guard("makespan_ratio_max", "quality"),
            Guard("makespan_ratio_max", "<=", 1.10),
            Guard("speedup_p50", "speedup"),
            Guard("repair/p50_s", "seconds", why="repair p50 latency"),
        ),
    ),
    Tier(
        "collectives", "collectives_",
        _ladder(run_collectives_bench, lambda p: f"collectives_p{p}"),
        (
            Guard("*/completion_s", "quality"),
            Guard("*/seconds", "seconds"),
            Guard("broadcast_log_vs_binomial", "quality_min"),
            Guard("broadcast_log_vs_binomial", ">=", 1.0),
            Guard("allreduce_pipelined_vs_lockstep", "quality_min"),
            Guard("allreduce_pipelined_vs_lockstep", ">=", 1.0),
        ),
    ),
    Tier(
        "straggler", "collectives_allreduce_straggler_p", _straggler,
        (
            Guard("makespan/degradation_max", "quality"),
            Guard("makespan/degradation_max", ">=", 2.0,
                  "straggler injection had no visible effect"),
            Guard("tick_latency/p50_s", "seconds", why="tick latency p50"),
        ),
    ),
    Tier(
        "daemon", "daemon_load_t",
        _daemon(run_daemon_load, "daemon_load_t"), (),
    ),
    Tier(
        "ps-fanin", "daemon_ps_fanin_t",
        _daemon(run_daemon_ps_fanin, "daemon_ps_fanin_t"), (),
    ),
    Tier(
        "soak", "soak_", _soak,
        (
            Guard("ok", "==", True, "soak verdict was not OK"),
            Guard("oracle_violations", "==", 0, "oracle violations"),
            Guard("daemon/dropped", "==", 0),
            Guard("daemon/zero_loss", "==", True,
                  "accepted != served across restart"),
            Guard("daemon/restart_bit_identical", "==", True,
                  "daemon state changed across restart"),
            Guard("backup_bit_identical", "==", True,
                  "backup payload not bit-identical"),
            Guard("alerts_fired", ">=", 1, "canary never fired"),
            Guard("alerts_resolved", ">=", 1, "canary never resolved"),
            Guard("store/sealed_segments", ">=", 1,
                  "metrics store never rotated a segment"),
            Guard("wall_s", "seconds", why="wall time"),
            Guard("wall_s", "<", 120.0, "wall time budget"),
        ),
        options=(),
    ),
)}


def tier_of(key: str) -> Optional[Tier]:
    """The tier an ``extra`` record key belongs to (longest key prefix)."""
    matches = [tier for tier in TIERS.values() if key.startswith(tier.key)]
    return max(matches, key=lambda tier: len(tier.key), default=None)


def parse_tier(spec: str) -> Tuple[Tier, Optional[int]]:
    """``"hier:p=2048" -> (TIERS["hier"], 2048)``; ``p`` is optional.

    Raises ``KeyError`` for an unknown tier and ``ValueError`` for any
    option the tier does not take or a ``p`` that is not a positive
    integer; both messages name the bad token.
    """
    name, options = parse_spec(spec, TIERS, kind="tier")
    tier = TIERS[name]
    for key in options:
        if key not in tier.options:
            takes = ", ".join(tier.options) or "no options"
            raise ValueError(
                f"unknown option {key!r} in tier spec {spec!r}; "
                f"tier {name!r} takes {takes}"
            )
    p = options.get("p")
    if p is not None and (
        isinstance(p, bool) or not isinstance(p, int) or p < 1
    ):
        raise ValueError(
            f"bad p={p!r} in tier spec {spec!r}; expected a positive integer"
        )
    return tier, p


def render_record(key: str, record: Dict[str, Any]) -> str:
    """One generic ``metric | value`` table of a record's scalar leaves."""
    from repro.util.tables import format_table

    rows = []

    def walk(node: Dict[str, Any], prefix: str) -> None:
        for name, value in node.items():
            if isinstance(value, dict):
                if name != "meta":
                    walk(value, f"{prefix}{name}/")
            elif isinstance(value, (bool, int, float, str)):
                rows.append([f"{prefix}{name}", value])

    walk(record, "")
    return format_table(["metric", "value"], rows, precision=4, title=key)
