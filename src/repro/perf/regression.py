"""Bench regression guard: fresh measurements vs. the committed record.

``BENCH_core.json`` is committed so the repo carries its own
performance claims — schedule quality (``ratio_to_lb``,
``makespan_ratio_max``) and wall-clock latency per tier.  CI
re-measures a subset of those tiers on every push; this module turns
"did it regress?" into an explicit, tunable comparison driven by the
guard rows of :data:`repro.perf.tiers.TIERS`.

Two kinds of numbers get two kinds of tolerance:

* **quality** — deterministic given the seed, so it is compared
  tightly (``quality_rtol``, default 5%).  A quality regression means
  an algorithm change, never machine noise.
* **latency** — CI machines are slower and noisier than the machine
  that wrote the committed record, so seconds are compared loosely
  (``seconds_factor``, default 5x) and latency *ratios* (the drift
  bench's repair-vs-full speedup, machine speed mostly cancelled) get
  an intermediate ``speedup_factor``.

Absolute rows (the hierarchical ``ratio_to_lb <= 1.25``, the soak's
zero-violation guarantees, ...) need no baseline.

The entry point is :func:`bench_regressions`: give it the committed
and fresh ``extra`` payloads and it returns one human-readable
violation string per violated metric — an empty list is a pass.
Load the committed record *before* re-running any bench that writes to
the same path, or the guard compares the fresh file with itself.
"""

from __future__ import annotations

import json
import operator
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.perf.tiers import tier_of

__all__ = ["bench_regressions", "load_bench"]

#: relative kind -> (fails(committed, fresh, tolerance), allowance text)
_RELATIVE = {
    "quality": (lambda old, new, tol: new > old * (1.0 + tol), "rtol {:.0%}"),
    "quality_min": (
        lambda old, new, tol: new < old * (1.0 - tol), "rtol {:.0%}"
    ),
    "seconds": (lambda old, new, tol: new > old * tol, "{:.0f}x"),
    "speedup": (lambda old, new, tol: new < old / tol, "{:.0f}x slack"),
}

#: absolute kind -> holds(fresh, bound)
_ABSOLUTE = {
    "<=": operator.le, "<": operator.lt, ">=": operator.ge, "==": operator.eq,
}

_MISSING = object()


def load_bench(path) -> Dict[str, Any]:
    """Load a bench JSON record (the committed baseline, typically)."""
    with open(path) as handle:
        return json.load(handle)


def _expand(pattern: str, record: Dict[str, Any]) -> Iterator[str]:
    """Concrete metric paths of a guard row; ``*`` is every non-meta
    entry of ``record``."""
    head, _, rest = pattern.partition("/")
    if head != "*":
        yield pattern
        return
    for entry, value in record.items():
        if entry != "meta" and isinstance(value, dict):
            yield f"{entry}/{rest}"


def _lookup(record: Dict[str, Any], path: str) -> Tuple[Any, str]:
    """``(value, path)``, or ``(_MISSING, first missing path prefix)``."""
    node: Any = record
    parts = path.split("/")
    for depth, part in enumerate(parts):
        if not isinstance(node, dict) or part not in node:
            return _MISSING, "/".join(parts[: depth + 1])
        node = node[part]
    return node, path


def _fmt(value: Any) -> str:
    return f"{value:.4g}" if isinstance(value, float) else repr(value)


def bench_regressions(
    committed_extra: Optional[Dict[str, Any]],
    fresh_extra: Optional[Dict[str, Any]],
    *,
    quality_rtol: float = 0.05,
    seconds_factor: float = 5.0,
    speedup_factor: float = 3.0,
) -> List[str]:
    """One violation string per violated metric of every fresh record.

    Each record is judged by the guard rows of the tier its key
    resolves to.  Relative rows only run where the committed record
    has the tier and the metric: the committed record holds more
    tiers than any single CI job re-measures, and a brand-new tier has
    no baseline yet.  Absolute rows hold every fresh record.  A metric
    the baseline has but the fresh record lacks is reported as
    disappeared; a metric that breaks several rows is reported once.
    """
    tolerance = {
        "quality": quality_rtol,
        "quality_min": quality_rtol,
        "seconds": seconds_factor,
        "speedup": speedup_factor,
    }
    problems: List[str] = []
    for name, fresh in sorted((fresh_extra or {}).items()):
        tier = tier_of(name)
        if tier is None or not isinstance(fresh, dict):
            continue
        committed = (committed_extra or {}).get(name)
        if not isinstance(committed, dict):
            committed = None
        reasons: Dict[str, List[str]] = {}
        for guard in tier.guards:
            relative = guard.kind in _RELATIVE
            if relative and committed is None:
                continue
            for path in _expand(guard.path, committed if relative else fresh):
                old = (
                    _MISSING if committed is None
                    else _lookup(committed, path)[0]
                )
                if relative and old is _MISSING:
                    continue
                new, where = _lookup(fresh, path)
                if new is _MISSING:
                    if old is not _MISSING:
                        reasons.setdefault(where, ["disappeared"])
                    continue
                if relative:
                    fails, allowance = _RELATIVE[guard.kind]
                    tol = tolerance[guard.kind]
                    if not fails(old, new, tol):
                        continue
                    detail = (
                        f"regressed {_fmt(old)} -> {_fmt(new)} "
                        f"(allowed {allowance.format(tol)})"
                    )
                elif _ABSOLUTE[guard.kind](new, guard.bound):
                    continue
                else:
                    detail = (
                        f"is {_fmt(new)}, must be {guard.kind} "
                        f"{_fmt(guard.bound)}"
                    )
                if guard.why:
                    detail += f": {guard.why}"
                reasons.setdefault(path, []).append(detail)
        for path in sorted(reasons):
            problems.append(f"{name}: {path} {'; '.join(reasons[path])}")
    return problems
