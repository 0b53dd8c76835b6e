"""S6 — the hierarchical scale ladder: P = 1024 through P = 8192.

The flat open shop holds ratio ~1.001 but needs ~6.4 s at P = 1024
(``scale_p1024``) and is out of reach beyond that.  On cluster-structured
platforms the hierarchical scheduler replaces the interpreted per-event
loop with a cluster-level open shop over vectorized caterpillar block
rounds — these benches record how far that pushes the ladder and what it
costs in schedule quality (ratio to the lower bound).

Results land in ``BENCH_core.json``: the P = 1024 head-to-head under
``extra["scale_hier_p1024"]`` (the flat benchmarks own ``scale_p1024``),
and the new tiers under ``extra["scale_p2048"]`` /  ``scale_p4096`` /
``scale_p8192``.
"""

import pathlib

from benchmarks.conftest import run_once
from repro.perf.bench import run_hier_scale, update_bench_json
from repro.perf.tiers import scale_key
from repro.util.tables import format_table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_core.json"


def _record(results):
    for p_label, tier in results.items():
        update_bench_json(scale_key(int(p_label)), tier, BENCH_JSON)


def _rows(results):
    rows = []
    for p_label, tier in results.items():
        for name, stats in tier.items():
            if name == "meta":
                continue
            rows.append([
                int(p_label), name, stats["seconds"], stats["ratio_to_lb"],
            ])
    return rows


def test_scale_hier_p1024(report, benchmark):
    """Head-to-head against the flat open shop at the P = 1024 wall."""

    results = run_once(benchmark, run_hier_scale, (1024,))
    _record(results)
    report(
        "scale_hier_p1024",
        format_table(
            ["P", "scheduler", "seconds", "ratio to LB"],
            _rows(results),
            precision=4,
            title="S6: hierarchical vs flat open shop at P=1024",
        ),
    )
    tier = results["1024"]
    hier, flat = tier["hierarchical"], tier["openshop"]
    # The headline acceptance numbers: >= 4x faster at <= 1.10x the LB.
    assert hier["ratio_to_lb"] <= 1.10
    assert hier["seconds"] * 4 <= flat["seconds"]
    # The flat open shop still wins on pure quality.
    assert flat["ratio_to_lb"] <= hier["ratio_to_lb"]


def test_scale_beyond_the_wall(report, benchmark):
    """P in {2048, 4096, 8192}: sizes the flat open shop cannot reach."""

    results = run_once(benchmark, run_hier_scale, (2048, 4096, 8192))
    _record(results)
    report(
        "scale_hier_ladder",
        format_table(
            ["P", "scheduler", "seconds", "ratio to LB"],
            _rows(results),
            precision=4,
            title="S6: hierarchical scale ladder P=2048..8192",
        ),
    )
    for tier in results.values():
        assert tier["hierarchical"]["ratio_to_lb"] <= 1.25
    # P=4096 must come in under the flat open shop's 6.4 s P=1024 figure.
    assert results["4096"]["hierarchical"]["seconds"] < 6.4
