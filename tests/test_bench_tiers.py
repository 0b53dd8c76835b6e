"""The bench tier table: every committed record has a tier, every guard
row trips on its own, and ``bench --tier`` guards what it measures."""

import copy
import json
import pathlib

import pytest

from repro.cli import main
from repro.perf.regression import bench_regressions, load_bench
from repro.perf.tiers import TIERS, parse_tier, tier_of

COMMITTED = load_bench(
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_core.json"
)["extra"]

ROWS = [(tier, guard) for tier in TIERS.values() for guard in tier.guards]


def _paths(pattern, record):
    head, _, rest = pattern.partition("/")
    if head != "*":
        return [pattern]
    return [
        f"{entry}/{rest}" for entry, value in record.items()
        if entry != "meta" and isinstance(value, dict)
    ]


def _get(record, path):
    node = record
    for part in path.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _set(record, path, value):
    *parents, leaf = path.split("/")
    for part in parents:
        record = record[part]
    record[leaf] = value


def _just_past(guard, committed):
    """A value a hair past ``guard``'s bound (default tolerances)."""
    relative = {
        "quality": committed * 1.05 * 1.001,
        "quality_min": committed * 0.95 * 0.999,
        "seconds": committed * 5.0 * 1.001,
        "speedup": committed / 3.0 * 0.999,
    }
    if guard.kind in relative:
        return relative[guard.kind]
    bound = guard.bound
    if isinstance(bound, bool):
        return not bound
    if guard.kind == "==":
        return bound + 1
    if guard.kind == "<":
        return bound
    step = 1 if isinstance(bound, int) else abs(bound) * 1e-3
    return bound + step if guard.kind == "<=" else bound - step


def test_every_committed_record_resolves_to_a_tier():
    unresolved = [key for key in COMMITTED if tier_of(key) is None]
    assert unresolved == []


def test_longest_prefix_wins():
    assert tier_of("scale_hier_p1024").name == "hier"
    assert tier_of("scale_p256").name == "hier"
    assert tier_of("collectives_p64").name == "collectives"
    assert tier_of("collectives_allreduce_straggler_p512").name == "straggler"


@pytest.mark.parametrize(
    "tier,guard", ROWS,
    ids=[f"{tier.name}:{guard.path}:{guard.kind}" for tier, guard in ROWS],
)
def test_guard_row_trips_alone(tier, guard):
    cases = 0
    for key, record in COMMITTED.items():
        if tier_of(key) is not tier:
            continue
        assert bench_regressions({key: record}, {key: record}) == []
        for path in _paths(guard.path, record):
            value = _get(record, path)
            if value is None:
                continue
            fresh = copy.deepcopy(record)
            _set(fresh, path, _just_past(guard, value))
            problems = bench_regressions({key: record}, {key: fresh})
            assert len(problems) == 1, problems
            assert problems[0].startswith(f"{key}: {path} "), problems
            cases += 1
    assert cases, f"the committed record never exercises {guard}"


@pytest.mark.parametrize("spec,token", [
    ("nope", "nope"),
    ("drift:ticks=4", "ticks"),
])
def test_bench_rejects_bad_tier(spec, token, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--tier", spec])
    assert exc.value.code == 2
    assert token in capsys.readouterr().err


def test_parse_tier():
    assert parse_tier("hier:p=2048") == (TIERS["hier"], 2048)
    assert parse_tier("soak") == (TIERS["soak"], None)
    with pytest.raises(ValueError, match="soak"):
        parse_tier("soak:p=8")


def test_bench_tier_guards_against_the_record_it_replaces(tmp_path, capsys):
    out = tmp_path / "tmp.json"
    argv = ["bench", "--tier", "drift:p=32", "--metrics-out", str(out)]
    # no drift_response_p32 baseline yet: only the absolute rows apply
    assert main(argv) == 0
    record = json.loads(out.read_text())
    tier = record["extra"]["drift_response_p32"]
    # a quality field, never a timing one, so the verdict is exact
    tier["makespan_ratio_max"] /= 2.0
    out.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "drift_response_p32: makespan_ratio_max regressed" in err
