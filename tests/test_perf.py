"""Tests for the ``repro.perf`` benchmark subsystem."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.greedy import schedule_greedy
from repro.perf import (
    KernelTimer,
    ScheduleCache,
    cost_digest,
    problem_digest,
    lower_bound_cached,
    run_bench,
    update_bench_json,
)
from repro.perf.bench import bench_instance, render_bench, write_bench_json
from tests.conftest import random_problem


class TestKernelTimer:
    def test_records_best_and_mean(self):
        timer = KernelTimer(repeats=3)
        result = timer.time("add", lambda a, b: a + b, 2, 3)
        assert result == 5
        timing = timer.timings["add"]
        assert timing.repeats == 3
        assert len(timing.times) == 3
        assert timing.best <= timing.mean
        assert timing.best == min(timing.times)

    def test_speedup_and_summary(self):
        timer = KernelTimer(repeats=1)
        timer.time("fast", lambda: None)
        timer.time("slow", sum, range(200_000))
        assert timer.speedup("slow", "fast") > 1.0
        summary = timer.summary()
        assert set(summary) == {"fast", "slow"}
        assert set(summary["fast"]) == {"best_s", "mean_s", "repeats"}

    def test_measure_context_manager(self):
        timer = KernelTimer()
        with timer.measure("block"):
            sum(range(1000))
        assert timer.timings["block"].best >= 0.0


class TestDigests:
    def test_digest_sensitive_to_values_and_shape(self):
        cost = np.arange(9.0).reshape(3, 3)
        base = cost_digest(cost)
        assert base == cost_digest(cost.copy())
        bumped = cost.copy()
        bumped[0, 1] += 1e-12
        assert cost_digest(bumped) != base
        assert cost_digest(cost.reshape(1, 9)) != base

    def test_digest_includes_sizes(self):
        cost = np.ones((2, 2))
        sizes = np.full((2, 2), 5.0)
        assert cost_digest(cost) != cost_digest(cost, sizes)

    def test_problem_digest_stable_across_instances(self):
        a = random_problem(5, seed=3)
        b = random_problem(5, seed=3)
        assert problem_digest(a) == problem_digest(b)
        assert problem_digest(a) != problem_digest(random_problem(5, seed=4))


class TestScheduleCache:
    def test_hit_returns_same_object(self):
        cache = ScheduleCache()
        problem = random_problem(5, seed=0)
        first = cache.get_or_compute(problem, schedule_greedy)
        second = cache.get_or_compute(problem, schedule_greedy)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_schedulers_do_not_collide(self):
        from repro.core.openshop import schedule_openshop

        cache = ScheduleCache()
        problem = random_problem(5, seed=0)
        greedy = cache.get_or_compute(problem, schedule_greedy)
        openshop = cache.get_or_compute(problem, schedule_openshop)
        assert cache.misses == 2 and len(cache) == 2
        assert cache.get_or_compute(problem, schedule_greedy) is greedy
        assert cache.get_or_compute(problem, schedule_openshop) is openshop

    def test_lru_eviction(self):
        cache = ScheduleCache(maxsize=2)
        for seed in range(3):
            cache.get_or_compute(random_problem(4, seed=seed), schedule_greedy)
        assert len(cache) == 2
        # seed=0 was evicted: recomputing it is a miss.
        cache.get_or_compute(random_problem(4, seed=0), schedule_greedy)
        assert cache.misses == 4

    def test_wrap_and_put(self):
        cache = ScheduleCache()
        problem = random_problem(5, seed=1)
        schedule = schedule_greedy(problem)
        cache.put(problem, schedule_greedy, schedule)
        wrapped = cache.wrap(schedule_greedy)
        assert wrapped(problem) is schedule
        assert cache.hits == 1 and cache.misses == 0

    def test_stats_and_clear(self):
        cache = ScheduleCache()
        cache.get_or_compute(random_problem(4, seed=0), schedule_greedy)
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["misses"] == 1
        cache.clear()
        assert len(cache) == 0 and cache.stats()["hit_rate"] == 0.0

    def test_lower_bound_cached_matches_direct(self):
        problem = random_problem(6, seed=2)
        assert lower_bound_cached(problem) == problem.lower_bound()
        assert lower_bound_cached(problem) == problem.lower_bound()


class TestBenchRunner:
    def test_smoke_bench_writes_valid_json(self, tmp_path):
        out = tmp_path / "BENCH_core.json"
        result = run_bench(
            (8,), smoke=True, include_reference=True, output=out
        )
        loaded = json.loads(out.read_text())
        assert loaded["meta"]["proc_counts"] == [8]
        assert "greedy_end_to_end" in loaded["kernels"]["8"]
        assert "greedy_end_to_end" in loaded["speedups_vs_reference"]["8"]
        assert result["kernels"]["8"]["greedy_steps"]["best_s"] > 0.0
        # Table rendering should mention every kernel.
        table = render_bench(result)
        assert "greedy_end_to_end" in table and "speedup" in table

    def test_bench_instance_is_deterministic(self):
        a = bench_instance(16, seed=0)
        b = bench_instance(16, seed=0)
        assert (a.cost == b.cost).all() and (a.sizes == b.sizes).all()
        assert not (a.cost == bench_instance(16, seed=1).cost).all()

    def test_matching_excluded_above_cap(self):
        result = run_bench(
            (8,), smoke=True, include_reference=False, matching_max_p=4
        )
        assert "matching_rounds_scipy" not in result["kernels"]["8"]

    def test_update_bench_json_merges_section(self, tmp_path):
        out = tmp_path / "BENCH_core.json"
        write_bench_json({"kernels": {}}, out)
        update_bench_json("scale_p256", {"greedy": 1.25}, out)
        update_bench_json("other", {"x": 1}, out)
        data = json.loads(out.read_text())
        assert data["extra"]["scale_p256"] == {"greedy": 1.25}
        assert data["extra"]["other"] == {"x": 1}
        assert data["kernels"] == {}

    def test_update_bench_json_starts_fresh_on_garbage(self, tmp_path):
        out = tmp_path / "BENCH_core.json"
        out.write_text("not json{")
        update_bench_json("s", {"v": 2}, out)
        assert json.loads(out.read_text())["extra"]["s"] == {"v": 2}


class TestBenchCli:
    def test_cli_bench_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        code = main([
            "bench", "--smoke", "--sizes", "8", "--metrics-out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["meta"]["smoke"] is True
        captured = capsys.readouterr()
        assert "kernel" in captured.out
