"""Golden-equivalence tests: optimized kernels == frozen seed kernels.

The perf rewrite of the greedy composition, the executors, and the
matching backend must be *invisible* except for speed.  These tests pin
every optimized kernel to the seed implementations preserved verbatim in
:mod:`repro.perf.reference`, comparing whole :class:`Schedule` objects
(CommEvent-by-CommEvent equality) across processor counts, seeds, and
zero-cost densities.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive.incremental import RefineResult, refine_orders
from repro.core.greedy import greedy_orders, greedy_steps, schedule_greedy
from repro.core.hierarchical import schedule_hierarchical
from repro.core.matching import matching_rounds, schedule_matching
from repro.core.openshop import openshop_events, schedule_openshop
from repro.core.problem import TotalExchangeProblem, tight_baseline_instance
from repro.directory.service import DirectorySnapshot
from repro.experiments.harness import run_sweep
from repro.model.messages import UniformSizes
from repro.network.generators import clustered_pairwise_parameters
from repro.perf import reference
from repro.perf.memo import schedule_digest
from repro.serve.tenants import make_workload_sizes
from repro.sim.engine import (
    execute_orders,
    execute_orders_on_cost,
    execute_steps_barrier,
    execute_steps_strict,
)
from repro.timing.validate import check_schedule_fast
from tests.conftest import random_problem

PROC_COUNTS = (2, 3, 8, 17, 50)
SEEDS = (0, 1, 2)

#: The ISSUE's open shop pin sizes: odd/paper/seed-headroom points.
OPENSHOP_PROC_COUNTS = (13, 50, 100)


def _sized_problem(num_procs: int, seed: int, zero_fraction: float = 0.0):
    problem = random_problem(
        num_procs, seed=seed, zero_fraction=zero_fraction
    )
    rng = np.random.default_rng(seed + 1)
    sizes = rng.uniform(1e3, 1e6, size=problem.cost.shape)
    sizes[problem.cost == 0] = 0.0
    return TotalExchangeProblem(cost=problem.cost, sizes=sizes)


@pytest.mark.parametrize("num_procs", PROC_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_greedy_chain_matches_seed(num_procs, seed):
    problem = _sized_problem(num_procs, seed)
    assert greedy_steps(problem.cost) == reference.greedy_steps_reference(
        problem.cost
    )
    assert greedy_orders(problem) == reference.greedy_orders_reference(
        problem
    )
    assert schedule_greedy(problem) == reference.schedule_greedy_reference(
        problem
    )


@pytest.mark.parametrize("num_procs", (3, 8, 17))
@pytest.mark.parametrize("seed", SEEDS)
def test_greedy_chain_matches_seed_with_free_messages(num_procs, seed):
    problem = _sized_problem(num_procs, seed, zero_fraction=0.3)
    assert greedy_steps(problem.cost) == reference.greedy_steps_reference(
        problem.cost
    )
    assert greedy_orders(problem) == reference.greedy_orders_reference(
        problem
    )
    assert schedule_greedy(problem) == reference.schedule_greedy_reference(
        problem
    )


def _assert_same_executed(cost, orders, sizes=None):
    """The order executor equals the seed executor on every reading.

    The lazy accessors are read before ``events`` materialises the
    column form, so both the raw and the materialised paths are pinned.
    """
    fast = execute_orders_on_cost(cost, orders, sizes=sizes)
    slow = reference.execute_orders_on_cost_reference(
        cost, orders, sizes=sizes
    )
    assert fast.completion_time == slow.completion_time
    assert len(fast) == len(slow)
    assert fast.send_orders() == slow.send_orders()
    assert fast.events == slow.events
    assert fast == slow
    assert hash(fast) == hash(slow)
    assert schedule_digest(fast) == schedule_digest(slow)
    return fast


@pytest.mark.parametrize("num_procs", PROC_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_order_executor_matches_seed(num_procs, seed):
    problem = _sized_problem(num_procs, seed, zero_fraction=0.2)
    _assert_same_executed(
        problem.cost, greedy_orders(problem), problem.sizes
    )


def _storm_shape():
    """A hierarchical P=256 plan (clusters of 64) re-executed under
    log-normally perturbed costs, as a serving tick re-executes it."""
    latency, bandwidth = clustered_pairwise_parameters(
        256, cluster_size=64, rng=1998
    )
    problem = TotalExchangeProblem.from_snapshot(
        DirectorySnapshot(latency=latency, bandwidth=bandwidth),
        make_workload_sizes("uniform:size_bytes=1048576", 256),
    )
    orders = schedule_hierarchical(problem).send_orders()
    rng = np.random.default_rng(7)
    cost = problem.cost * rng.lognormal(0.0, 0.3, size=problem.cost.shape)
    return cost, orders, problem.sizes


def _hand_built_shape():
    """Empty sender lists, free markers before, between and after
    positive sends (one priced at ``-0.0``), and a positive
    self-message."""
    cost = np.array(
        [
            [0.0, 0.0, 2.0, -0.0, 1.0],
            [1.0, 1.5, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [3.0, 0.5, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    orders = [
        [0, 1, 2, 3, 4],  # markers first and between
        [2, 1, 0, 4, 3],  # self-message to 1, markers between
        [],
        [2, 0, 1, 4],  # marker after the last positive send
        [],
    ]
    sizes = np.arange(25, dtype=float).reshape(5, 5)
    return cost, orders, sizes


def _markers_only_shape():
    """Every cost is zero: the schedule is all markers at time 0."""
    return np.zeros((3, 3)), [[1, 2, 0], [], [0, 1]], None


@pytest.mark.parametrize(
    "shape",
    (_storm_shape, _hand_built_shape, _markers_only_shape),
    ids=("storm-p256", "hand-built", "markers-only"),
)
def test_order_executor_matches_seed_on_plan_shapes(shape):
    cost, orders, sizes = shape()
    executed = _assert_same_executed(cost, orders, sizes)
    # Free events are exact 0.0 markers that never conflict.
    durations = [event.duration for event in executed.events]
    assert all(d > 0.0 or str(d) == "0.0" for d in durations)
    check_schedule_fast(executed, cost)


@pytest.mark.parametrize("num_procs", PROC_COUNTS)
@pytest.mark.parametrize("seed", (0, 1))
def test_step_executors_match_seed(num_procs, seed):
    problem = _sized_problem(num_procs, seed, zero_fraction=0.2)
    steps = greedy_steps(problem.cost)
    assert execute_steps_strict(
        problem.cost, steps, sizes=problem.sizes
    ) == reference.execute_steps_strict_reference(
        problem.cost, steps, sizes=problem.sizes
    )
    assert execute_steps_barrier(
        problem.cost, steps, sizes=problem.sizes
    ) == reference.execute_steps_barrier_reference(
        problem.cost, steps, sizes=problem.sizes
    )


@pytest.mark.parametrize("num_procs", (2, 3, 8, 17))
@pytest.mark.parametrize("backend", ("scipy", "networkx"))
def test_matching_rounds_match_seed(num_procs, backend):
    problem = _sized_problem(num_procs, seed=0)
    ours = matching_rounds(problem.cost, backend=backend)
    seed_rounds = reference.matching_rounds_reference(
        problem.cost, backend=backend
    )
    assert len(ours) == len(seed_rounds)
    for a, b in zip(ours, seed_rounds):
        assert (a == b).all()


def test_matching_schedule_matches_seed_executor():
    problem = _sized_problem(8, seed=2)
    rounds = matching_rounds(problem.cost)
    steps = [
        [(src, int(dst)) for src, dst in enumerate(perm)] for perm in rounds
    ]
    assert schedule_matching(problem) == (
        reference.execute_steps_strict_reference(
            problem.cost, steps, sizes=problem.sizes
        )
    )


def test_adversarial_self_message_instance_matches_seed():
    problem = tight_baseline_instance()
    assert schedule_greedy(problem) == reference.schedule_greedy_reference(
        problem
    )
    steps = greedy_steps(problem.cost)
    assert execute_steps_barrier(
        problem.cost, steps, sizes=problem.sizes
    ) == reference.execute_steps_barrier_reference(
        problem.cost, steps, sizes=problem.sizes
    )


def test_lazy_schedule_behaves_like_eager():
    problem = _sized_problem(17, seed=0)
    lazy = schedule_greedy(problem)
    eager = reference.schedule_greedy_reference(problem)
    # Makespan and len read the raw columns before materialization...
    assert lazy.completion_time == eager.completion_time
    assert len(lazy) == len(eager)
    # ...and full event access materializes identical objects.
    assert lazy.events == eager.events
    assert lazy == eager
    assert hash(lazy) == hash(eager)
    assert lazy.send_orders() == eager.send_orders()


@pytest.mark.parametrize("num_procs", OPENSHOP_PROC_COUNTS)
@pytest.mark.parametrize("seed", (0, 1))
def test_openshop_events_match_seed(num_procs, seed):
    problem = _sized_problem(num_procs, seed)
    pairs = list(problem.positive_events())
    fast_send = [0.0] * num_procs
    fast_recv = [0.0] * num_procs
    slow_send = [0.0] * num_procs
    slow_recv = [0.0] * num_procs
    fast = openshop_events(
        problem.cost, pairs, fast_send, fast_recv, sizes=problem.sizes
    )
    slow = reference.openshop_events_reference(
        problem.cost, pairs, slow_send, slow_recv, sizes=problem.sizes
    )
    # Event-by-event identity in pick order, and the in-place availability
    # mutation (the warm-start contract) must land on the same state.
    assert fast == slow
    assert fast_send == slow_send
    assert fast_recv == slow_recv


@pytest.mark.parametrize("num_procs", OPENSHOP_PROC_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_openshop_events_match_seed_from_warm_state(num_procs, seed):
    # Warm-start entry: ports already busy at staggered times and only a
    # subset of pairs left, as checkpoint rescheduling hands the kernel.
    problem = _sized_problem(num_procs, seed)
    rng = np.random.default_rng(seed + 17)
    all_pairs = list(problem.positive_events())
    keep = rng.random(len(all_pairs)) < 0.4
    pairs = [pair for pair, kept in zip(all_pairs, keep) if kept]
    sendavail = rng.uniform(0.0, 5e-3, size=num_procs).tolist()
    recvavail = rng.uniform(0.0, 5e-3, size=num_procs).tolist()
    fast_send, fast_recv = list(sendavail), list(recvavail)
    slow_send, slow_recv = list(sendavail), list(recvavail)
    fast = openshop_events(
        problem.cost, pairs, fast_send, fast_recv, sizes=problem.sizes
    )
    slow = reference.openshop_events_reference(
        problem.cost, pairs, slow_send, slow_recv, sizes=problem.sizes
    )
    assert fast == slow
    assert fast_send == slow_send
    assert fast_recv == slow_recv


@pytest.mark.parametrize("num_procs", OPENSHOP_PROC_COUNTS)
@pytest.mark.parametrize("zero_fraction", (0.0, 0.3))
def test_openshop_schedule_matches_seed(num_procs, zero_fraction):
    # zero_fraction > 0 exercises the vectorised zero-duration marker
    # path against the seed's scalar double loop.
    problem = _sized_problem(num_procs, seed=0, zero_fraction=zero_fraction)
    assert schedule_openshop(problem) == (
        reference.schedule_openshop_reference(problem)
    )


@pytest.mark.parametrize("num_procs", (1, 2, 7, 33))
@pytest.mark.parametrize("objective", ("max", "min"))
def test_auction_rounds_are_optimal_and_partition(num_procs, objective):
    from scipy.optimize import linear_sum_assignment

    problem = _sized_problem(num_procs, seed=1)
    cost = problem.cost
    rounds = matching_rounds(cost, objective=objective, backend="auction")
    assert len(rounds) == num_procs

    # Partition invariant: the rounds cover all P^2 pairs exactly once.
    rows = np.arange(num_procs)
    seen = np.zeros((num_procs, num_procs), dtype=int)
    for permutation in rounds:
        seen[rows, permutation] += 1
    assert (seen == 1).all()

    # Weight equality: per round, the auction permutation must match a
    # scipy re-solve of the identical masked matrix on matching weight
    # (the permutations themselves may differ between optimal solutions).
    weights = cost.copy()
    penalty = float(cost.max()) * num_procs + 1.0
    used_value = -penalty if objective == "max" else penalty
    for permutation in rounds:
        srow, scol = linear_sum_assignment(
            weights, maximize=(objective == "max")
        )
        optimal_weight = float(weights[srow, scol].sum())
        auction_weight = float(weights[rows, permutation].sum())
        assert auction_weight == pytest.approx(optimal_weight, rel=1e-9)
        weights[rows, permutation] = used_value


def _refine_orders_seed(orders, new_problem, *, old_problem=None, max_passes=2):
    """The seed ``refine_orders``, verbatim: deep-copied candidate per move."""
    from repro.adaptive.incremental import changed_pairs

    current = [list(sender) for sender in orders]
    evaluations = 0

    def evaluate(candidate):
        nonlocal evaluations
        evaluations += 1
        return execute_orders(
            new_problem, candidate, validate=False
        ).completion_time

    initial_time = evaluate(current)
    best_time = initial_time

    if old_problem is not None:
        affected = {src for src, _ in changed_pairs(old_problem, new_problem)}
    else:
        affected = set(range(new_problem.num_procs))
    cost = new_problem.cost
    for src in sorted(affected):
        candidate = [list(sender) for sender in current]
        candidate[src] = sorted(
            current[src], key=lambda dst: (-cost[src, dst], dst)
        )
        time = evaluate(candidate)
        if time < best_time:
            best_time = time
            current = candidate

    for _ in range(max_passes):
        improved = False
        for src in range(new_problem.num_procs):
            for k in range(len(current[src]) - 1):
                candidate = [list(sender) for sender in current]
                candidate[src][k], candidate[src][k + 1] = (
                    candidate[src][k + 1],
                    candidate[src][k],
                )
                time = evaluate(candidate)
                if time < best_time - 1e-12:
                    best_time = time
                    current = candidate
                    improved = True
        if not improved:
            break

    return RefineResult(
        orders=current,
        schedule=execute_orders(new_problem, current, validate=False),
        initial_time=initial_time,
        evaluations=evaluations,
    )


@pytest.mark.parametrize("seed", (0, 3))
def test_refine_orders_matches_seed_behaviour(seed):
    # The in-place swap/undo rewrite must make the same accept/reject
    # decisions as the seed's copy-per-candidate local search.
    old_problem = _sized_problem(8, seed)
    rng = np.random.default_rng(seed + 101)
    drift = rng.uniform(0.5, 1.5, size=old_problem.cost.shape)
    new_problem = TotalExchangeProblem(
        cost=old_problem.cost * drift, sizes=old_problem.sizes
    )
    orders = greedy_orders(old_problem)
    fast = refine_orders(orders, new_problem, old_problem=old_problem)
    slow = _refine_orders_seed(orders, new_problem, old_problem=old_problem)
    assert fast.orders == slow.orders
    assert fast.initial_time == slow.initial_time
    assert fast.evaluations == slow.evaluations
    assert fast.schedule == slow.schedule


def test_parallel_sweep_is_bit_identical_to_serial():
    kwargs = dict(proc_counts=(4, 6), trials=2, seed=5)
    serial = run_sweep("determinism", UniformSizes(1e4), **kwargs)
    parallel = run_sweep(
        "determinism", UniformSizes(1e4), workers=2, **kwargs
    )
    assert parallel == serial


def test_memoized_sweep_is_bit_identical_to_plain():
    kwargs = dict(proc_counts=(4, 5), trials=2, seed=9)
    plain = run_sweep("memo", UniformSizes(1e4), **kwargs)
    first = run_sweep("memo", UniformSizes(1e4), memoize=True, **kwargs)
    again = run_sweep("memo", UniformSizes(1e4), memoize=True, **kwargs)
    assert first == plain
    assert again == plain
