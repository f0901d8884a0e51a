"""Block oracle: certified lexicographic + combined optima."""

from repro.machine import DEFAULT_CONFIG
from repro.oracle.block import (
    STATUS_FEASIBLE,
    STATUS_OPTIMAL,
    STATUS_SKIPPED,
    greedy_issue_times,
    makespan,
    oracle_block,
    oracle_order,
    schedule_cost,
    stall_loads,
)
from repro.oracle.solver import Budget, assignment_stall
from repro.sched import BalancedWeights, TraditionalWeights, list_schedule
from repro.workloads import figure1_dag, random_dag


def _run(dag, budget=None, max_ops=24):
    balanced = BalancedWeights()
    weights = balanced.weights(dag)
    seeds = {
        "balanced": list_schedule(dag, balanced),
        "traditional": list_schedule(dag, TraditionalWeights()),
    }
    result = oracle_block(dag, DEFAULT_CONFIG, weights, seeds,
                          budget=budget, max_ops=max_ops)
    return result, weights, seeds


def test_figure1_is_certified_optimal():
    dag = figure1_dag()
    result, _, _ = _run(dag)
    assert result.status == STATUS_OPTIMAL
    assert result.makespan == result.makespan_lb == 8
    assert result.stall == 0
    assert result.total == 8


def test_oracle_never_beaten_by_a_heuristic():
    for seed in (1, 7, 42, 1234):
        dag = random_dag(14, seed=seed, load_fraction=0.4)
        result, _, _ = _run(dag)
        for name, (h_makespan, h_stall) in result.heuristics.items():
            assert result.makespan <= h_makespan, name
            assert result.total <= h_makespan + h_stall, name


def test_witness_is_a_legal_schedule():
    dag = random_dag(12, seed=3, load_fraction=0.5)
    result, weights, _ = _run(dag)
    order = oracle_order(result)
    assert sorted(order) == list(range(len(dag.instrs)))
    assert dag.topological_check(order)
    # The witness times satisfy every dependence arc's latency.
    from repro.oracle.block import block_problem

    problem = block_problem(dag, DEFAULT_CONFIG)
    for arc in problem.arcs:
        assert result.times[arc.dst] - result.times[arc.src] \
            >= arc.latency
    # Single-issue: one op per cycle.
    assert len(set(result.times)) == len(result.times)


def test_size_gate_reports_skipped_with_heuristic_witness():
    dag = random_dag(30, seed=5)
    result, weights, _ = _run(dag, max_ops=24)
    assert result.status == STATUS_SKIPPED
    assert result.nodes == 0
    loads = stall_loads(dag, weights)
    best = min(sum(cost) for cost in result.heuristics.values())
    witness_total = makespan(result.times) \
        + assignment_stall(result.times, loads)
    assert result.total == witness_total <= best


def test_budget_bail_is_feasible_and_still_bounded():
    dag = random_dag(16, seed=1, load_fraction=0.7)
    result, _, _ = _run(dag, budget=Budget(max_nodes=5))
    assert result.status == STATUS_FEASIBLE
    for _name, cost in result.heuristics.items():
        assert (result.makespan, result.stall) <= cost
        assert result.total <= sum(cost)


def test_stall_objective_beats_traditional_on_figure1():
    # The paper's Figure 1: balanced weights let the oracle (and the
    # balanced heuristic) hide every load; the cost model must see it.
    dag = figure1_dag()
    result, weights, seeds = _run(dag)
    loads = stall_loads(dag, weights)
    trad_times = greedy_issue_times(dag, seeds["traditional"],
                                    DEFAULT_CONFIG)
    assert schedule_cost(result.times, loads) \
        <= schedule_cost(trad_times, loads)


def test_empty_and_single_op_blocks():
    dag = random_dag(0)
    result, _, _ = _run(dag)
    assert result.status == STATUS_OPTIMAL
    assert result.makespan in (0, 1)
