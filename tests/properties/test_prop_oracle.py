"""Property tests: the oracle against heuristics and brute force.

Three levels of evidence on random DAGs:

* the oracle's makespan never exceeds any list-scheduling
  heuristic's (it minimizes over a superset of schedules), and it is
  certified optimal unless the search used up its node budget;
* every oracle witness is a legal schedule (topological, latencies
  respected, one op per issue slot);
* on tiny DAGs (<= 7 nodes) the certified optima match exhaustive
  enumeration of all topological orders: equality for the makespan
  (in-order greedy timing loses nothing at a fixed order set) and
  <= for the lexicographic and combined costs (the oracle may insert
  idle slots no in-order schedule can express).
"""

from itertools import permutations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine import DEFAULT_CONFIG
from repro.oracle.block import (
    STATUS_FEASIBLE,
    STATUS_OPTIMAL,
    block_problem,
    greedy_issue_times,
    makespan,
    oracle_block,
    oracle_order,
    schedule_cost,
    stall_loads,
)
from repro.oracle.solver import Budget
from repro.sched import BalancedWeights, TraditionalWeights, list_schedule
from repro.workloads import random_dag

dag_params = st.tuples(
    st.integers(min_value=1, max_value=12),       # size
    st.integers(min_value=1, max_value=10_000),   # seed
    st.integers(min_value=0, max_value=8),        # load tenths
)


def _oracle(dag, budget=None):
    balanced = BalancedWeights()
    weights = balanced.weights(dag)
    seeds = {
        "balanced": list_schedule(dag, balanced),
        "traditional": list_schedule(dag, TraditionalWeights()),
    }
    return oracle_block(dag, DEFAULT_CONFIG, weights, seeds,
                        budget=budget), weights


#: A drawn DAG whose proof needs more than the default 200,000 nodes.
HARD_DAG = (12, 9242, 1)


@example(HARD_DAG)
@given(dag_params)
@settings(max_examples=40, deadline=None)
def test_oracle_cost_bounds_every_heuristic(params):
    size, seed, load_tenths = params
    dag = random_dag(size, seed=seed, load_fraction=load_tenths / 10)
    budget = Budget()
    result, _ = _oracle(dag, budget)
    # The oracle's contract: "feasible" only when the node budget ran
    # out, "optimal" otherwise.
    assert result.status == (STATUS_FEASIBLE if budget.exhausted
                             else STATUS_OPTIMAL)
    for name, (h_makespan, h_stall) in result.heuristics.items():
        assert result.makespan <= h_makespan, name
        assert (result.makespan, result.stall) \
            <= (h_makespan, h_stall), name
        assert result.total <= h_makespan + h_stall, name


def test_hard_dag_certified_with_a_larger_budget():
    size, seed, load_tenths = HARD_DAG
    dag = random_dag(size, seed=seed, load_fraction=load_tenths / 10)
    result, _ = _oracle(dag, Budget(max_nodes=2_000_000))
    assert result.status == STATUS_OPTIMAL
    assert (result.makespan, result.stall) == (13, 0)


@given(dag_params)
@settings(max_examples=40, deadline=None)
def test_oracle_witness_is_legal(params):
    size, seed, load_tenths = params
    dag = random_dag(size, seed=seed, load_fraction=load_tenths / 10)
    result, _ = _oracle(dag)
    order = oracle_order(result)
    assert sorted(order) == list(range(len(dag.instrs)))
    assert dag.topological_check(order)
    problem = block_problem(dag, DEFAULT_CONFIG)
    for arc in problem.arcs:
        assert result.times[arc.dst] - result.times[arc.src] \
            >= arc.latency
    assert len(set(result.times)) == len(result.times)  # single issue


def _all_topological_orders(dag):
    n = len(dag.instrs)
    for perm in permutations(range(n)):
        if dag.topological_check(list(perm)):
            yield list(perm)


def test_tiny_dags_match_exhaustive_enumeration():
    for seed in (1, 2, 3, 17, 99):
        for load_tenths in (2, 6):
            dag = random_dag(6, seed=seed,
                             load_fraction=load_tenths / 10)
            assert len(dag.instrs) <= 7
            result, weights = _oracle(dag)
            assert result.status == STATUS_OPTIMAL
            loads = stall_loads(dag, weights)
            best_makespan = None
            best_lex = None
            best_total = None
            for order in _all_topological_orders(dag):
                times = greedy_issue_times(dag, order, DEFAULT_CONFIG)
                cost = schedule_cost(times, loads)
                total = makespan(times) + cost[1]
                if best_makespan is None or cost[0] < best_makespan:
                    best_makespan = cost[0]
                if best_lex is None or cost < best_lex:
                    best_lex = cost
                if best_total is None or total < best_total:
                    best_total = total
            # Greedy in-order timing of the best order is itself a
            # valid assignment, so the oracle can only match or beat
            # it; for the makespan the two formulations coincide.
            assert result.makespan == best_makespan, seed
            assert (result.makespan, result.stall) <= best_lex, seed
            assert result.total <= best_total, seed
