"""Branch-and-bound core: decisions, certificates, budgets."""

import pytest

from repro.oracle.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    Arc,
    Budget,
    Problem,
    StallSpec,
    assignment_stall,
    solve_decision,
)


def _problem(n, arcs=(), is_mem=None, **kw):
    return Problem(n=n, arcs=tuple(arcs),
                   is_mem=tuple(is_mem or [False] * n), **kw)


def _solve(problem, lo, hi, budget=None, **kw):
    return solve_decision(problem, lo, hi, budget or Budget(), **kw)


def test_chain_respects_latency():
    problem = _problem(2, [Arc(0, 1, 3)])
    out = _solve(problem, [0, 0], [10, 10])
    assert out.status == SAT
    assert out.times[1] - out.times[0] >= 3


def test_unsat_window_too_tight_is_certified():
    problem = _problem(2, [Arc(0, 1, 3)])
    out = _solve(problem, [0, 0], [2, 2])
    assert out.status == UNSAT


def test_issue_width_row_capacity():
    # Three independent ops, single issue: two cycles cannot hold them.
    problem = _problem(3)
    assert _solve(problem, [0] * 3, [1] * 3).status == UNSAT
    out = _solve(problem, [0] * 3, [2] * 3)
    assert out.status == SAT
    assert len(set(out.times)) == 3


def test_memory_ports_bind_separately():
    problem = _problem(2, is_mem=[True, True], issue_width=2)
    assert _solve(problem, [0, 0], [0, 0]).status == UNSAT
    assert _solve(problem, [0, 0], [1, 1]).status == SAT


def test_wide_issue_shares_a_cycle():
    problem = _problem(2, issue_width=2)
    out = _solve(problem, [0, 0], [0, 0])
    assert out.status == SAT
    assert out.times == [0, 0]


def test_modulo_rows_wrap():
    # Two mem ops at ii=2 must land on different parities.
    problem = _problem(2, is_mem=[True, True], ii=2)
    out = _solve(problem, [0, 0], [3, 3])
    assert out.status == SAT
    assert out.times[0] % 2 != out.times[1] % 2


def test_modulo_positive_cycle_is_infeasible():
    # Cycle weight at ii: 2 + (2 - ii); positive for ii = 3.
    arcs = [Arc(0, 1, 2, 0), Arc(1, 0, 2, 1)]
    tight = _problem(2, arcs, ii=3)
    assert _solve(tight, [-20, -20], [20, 20]).status == UNSAT
    loose = _problem(2, arcs, ii=4)
    assert _solve(loose, [-20, -20], [20, 20]).status == SAT


def test_budget_exhaustion_is_unknown_not_unsat():
    problem = _problem(6)
    budget = Budget(max_nodes=2)
    out = _solve(problem, [0] * 6, [5] * 6, budget=budget)
    assert out.status == UNKNOWN
    assert budget.exhausted


def test_stall_bound_prunes_and_admits():
    # Load 0 with consumer 1 at weight 5; only 3 cycles of window, so
    # the best gap is 2 and the minimum stall is 3.
    problem = _problem(2, [Arc(0, 1, 1)], is_mem=[True, False])
    loads = ((0, (1,), 5),)
    unsat = _solve(problem, [0, 0], [2, 2],
                   stall=StallSpec(loads=loads, bound=2))
    assert unsat.status == UNSAT
    sat = _solve(problem, [0, 0], [2, 2],
                 stall=StallSpec(loads=loads, bound=3))
    assert sat.status == SAT
    assert assignment_stall(sat.times, loads) <= 3


def test_stall_with_makespan_counts_both():
    # makespan + stall <= 4 impossible in 3 cycles (3 + 3 = 6); the
    # combined objective needs bound >= 6.
    problem = _problem(2, [Arc(0, 1, 1)], is_mem=[True, False])
    loads = ((0, (1,), 5),)
    spec = StallSpec(loads=loads, bound=5, include_makespan=True)
    assert _solve(problem, [0, 0], [2, 2], stall=spec).status == UNSAT
    spec = StallSpec(loads=loads, bound=6, include_makespan=True)
    out = _solve(problem, [0, 0], [2, 2], stall=spec)
    assert out.status == SAT
    total = max(out.times) + 1 + assignment_stall(out.times, loads)
    assert total <= 6


def test_acyclic_problem_rejects_carried_arcs():
    problem = _problem(2, [Arc(0, 1, 1, distance=1)])
    with pytest.raises(ValueError):
        _solve(problem, [0, 0], [5, 5])


def test_bad_ii_rejected():
    problem = _problem(1, ii=0)
    with pytest.raises(ValueError):
        _solve(problem, [0], [5])


def test_decisions_are_deterministic():
    problem = _problem(5, [Arc(0, 2, 2), Arc(1, 2, 1), Arc(2, 4, 3)],
                       is_mem=[True, False, False, True, False])
    outs = [_solve(problem, [0] * 5, [8] * 5) for _ in range(2)]
    assert outs[0].times == outs[1].times
    assert outs[0].nodes == outs[1].nodes
