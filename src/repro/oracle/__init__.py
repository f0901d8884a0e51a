"""Combinatorial optimal-scheduling oracle (the "heuristic gap" axis).

The paper compares two heuristics — balanced and traditional list
scheduling — against each other; this package supplies ground truth.
Following the combinatorial-scheduling line of work named in PAPERS.md
(Roorda's SMT software pipelining; Castañeda Lozano et al.'s
constraint-based scheduling), it encodes the repo's two scheduling
problems as exact constraint searches with *certified* outcomes:

* :mod:`.solver` — a pure-python branch-and-bound decision engine
  (windows + bounds-consistency propagation over difference
  constraints, resource reservation rows, honest node budgets);
* :mod:`.block`  — acyclic block scheduling: provably minimal issue
  span, then provably minimal expected load-stall cycles under the
  paper's latency model;
* :mod:`.modulo` — modulo-schedule feasibility at a given II, proving
  per loop either II = MII achievable or a certified lower bound
  above MII;
* :mod:`.gap`    — the per-benchmark driver: runs the oracles over a
  grid point, round-trips every oracle schedule through the ``repro
  .check`` / ``codegen.verify`` validators, and aggregates the
  "heuristic gap" tables cached in the shared result store.

Every optimality claim is explicit about its evidence: ``optimal``
means a completed proof (search exhausted below the witness), anything
budget-limited is reported as ``feasible``/``bailed``, never silently
rounded up to optimal.
"""

from .block import (
    BlockOracleResult,
    MAX_BLOCK_OPS,
    greedy_issue_times,
    oracle_block,
    oracle_order,
    schedule_cost,
    stall_loads,
)
from .gap import (
    DEFAULT_BUDGET,
    GAP_SCHEMA_VERSION,
    ORACLE_SCHEDULER,
    OracleRunner,
    analyze_point,
    oracle_summary,
)
from .modulo import LoopOracleResult, decide_ii, oracle_loop
from .solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    Arc,
    Budget,
    Problem,
    StallSpec,
    solve_decision,
)

__all__ = [
    "Arc", "Budget", "Problem", "StallSpec", "solve_decision",
    "SAT", "UNSAT", "UNKNOWN",
    "BlockOracleResult", "MAX_BLOCK_OPS", "greedy_issue_times",
    "oracle_block", "oracle_order", "schedule_cost", "stall_loads",
    "LoopOracleResult", "decide_ii", "oracle_loop",
    "OracleRunner", "DEFAULT_BUDGET",
    "GAP_SCHEMA_VERSION", "ORACLE_SCHEDULER",
    "analyze_point", "oracle_summary",
]
