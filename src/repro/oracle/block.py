"""Acyclic block-scheduling oracle.

Encodes one basic block's dependence DAG as a decision problem over
issue cycles (:mod:`repro.oracle.solver`) and minimizes, in
lexicographic order,

1. the **makespan** (last issue cycle + 1 — the static issue span the
   list scheduler's :func:`~repro.sched.list_scheduler
   .estimate_issue_cycles` also measures), then
2. the **expected load-stall cycles** under the paper's latency model:
   a load with balanced weight ``W`` (its parallelism-derived latency
   estimate, Kerns & Eggers) stalls ``max(0, W - gap)`` cycles, where
   ``gap`` is the issue distance to its earliest true consumer.

A third, independent search then certifies the **combined cost**
``makespan + stall`` — the block's expected cycle count on the in-order
machine.  The lexicographic optimum need not minimize this sum (a
schedule one cycle longer can hide many stall cycles), and the
heuristic-gap tables compare on the sum, so it gets its own proof; the
witness realizing it is the schedule the gap driver validates and
reports.

All objectives are solved by binary search on the bound.  Lower bounds
come from certificates (critical path / issue-width / memory-port
counting arguments, plus exhausted searches); upper bounds come from
witness schedules, seeded with the balanced and traditional heuristic
schedules so the oracle's cost can never exceed either heuristic, even
when the budget runs out mid-proof.

Cost model: the oracle controls issue slots directly (a compiler-view
schedule — idle slots are allowed), so a heuristic *order* is costed by
its greedy in-order issue times, which are themselves a valid
assignment.  Minimizing over assignments therefore minimizes over
orders too, and the comparison is apples-to-apples.  Weights are
integerized with ``ceil`` on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..ir.dag import MEM, TRUE, Dag
from ..machine import MachineConfig
from .solver import SAT, UNSAT, Arc, Budget, Outcome, Problem, StallSpec
from .solver import assignment_stall, solve_decision

#: Blocks above this size are not searched (status ``skipped``); the
#: best heuristic schedule is reported as a non-certified feasible cost.
MAX_BLOCK_OPS = 24

STATUS_OPTIMAL = "optimal"     # both objectives certified
STATUS_FEASIBLE = "feasible"   # budget ran out mid-proof; witness only
STATUS_SKIPPED = "skipped"     # block larger than the size gate


def edge_latency(kind: str, producer_latency: int) -> int:
    """Issue-distance constraint carried by one DAG edge.

    True and memory edges wait out the producer's latency; anti/output/
    order edges only constrain issue order (1 cycle), matching
    :func:`~repro.sched.list_scheduler.estimate_issue_cycles`.
    """
    if kind in (TRUE, MEM):
        return producer_latency
    return 1


def block_problem(dag: Dag, config: MachineConfig) -> Problem:
    """Encode *dag* as an acyclic decision problem."""
    latencies = [config.op_latency.get(ins.op, 1) for ins in dag.instrs]
    arcs = []
    for src in range(len(dag.instrs)):
        for dst, kind in sorted(dag.succs[src].items()):
            arcs.append(Arc(src, dst, edge_latency(kind, latencies[src])))
    is_mem = tuple(bool(ins.is_mem) for ins in dag.instrs)
    return Problem(n=len(dag.instrs), arcs=tuple(arcs), is_mem=is_mem,
                   issue_width=config.issue_width,
                   mem_ports=config.mem_ports, ii=None)


def stall_loads(dag: Dag, weights: Sequence[float]) -> tuple:
    """``(load, true-consumers, ceil(weight))`` triples for the stall
    objective.  Loads without true consumers in the block never stall
    (their value is consumed elsewhere; the gap is unbounded)."""
    triples = []
    for load in dag.load_indices():
        consumers = tuple(sorted(
            dst for dst, kind in dag.succs[load].items() if kind == TRUE))
        if consumers:
            triples.append((load, consumers,
                            int(math.ceil(weights[load]))))
    return tuple(triples)


def greedy_issue_times(dag: Dag, order: Sequence[int],
                       config: MachineConfig) -> list:
    """In-order greedy issue times for a schedule *order*.

    Integer twin of :func:`~repro.sched.list_scheduler
    .estimate_issue_cycles`, generalized to the machine's issue width
    and memory ports; at width 1 the two agree cycle-for-cycle.
    """
    latencies = [config.op_latency.get(ins.op, 1) for ins in dag.instrs]
    times = {}
    cycle, used, mem_used = 0, 0, 0
    for node in order:
        ready = 0
        for pred, kind in dag.preds[node].items():
            at = times[pred] + edge_latency(kind, latencies[pred])
            if at > ready:
                ready = at
        if ready > cycle:
            cycle, used, mem_used = ready, 0, 0
        is_mem = dag.instrs[node].is_mem
        while used >= config.issue_width or \
                (is_mem and mem_used >= config.mem_ports):
            cycle, used, mem_used = cycle + 1, 0, 0
        times[node] = cycle
        used += 1
        if is_mem:
            mem_used += 1
    return [times[i] for i in range(len(dag.instrs))]


def makespan(times: Sequence[int]) -> int:
    return max(times) + 1 if len(times) else 0


def schedule_cost(times: Sequence[int], loads: tuple) -> tuple:
    """Lexicographic (makespan, expected stall) of an assignment."""
    return makespan(times), assignment_stall(times, loads)


def _makespan_lower_bound(problem: Problem) -> int:
    """Certified lower bound: critical path + counting arguments."""
    n = problem.n
    if n == 0:
        return 0
    est = [0] * n
    for arc in problem.arcs:          # arcs go forward in program order
        at = est[arc.src] + arc.latency
        if at > est[arc.dst]:
            est[arc.dst] = at
    cp = max(est) + 1
    width = math.ceil(n / max(1, problem.issue_width))
    n_mem = sum(problem.is_mem)
    ports = math.ceil(n_mem / max(1, problem.mem_ports)) if n_mem else 0
    return max(cp, width, ports)


@dataclass
class BlockOracleResult:
    """Oracle outcome for one basic block."""

    label: str
    n_ops: int
    status: str
    #: Witness realizing the best combined cost (assignment times,
    #: node-indexed); the best heuristic witness when the search was
    #: skipped.  This is the schedule the gap driver validates, so its
    #: makespan may exceed :attr:`makespan` (the lexicographic optimum)
    #: when trading span for stall lowers the sum.
    times: Optional[list]
    #: Lexicographic objective values: minimal makespan, then minimal
    #: expected stall at that makespan.
    makespan: int
    stall: int
    #: Best (and, when ``status == "optimal"``, certified minimal)
    #: combined cost ``makespan + stall`` over all schedules.
    total: int
    #: Certified lower bound on the makespan (== makespan iff the first
    #: objective is proven optimal).
    makespan_lb: int
    #: Search nodes spent on this block (deterministic).
    nodes: int
    #: Heuristic costs under the same model: name -> (makespan, stall).
    heuristics: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.status == STATUS_OPTIMAL

    @property
    def cost(self) -> tuple:
        return (self.makespan, self.stall)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "n_ops": self.n_ops,
            "status": self.status,
            "makespan": self.makespan,
            "stall": self.stall,
            "total": self.total,
            "makespan_lb": self.makespan_lb,
            "nodes": self.nodes,
            "heuristics": {name: list(cost) for name, cost
                           in sorted(self.heuristics.items())},
        }


def oracle_block(dag: Dag, config: MachineConfig,
                 weights: Sequence[float],
                 seeds: dict,
                 budget: Optional[Budget] = None,
                 label: str = "",
                 max_ops: int = MAX_BLOCK_OPS) -> BlockOracleResult:
    """Find (and try to certify) an optimal schedule for one block.

    ``seeds`` maps heuristic names to schedule orders (permutations of
    node ids); their greedy issue times bound the search from above and
    are reported alongside the oracle cost.  ``weights`` is the
    balanced-weight vector used for the expected-stall objective.
    """
    n = len(dag.instrs)
    loads = stall_loads(dag, weights)
    heur: dict = {}
    best_times: Optional[list] = None
    best_cost = None
    for name, order in sorted(seeds.items()):
        times = greedy_issue_times(dag, order, config)
        cost = schedule_cost(times, loads)
        heur[name] = cost
        if best_cost is None or cost < best_cost:
            best_cost, best_times = cost, times

    if n == 0 or best_times is None:
        return BlockOracleResult(label=label, n_ops=n,
                                 status=STATUS_OPTIMAL, times=[],
                                 makespan=0, stall=0, total=0,
                                 makespan_lb=0, nodes=0,
                                 heuristics=heur)

    problem = block_problem(dag, config)
    lb = _makespan_lower_bound(problem)

    if n > max_ops:
        total_times, total = _best_total(dag, config, loads, seeds,
                                         best_times)
        return BlockOracleResult(
            label=label, n_ops=n, status=STATUS_SKIPPED,
            times=total_times, makespan=best_cost[0],
            stall=best_cost[1], total=total,
            makespan_lb=lb, nodes=0, heuristics=heur)

    if budget is None:
        budget = Budget()
    start_nodes = budget.nodes

    # --- objective 1: makespan, binary search on the bound ----------
    # Invariant: no schedule fits in `lo` cycles (certified); `hi`
    # cycles is witnessed by `best_times`.
    lo, hi = lb - 1, best_cost[0]
    bailed = False
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        out = solve_decision(problem, [0] * n, [mid - 1] * n, budget)
        if out.status == SAT:
            best_times = out.times
            hi = makespan(out.times)
        elif out.status == UNSAT:
            lo = mid
        else:
            bailed = True
            break
    opt_makespan = hi

    # --- objective 2: expected stall at the optimal makespan --------
    # Re-seed the incumbent with every heuristic that achieves the
    # final makespan, so a bailed stall proof still reports a cost no
    # worse than any heuristic's.
    best_stall = assignment_stall(best_times, loads)
    for name, order in sorted(seeds.items()):
        times = greedy_issue_times(dag, order, config)
        if makespan(times) == opt_makespan and \
                assignment_stall(times, loads) < best_stall:
            best_times = times
            best_stall = assignment_stall(times, loads)
    if not bailed and best_stall > 0:
        slo, shi = -1, best_stall
        while slo + 1 < shi:
            mid = (slo + shi) // 2
            out = solve_decision(
                problem, [0] * n, [opt_makespan - 1] * n, budget,
                stall=StallSpec(loads=loads, bound=mid))
            if out.status == SAT:
                best_times = out.times
                shi = assignment_stall(out.times, loads)
            elif out.status == UNSAT:
                slo = mid
            else:
                bailed = True
                break
        best_stall = shi if not bailed else best_stall
    opt_makespan = makespan(best_times)
    opt_stall = assignment_stall(best_times, loads)

    # --- objective 3: combined cost makespan + stall ----------------
    # Seeded with the lexicographic witness and every heuristic, so the
    # reported total never exceeds any heuristic's even on a bail.  The
    # phase-1 certificate gives the starting lower bound: every
    # schedule's makespan — hence total — is >= opt_makespan.
    total_times, total = _best_total(dag, config, loads, seeds,
                                     best_times)
    if not bailed and total > opt_makespan:
        tlo, thi = opt_makespan - 1, total
        while tlo + 1 < thi:
            mid = (tlo + thi) // 2
            # stall >= 0 forces makespan <= mid, hence windows [0, mid).
            out = solve_decision(
                problem, [0] * n, [mid - 1] * n, budget,
                stall=StallSpec(loads=loads, bound=mid,
                                include_makespan=True))
            if out.status == SAT:
                total_times = out.times
                thi = makespan(out.times) + \
                    assignment_stall(out.times, loads)
            elif out.status == UNSAT:
                tlo = mid
            else:
                bailed = True
                break
        if not bailed:
            total = thi

    status = STATUS_FEASIBLE if bailed else STATUS_OPTIMAL
    return BlockOracleResult(
        label=label, n_ops=n, status=status, times=total_times,
        makespan=opt_makespan, stall=opt_stall, total=total,
        makespan_lb=lo + 1, nodes=budget.nodes - start_nodes,
        heuristics=heur)


def _best_total(dag: Dag, config: MachineConfig, loads: tuple,
                seeds: dict, incumbent: list) -> tuple:
    """Best combined-cost witness among *incumbent* and the seeds."""
    best = incumbent
    best_total = makespan(best) + assignment_stall(best, loads)
    for _name, order in sorted(seeds.items()):
        times = greedy_issue_times(dag, order, config)
        t = makespan(times) + assignment_stall(times, loads)
        if t < best_total:
            best, best_total = times, t
    return best, best_total


def oracle_order(result: BlockOracleResult) -> list:
    """Topological order realizing the oracle's assignment (stable by
    original position within an issue cycle)."""
    assert result.times is not None
    return sorted(range(len(result.times)),
                  key=lambda i: (result.times[i], i))
