"""Modulo-scheduling oracle: certified II feasibility per loop.

The iterative modulo scheduler (:mod:`repro.sched.modulo`) walks
candidate IIs from MII to ``2*MII`` with a backtracking budget — when it
achieves some II it proves feasibility *at that II* but never that
``II = MII`` is impossible.  This module closes the gap: for each
candidate II it decides, completely, whether a modulo schedule exists,
so per loop it proves either

* **II = MII is achievable** (with a witness schedule), or
* a **certified lower bound > MII**: every II below the bound admits no
  modulo schedule at all.

Encoding: variables are issue times ``t[i]`` (one per body op, one
iteration); dependence arcs from :func:`~repro.sched.modulo.deps
.analyze_deps` impose ``t[dst] - t[src] >= latency - distance * II``
and the modulo reservation table imposes per-row (``t mod II``) issue
width and memory-port capacity.  Latencies are capped at the same
``lat_cap = (MAX_STAGES - 1) * II`` the heuristic scheduler uses, so
the oracle answers exactly the question the heuristic attempts.

Completeness horizon
--------------------
An exhausted search only certifies "no schedule *within the windows*".
The windows are chosen so that this implies "no schedule at all": fix
any feasible schedule and normalize it (uniform shift by a multiple of
II, which preserves every constraint and permutes nothing in the MRT)
so one pinned op lands in ``[0, II)``.  Writing ``t[i] = r[i] +
k[i] * II`` with rows ``r`` fixed, the dependence constraints become a
difference system over the stage counts ``k`` with integer weights
``ceil((latency - distance*II - r[dst] + r[src]) / II)``, each of
magnitude at most ``max_latency + 2``.  A satisfiable difference system
has a solution spanning at most ``(n - 1) * max_weight``, so some
feasible schedule lies within ``H = n * (max_latency + 2) * II + II``
of the pinned op.  Windows ``[-H, H]`` (pinned op ``[0, II)``) are
therefore complete, and UNSAT is a genuine infeasibility certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..machine import MachineConfig
from ..sched.modulo.deps import LoopDeps
from ..sched.modulo.mii import compute_mii
from ..sched.modulo.pipeline import II_RANGE_FACTOR, MAX_STAGES
from ..sched.modulo.scheduler import modulo_schedule
from .solver import SAT, UNSAT, Arc, Budget, Problem, solve_decision

STATUS_OPTIMAL = "optimal"     # feasible II found, all below refuted
STATUS_FEASIBLE = "feasible"   # feasible II found, some below unknown
STATUS_BAILED = "bailed"       # budget ran out before any feasible II


def modulo_problem(deps: LoopDeps, config: MachineConfig,
                   ii: int, lat_cap: int) -> Problem:
    arcs = tuple(Arc(e.src, e.dst, min(e.latency, lat_cap), e.distance)
                 for e in deps.edges)
    is_mem = tuple(bool(ins.is_mem) for ins in deps.ops)
    return Problem(n=len(deps.ops), arcs=arcs, is_mem=is_mem,
                   issue_width=config.issue_width,
                   mem_ports=config.mem_ports, ii=ii)


def modulo_horizon(n: int, max_latency: int, ii: int) -> int:
    """Window radius outside which no schedule needs to stray (see the
    module docstring for the derivation)."""
    return n * (max_latency + 2) * ii + ii


def decide_ii(deps: LoopDeps, config: MachineConfig, ii: int,
              budget: Budget, lat_cap: Optional[int] = None):
    """Complete feasibility decision at one II.

    Returns a :class:`~repro.oracle.solver.Outcome`: SAT with witness
    times, UNSAT as an infeasibility certificate, or UNKNOWN on budget
    exhaustion.
    """
    if lat_cap is None:
        lat_cap = (MAX_STAGES - 1) * ii
    problem = modulo_problem(deps, config, ii, lat_cap)
    n = problem.n
    max_lat = max((arc.latency for arc in problem.arcs), default=1)
    horizon = modulo_horizon(n, max_lat, ii)
    lo = [-horizon] * n
    hi = [horizon] * n
    # Symmetry breaking: pin op 0 to the first interval (any schedule
    # can be shifted by a multiple of II to put it there).
    lo[0], hi[0] = 0, ii - 1
    return solve_decision(problem, lo, hi, budget)


def validate_modulo_times(deps: LoopDeps, config: MachineConfig,
                          ii: int, times: list,
                          lat_cap: Optional[int] = None) -> list:
    """Independent re-check of a witness schedule; returns violations.

    Mirrors the legality rules the kernel verifier enforces: every
    dependence edge satisfied at distance, and no modulo-reservation
    row over issue width or memory ports.
    """
    if lat_cap is None:
        lat_cap = (MAX_STAGES - 1) * ii
    problems = []
    for e in deps.edges:
        lat = min(e.latency, lat_cap)
        if times[e.dst] - times[e.src] < lat - e.distance * ii:
            problems.append(
                f"edge {e.src}->{e.dst} ({e.kind}) violated at ii={ii}")
    rows: dict = {}
    for op, t in enumerate(times):
        used, mem = rows.get(t % ii, (0, 0))
        rows[t % ii] = (used + 1, mem + (1 if deps.ops[op].is_mem else 0))
    for row, (used, mem) in sorted(rows.items()):
        if used > config.issue_width:
            problems.append(f"row {row} issues {used} ops")
        if mem > config.mem_ports:
            problems.append(f"row {row} issues {mem} memory ops")
    return problems


@dataclass
class LoopOracleResult:
    """Oracle outcome for one candidate loop."""

    label: str
    n_ops: int
    res_mii: int
    rec_mii: int
    mii: int
    #: II the iterative heuristic achieves under the same latency model
    #: (0 when it finds none within II <= 2*MII).
    heuristic_ii: int
    status: str
    #: Smallest feasible II found by the oracle (0 when none found).
    optimal_ii: int
    #: Certified lower bound: every II below this is proven infeasible
    #: (>= MII always, by the Res/Rec counting and recurrence bounds).
    certified_lb: int
    nodes: int
    #: Witness schedule at ``optimal_ii`` (issue time per body op).
    times: Optional[list] = field(default=None, repr=False)

    @property
    def certified(self) -> bool:
        return self.status == STATUS_OPTIMAL

    @property
    def beyond_heuristic(self) -> bool:
        """True when the oracle established something the iterative
        scheduler alone could not.

        The heuristic's own achievements (feasibility at its II, and
        the MII counting/recurrence bounds) are discounted; what counts
        is a certified lower bound *above* MII (a proof that MII is
        unreachable — when it equals the optimal II this is exactly the
        "heuristic's II was optimal after all" theorem), a feasible II
        strictly below the heuristic's, or settling feasibility for a
        loop where the heuristic found no II at all.
        """
        if self.certified_lb > self.mii:
            return True
        return self.status == STATUS_OPTIMAL and (
            self.heuristic_ii == 0
            or self.optimal_ii < self.heuristic_ii)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "n_ops": self.n_ops,
            "res_mii": self.res_mii,
            "rec_mii": self.rec_mii,
            "mii": self.mii,
            "heuristic_ii": self.heuristic_ii,
            "status": self.status,
            "optimal_ii": self.optimal_ii,
            "certified_lb": self.certified_lb,
            "beyond_heuristic": self.beyond_heuristic,
            "nodes": self.nodes,
        }


def heuristic_ii(deps: LoopDeps, config: MachineConfig,
                 mii: int) -> int:
    """II the production driver would achieve (0 = none), replicating
    its II walk and latency cap exactly."""
    for ii in range(mii, II_RANGE_FACTOR * mii + 1):
        sched = modulo_schedule(deps, config, ii,
                                lat_cap=(MAX_STAGES - 1) * ii)
        if sched is not None:
            return sched.ii
    return 0


def oracle_loop(deps: LoopDeps, config: MachineConfig,
                budget: Optional[Budget] = None,
                label: str = "") -> LoopOracleResult:
    """Prove the optimal II for one loop, or a certified bound.

    Walks II upward from MII.  Each UNSAT raises the certified lower
    bound; the first SAT is the optimal II iff everything below was
    refuted.  The walk stops at ``II_RANGE_FACTOR * mii`` (the
    heuristic's own ceiling) — past that the loop would not be
    pipelined anyway.
    """
    if budget is None:
        budget = Budget()
    start_nodes = budget.nodes
    res, rec, mii = compute_mii(deps, config)
    heur = heuristic_ii(deps, config, mii)

    certified_lb = mii         # II < MII refuted by the bound arguments
    optimal_ii = 0
    times = None
    all_below_refuted = True
    status = STATUS_BAILED
    for ii in range(mii, II_RANGE_FACTOR * mii + 1):
        out = decide_ii(deps, config, ii, budget)
        if out.status == SAT:
            optimal_ii, times = ii, out.times
            bad = validate_modulo_times(deps, config, ii, out.times)
            if bad:
                raise AssertionError(
                    f"oracle produced an illegal modulo schedule "
                    f"for {label or 'loop'}: {bad}")
            status = (STATUS_OPTIMAL if all_below_refuted
                      else STATUS_FEASIBLE)
            break
        if out.status == UNSAT:
            certified_lb = ii + 1
            continue
        all_below_refuted = False
        break                  # budget exhausted; further IIs won't run

    return LoopOracleResult(
        label=label, n_ops=len(deps.ops), res_mii=res, rec_mii=rec,
        mii=mii, heuristic_ii=heur, status=status,
        optimal_ii=optimal_ii, certified_lb=certified_lb,
        nodes=budget.nodes - start_nodes, times=times)
