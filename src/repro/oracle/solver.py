"""Pure-python branch-and-bound core for the scheduling oracle.

The oracle encodes scheduling questions as *decision problems* over
integer issue cycles: given one variable ``t[i]`` per operation, does an
assignment exist that satisfies

* difference constraints ``t[dst] - t[src] >= latency - distance * II``
  (dependence arcs; ``distance`` is 0 for acyclic block scheduling and
  the iteration distance for modulo scheduling),
* resource reservation: at most ``issue_width`` operations share an
  issue row, at most one of them touches memory (rows are
  absolute cycles for acyclic problems, ``t mod II`` for modulo
  problems),
* optional side objectives expressed as an extra bound (see
  :mod:`repro.oracle.block` for the expected-stall bound).

Optimization is layered on top by the callers via binary search on the
bound, so this module only ever answers SAT / UNSAT / UNKNOWN:

* ``SAT`` comes with a witness assignment,
* ``UNSAT`` is a *certificate*: the search space was exhausted (the
  engine is complete over the supplied windows),
* ``UNKNOWN`` means the node budget ran out first — callers must
  surface this as honest ``bailed`` accounting, never as a bound.

The engine is a classic DFS with bounds-consistency propagation:
per-op windows ``[lo, hi]`` are tightened to a fixpoint over the
difference arcs (Bellman-Ford style; a window that keeps moving after
``n`` sweeps proves a positive cycle, which is itself an infeasibility
certificate), variables are chosen fail-first (smallest window), and
values are tried in increasing cycle order.  No external dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class BudgetExhausted(Exception):
    """Raised internally when the search budget runs out."""


@dataclass
class Budget:
    """Node cap shared across every decision for one block or loop.

    Node accounting is deterministic, so a fixed cap gives bit-stable
    results run to run.
    """

    max_nodes: int = 200_000
    nodes: int = 0
    exhausted: bool = False

    def charge(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.nodes > self.max_nodes:
            self.exhausted = True
            raise BudgetExhausted()


@dataclass(frozen=True)
class Arc:
    """Dependence arc: ``t[dst] - t[src] >= latency - distance * II``."""

    src: int
    dst: int
    latency: int
    distance: int = 0


@dataclass(frozen=True)
class Problem:
    """A scheduling decision instance.

    ``is_mem[i]`` marks operations that occupy a memory port.  ``ii``
    selects modulo semantics (resource rows are ``t mod ii``); ``None``
    selects acyclic semantics (rows are absolute cycles and every
    ``distance`` must be 0).
    """

    n: int
    arcs: tuple
    is_mem: tuple
    issue_width: int = 1
    ii: Optional[int] = None

    def arc_weight(self, arc: Arc) -> int:
        if self.ii is None:
            return arc.latency
        return arc.latency - arc.distance * self.ii


@dataclass(frozen=True)
class StallSpec:
    """Expected-stall side constraint for acyclic problems.

    ``loads`` is a sequence of ``(load, consumers, weight)`` triples;
    the stall of a load is ``max(0, weight - gap)`` where ``gap`` is the
    smallest ``t[use] - t[load]`` over its true consumers.  The total
    stall must stay ``<= bound``; with ``include_makespan`` the bound
    constrains ``makespan + total stall`` instead (the combined
    expected-cycles objective).
    """

    loads: tuple
    bound: int
    include_makespan: bool = False


@dataclass
class Outcome:
    status: str
    times: Optional[list] = None
    nodes: int = 0


def _stall_of(load_time: int, consumer_times: Sequence[int], weight: int) -> int:
    if not consumer_times:
        return 0
    gap = min(consumer_times) - load_time
    return max(0, weight - gap)


def assignment_stall(times: Sequence[int], spec_loads: Sequence[tuple]) -> int:
    """Total expected stall of a complete assignment."""
    total = 0
    for load, consumers, weight in spec_loads:
        total += _stall_of(times[load], [times[c] for c in consumers], weight)
    return total


class _Search:
    def __init__(
        self,
        problem: Problem,
        lo: list,
        hi: list,
        budget: Budget,
        stall: Optional[StallSpec],
    ) -> None:
        self.problem = problem
        self.lo = lo
        self.hi = hi
        self.budget = budget
        self.stall = stall
        self.placed = [False] * problem.n
        # row -> (ops issued, mem ops issued)
        self.rows: dict = {}
        self.solution: Optional[list] = None
        # Arcs indexed by endpoint for incremental propagation seeds.
        self.in_arcs: list = [[] for _ in range(problem.n)]
        self.out_arcs: list = [[] for _ in range(problem.n)]
        for arc in problem.arcs:
            self.out_arcs[arc.src].append(arc)
            self.in_arcs[arc.dst].append(arc)

    # -- propagation -------------------------------------------------

    def propagate(self) -> bool:
        """Tighten windows to a fixpoint; False on wipeout.

        Lower bounds relax like longest paths (Bellman-Ford): if any
        bound still moves after ``n`` full sweeps the arc graph has a
        positive cycle, which makes the constraint system infeasible
        outright.
        """
        problem, lo, hi = self.problem, self.lo, self.hi
        n = problem.n
        for sweep in range(n + 1):
            self.budget.charge()
            changed = False
            for arc in problem.arcs:
                w = problem.arc_weight(arc)
                nl = lo[arc.src] + w
                if nl > lo[arc.dst]:
                    if nl > hi[arc.dst]:
                        return False
                    lo[arc.dst] = nl
                    changed = True
                nh = hi[arc.dst] - w
                if nh < hi[arc.src]:
                    if nh < lo[arc.src]:
                        return False
                    hi[arc.src] = nh
                    changed = True
            if not changed:
                return True
        # Still moving after n sweeps: positive cycle => infeasible.
        return False

    def stall_lower_bound(self) -> int:
        """Sound lower bound on the stall objective given the windows.

        The largest achievable gap for a load puts the load as early and
        every consumer as late as its window allows.  With
        ``include_makespan`` the bound also counts the unavoidable
        makespan (every op issues at its earliest window cycle); on a
        complete assignment (collapsed windows) the bound is exact.
        """
        assert self.stall is not None
        total = 0
        for load, consumers, weight in self.stall.loads:
            if not consumers:
                continue
            max_gap = min(self.hi[c] for c in consumers) - self.lo[load]
            total += max(0, weight - max_gap)
        if self.stall.include_makespan and self.lo:
            total += max(self.lo) + 1
        return total

    # -- resource rows -----------------------------------------------

    def _row(self, t: int) -> int:
        if self.problem.ii is None:
            return t
        return t % self.problem.ii  # python %: non-negative for ii > 0

    def row_free(self, t: int, is_mem: bool) -> bool:
        used, mem_used = self.rows.get(self._row(t), (0, 0))
        if used >= self.problem.issue_width:
            return False
        if is_mem and mem_used:
            return False
        return True

    def occupy(self, t: int, is_mem: bool) -> None:
        row = self._row(t)
        used, mem_used = self.rows.get(row, (0, 0))
        self.rows[row] = (used + 1, mem_used + (1 if is_mem else 0))

    def release(self, t: int, is_mem: bool) -> None:
        row = self._row(t)
        used, mem_used = self.rows[row]
        self.rows[row] = (used - 1, mem_used - (1 if is_mem else 0))

    # -- search ------------------------------------------------------

    def pick(self) -> Optional[int]:
        best = None
        best_key = None
        for i in range(self.problem.n):
            if self.placed[i]:
                continue
            key = (self.hi[i] - self.lo[i], i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    def search(self) -> bool:
        op = self.pick()
        if op is None:
            self.solution = list(self.lo)
            return True
        is_mem = bool(self.problem.is_mem[op])
        lo_save = self.lo
        hi_save = self.hi
        for t in range(lo_save[op], hi_save[op] + 1):
            self.budget.charge()
            if not self.row_free(t, is_mem):
                continue
            self.lo = list(lo_save)
            self.hi = list(hi_save)
            self.lo[op] = self.hi[op] = t
            self.placed[op] = True
            self.occupy(t, is_mem)
            ok = self.propagate()
            if ok and self.stall is not None:
                ok = self.stall_lower_bound() <= self.stall.bound
            if ok and self.search():
                return True
            self.release(t, is_mem)
            self.placed[op] = False
        self.lo = lo_save
        self.hi = hi_save
        return False


def solve_decision(
    problem: Problem,
    lo: Sequence[int],
    hi: Sequence[int],
    budget: Budget,
    stall: Optional[StallSpec] = None,
) -> Outcome:
    """Decide whether a schedule exists within the given windows.

    Complete over ``[lo, hi]``: an ``UNSAT`` outcome certifies that no
    assignment inside the windows satisfies the constraints.  Callers
    are responsible for choosing windows wide enough that UNSAT implies
    whatever theorem they are after (see the horizon bound in
    :mod:`repro.oracle.modulo`).
    """
    if problem.ii is None:
        for arc in problem.arcs:
            if arc.distance:
                raise ValueError("acyclic problem with loop-carried arc")
    elif problem.ii <= 0:
        raise ValueError(f"ii must be positive, got {problem.ii}")
    start_nodes = budget.nodes
    search = _Search(problem, list(lo), list(hi), budget, stall)
    try:
        if not search.propagate():
            return Outcome(UNSAT, nodes=budget.nodes - start_nodes)
        if stall is not None and search.stall_lower_bound() > stall.bound:
            return Outcome(UNSAT, nodes=budget.nodes - start_nodes)
        if search.search():
            times = search.solution
            assert times is not None
            return Outcome(SAT, times=times, nodes=budget.nodes - start_nodes)
        return Outcome(UNSAT, nodes=budget.nodes - start_nodes)
    except BudgetExhausted:
        return Outcome(UNKNOWN, nodes=budget.nodes - start_nodes)
