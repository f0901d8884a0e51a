"""Lower bounds on the initiation interval.

``MII = max(ResMII, RecMII)`` (Rau's formulation):

* **ResMII** -- resource-constrained bound from the machine's issue
  width and its one memory operation per cycle: with N operations per
  iteration and M memory operations, no schedule can initiate
  iterations faster than ``max(ceil(N / issue_width), M)``.
* **RecMII** -- recurrence-constrained bound: for every dependence
  cycle C, ``II >= sum(latency) / sum(distance)`` over C.  Computed by
  binary search on II with a Bellman-Ford-style positive-cycle test on
  edge weights ``latency - distance * II`` (a positive cycle means the
  candidate II is infeasible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ...machine import MachineConfig
from .deps import DepEdge, LoopDeps


def res_mii(deps: LoopDeps, config: MachineConfig) -> int:
    n = len(deps.ops)
    n_mem = sum(1 for ins in deps.ops if ins.is_mem)
    return max(1, math.ceil(n / max(1, config.issue_width)), n_mem)


def _positive_cycle(n: int, edges: list[DepEdge],
                    ii: int) -> Optional[list[DepEdge]]:
    """Longest-path relaxation on edge weights ``latency - distance * ii``.

    Returns the edges of a positive-weight cycle in dependence order (the
    recurrence cannot be satisfied at this ii), or None when there is none.
    """
    dist = [0] * n
    pred: list[Optional[DepEdge]] = [None] * n
    for _ in range(n):
        changed = False
        for e in edges:
            w = e.latency - e.distance * ii
            if dist[e.src] + w > dist[e.dst]:
                dist[e.dst] = dist[e.src] + w
                pred[e.dst] = e
                changed = True
        if not changed:
            return None
    # Still relaxing after n passes: a positive cycle exists.
    start = next((e for e in edges
                  if dist[e.src] + e.latency - e.distance * ii
                  > dist[e.dst]), None)
    if start is None:
        return None
    pred[start.dst] = start
    # Walk n predecessor hops to guarantee we are inside the cycle,
    # then collect it.
    node = start.dst
    for _ in range(n):
        edge = pred[node]
        assert edge is not None
        node = edge.src
    cycle: list[DepEdge] = []
    cursor = node
    while True:
        edge = pred[cursor]
        assert edge is not None
        cycle.append(edge)
        cursor = edge.src
        if cursor == node:
            break
    cycle.reverse()
    return cycle


def rec_mii(deps: LoopDeps) -> int:
    """Smallest II admitting no positive-weight dependence cycle."""
    n = len(deps.ops)
    if n == 0 or not any(e.distance for e in deps.edges):
        return 1
    # Any cycle contains at least one distance-1 edge, so II is bounded
    # above by the total latency of the graph.
    hi = max(1, sum(e.latency for e in deps.edges))
    lo = 1
    if _positive_cycle(n, deps.edges, lo) is None:
        return 1
    # Invariant: lo infeasible, hi feasible.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _positive_cycle(n, deps.edges, mid) is not None:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class RecurrenceWitness:
    """Certificate for RecMII: the critical recurrence cycle.

    The cycle's edges sum to ``latency`` total latency over ``distance``
    loop-carried iterations, so any II below ``ceil(latency/distance)``
    leaves the recurrence unsatisfiable.  Extracted at ``RecMII - 1``
    (where the cycle is still positive), which pins the bound exactly:
    ``ii_bound == rec_mii``.
    """

    ops: tuple            # op indices around the cycle, dependence order
    kinds: tuple          # edge kind per hop (ops[i] -> ops[i+1])
    latency: int          # sum of edge latencies around the cycle
    distance: int         # sum of edge distances around the cycle

    @property
    def ii_bound(self) -> int:
        return math.ceil(self.latency / self.distance)

    def describe(self, deps: LoopDeps) -> str:
        names = [f"{deps.ops[i].op}@{i}" for i in self.ops]
        chain = " -> ".join(names + [names[0]] if names else [])
        return (f"{chain} (latency {self.latency} / "
                f"distance {self.distance} => II >= {self.ii_bound})")

    def to_json(self) -> dict:
        return {
            "ops": list(self.ops),
            "kinds": list(self.kinds),
            "latency": self.latency,
            "distance": self.distance,
            "ii_bound": self.ii_bound,
        }


def recurrence_witness(deps: LoopDeps,
                       rec: Optional[int] = None
                       ) -> Optional[RecurrenceWitness]:
    """Extract the critical recurrence certifying ``rec_mii``.

    The positive-cycle test at ``rec_mii - 1`` finds it.  Returns
    None when no recurrence binds (``rec_mii == 1``).
    """
    if rec is None:
        rec = rec_mii(deps)
    if rec <= 1:
        return None
    ii = rec - 1
    cycle = _positive_cycle(len(deps.ops), deps.edges, ii)
    if cycle is None:
        return None
    latency = sum(e.latency for e in cycle)
    distance = sum(e.distance for e in cycle)
    if distance <= 0 or latency - distance * ii <= 0:
        return None           # not a binding cycle; fail safe
    return RecurrenceWitness(
        ops=tuple(e.src for e in cycle),
        kinds=tuple(e.kind for e in cycle),
        latency=latency, distance=distance)


def compute_mii(deps: LoopDeps, config: MachineConfig) -> tuple[int, int, int]:
    """Return ``(res_mii, rec_mii, mii)``."""
    res = res_mii(deps, config)
    rec = rec_mii(deps)
    return res, rec, max(res, rec)

