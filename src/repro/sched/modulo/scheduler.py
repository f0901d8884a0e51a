"""Iterative modulo scheduling with a modulo reservation table.

The classic Rau formulation: operations are placed one at a time in
height-priority order; an operation whose dependence window has no free
reservation slot is *force-placed*, evicting whatever conflicts (both
resource conflicts in its row of the modulo reservation table and
scheduled neighbours whose dependence constraints the new placement
violates).  Evicted operations go back on the worklist.  A per-II
operation budget bounds the churn; the driver walks candidate IIs from
MII upward and gives up past ``2 * MII`` (falling back to the plain
list schedule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...machine import MachineConfig
from .deps import LoopDeps

#: Placement attempts per candidate II, as a multiple of the body size.
BUDGET_FACTOR = 8


@dataclass
class ModuloSchedule:
    """A feasible modulo schedule: issue time per op at interval ii."""

    ii: int
    times: list[int]

    @property
    def stage_count(self) -> int:
        return max(t // self.ii for t in self.times) + 1 if self.times else 1

    def stage(self, op: int) -> int:
        return self.times[op] // self.ii

    def slot(self, op: int) -> int:
        return self.times[op] % self.ii


def _heights(deps: LoopDeps, ii: int, lat_cap: int) -> list[float]:
    """Longest-path height of each op under weights lat - dist*ii.

    Converges because the caller only tries IIs at or above RecMII
    (no positive cycles); bounded iteration guards against the
    pathological case anyway.
    """
    n = len(deps.ops)
    height = [0.0] * n
    for _ in range(n + 1):
        changed = False
        for e in deps.edges:
            w = min(e.latency, lat_cap) - e.distance * ii
            if height[e.dst] + w > height[e.src]:
                height[e.src] = height[e.dst] + w
                changed = True
        if not changed:
            break
    return height


def modulo_schedule(deps: LoopDeps, config: MachineConfig, ii: int,
                    lat_cap: int,
                    budget: Optional[int] = None) -> Optional[ModuloSchedule]:
    """Try to find a modulo schedule at initiation interval *ii*.

    Returns ``None`` when the placement budget runs out.
    """
    n = len(deps.ops)
    if n == 0:
        return None
    if budget is None:
        budget = BUDGET_FACTOR * n

    def lat(e) -> int:
        return min(e.latency, lat_cap)

    in_edges: list[list] = [[] for _ in range(n)]
    out_edges: list[list] = [[] for _ in range(n)]
    for e in deps.edges:
        out_edges[e.src].append(e)
        in_edges[e.dst].append(e)

    height = _heights(deps, ii, lat_cap)
    # Modulo reservation table: per row (time mod ii), the ops issued
    # there, of which at most one touches memory.
    issue_width = max(1, config.issue_width)
    mrt: list[list[int]] = [[] for _ in range(ii)]
    times: list[Optional[int]] = [None] * n
    prev_time = [-1] * n

    def row_full(row: int, op: int) -> bool:
        slot_ops = mrt[row]
        if len(slot_ops) >= issue_width:
            return True
        return deps.ops[op].is_mem and any(deps.ops[o].is_mem
                                           for o in slot_ops)

    def unplace(op: int) -> None:
        mrt[times[op] % ii].remove(op)
        times[op] = None

    def place(op: int, t: int) -> None:
        times[op] = t
        mrt[t % ii].append(op)

    worklist = set(range(n))
    while worklist:
        if budget <= 0:
            return None
        op = max(worklist, key=lambda o: (height[o], -o))
        worklist.discard(op)
        budget -= 1

        estart = 0
        for e in in_edges[op]:
            src_t = times[e.src]
            if src_t is not None:
                estart = max(estart, src_t + lat(e) - e.distance * ii)
        # Monotonic progress: never re-place an op at or before its
        # previous slot.
        if prev_time[op] >= 0:
            estart = max(estart, prev_time[op] + 1)

        chosen = None
        for t in range(estart, estart + ii):
            if not row_full(t % ii, op):
                chosen = t
                break
        if chosen is None:
            chosen = max(estart, prev_time[op] + 1)
            # Evict the resource conflicts in this row.
            for other in list(mrt[chosen % ii]):
                unplace(other)
                worklist.add(other)
        place(op, chosen)
        prev_time[op] = chosen

        # Evict scheduled neighbours whose constraints the placement
        # violates (in either direction).
        for e in out_edges[op]:
            dst_t = times[e.dst]
            if (e.dst != op and dst_t is not None
                    and dst_t < chosen + lat(e) - e.distance * ii):
                unplace(e.dst)
                worklist.add(e.dst)
        for e in in_edges[op]:
            src_t = times[e.src]
            if (e.src != op and src_t is not None
                    and chosen < src_t + lat(e) - e.distance * ii):
                unplace(e.src)
                worklist.add(e.src)

    final = [t for t in times]
    assert all(t is not None for t in final)
    # Normalize so the earliest issue time is in stage 0.
    base = min(final)
    base -= base % ii       # keep slot assignments (mod ii) intact
    return ModuloSchedule(ii=ii, times=[t - base for t in final])
