"""Code DAG: data-dependence graph over a straight-line instruction list.

Nodes are instruction positions in the original order; edges carry a
dependence *kind*:

* ``true``   -- register flow dependence (def -> use);
* ``anti``   -- register anti-dependence (use -> def);
* ``out``    -- register output dependence (def -> def);
* ``mem``    -- memory dependence between conflicting loads/stores,
  decided by :meth:`repro.isa.instruction.MemRef.conflicts_with`
  (the array dependence analysis the paper credits for exposing
  load-level parallelism);
* ``order``  -- explicit ordering arcs, e.g. the locality-analysis arcs
  from a miss load to its corresponding hit loads (paper section 4.2),
  and the arcs that pin control transfers.

Only ``true`` and ``mem`` store->load edges carry the producer's
latency; the others only constrain issue order.  The DAG also exposes
the reachability relation (as bitmasks) needed by the balanced-weight
computation: two instructions are *independent* exactly when neither
reaches the other.  A DAG may also carry the registers live out of its
instruction list, which the balanced weights' pressure feedback needs
to measure MAXLIVE (:func:`repro.analysis.pressure.block_pressure`).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..isa import Instruction, Locality, Reg

TRUE, ANTI, OUT, MEM, ORDER = "true", "anti", "out", "mem", "order"


class Dag:
    """Dependence DAG over ``instrs`` (original order is significant)."""

    def __init__(self, instrs: list[Instruction],
                 live_out: Optional[Iterable[Reg]] = None) -> None:
        self.instrs = instrs
        #: Registers live after the list; None when the builder did not
        #: say (only pressure feedback needs it, and refuses None).
        self.live_out = None if live_out is None else frozenset(live_out)
        n = len(instrs)
        self.preds: list[dict[int, str]] = [dict() for _ in range(n)]
        self.succs: list[dict[int, str]] = [dict() for _ in range(n)]
        self._reach_fwd: Optional[list[int]] = None

    # ------------------------------------------------------------ building
    def add_edge(self, src: int, dst: int, kind: str) -> None:
        """Add (or strengthen) an edge; ``true`` wins over weaker kinds."""
        if src == dst:
            return
        if src > dst:
            raise ValueError(f"edge {src}->{dst} goes against program order")
        existing = self.succs[src].get(dst)
        if existing == TRUE or existing == MEM:
            return
        if existing is not None and kind not in (TRUE, MEM):
            return
        self.succs[src][dst] = kind
        self.preds[dst][src] = kind
        self._reach_fwd = None

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.instrs)

    def roots(self) -> list[int]:
        return [i for i in range(len(self.instrs)) if not self.preds[i]]

    def leaves(self) -> list[int]:
        return [i for i in range(len(self.instrs)) if not self.succs[i]]

    def edge_count(self) -> int:
        return sum(len(s) for s in self.succs)

    def reachability(self) -> list[int]:
        """``reach[i]`` = bitmask of nodes reachable from ``i`` (excl. i).

        Because every edge goes forward in program order, original order
        is already topological.
        """
        if self._reach_fwd is None:
            n = len(self.instrs)
            reach = [0] * n
            for i in range(n - 1, -1, -1):
                mask = 0
                for j in self.succs[i]:
                    mask |= reach[j] | (1 << j)
                reach[i] = mask
            self._reach_fwd = reach
        return self._reach_fwd

    def independent(self, a: int, b: int) -> bool:
        """No dependence path between *a* and *b* in either direction."""
        if a == b:
            return False
        reach = self.reachability()
        if a > b:
            a, b = b, a
        return not (reach[a] >> b) & 1

    def load_indices(self) -> list[int]:
        return [i for i, ins in enumerate(self.instrs) if ins.is_load]

    def topological_check(self, order: Iterable[int]) -> bool:
        """Whether *order* (a permutation of node ids) respects all edges."""
        position = {node: pos for pos, node in enumerate(order)}
        if len(position) != len(self.instrs):
            return False
        return all(position[src] < position[dst]
                   for src in range(len(self.instrs))
                   for dst in self.succs[src])

    # ------------------------------------------------------------ printing
    def format(self) -> str:
        lines = []
        for i, instr in enumerate(self.instrs):
            succs = ", ".join(f"{j}({kind})"
                              for j, kind in sorted(self.succs[i].items()))
            lines.append(f"{i:>3}: {instr.format():<40} -> {succs}")
        return "\n".join(lines)


def _may_alias(a: Instruction, b: Instruction) -> bool:
    """The memory-disambiguation rule: the symbolic
    :class:`~repro.isa.instruction.MemRef`s decide, and an operation
    without one conflicts with everything."""
    if a.mem is None or b.mem is None:
        return True
    return a.mem.conflicts_with(b.mem)


def build_dag(instrs: list[Instruction],
              live_out: Optional[Iterable[Reg]] = None) -> Dag:
    """Build the dependence DAG for a straight-line instruction list.

    Memory operations are ordered by :func:`_may_alias`; ``live_out``
    is carried on the DAG as :attr:`Dag.live_out`.
    """
    dag = Dag(instrs, live_out)
    add_edge = dag.add_edge
    last_def: dict[Reg, int] = {}
    uses_since_def: dict[Reg, list[int]] = {}
    mem_ops: list[int] = []
    group_miss: dict[int, int] = {}   # locality group id -> miss load index

    for j, instr in enumerate(instrs):
        # Register dependences.
        for reg in instr.uses():
            if reg in last_def:
                add_edge(last_def[reg], j, TRUE)
            readers = uses_since_def.get(reg)
            if readers is None:
                uses_since_def[reg] = [j]
            else:
                readers.append(j)
        for reg in instr.defs():
            if reg in last_def:
                add_edge(last_def[reg], j, OUT)
            for reader in uses_since_def.get(reg, ()):
                add_edge(reader, j, ANTI)
            last_def[reg] = j
            uses_since_def[reg] = []

        # Memory dependences.
        if instr.info.is_mem:
            is_load = instr.is_load
            for i in mem_ops:
                other = instrs[i]
                if is_load and other.is_load:
                    continue
                if _may_alias(other, instr):
                    add_edge(i, j, MEM)
            mem_ops.append(j)

        # Locality ordering arcs: each hit load is pinned below the miss
        # load of its reuse group (paper section 4.2).
        if instr.group is not None and instr.is_load:
            if instr.locality is Locality.MISS:
                group_miss[instr.group] = j
            elif instr.locality is Locality.HIT:
                miss = group_miss.get(instr.group)
                if miss is not None:
                    add_edge(miss, j, ORDER)

    # Control transfers inside the list (trace scheduling) are handled
    # by the trace scheduler, which adds its own ORDER arcs; a
    # terminator at the very end is pinned here for convenience.  An
    # ORDER arc never replaces an edge, so it goes in only where the
    # pair has none (what add_edge would do).
    j = len(instrs) - 1
    if j >= 0 and (instrs[j].info.is_branch or instrs[j].op == "HALT"):
        succs = dag.succs
        into_last = dag.preds[j]
        for i in range(j):
            out = succs[i]
            if j not in out:
                out[j] = ORDER
                into_last[i] = ORDER

    return dag
