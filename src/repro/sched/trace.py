"""Trace scheduling (paper sections 3.2, 4.2).

Profile-guided, Fisher-style: basic blocks are grouped into *traces*
along the most frequently executed paths (never crossing loop back
edges), each trace is scheduled as if it were one basic block, and
bookkeeping code keeps off-trace paths correct:

* **splits** (conditional branches off the trace): instructions may
  move *up* past a split only speculatively — never stores, possibly
  trapping ops (divides), or instructions writing a register that is
  live into the off-trace path (the paper's safety rule);
  downward motion past a split is restricted (no compensation
  duplication on splits in this implementation);
* **joins** (off-trace edges entering the trace): instructions from
  below a join may move above it, and every such hoisted instruction
  is *copied* into a compensation block on each entering edge (paper
  Figure 2); instructions from above a join may not sink below it.

Mechanically, the trace is concatenated into one instruction list with
NOP *join markers*; ORDER arcs make branches and markers downward
barriers while leaving upward (speculative / compensated) motion free;
the shared list scheduler runs with either weight model; the result is
split back into blocks at the markers, and entering edges are
redirected through freshly built compensation blocks.

Side entrances (an earlier trace block branching into the middle of
the same trace) are excluded during trace formation, which keeps
compensation sets uniform per join.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..ir import Cfg, ORDER, build_dag, find_back_edges, liveness
from ..ir.cfg import BasicBlock
from ..isa import Instruction, Reg
from .list_scheduler import list_schedule
from .block import schedule_block
from .weights import WeightModel

_UNSAFE_SPECULATION_OPS = frozenset({"DIVQ", "REMQ", "FDIV"})

#: Maximum probability of leaving the trace at a split for speculation
#: across it to pay off: hoisted instructions execute on the off-trace
#: path too, so a frequently taken exit turns speculation into pure
#: overhead on a single-issue machine.
SPECULATION_MAX_OFF_PROB = 0.2

#: Maximum fraction of a join block's executions that may arrive over
#: off-trace edges before hoisting across the join is disabled: every
#: hoisted instruction is duplicated into a compensation block executed
#: on those edges, so frequent entries make bookkeeping dominate.
JOIN_MAX_OFF_PROB = 0.2


@dataclass
class ProfileData:
    """Basic-block and edge execution frequencies from a profiling run."""

    block_counts: dict[str, int] = field(default_factory=dict)
    edge_counts: dict[tuple[str, str], int] = field(default_factory=dict)

    def block(self, label: str) -> int:
        return self.block_counts.get(label, 0)

    def edge(self, src: str, dst: str) -> int:
        return self.edge_counts.get((src, dst), 0)


@dataclass
class TraceStats:
    traces: int = 0
    multi_block_traces: int = 0
    blocks_merged: int = 0
    compensation_instructions: int = 0
    speculation_arcs: int = 0


# ------------------------------------------------------------------ traces
def form_traces(cfg: Cfg, profile: ProfileData) -> list[list[str]]:
    """Partition blocks into traces along hottest profiled edges."""
    back_edges = set(find_back_edges(cfg))
    # A loop header may only ever be a trace *head*: entering edges
    # (including its own back edges) then arrive at the start of the
    # scheduled region, where no compensation is needed.  Letting a
    # trace grow into a header would put a back-edge target mid-trace,
    # which join bookkeeping cannot redirect.
    loop_headers = {header for _, header in back_edges}
    preds_map = cfg.predecessors()
    unvisited = set(cfg.order)
    seeds = sorted(cfg.order, key=lambda lbl: (-profile.block(lbl),
                                               cfg.order.index(lbl)))
    traces: list[list[str]] = []

    for seed in seeds:
        if seed not in unvisited:
            continue
        unvisited.discard(seed)
        trace = [seed]
        in_trace = {seed}

        # Grow forward along the hottest non-back, unvisited edge.
        current = seed
        while True:
            current_freq = profile.block(current)
            candidates = [
                s for s in cfg.successors(current)
                if s in unvisited and s != cfg.entry
                and s not in loop_headers
                and (current, s) not in back_edges
                and profile.edge(current, s) > 0
                # Never cross a frequency cliff in either direction:
                # stepping down (loop body -> exit) speculates
                # once-per-loop code into every iteration; climbing up
                # (if-side -> join) hoists always-executed code into a
                # rarely executed block with heavy compensation.
                and 2 * profile.block(s) >= current_freq
                and 2 * current_freq >= profile.block(s)
            ]
            if not candidates:
                break
            nxt = max(candidates, key=lambda s: profile.edge(current, s))
            # No side entrances: an earlier trace block (other than the
            # tail) must not branch into the candidate.
            if any(p in in_trace and p != current for p in preds_map[nxt]):
                break
            trace.append(nxt)
            in_trace.add(nxt)
            unvisited.discard(nxt)
            current = nxt

        # Grow backward along the hottest entering edge.
        current = seed
        while current != cfg.entry and current not in loop_headers:
            current_freq = profile.block(current)
            candidates = [
                p for p in preds_map[current]
                if p in unvisited and (p, current) not in back_edges
                and profile.edge(p, current) > 0
                # Same frequency-cliff rule as forward growth.
                and 2 * profile.block(p) >= current_freq
                and 2 * current_freq >= profile.block(p)
            ]
            if not candidates:
                break
            prev = max(candidates, key=lambda p: profile.edge(p, current))
            # The new head must not branch into the middle of the trace.
            succs = set(cfg.successors(prev))
            if succs & (in_trace - {current}):
                break
            # And the old head must not be side-entered from the body.
            trace.insert(0, prev)
            in_trace.add(prev)
            unvisited.discard(prev)
            current = prev

        traces.append(trace)
    return traces


# ------------------------------------------------------------- scheduling
class TraceScheduler:
    """Applies trace scheduling to a whole CFG, in place."""

    def __init__(self, cfg: Cfg, profile: ProfileData,
                 model: WeightModel) -> None:
        self.cfg = cfg
        self.profile = profile
        self.model = model
        self.stats = TraceStats()

    def run(self) -> TraceStats:
        live_in, live_out = liveness(self.cfg)
        traces = form_traces(self.cfg, self.profile)
        for trace in traces:
            self.stats.traces += 1
            if len(trace) >= 2:
                self.stats.multi_block_traces += 1
                self.stats.blocks_merged += len(trace)
                self._schedule_trace(trace, live_in, live_out[trace[-1]])
            else:
                block = self.cfg.blocks[trace[0]]
                block.instrs = schedule_block(block.instrs, self.model,
                                              live_out=live_out[trace[0]])
        self.cfg.prune_unreachable()
        self.cfg.verify()
        return self.stats

    # ------------------------------------------------------------- merging
    def _schedule_trace(self, trace: list[str],
                        live_in: dict[str, set[Reg]],
                        final_live_out: set[Reg]) -> None:
        cfg = self.cfg
        preds_map = cfg.predecessors()
        merged: list[Instruction] = []
        markers: dict[int, str] = {}          # merged index -> join label
        # merged index of each split -> (off-trace live-ins, off-trace
        # probability from the profile).
        branch_offlive: dict[int, tuple[set[Reg], float]] = {}
        final_fallthrough: Optional[str] = None

        def off_probability(label: str, off_label: str) -> float:
            total = self.profile.block(label)
            if total <= 0:
                return 1.0
            return self.profile.edge(label, off_label) / total

        gated_markers: set[int] = set()
        for idx, label in enumerate(trace):
            block = cfg.blocks[label]
            if idx > 0:
                prev = trace[idx - 1]
                off_preds = [p for p in preds_map[label] if p != prev]
                if off_preds:
                    marker = Instruction("NOP", comment=f"join {label}")
                    markers[len(merged)] = label
                    # Off-trace share = executions NOT arriving over the
                    # in-trace edge; unknown edges count as off-trace.
                    total = self.profile.block(label)
                    in_edge = self.profile.edge(prev, label)
                    if total <= 0 or 1 - in_edge / total > JOIN_MAX_OFF_PROB:
                        gated_markers.add(len(merged))
                    merged.append(marker)
            term = block.terminator
            body = block.instrs[:-1] if term is not None else block.instrs
            merged.extend(body)
            is_last = idx == len(trace) - 1
            if term is None:
                if is_last:
                    final_fallthrough = block.fallthrough
                continue
            if not is_last:
                next_label = trace[idx + 1]
                if term.op == "BR":
                    continue            # falls into the next trace block
                # Conditional branch: keep the off-trace edge explicit.
                if term.label == next_label:
                    inverted = "BNE" if term.op == "BEQ" else "BEQ"
                    off_label = block.fallthrough
                    new_term = term.copy(op=inverted, label=off_label)
                else:
                    new_term = term.copy()
                branch_offlive[len(merged)] = (
                    live_in.get(new_term.label, set()),
                    off_probability(label, new_term.label))
                merged.append(new_term)
            else:
                if term.op in ("BEQ", "BNE"):
                    off_label = block.fallthrough or term.label
                    branch_offlive[len(merged)] = (
                        live_in.get(off_label, set()),
                        off_probability(label, off_label))
                    final_fallthrough = block.fallthrough
                merged.append(term)

        # Live out of the merged list, for pressure feedback: what the
        # final block leaves live, plus what every side exit needs.
        trace_live_out = set(final_live_out)
        for off_live, _ in branch_offlive.values():
            trace_live_out |= off_live
        dag = build_dag(merged, live_out=trace_live_out)
        self._add_trace_arcs(dag, merged, markers, branch_offlive,
                             gated_markers)
        order = list_schedule(dag, self.model)
        self._rebuild(trace, merged, order, markers, final_fallthrough)

    def _add_trace_arcs(self, dag, merged: list[Instruction],
                        markers: dict[int, str],
                        branch_offlive: dict[int, tuple[set[Reg], float]],
                        gated_markers: set[int]) -> None:
        # Downward barriers: everything originally above a branch or a
        # join marker stays above it (chained for O(n) edges).
        last_barrier = -1
        for j, instr in enumerate(merged):
            if instr.is_branch or instr.op == "HALT" or j in markers:
                for i in range(last_barrier + 1, j):
                    dag.add_edge(i, j, ORDER)
                if last_barrier >= 0:
                    dag.add_edge(last_barrier, j, ORDER)
                last_barrier = j
        # Speculation safety: pin unsafe instructions below each split,
        # and everything below a split that is taken too often to make
        # speculation profitable.
        for s, (off_live, off_prob) in branch_offlive.items():
            speculation_ok = off_prob <= SPECULATION_MAX_OFF_PROB
            for y in range(s + 1, len(merged)):
                instr = merged[y]
                if y in markers or instr.is_branch:
                    continue
                unsafe = (not speculation_ok
                          or instr.is_store
                          or instr.op in _UNSAFE_SPECULATION_OPS
                          or any(reg in off_live for reg in instr.defs()))
                if unsafe:
                    dag.add_edge(s, y, ORDER)
                    self.stats.speculation_arcs += 1
        # Frequently entered joins: no hoisting across them at all
        # (compensation would run on too many executions).
        for m in gated_markers:
            for y in range(m + 1, len(merged)):
                dag.add_edge(m, y, ORDER)

    # -------------------------------------------------------- reconstruction
    def _rebuild(self, trace: list[str], merged: list[Instruction],
                 order: list[int], markers: dict[int, str],
                 final_fallthrough: Optional[str]) -> None:
        cfg = self.cfg
        # Cut the scheduled sequence into blocks: at each join marker
        # (which keeps the join block's label, the target of entering
        # edges) and after each internal branch (the block invariant
        # allows control transfers only at block ends).
        segments: list[tuple[str, list[Instruction]]] = []
        current: list[Instruction] = []
        current_label = trace[0]
        join_labels: list[str] = []
        compensation: dict[str, list[Instruction]] = {}

        def close(next_label: str) -> None:
            nonlocal current, current_label
            segments.append((current_label, current))
            current = []
            current_label = next_label

        for pos, node in enumerate(order):
            if node in markers:
                join_label = markers[node]
                join_labels.append(join_label)
                hoisted = [n for n in order[:pos]
                           if n > node and n not in markers]
                compensation[join_label] = [merged[n].copy()
                                            for n in hoisted]
                close(join_label)
            else:
                current.append(merged[node])
                if merged[node].is_branch or merged[node].op == "HALT":
                    if pos + 1 < len(order):
                        close(cfg.new_label("tseg"))
        segments.append((current_label, current))

        # Rewrite the CFG: the head and each join block keep their
        # labels, fresh sub-blocks are added, the rest of the trace
        # blocks vanish.
        segment_labels = [label for label, _ in segments]
        kept = set(segment_labels)
        for label in trace:
            if label not in kept:
                del cfg.blocks[label]
                cfg.order.remove(label)
        anchor = cfg.order.index(trace[0])
        for index, (label, instrs) in enumerate(segments):
            if label in cfg.blocks:
                block = cfg.blocks[label]
                block.instrs = instrs
            else:
                block = BasicBlock(label, instrs=instrs)
                cfg.blocks[label] = block
                cfg.order.insert(anchor + index, label)
            term = block.terminator
            ends_control = term is not None and term.op in ("BR", "HALT")
            if index + 1 < len(segments):
                block.fallthrough = (None if ends_control
                                     else segments[index + 1][0])
            else:
                block.fallthrough = (None if ends_control
                                     else final_fallthrough)
        # Keep segments contiguous in layout order.
        for label in segment_labels[1:]:
            cfg.order.remove(label)
        for offset, label in enumerate(segment_labels[1:], start=1):
            cfg.order.insert(anchor + offset, label)

        # Compensation blocks on entering edges.  They are laid out
        # right after the trace so register live ranges referenced from
        # them stay short (the allocator's intervals follow layout
        # order).
        anchor_label = segment_labels[-1]
        for join_label, instrs in compensation.items():
            if not instrs:
                continue
            self.stats.compensation_instructions += len(instrs)
            comp_label = cfg.new_label("comp")
            comp = BasicBlock(comp_label, instrs=list(instrs),
                              fallthrough=join_label)
            cfg.add_block(comp, after=anchor_label)
            anchor_label = comp_label
            self._redirect_edges(join_label, comp_label,
                                 skip=set(segment_labels))

    def _redirect_edges(self, old: str, new: str, skip: set[str]) -> None:
        """Point every off-trace edge targeting *old* at *new* instead."""
        for block in self.cfg:
            if block.label in skip or block.label == new:
                continue
            if block.fallthrough == old:
                block.fallthrough = new
            term = block.terminator
            if term is not None and term.is_branch and term.label == old:
                block.instrs[-1] = term.copy(label=new)


def trace_schedule(cfg: Cfg, profile: ProfileData,
                   model: WeightModel) -> TraceStats:
    """Trace-schedule *cfg* in place using *profile* frequencies."""
    return TraceScheduler(cfg, profile, model).run()
