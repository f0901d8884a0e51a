"""Dependence-preservation checking across the schedulers.

The schedulers are the passes with the most freedom to break a
program: they permute instructions subject only to the dependence DAG.
This module snapshots that DAG **before** a scheduling pass runs --
register true/anti/output dependences plus
:class:`~repro.isa.instruction.MemRef`-disambiguated memory
dependences, exactly as :func:`repro.ir.dag.build_dag` computes them --
and verifies afterwards that the emitted order is a legal *topological
embedding* of the snapshot: every dependence arc still points forward
in the final instruction stream.

Snapshots are keyed by instruction ``uid``, which survives in-place
reordering (the schedulers move the same :class:`Instruction` objects)
but changes whenever a pass *copies* an instruction, so bookkeeping
code (trace compensation, pipelined prologues) is recognised and
exempted structurally rather than by pass-specific special cases.

Three modes match the three schedulers:

* ``"block"`` (:func:`repro.sched.block.schedule_cfg`): a pure
  per-block permutation.  Every snapshot block must keep exactly its
  instruction set, and every arc must be order-preserved.
* ``"trace"`` (:func:`repro.sched.trace.trace_schedule`): instructions
  may migrate between the blocks of a trace, branches may be inverted
  (a fresh copy) and unreachable blocks pruned, so only arcs whose two
  endpoints land in the same final block are order-checked.
* ``"kernel"`` (:func:`repro.sched.modulo.pipeline_loops`): untouched
  blocks are held to the strict per-block rule.  The freshly built
  prologue/kernel/epilogue blocks are left to
  :func:`repro.codegen.verify.verify_pipelined_kernels`, which
  :func:`repro.harness.compile.compile_source` runs right after the
  pipeliner: it replays the doubled kernel stream against the modulo
  scheduler's own cross-iteration metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import Cfg, build_dag
from .diagnostics import ERROR, Diagnostic


@dataclass
class BlockDeps:
    """Snapshot of one block: uid order plus uid-keyed dependence arcs."""

    label: str
    uids: list[int]
    #: ``(src uid, dst uid, kind)`` -- src must stay before dst.
    edges: list[tuple[int, int, str]] = field(default_factory=list)


@dataclass
class DepSnapshot:
    """Per-block dependence DAGs of a whole CFG, taken pre-scheduling."""

    blocks: dict[str, BlockDeps] = field(default_factory=dict)

    @property
    def edge_count(self) -> int:
        return sum(len(b.edges) for b in self.blocks.values())


def snapshot_dependences(cfg: Cfg) -> DepSnapshot:
    """Record every block's dependence DAG, keyed by instruction uid."""
    snapshot = DepSnapshot()
    for block in cfg:
        uids = [instr.uid for instr in block.instrs]
        deps = BlockDeps(label=block.label, uids=uids)
        if len(block.instrs) > 1:
            dag = build_dag(block.instrs)
            for src in range(len(dag.instrs)):
                for dst, kind in dag.succs[src].items():
                    deps.edges.append((uids[src], uids[dst], kind))
        snapshot.blocks[block.label] = deps
    return snapshot


def _diag(rule: str, message: str, pass_name: str,
          block: str = "") -> Diagnostic:
    return Diagnostic(severity=ERROR, rule=rule, message=message,
                      pass_name=pass_name, block=block)


def check_dependences(cfg: Cfg, snapshot: DepSnapshot, pass_name: str,
                      mode: str = "block") -> list[Diagnostic]:
    """Verify *cfg* still embeds *snapshot* after a scheduling pass."""
    if mode not in ("block", "trace", "kernel"):
        raise ValueError(f"unknown dependence-check mode {mode!r}")
    position: dict[int, tuple[str, int]] = {}
    instr_of: dict[int, object] = {}
    for block in cfg:
        for index, instr in enumerate(block.instrs):
            position[instr.uid] = (block.label, index)
            instr_of[instr.uid] = instr

    diags: list[Diagnostic] = []
    for label, deps in snapshot.blocks.items():
        final = cfg.blocks.get(label)
        if mode in ("block", "kernel"):
            if final is None:
                diags.append(_diag(
                    "schedule-permutation",
                    f"block {label} disappeared during {pass_name}",
                    pass_name, label))
                continue
            before = sorted(deps.uids)
            after = sorted(instr.uid for instr in final.instrs)
            if before != after:
                lost = len(set(before) - set(after))
                gained = len(set(after) - set(before))
                diags.append(_diag(
                    "schedule-permutation",
                    f"scheduled block is not a permutation of its "
                    f"input ({lost} instruction(s) lost, {gained} "
                    f"foreign)", pass_name, label))
                continue
        for src, dst, kind in deps.edges:
            src_pos = position.get(src)
            dst_pos = position.get(dst)
            if src_pos is None or dst_pos is None:
                continue        # handled by the permutation check above
            src_block, src_index = src_pos
            dst_block, dst_index = dst_pos
            if src_block != dst_block:
                # Legal only for passes that migrate instructions
                # across blocks (trace) or build new ones (kernel).
                if mode == "block":
                    diags.append(_diag(
                        "dependence-order",
                        f"{kind} dependence endpoints split across "
                        f"blocks {src_block} and {dst_block}",
                        pass_name, label))
                continue
            if src_index >= dst_index:
                src_text = instr_of[src].format()
                dst_text = instr_of[dst].format()
                diags.append(_diag(
                    "dependence-order",
                    f"{kind} dependence violated: '{dst_text}' now "
                    f"issues before '{src_text}'", pass_name,
                    src_block))
    return diags
