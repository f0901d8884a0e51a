"""Candidate-loop recognition and cyclic dependence analysis.

A pipelining candidate is a single-block self-loop in the shape the
lowering pass produces for counted loops (rotated, bottom-tested)::

    .body:  ...loop body...
            ADD    i, i, #step        ; induction update, step > 0
            CMPLT  t, i, hi           ; or CMPLE; hi loop-invariant
            BNE    t, .body           ; fallthrough = loop exit

:func:`match_loop` verifies the shape and extracts the induction
structure (needed to rewrite loop control around the pipelined kernel).
:func:`analyze_deps` builds the *cyclic* dependence graph over the body
operations: the intra-iteration DAG edges from :func:`~repro.ir.dag
.build_dag` plus loop-carried register and memory dependences, each
annotated with a latency and an iteration *distance*.

Register distances are conservative but simple: a register use whose
most recent in-body definition follows it in program order (or an
operand defined only later in the body) reads the value produced one
iteration earlier -- distance 1 from the last in-body definition.

Memory distances are *exact* where the symbolic dependence analyzer
(:mod:`repro.analysis.deps`) can prove them: provably-independent
reference pairs get no carried arc at all, pairs with a known conflict
window get an arc at the minimum carried distance (an arc at distance
``d`` subsumes every larger distance because the kernel emits
iterations in virtual-time order), and anything the analyzer cannot
model falls back to the old blanket distance-1 arc.  Every sharpened
kernel is re-validated end-to-end: :func:`repro.codegen.verify
.verify_pipelined_kernels` re-runs the same analyzer *independently*
over the recorded body and replays the doubled kernel stream against
its verdicts, so a bug here (one that weakens a carried distance, say)
surfaces as a hard verification error, not a silent miscompile.

Latencies come from the active weight model, so balanced weights give
loads their parallelism-derived target latency and the modulo schedule
separates loads from their uses across pipeline stages -- this is how
``swp`` composes with the paper's balanced scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from ...analysis.deps import LoopBodyDeps, analyze_loop_body
from ...ir.cfg import BasicBlock, Cfg
from ...ir.dag import MEM, OUT, TRUE, build_dag
from ...ir.liveness import block_use_def
from ...isa import Instruction, Reg
from ...machine import MachineConfig
from ..weights import WeightModel

#: Opcodes accepted as the loop-exit comparison.
_COMPARE_OPS = ("CMPLT", "CMPLE")


@dataclass
class LoopShape:
    """Structure of one recognized single-block loop."""

    label: str
    exit_label: str
    induction: Reg
    step: int
    #: Loop bound: an invariant register or an immediate.
    bound_reg: Optional[Reg]
    bound_imm: Optional[int]
    #: The compare tests ``induction + offset`` (unrolled loops probe
    #: the last element of the next chunk: ``ADD t, i, #3; CMPLT ...``).
    offset: int
    inclusive: bool               # CMPLE (True) vs CMPLT (False)
    cond_reg: Reg
    #: Body operations fed to the modulo scheduler (terminator always
    #: excluded; the compare/probe too when the branch is their only
    #: consumer).
    ops: list[Instruction] = field(default_factory=list)


def match_loop(cfg: Cfg, label: str,
               live_into_exit: set[Reg]) -> Union[LoopShape, str]:
    """Match *label*'s block against the candidate shape.

    Returns a :class:`LoopShape` on success or a bail-reason string.
    """
    block: BasicBlock = cfg.blocks[label]
    term = block.terminator
    if term is None or term.op != "BNE" or term.label != label:
        return "terminator"
    exit_label = block.fallthrough
    if not exit_label or exit_label == label:
        return "exit"
    body = block.body
    if not body:
        return "empty"

    cond_reg = term.srcs[0]
    defs_of: dict[Reg, list[int]] = {}
    for pos, ins in enumerate(body):
        for reg in ins.defs():
            defs_of.setdefault(reg, []).append(pos)

    cond_defs = defs_of.get(cond_reg, [])
    if len(cond_defs) != 1:
        return "compare"
    compare_pos = cond_defs[0]
    compare = body[compare_pos]
    if compare.op not in _COMPARE_OPS or not compare.srcs:
        return "compare"
    operand = compare.srcs[0]
    if operand.kind != "i":
        return "induction"
    bound_reg: Optional[Reg] = None
    bound_imm: Optional[int] = None
    if len(compare.srcs) == 2:
        bound_reg = compare.srcs[1]
        if defs_of.get(bound_reg):
            return "bound-varies"
    elif compare.imm is not None and isinstance(compare.imm, int):
        bound_imm = compare.imm
    else:
        return "compare"

    # The compared value is the updated induction register itself, or a
    # probe ``ADD t, i, #offset`` derived from it (unrolled loops test
    # the last iteration of the next chunk).
    reaching = [d for d in defs_of.get(operand, []) if d < compare_pos]
    if not reaching:
        return "compare"
    probe_pos: Optional[int] = None
    offset = 0
    if body[reaching[-1]].srcs == (operand,):
        induction = operand
    else:
        probe_pos = reaching[-1]
        probe = body[probe_pos]
        if (probe.op != "ADD" or len(probe.srcs) != 1
                or not isinstance(probe.imm, int)):
            return "compare"
        induction = probe.srcs[0]
        offset = probe.imm
        if induction.kind != "i":
            return "induction"

    ind_defs = defs_of.get(induction, [])
    if len(ind_defs) != 1:
        return "induction"
    update_pos = ind_defs[0]
    update = body[update_pos]
    if (update.op != "ADD" or update.srcs != (induction,)
            or not isinstance(update.imm, int) or update.imm <= 0):
        return "induction"
    if update_pos > (probe_pos if probe_pos is not None else compare_pos):
        # The compare must test the *updated* induction value, as the
        # loop rotation emits it; anything else is not a counted loop
        # we can reason about.
        return "shape"

    # Drop the loop-control computation from the pipelined body when
    # the branch is its only consumer: the kernel replaces it with a
    # pre-computed counter.  A value is droppable when nothing else
    # reads it (the probe's value specifically: no later reader before
    # a redefinition, no upward-exposed read, not live at the exit).
    drop: list[int] = []
    cond_used_elsewhere = any(
        cond_reg in ins.uses() for pos, ins in enumerate(body)
        if pos != compare_pos)
    if not cond_used_elsewhere and cond_reg not in live_into_exit:
        drop.append(compare_pos)
        if probe_pos is not None and operand not in live_into_exit:
            later_defs = [d for d in defs_of[operand] if d > probe_pos]
            horizon = later_defs[0] if later_defs else len(body)
            read_later = any(
                operand in body[pos].uses()
                for pos in range(probe_pos + 1, horizon)
                if pos != compare_pos)
            upward_exposed = operand in block_use_def(body)[0]
            if (not read_later and not upward_exposed
                    and probe_pos == defs_of[operand][-1]):
                drop.append(probe_pos)
    ops = [ins for pos, ins in enumerate(body) if pos not in drop]

    return LoopShape(label=label, exit_label=exit_label,
                     induction=induction, step=update.imm,
                     bound_reg=bound_reg, bound_imm=bound_imm,
                     offset=offset, inclusive=(compare.op == "CMPLE"),
                     cond_reg=cond_reg, ops=ops)


@dataclass(frozen=True)
class DepEdge:
    """One dependence arc in the cyclic graph.

    The scheduling constraint is ``t[dst] >= t[src] + latency -
    distance * II``; stream correctness additionally needs
    ``t[dst] + distance * II > t[src]``, which holds automatically
    because ``latency >= 1``.
    """

    src: int
    dst: int
    kind: str
    latency: int
    distance: int


@dataclass
class LoopDeps:
    """Cyclic dependence graph over one loop body."""

    ops: list[Instruction]
    edges: list[DepEdge]
    #: Per-op target latency from the weight model (performance only).
    latency: list[int]
    #: Per-op map: source register -> producer iteration distance
    #: (0 = same iteration, 1 = previous); registers without an in-body
    #: producer (loop invariants) are absent.
    use_dist: list[dict[Reg, int]]
    #: Per-op map: source register -> producer op index.
    use_producer: list[dict[Reg, int]]
    #: All in-body definition sites per register, in program order.
    defs_of: dict[Reg, list[int]]
    #: Symbolic memory analysis of the body (the verifier re-derives
    #: its own copy from the recorded kernel body; this one is for the
    #: scheduler and for reporting).
    body_deps: Optional[LoopBodyDeps] = None
    #: Carried-memory arc accounting: pairs proven independent (arc
    #: dropped), pairs with an exact distance, pairs kept conservative.
    mem_dropped: int = 0
    mem_exact: int = 0
    mem_conservative: int = 0


def analyze_deps(ops: list[Instruction], config: MachineConfig,
                 model: Optional[WeightModel],
                 live_out: Optional[Iterable[Reg]] = None) -> LoopDeps:
    """Build the cyclic dependence graph for one loop body.

    *live_out* is what the body leaves live: the header's live-in (the
    next iteration) plus the exit's.  A model with pressure feedback
    needs it.
    """
    dag = build_dag(ops, live_out=live_out)
    if model is not None:
        weights = model.weights(dag)
    else:
        weights = [float(config.op_latency.get(ins.op, 1)) for ins in ops]
    latency = [max(1, int(math.ceil(w))) for w in weights]

    edges: list[DepEdge] = []
    for src in range(len(ops)):
        for dst, kind in dag.succs[src].items():
            lat = latency[src] if kind in (TRUE, MEM) else 1
            edges.append(DepEdge(src, dst, kind, lat, 0))

    defs_of: dict[Reg, list[int]] = {}
    for pos, ins in enumerate(ops):
        for reg in ins.defs():
            defs_of.setdefault(reg, []).append(pos)

    # Loop-carried register flow: a use at position p reads the most
    # recent definition before p (distance 0, already a DAG edge) or,
    # failing that, the *last* definition in the body from the previous
    # iteration (distance 1).
    use_dist: list[dict[Reg, int]] = []
    use_producer: list[dict[Reg, int]] = []
    for pos, ins in enumerate(ops):
        dists: dict[Reg, int] = {}
        producers: dict[Reg, int] = {}
        for reg in set(ins.uses()):
            sites = defs_of.get(reg)
            if not sites:
                continue                      # loop invariant
            before = [d for d in sites if d < pos]
            if before:
                dists[reg] = 0
                producers[reg] = before[-1]
            else:
                dists[reg] = 1
                producers[reg] = sites[-1]
                edges.append(DepEdge(sites[-1], pos, TRUE,
                                     latency[sites[-1]], 1))
        use_dist.append(dists)
        use_producer.append(producers)

    # Registers written at several sites (CMOV chains): successive
    # iterations' writes must not swap in the stream, so every ordered
    # pair of definition sites gets a distance-1 output arc (this
    # bounds the spread of a register's definition times below II).
    for sites in defs_of.values():
        if len(sites) > 1:
            for a in sites:
                for b in sites:
                    if a != b:
                        edges.append(DepEdge(a, b, OUT, 1, 1))

    # Loop-carried memory dependences.  The symbolic analyzer decides,
    # per ordered pair, the minimum iteration distance at which the two
    # references can still touch the same location: no carried conflict
    # -> no arc, exact window -> arc at the minimum carried distance
    # (which subsumes all larger distances: kernel emission preserves
    # virtual-time order), unknown -> the old blanket distance-1 arc.
    # Intra-iteration (distance 0) ordering stays build_dag's job.
    body_deps = analyze_loop_body(ops)
    dropped = exact = conservative = 0
    mem_ops = [pos for pos, ins in enumerate(ops) if ins.is_mem]
    for a in mem_ops:
        for b in mem_ops:
            if a == b:
                continue
            if ops[a].is_load and ops[b].is_load:
                continue
            verdict = body_deps.verdict(a, b)
            distance = verdict.carried_distance()
            if distance is None:
                dropped += 1
                continue
            if verdict.kind == "exact":
                exact += 1
            else:
                conservative += 1
            edges.append(DepEdge(a, b, MEM, 1, distance))

    return LoopDeps(ops=ops, edges=edges, latency=latency,
                    use_dist=use_dist, use_producer=use_producer,
                    defs_of=defs_of, body_deps=body_deps,
                    mem_dropped=dropped, mem_exact=exact,
                    mem_conservative=conservative)
