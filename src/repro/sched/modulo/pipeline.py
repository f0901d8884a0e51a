"""CFG-level software-pipelining driver.

Runs after list/trace scheduling: every innermost single-block loop in
the candidate shape is analyzed, modulo-scheduled (II from MII to
2*MII), expanded and spliced back into the CFG.  Loops that fail any
gate keep their plain list schedule -- the transformation is strictly
opt-in per loop, and even pipelined loops retain the original block as
the short-trip-count fallback, so nothing is ever lost.

Bail-out gates, in order (reason codes in :mod:`.stats`):

* ``not-single-block`` -- the natural loop spans several blocks;
* ``shape``            -- body doesn't match the counted-loop pattern;
* ``too-small`` / ``too-big`` -- body size outside the useful range;
* ``no-ii``            -- no feasible schedule with II <= 2*MII within
  the backtracking budget;
* ``no-overlap``       -- the schedule fits in one stage, so software
  pipelining would change nothing;
* ``stages``           -- more than :data:`MAX_STAGES` stages (too much
  prologue/epilogue and register overlap);
* ``unroll``           -- variable expansion needs more than
  :data:`MAX_UNROLL` kernel copies;
* ``cmov-carried``     -- a predicated op carries its destination
  across iterations, which MVE cannot rename;
* ``pressure``         -- the expanded kernel would exceed the
  allocatable register budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ...ir.cfg import Cfg
from ...ir.liveness import liveness
from ...ir.loops import loop_headers
from ...isa import Reg
from ...machine import MachineConfig
from ..weights import WeightModel
from .deps import LoopDeps, LoopShape, analyze_deps, match_loop
from .kernel import Mve, build_pipeline, plan_mve
from .mii import compute_mii, recurrence_witness
from .scheduler import ModuloSchedule, modulo_schedule
from .stats import (
    REASON_NO_II,
    REASON_NO_OVERLAP,
    REASON_NOT_INNERMOST,
    REASON_SHAPE,
    REASON_STAGES,
    REASON_TOO_BIG,
    REASON_TOO_SMALL,
    LoopPipelineStats,
    ModuloStats,
)

#: Body-size window fed to the modulo scheduler.
MAX_BODY_OPS = 48
MIN_BODY_OPS = 2
#: Maximum pipeline depth (stages) and kernel unroll (MVE copies).
MAX_STAGES = 4
MAX_UNROLL = 4
#: Candidate IIs range from MII to this multiple of MII.
II_RANGE_FACTOR = 2


def _fresh_vreg_factory(cfg: Cfg) -> Callable[[str], Reg]:
    nums = {"i": 0, "f": 0}
    for block in cfg:
        for ins in block.instrs:
            regs = ins.srcs + ((ins.dest,) if ins.dest is not None else ())
            for reg in regs:
                if reg.virtual:
                    nums[reg.kind] = max(nums[reg.kind], reg.num + 1)

    def fresh(kind: str) -> Reg:
        num = nums[kind]
        nums[kind] = num + 1
        return Reg(kind, num, virtual=True)

    return fresh


@dataclass
class LoopCandidate:
    """One single-block loop taken through the shape and size gates.

    ``reason`` is the bail-out code of the first gate it fails; when it
    passes them all, ``reason`` is empty and ``deps`` holds its cyclic
    dependence graph.
    """

    reason: str = ""
    n_ops: int = 0
    shape: Optional[LoopShape] = None
    deps: Optional[LoopDeps] = None
    live_into_exit: set = field(default_factory=set)


def loop_candidate(cfg: Cfg, header: str, live_in: dict,
                   config: MachineConfig,
                   model: Optional[WeightModel]) -> LoopCandidate:
    """Match the loop at *header* and analyze its dependences.

    *live_in* is the CFG's live-in map; the loop's live-out is its own
    live-in plus what is live into its exit.
    """
    exit_label = cfg.blocks[header].fallthrough
    live_into_exit = live_in.get(exit_label, set()) if exit_label else set()
    shape = match_loop(cfg, header, live_into_exit)
    if isinstance(shape, str):
        return LoopCandidate(REASON_SHAPE)
    n_ops = len(shape.ops)
    if n_ops < MIN_BODY_OPS:
        return LoopCandidate(REASON_TOO_SMALL, n_ops)
    if n_ops > MAX_BODY_OPS:
        return LoopCandidate(REASON_TOO_BIG, n_ops)
    deps = analyze_deps(shape.ops, config, model,
                        live_out=live_in[header] | live_into_exit)
    return LoopCandidate(n_ops=n_ops, shape=shape, deps=deps,
                         live_into_exit=live_into_exit)


def find_schedule(deps: LoopDeps, config: MachineConfig,
                  mii: int) -> Optional[ModuloSchedule]:
    """The II walk: the first II from MII to ``II_RANGE_FACTOR * MII``
    that the modulo scheduler fits, each with latencies capped at
    ``(MAX_STAGES - 1) * II``; None when none fits."""
    for ii in range(mii, II_RANGE_FACTOR * mii + 1):
        sched = modulo_schedule(deps, config, ii,
                                lat_cap=(MAX_STAGES - 1) * ii)
        if sched is not None:
            return sched
    return None


def pipeline_loops(cfg: Cfg, config: MachineConfig,
                   model: Optional[WeightModel]) -> ModuloStats:
    """Software-pipeline every eligible loop of *cfg* in place."""
    stats = ModuloStats()
    fresh = _fresh_vreg_factory(cfg)
    for header, single_block in loop_headers(cfg):
        if not single_block:
            stats.loops.append(LoopPipelineStats(
                label=header, pipelined=False,
                reason=REASON_NOT_INNERMOST))
            continue
        stat = _pipeline_one(cfg, header, config, model, fresh, stats)
        stats.loops.append(stat)
    if stats.pipelined:
        cfg.verify()
    return stats


def _pipeline_one(cfg: Cfg, header: str, config: MachineConfig,
                  model: Optional[WeightModel],
                  fresh: Callable[[str], Reg],
                  stats: ModuloStats) -> LoopPipelineStats:
    # Liveness is recomputed per loop: earlier loops rewrote the CFG.
    live_in, _live_out = liveness(cfg)
    candidate = loop_candidate(cfg, header, live_in, config, model)
    bail = LoopPipelineStats(label=header, pipelined=False,
                             reason=candidate.reason,
                             n_ops=candidate.n_ops)
    if candidate.reason:
        return bail
    shape, deps = candidate.shape, candidate.deps
    live_into_exit = candidate.live_into_exit

    res, rec, mii = compute_mii(deps, config)
    witness = recurrence_witness(deps, rec)
    bail.res_mii, bail.rec_mii, bail.mii = res, rec, mii
    recurrence = witness.to_json() if witness is not None else None
    bail.recurrence = recurrence
    bail.mem_dropped = deps.mem_dropped
    bail.mem_exact = deps.mem_exact
    bail.mem_conservative = deps.mem_conservative

    sched = find_schedule(deps, config, mii)
    if sched is None:
        bail.reason = REASON_NO_II
        return bail
    bail.ii = sched.ii
    bail.stages = sched.stage_count
    if sched.stage_count < 2:
        bail.reason = REASON_NO_OVERLAP
        return bail
    if sched.stage_count > MAX_STAGES:
        bail.reason = REASON_STAGES
        return bail

    body_refs: set[Reg] = set()
    for ins in shape.ops:
        body_refs.update(ins.uses())
        body_refs.update(ins.defs())
    live_through = frozenset(r for r in live_into_exit
                             if r not in body_refs and not r.is_zero)
    mve = plan_mve(deps, sched, MAX_UNROLL, fresh, live_through)
    if not isinstance(mve, Mve):
        bail.reason = mve
        return bail

    info = build_pipeline(cfg, shape, deps, sched, mve,
                          live_into_exit, fresh)
    stats.kernels.append(info)
    return LoopPipelineStats(
        label=header, pipelined=True, n_ops=candidate.n_ops,
        res_mii=res, rec_mii=rec, mii=mii, ii=sched.ii,
        stages=sched.stage_count, unroll=mve.ku,
        recurrence=recurrence,
        mem_dropped=deps.mem_dropped, mem_exact=deps.mem_exact,
        mem_conservative=deps.mem_conservative)
