"""Global dead-code elimination.

Removes instructions whose destination is dead (not used before being
redefined, and not live out of the block) and which have no side
effects.  Loads count as removable — architecturally pure — which is
what an optimizing compiler does, so dead address arithmetic and the
copies left behind by copy propagation disappear.  Runs to fixpoint.
"""

from __future__ import annotations

from ..ir import Cfg, liveness
from ..isa import Instruction


def _has_side_effect(instr: Instruction) -> bool:
    return (instr.is_store or instr.is_branch
            or instr.op in ("HALT", "NOP"))


def eliminate_dead_code(cfg: Cfg) -> int:
    """Delete dead instructions; return how many were removed in total.

    One backward sweep leaves a block with nothing dead under the
    live-out set it was swept with, so a later round sweeps only the
    blocks whose live-out set has changed since."""
    removed_total = 0
    swept_with: dict[str, set] = {}
    while True:
        _, live_out = liveness(cfg)
        removed = 0
        for block in cfg:
            live = live_out[block.label]
            if swept_with.get(block.label) == live:
                continue
            swept_with[block.label] = live
            live = set(live)
            keep_reversed: list[Instruction] = []
            for instr in reversed(block.instrs):
                defs = instr.defs()
                if (defs and all(reg not in live for reg in defs)
                        and not _has_side_effect(instr)):
                    removed += 1
                    continue
                keep_reversed.append(instr)
                for reg in defs:
                    live.discard(reg)
                for reg in instr.uses():
                    live.add(reg)
            keep_reversed.reverse()
            block.instrs = keep_reversed
        removed_total += removed
        if not removed:
            return removed_total
