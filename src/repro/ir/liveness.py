"""Backward liveness analysis over the CFG.

Used by dead-code elimination, the register allocator, and trace
scheduling's speculation-safety rule (an instruction may not move above
a split if it writes a register that is live on the off-trace path).
"""

from __future__ import annotations

from typing import Optional

from ..isa import Reg
from .cfg import Cfg


#: A block's (upward-exposed uses, defs).
UseDef = tuple[set[Reg], set[Reg]]


def block_use_def(block_instrs) -> UseDef:
    """(upward-exposed uses, defs) for a straight-line instruction list."""
    uses: set[Reg] = set()
    defs: set[Reg] = set()
    for instr in block_instrs:
        for reg in instr.uses():
            if reg not in defs:
                uses.add(reg)
        defs.update(instr.defs())
    return uses, defs


def liveness(cfg: Cfg, use_def: Optional[dict[str, UseDef]] = None
             ) -> tuple[dict[str, set[Reg]], dict[str, set[Reg]]]:
    """Compute (live_in, live_out) register sets for every block.

    *use_def*, when given, caches :func:`block_use_def` per block label
    across calls: a block's entry is used as is, and a missing one is
    computed and stored.  The caller drops the entry of every block it
    changes."""
    use: dict[str, set[Reg]] = {}
    defs: dict[str, set[Reg]] = {}
    for block in cfg:
        label = block.label
        if use_def is None:
            use[label], defs[label] = block_use_def(block.instrs)
            continue
        entry = use_def.get(label)
        if entry is None:
            entry = use_def[label] = block_use_def(block.instrs)
        use[label], defs[label] = entry
    succs = {label: cfg.successors(label) for label in cfg.order}
    live_in = {label: set() for label in cfg.order}
    live_out = {label: set() for label in cfg.order}
    changed = True
    while changed:
        changed = False
        for label in reversed(cfg.order):
            out: set[Reg] = set()
            for succ in succs[label]:
                out |= live_in[succ]
            new_in = use[label] | (out - defs[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True
    return live_in, live_out
