"""Block-local copy propagation.

Within a basic block, after ``MOV d, s`` every use of ``d`` is
rewritten to ``s`` until either register is redefined.  Inlining and
lowering generate most of these copies; dead ones are swept by DCE.
"""

from __future__ import annotations

from ..ir import Cfg
from ..isa import Instruction, Reg


def propagate_copies(cfg: Cfg) -> int:
    """Rewrite copy chains in every block; return rewritten-use count."""
    rewritten = 0
    for block in cfg:
        copies: dict[Reg, Reg] = {}      # dest -> original source
        # source -> dests once copied from it; an entry goes stale when
        # its dest is remapped, so each is checked against *copies*.
        copied_from: dict[Reg, list[Reg]] = {}
        new_instrs: list[Instruction] = []
        for instr in block.instrs:
            srcs = instr.srcs
            new_srcs = tuple([copies.get(r, r) for r in srcs])
            dest = instr.dest
            if instr.info.reads_dest and dest in copies:
                # CMOV reads its destination: the copy cannot be
                # propagated into a write, drop the mapping instead.
                del copies[dest]
            if new_srcs != srcs:
                rewritten += 1
                instr = instr.copy(srcs=new_srcs)
            if dest is not None:
                copies.pop(dest, None)
                for d in copied_from.pop(dest, ()):
                    if copies.get(d) is dest:
                        del copies[d]
            if instr.op in ("MOV", "FMOV") and instr.dest is not None:
                source = instr.srcs[0]
                if source is not instr.dest:
                    copies[instr.dest] = source
                    copied_from.setdefault(source, []).append(instr.dest)
            new_instrs.append(instr)
        block.instrs = new_instrs
    return rewritten
