"""Property tests: dead-code elimination and copy propagation against
reference models.

``eliminate_dead_code`` keeps each block's use/def sets across rounds
and drops them only for a block whose sweep removed something.  The
reference below is the pass as it was, which recounted every block's
use/def sets in every round's liveness.  Hypothesis drives CFGs of one
to four blocks over a few integer and FP virtual registers (so most
values die, some only once a later round has removed their readers),
with copies, a conditional branch from each block, a conditional move
that reads its destination, and stores that keep some values live.
Both must remove the same instructions, leave the same ones in the
same order, and report the same count.

``propagate_copies`` finds the copies a definition invalidates through
an index by source; ``ref_propagate_copies`` scans every copy at every
definition, as the pass did.  On the same CFGs both must rewrite the
same uses and emit the same instructions.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import BasicBlock, Cfg, liveness
from repro.isa import Instruction, MemRef, Reg
from repro.opt.copyprop import propagate_copies
from repro.opt.dce import _has_side_effect, eliminate_dead_code


def ref_eliminate_dead_code(cfg):
    """DCE recounting every block's use/def sets every round."""
    removed_total = 0
    swept_with = {}
    while True:
        _, live_out = liveness(cfg)
        removed = 0
        for block in cfg:
            live = live_out[block.label]
            if swept_with.get(block.label) == live:
                continue
            swept_with[block.label] = live
            live = set(live)
            keep_reversed = []
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


def ref_propagate_copies(cfg):
    """Copy propagation scanning every copy at each definition."""
    rewritten = 0
    for block in cfg:
        copies = {}
        new_instrs = []
        for instr in block.instrs:
            srcs = instr.srcs
            new_srcs = tuple(copies.get(r, r) for r in srcs)
            dest = instr.dest
            if instr.info.reads_dest and dest in copies:
                del copies[dest]
            if new_srcs != srcs:
                rewritten += 1
                instr = instr.copy(srcs=new_srcs)
            if dest is not None:
                copies.pop(dest, None)
                stale = [d for d, s in copies.items() if s is dest]
                for d in stale:
                    del copies[d]
            if instr.op in ("MOV", "FMOV") and instr.dest is not None:
                source = instr.srcs[0]
                if source is not instr.dest:
                    copies[instr.dest] = source
            new_instrs.append(instr)
        block.instrs = new_instrs
    return rewritten


INTS = [Reg("i", k, virtual=True) for k in range(5)]
FPS = [Reg("f", k, virtual=True) for k in range(3)]


@st.composite
def instructions(draw):
    i_reg = st.sampled_from(INTS)
    f_reg = st.sampled_from(FPS)
    shape = draw(st.sampled_from(
        ("LDI", "ADD", "MOV", "FMUL", "FLD", "FST", "CMOVNE")))
    if shape == "LDI":
        return Instruction("LDI", dest=draw(i_reg), imm=1)
    if shape == "ADD":
        return Instruction("ADD", dest=draw(i_reg),
                           srcs=(draw(i_reg), draw(i_reg)))
    if shape == "MOV":
        return Instruction("MOV", dest=draw(i_reg), srcs=(draw(i_reg),))
    if shape == "FMUL":
        return Instruction("FMUL", dest=draw(f_reg),
                           srcs=(draw(f_reg), draw(f_reg)))
    if shape == "FLD":
        return Instruction("FLD", dest=draw(f_reg), srcs=(draw(i_reg),),
                           mem=MemRef("data", "A"))
    if shape == "CMOVNE":
        return Instruction("CMOVNE", dest=draw(i_reg),
                           srcs=(draw(i_reg), draw(i_reg)))
    return Instruction("FST", srcs=(draw(f_reg), draw(i_reg)),
                       mem=MemRef("data", "A"))


@st.composite
def cfgs(draw):
    """Blocks B0..Bn-1 in layout order, each falling through to the
    next (the last to the exit X) and optionally branching to any
    block on a register; X stores one value of each bank."""
    n_blocks = draw(st.integers(1, 4))
    cfg = Cfg(entry="B0")
    for k in range(n_blocks):
        instrs = draw(st.lists(instructions(), max_size=12))
        target = draw(st.sampled_from((None,) + tuple(range(n_blocks))))
        if target is not None:
            instrs.append(Instruction("BNE",
                                      srcs=(draw(st.sampled_from(INTS)),),
                                      label=f"B{target}"))
        fallthrough = f"B{k + 1}" if k + 1 < n_blocks else "X"
        cfg.add_block(BasicBlock(f"B{k}", instrs, fallthrough=fallthrough))
    cfg.add_block(BasicBlock("X", [
        Instruction("FST", srcs=(draw(st.sampled_from(FPS)),
                                 draw(st.sampled_from(INTS))),
                    mem=MemRef("data", "A")),
        Instruction("HALT")]))
    return cfg


def code(cfg):
    return [(block.label, [instr.format() for instr in block.instrs])
            for block in cfg]


def uids(cfg):
    return [(block.label, [instr.uid for instr in block.instrs])
            for block in cfg]


@settings(max_examples=300, deadline=None)
@given(cfgs())
def test_dce_matches_the_reference(cfg):
    ref = copy.deepcopy(cfg)
    assert uids(cfg) == uids(ref)
    assert eliminate_dead_code(cfg) == ref_eliminate_dead_code(ref)
    assert uids(cfg) == uids(ref)


def test_dead_chain_across_blocks_matches_the_reference():
    """v1 feeds v2 in the next block and v2 feeds nothing: the first
    round removes v2's definition, which kills v1's only reader, and
    the second round removes v1's definition from the first block,
    whose use/def sets the first round left alone."""
    v0, v1, v2 = INTS[:3]
    cfg = Cfg(entry="B0")
    cfg.add_block(BasicBlock("B0", [Instruction("LDI", dest=v0, imm=1),
                                    Instruction("ADD", dest=v1,
                                                srcs=(v0, v0))],
                             fallthrough="B1"))
    cfg.add_block(BasicBlock("B1", [Instruction("ADD", dest=v2,
                                                srcs=(v1, v1)),
                                    Instruction("HALT")]))
    ref = copy.deepcopy(cfg)
    assert eliminate_dead_code(cfg) == ref_eliminate_dead_code(ref) == 3
    assert uids(cfg) == uids(ref)
    assert [len(block.instrs) for block in cfg] == [0, 1]


@settings(max_examples=300, deadline=None)
@given(cfgs())
def test_copy_propagation_matches_the_reference(cfg):
    ref = copy.deepcopy(cfg)
    assert propagate_copies(cfg) == ref_propagate_copies(ref)
    assert code(cfg) == code(ref)


def test_remapped_copy_survives_its_old_source():
    """v1 is copied from v0, then from v2; redefining v0 must not drop
    the v1 -> v2 copy, so the ADD still reads v2."""
    v0, v1, v2, v3 = INTS[:4]
    cfg = Cfg(entry="B0")
    cfg.add_block(BasicBlock("B0", [
        Instruction("MOV", dest=v1, srcs=(v0,)),
        Instruction("MOV", dest=v1, srcs=(v2,)),
        Instruction("LDI", dest=v0, imm=5),
        Instruction("ADD", dest=v3, srcs=(v1, v1)),
        Instruction("HALT")]))
    ref = copy.deepcopy(cfg)
    assert propagate_copies(cfg) == ref_propagate_copies(ref) == 1
    assert code(cfg) == code(ref)
    assert cfg.blocks["B0"].instrs[3].srcs == (v2, v2)
