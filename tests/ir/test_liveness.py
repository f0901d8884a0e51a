"""Backward liveness over the CFG."""

from repro.ir import BasicBlock, Cfg, block_use_def, liveness
from repro.isa import Instruction, Reg


def v(i):
    return Reg("i", i, virtual=True)


def test_block_use_def_upward_exposed():
    instrs = [
        Instruction("LDI", dest=v(0), imm=1),
        Instruction("ADD", dest=v(1), srcs=(v(0), v(2))),
        Instruction("ADD", dest=v(0), srcs=(v(1),), imm=1),
    ]
    uses, defs = block_use_def(instrs)
    assert uses == {v(2)}             # v0 defined before use, v1 likewise
    assert defs == {v(0), v(1)}


def test_liveness_across_branch():
    cfg = Cfg(entry="entry")
    cfg.add_block(BasicBlock("entry", [
        Instruction("LDI", dest=v(0), imm=1),
        Instruction("LDI", dest=v(1), imm=2),
        Instruction("BEQ", srcs=(v(0),), label="b"),
    ], fallthrough="a"))
    cfg.add_block(BasicBlock("a", [
        Instruction("ADD", dest=v(2), srcs=(v(1),), imm=0),
    ], fallthrough="end"))
    cfg.add_block(BasicBlock("b", [
        Instruction("ADD", dest=v(2), srcs=(v(2),), imm=1),
    ], fallthrough="end"))
    cfg.add_block(BasicBlock("end", [Instruction("HALT")]))
    live_in, live_out = liveness(cfg)
    assert v(1) in live_out["entry"]          # used in block a
    assert v(2) in live_in["b"]               # b reads v2 before writing
    assert v(2) not in live_in["a"]
    assert live_out["a"] == set()             # nothing read after


def test_loop_keeps_induction_variable_live():
    cfg = Cfg(entry="entry")
    cfg.add_block(BasicBlock("entry", [
        Instruction("LDI", dest=v(0), imm=0),
    ], fallthrough="loop"))
    cfg.add_block(BasicBlock("loop", [
        Instruction("ADD", dest=v(0), srcs=(v(0),), imm=1),
        Instruction("CMPLT", dest=v(1), srcs=(v(0),), imm=10),
        Instruction("BNE", srcs=(v(1),), label="loop"),
    ], fallthrough="exit"))
    cfg.add_block(BasicBlock("exit", [Instruction("HALT")]))
    live_in, live_out = liveness(cfg)
    assert v(0) in live_in["loop"]
    assert v(0) in live_out["loop"]           # live around the back edge
    assert v(0) in live_out["entry"]
