"""The generic dataflow engine and its two shipped analyses."""

from repro.check import LiveVariables, ReachingDefinitions, solve
from repro.ir import BasicBlock, Cfg, liveness
from repro.isa import Instruction, Reg


def v(i):
    return Reg("i", i, virtual=True)


def ldi(dest, value):
    return Instruction("LDI", dest=v(dest), imm=value)


def add(dest, a, b):
    return Instruction("ADD", dest=v(dest), srcs=(v(a), v(b)))


def diamond() -> Cfg:
    """entry defines v0; then/else both redefine v1; end uses both."""
    cfg = Cfg(entry="entry")
    cfg.add_block(BasicBlock("entry", [ldi(0, 1),
                                       Instruction("BEQ", srcs=(v(0),),
                                                   label="else")],
                             fallthrough="then"))
    cfg.add_block(BasicBlock("then", [ldi(1, 2)], fallthrough="end"))
    cfg.add_block(BasicBlock("else", [ldi(1, 3)], fallthrough="end"))
    cfg.add_block(BasicBlock("end", [add(2, 0, 1),
                                     Instruction("HALT")]))
    return cfg


def loop() -> Cfg:
    """entry -> loop (self edge) -> exit; v1 is loop-carried."""
    cfg = Cfg(entry="entry")
    cfg.add_block(BasicBlock("entry", [ldi(0, 8), ldi(1, 0)],
                             fallthrough="loop"))
    cfg.add_block(BasicBlock("loop", [add(1, 1, 0),
                                      Instruction("BNE", srcs=(v(1),),
                                                  label="loop")],
                             fallthrough="exit"))
    cfg.add_block(BasicBlock("exit", [Instruction("HALT")]))
    return cfg


def test_reaching_definitions_diamond_merges_both_defs():
    cfg = diamond()
    value_in, _ = solve(cfg, ReachingDefinitions())
    end_defs = {reg for reg, _uid in value_in["end"]}
    assert v(0) in end_defs
    assert v(1) in end_defs
    # Both arms' definitions of v1 reach the join (may-analysis).
    v1_sites = [uid for reg, uid in value_in["end"] if reg == v(1)]
    assert len(v1_sites) == 2


def test_reaching_definitions_kill_within_block():
    cfg = Cfg(entry="entry")
    first = ldi(0, 1)
    second = ldi(0, 2)
    cfg.add_block(BasicBlock("entry", [first, second],
                             fallthrough="end"))
    cfg.add_block(BasicBlock("end", [Instruction("HALT")]))
    _, value_out = solve(cfg, ReachingDefinitions())
    assert (v(0), second.uid) in value_out["entry"]
    assert (v(0), first.uid) not in value_out["entry"]


def test_reaching_definitions_loop_carried():
    cfg = loop()
    value_in, _ = solve(cfg, ReachingDefinitions())
    # Both the preheader def of v1 and the loop's own redefinition
    # reach the loop entry.
    v1_sites = [uid for reg, uid in value_in["loop"] if reg == v(1)]
    assert len(v1_sites) == 2


def test_live_variables_agrees_with_ir_liveness():
    for cfg in (diamond(), loop()):
        live_in, live_out = liveness(cfg)
        engine_in, engine_out = solve(cfg, LiveVariables())
        for label in cfg.order:
            assert set(engine_in[label]) == set(live_in[label]), label
            assert set(engine_out[label]) == set(live_out[label]), label


def test_solver_skips_unreachable_blocks():
    cfg = diamond()
    cfg.add_block(BasicBlock("orphan", [Instruction("HALT")]))
    value_in, value_out = solve(cfg, ReachingDefinitions())
    assert "orphan" not in value_in
    assert "orphan" not in value_out
