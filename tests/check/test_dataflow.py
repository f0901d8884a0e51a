"""The generic dataflow engine and its two shipped analyses."""

import pytest

from repro.check import (DataflowAnalysis, DefinedRegisters, LiveVariables,
                         solve)
from repro.harness import options_for
from repro.harness.compile import lower_source
from repro.ir import BasicBlock, Cfg, liveness
from repro.isa import Instruction, Reg
from repro.workloads import WORKLOAD_ORDER, WORKLOADS


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


class RefReachingDefinitions(DataflowAnalysis):
    """Reaching definitions over ``(reg, uid)`` sites, the analysis the
    def-before-use check ran before it asked only for registers."""

    direction = "forward"

    def boundary(self, cfg):
        return frozenset()

    def meet(self, a, b):
        return a | b

    def transfer(self, block, value):
        defs = {}
        for instr in block.instrs:
            for reg in instr.defs():
                defs[reg] = instr.uid
        if not defs:
            return value
        kept = frozenset(item for item in value if item[0] not in defs)
        return kept | frozenset(defs.items())


def projected(solution):
    return {label: frozenset(reg for reg, _uid in sites)
            for label, sites in solution.items()}


def test_defined_registers_diamond_merges_both_arms():
    cfg = diamond()
    value_in, value_out = solve(cfg, DefinedRegisters())
    assert value_in["end"] == {v(0), v(1)}
    assert value_in["end"] == value_out["then"] | value_out["else"]


def test_defined_registers_redefinition_keeps_the_register():
    # Reaching definitions would kill the first site; the register is
    # defined either way.
    cfg = Cfg(entry="entry")
    cfg.add_block(BasicBlock("entry", [ldi(0, 1), ldi(0, 2)],
                             fallthrough="end"))
    cfg.add_block(BasicBlock("end", [Instruction("HALT")]))
    value_in, value_out = solve(cfg, DefinedRegisters())
    assert value_in["entry"] == frozenset()
    assert value_out["entry"] == {v(0)}
    assert value_in["end"] == {v(0)}


def test_defined_registers_loop_carried():
    cfg = loop()
    value_in, value_out = solve(cfg, DefinedRegisters())
    # The loop's own definition of v1 flows around the back edge.
    assert value_in["loop"] == {v(0), v(1)}
    assert value_out["loop"] == {v(0), v(1)}
    only_loop = DefinedRegisters(track=lambda reg: reg == v(1))
    assert solve(cfg, only_loop)[0]["exit"] == {v(1)}


@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_defined_registers_project_reaching_definitions(name):
    """On every lowered workload, the solution is the registers of the
    ``(reg, uid)`` reaching-definitions solution, block for block."""
    options = options_for("balanced", "lu4")
    cfg, _, _ = lower_source(WORKLOADS[name].source, options, name)
    ref_in, ref_out = solve(cfg, RefReachingDefinitions())
    value_in, value_out = solve(cfg, DefinedRegisters())
    assert value_in == projected(ref_in)
    assert value_out == projected(ref_out)


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
    value_in, value_out = solve(cfg, DefinedRegisters())
    assert "orphan" not in value_in
    assert "orphan" not in value_out
