"""Static per-bank MAXLIVE analysis: blocks, CFGs, loops, budgets.

The count is the allocator's: at each instruction, the registers live
into it plus the one it writes (a source dying at an instruction never
lends its register to that instruction's destination).
"""

from repro.analysis.pressure import block_pressure, cfg_pressure, over_budget
from repro.ir import BasicBlock, Cfg
from repro.isa import Instruction, Reg
from repro.machine import DEFAULT_CONFIG


def vi(n):
    return Reg("i", n, virtual=True)


def vf(n):
    return Reg("f", n, virtual=True)


def ldi(dest, value):
    return Instruction("LDI", dest=vi(dest), imm=value)


def add(dest, a, b):
    return Instruction("ADD", dest=vi(dest), srcs=(vi(a), vi(b)))


def fadd(dest, a, b):
    return Instruction("FADD", dest=vf(dest), srcs=(vf(a), vf(b)))


def test_empty_block_counts_live_out():
    assert block_pressure([], [vi(1), vi(2), vf(3)]) == {"i": 2, "f": 1}


def test_straight_line_chain_has_low_pressure():
    # Each temporary dies feeding the next, but the source is still
    # held while the instruction writes its destination: two slots.
    instrs = [ldi(0, 1), add(1, 0, 0), add(2, 1, 1), add(3, 2, 2)]
    assert block_pressure(instrs, [vi(3)]) == {"i": 2, "f": 0}


def test_fan_in_peaks_at_the_join():
    # Three independent defs are live into the first sum, which writes
    # a fourth register.
    instrs = [ldi(0, 1), ldi(1, 2), ldi(2, 3),
              add(3, 0, 1), add(4, 3, 2)]
    assert block_pressure(instrs, [vi(4)])["i"] == 4


def test_dead_def_still_occupies_a_register():
    # vi(1) is never used, but at its defining instruction it coexists
    # with vi(0) (still live for the ADD below).
    instrs = [ldi(0, 1), ldi(1, 2), add(2, 0, 0)]
    assert block_pressure(instrs, [vi(2)])["i"] == 2


def test_banks_counted_separately():
    # vf2/vf3 are live into the block and still held while the FADD
    # writes vf1.
    instrs = [ldi(0, 1), fadd(1, 2, 3)]
    peak = block_pressure(instrs, [vi(0), vf(1)])
    assert peak == {"i": 1, "f": 3}


def test_zero_registers_never_count():
    zero = Reg("i", 31)
    instrs = [Instruction("ADD", dest=vi(0), srcs=(zero,), imm=1),
              Instruction("ADD", dest=zero, srcs=(vi(0),), imm=1)]
    assert block_pressure(instrs, []) == {"i": 1, "f": 0}


def test_live_through_values_raise_kernel_pressure():
    # A loop's MAXLIVE (the kernel-pressure lint) walks the header with
    # its live-out set, so values live across the loop but untouched by
    # it hold a register at every instruction.
    instrs = [ldi(0, 1), add(1, 0, 0)]
    plain = block_pressure(instrs, [vi(1)])
    held = block_pressure(instrs, [vi(1), vf(9), vf(10), vi(7)])
    assert held["f"] == plain["f"] + 2
    assert held["i"] == plain["i"] + 1


def test_kernel_pressure_live_through_overlap_not_double_counted():
    instrs = [ldi(0, 1)]
    assert block_pressure(instrs, [vi(0), vi(0)]) == \
        block_pressure(instrs, [vi(0)])


def _two_block_cfg():
    cfg = Cfg(entry="entry")
    cfg.add_block(BasicBlock(
        "entry", [ldi(0, 1), ldi(1, 2), ldi(2, 3), add(3, 0, 1)],
        fallthrough="exit"))
    cfg.add_block(BasicBlock(
        "exit", [add(4, 3, 2), Instruction("HALT")]))
    return cfg


def test_cfg_pressure_per_block_and_max():
    cfg = _two_block_cfg()
    per_block = cfg_pressure(cfg)
    assert set(per_block) == {"entry", "exit"}
    # entry's final ADD reads vi0/vi1 with vi2 live across it and
    # writes vi3; exit's ADD reads vi3/vi2 and writes vi4.
    assert per_block["entry"]["i"] == 4
    assert per_block["exit"]["i"] == 3


def test_over_budget_lists_offending_banks():
    assert over_budget({"i": 5, "f": 2}, {"i": 4, "f": 4}) == ["i"]
    assert over_budget({"i": 9, "f": 9}, {"i": 4, "f": 4}) == ["i", "f"]
    assert over_budget({"i": 3, "f": 3}, {"i": 4, "f": 4}) == []


def test_over_budget_against_machine_config():
    budget = {"i": DEFAULT_CONFIG.allocatable_int_regs,
              "f": DEFAULT_CONFIG.allocatable_fp_regs}
    fits = {"i": budget["i"], "f": budget["f"]}
    assert over_budget(fits, budget) == []
    assert over_budget({"i": budget["i"] + 1, "f": 0}, budget) == ["i"]
