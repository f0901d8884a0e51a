"""Static register-pressure (MAXLIVE) analysis, per register bank.

Balanced scheduling hides load latency by stretching live ranges, and
the modulo scheduler's expanded kernel multiplies that by the unroll
factor — both can push more values live than the register files hold,
turning hidden stalls into spill traffic.  A pressure number is worth
only what it predicts about the allocator, so :func:`block_pressure`
counts exactly what linear scan (:mod:`repro.codegen.regalloc`) needs:
at each instruction, the registers live *into* it plus the one it
writes.  The allocator frees an interval only once it ends before the
next one starts, so a source that dies at an instruction never lends
its register to that instruction's destination.

:func:`block_pressure` is the only MAXLIVE in the compiler.
:func:`cfg_pressure` applies it to every block of a CFG for ``repro
analyze``, whose loop records and ``kernel-pressure`` lint read the
loop headers' values; the balanced weights' ``--pressure`` feedback
applies it to each trial block order.

All results are ``{"i": n, "f": m}`` dictionaries (integer and
floating-point banks), comparable directly against the allocatable
sizes in :data:`repro.isa.ALLOCATABLE`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..check.dataflow import LiveVariables, solve
from ..ir.cfg import Cfg
from ..isa.instruction import Instruction
from ..isa.registers import Reg

BANKS = ("i", "f")


def _bank_count(regs: Iterable[Reg]) -> dict[str, int]:
    counts = {"i": 0, "f": 0}
    for reg in regs:
        counts[reg.kind] += 1
    return counts


def block_pressure(instrs: Sequence[Instruction],
                   live_out: Iterable[Reg]) -> dict[str, int]:
    """Per-bank MAXLIVE of one straight-line instruction sequence.

    Backward walk from *live_out*: the pressure at an instruction is
    the set live into it (its uses plus everything live across it)
    together with its defs.  An empty sequence holds its live-out set.
    """
    live: set[Reg] = set(live_out)
    peak = _bank_count(live)
    for instr in reversed(instrs):
        defs = instr.defs()
        live.difference_update(defs)
        live.update(instr.uses())
        at_instr = _bank_count(live.union(defs))
        for bank in BANKS:
            peak[bank] = max(peak[bank], at_instr[bank])
    return peak


def cfg_pressure(cfg: Cfg) -> dict[str, dict[str, int]]:
    """Per-block, per-bank MAXLIVE for every reachable block."""
    live_in, live_out = solve(cfg, LiveVariables())
    return {
        label: block_pressure(cfg.blocks[label].instrs,
                              live_out.get(label, frozenset()))
        for label in cfg.order
        if label in live_out or label in live_in
    }


def over_budget(pressure: Mapping[str, int],
                budget: Mapping[str, int]) -> list[str]:
    """Banks whose MAXLIVE exceeds the allocatable budget."""
    return [bank for bank in BANKS
            if pressure.get(bank, 0) > budget.get(bank, 0)]
