"""Linear-scan register allocation with spill/restore insertion.

Runs *after* scheduling (the schedulers work on virtual registers; the
paper's first tie-breaker and the list scheduler's pressure guard
already bias the schedule toward low pressure).  Each virtual register
gets one physical register for its whole live interval; when a bank's
allocatable registers run out, the interval with the furthest end is
spilled to a stack slot and rewritten with restore-before-use /
spill-after-def code, marked ``is_spill`` so the simulator can count
spill and restore instructions (a paper metric, and the mechanism
behind the unroll-by-8 regressions in Table 4).

Register conventions (see :mod:`repro.isa.registers`): r31/f31 zero,
r30 stack pointer, r28/r29 and f29/f30 reserved as spill scratch —
leaving 28 allocatable integer and 29 allocatable FP registers.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import itemgetter

from ..ir import Cfg, liveness
from ..isa import Instruction, MemRef, Reg, SP

#: Allocatable registers per bank.  Integer: r0-r27 (r28/r29 spill
#: scratch, r30 stack pointer, r31 zero).  Floating point: f0-f28
#: (f29/f30 spill scratch, f31 zero).
N_ALLOCATABLE = {"i": 28, "f": 29}
#: Spill scratch registers per bank -- the single source of truth;
#: the machine-code verifier (:mod:`repro.codegen.verify`) imports
#: this table rather than mirroring the numbers.
SPILL_SCRATCH = {"i": (Reg("i", 28), Reg("i", 29)),
                 "f": (Reg("f", 29), Reg("f", 30))}
_SCRATCH = SPILL_SCRATCH
_interval_end = itemgetter(0)


@dataclass
class AllocationResult:
    assignment: dict[Reg, Reg]
    spilled: dict[Reg, int]          # vreg -> stack slot
    n_slots: int


class RegisterAllocator:
    """Allocates one CFG's virtual registers onto physical registers."""

    def __init__(self, cfg: Cfg) -> None:
        self.cfg = cfg

    # ----------------------------------------------------------- intervals
    def _intervals(self) -> dict[Reg, list[int]]:
        """Conservative whole-range live intervals over layout order."""
        live_in, live_out = liveness(self.cfg)
        intervals: dict[Reg, list[int]] = {}
        position = 0
        for block in self.cfg:
            start = position
            end = position + max(len(block.instrs) - 1, 0)
            for instr in block.instrs:
                for regs in (instr.uses(), instr.defs()):
                    for reg in regs:
                        if not reg.virtual:
                            continue
                        interval = intervals.get(reg)
                        if interval is None:
                            intervals[reg] = [position, position]
                        else:
                            interval[1] = position
                position += 1
            for reg in live_in[block.label]:
                if reg.virtual:
                    interval = intervals.setdefault(reg, [start, start])
                    interval[0] = min(interval[0], start)
                    interval[1] = max(interval[1], start)
            for reg in live_out[block.label]:
                if reg.virtual:
                    interval = intervals.setdefault(reg, [end, end])
                    interval[1] = max(interval[1], end)
        return intervals

    # ------------------------------------------------------------ allocate
    def allocate(self) -> AllocationResult:
        intervals = self._intervals()
        order = sorted(intervals, key=lambda r: intervals[r][0])
        free = {"i": [Reg("i", n) for n in range(N_ALLOCATABLE["i"])],
                "f": [Reg("f", n) for n in range(N_ALLOCATABLE["f"])]}
        active: dict[str, list[tuple[int, Reg]]] = {"i": [], "f": []}
        assignment: dict[Reg, Reg] = {}
        spilled: dict[Reg, int] = {}
        slots = 0

        for vreg in order:
            start, end = intervals[vreg]
            kind = vreg.kind
            # Expire finished intervals: *bank* is sorted by end, and an
            # interval goes after those with an equal end.
            bank = active[kind]
            expired = 0
            while expired < len(bank) and bank[expired][0] < start:
                free[kind].append(assignment[bank[expired][1]])
                expired += 1
            del bank[:expired]
            if free[kind]:
                assignment[vreg] = free[kind].pop()
                insort(bank, (end, vreg), key=_interval_end)
                continue
            # Spill the interval ending furthest away.
            furthest_end, furthest = bank[-1]
            if furthest_end > end:
                # Steal its register, spill the long-lived value.
                assignment[vreg] = assignment.pop(furthest)
                spilled[furthest] = slots
                slots += 1
                bank.pop()
                insort(bank, (end, vreg), key=_interval_end)
            else:
                spilled[vreg] = slots
                slots += 1

        self._rewrite(assignment, spilled)
        return AllocationResult(assignment=assignment, spilled=spilled,
                                n_slots=slots)

    # ------------------------------------------------------------- rewrite
    def _rewrite(self, assignment: dict[Reg, Reg],
                 spilled: dict[Reg, int]) -> None:
        for block in self.cfg:
            new_instrs: list[Instruction] = []
            append = new_instrs.append
            for instr in block.instrs:
                srcs = instr.srcs
                dest = instr.dest
                if spilled and (dest in spilled
                                or any(reg in spilled for reg in srcs)):
                    self._rewrite_spilled(instr, assignment, spilled,
                                          new_instrs)
                    continue
                if dest is not None and dest.virtual:
                    dest = assignment[dest]
                append(Instruction(
                    instr.op, dest,
                    tuple([assignment[reg] if reg.virtual else reg
                           for reg in srcs]),
                    instr.imm, instr.offset, instr.label, instr.mem,
                    instr.locality, instr.group, instr.is_spill,
                    instr.comment))
            block.instrs = new_instrs

    @staticmethod
    def _rewrite_spilled(instr: Instruction, assignment: dict[Reg, Reg],
                         spilled: dict[Reg, int],
                         out: list[Instruction]) -> None:
        """Rewrite *instr*, which reads or writes a spilled register,
        with restores before it and a spill store after it."""
        scratch_next = {"i": 0, "f": 0}
        pre: list[Instruction] = []
        post: list[Instruction] = []
        replace: dict[Reg, Reg] = {}

        def resolve_use(reg: Reg) -> Reg:
            if not reg.virtual:
                return reg
            if reg in replace:
                return replace[reg]
            if reg in spilled:
                index = scratch_next[reg.kind]
                if index >= len(_SCRATCH[reg.kind]):
                    raise RuntimeError("out of spill scratch registers")
                scratch_next[reg.kind] = index + 1
                scratch = _SCRATCH[reg.kind][index]
                slot = spilled[reg]
                op = "FLD" if reg.kind == "f" else "LD"
                pre.append(Instruction(
                    op, dest=scratch, srcs=(SP,), offset=slot * 8,
                    mem=MemRef("stack", slot), is_spill=True))
                replace[reg] = scratch
                return scratch
            replace[reg] = assignment[reg]
            return assignment[reg]

        new_srcs = tuple(resolve_use(r) for r in instr.srcs)
        dest = instr.dest
        if dest is not None and dest.virtual:
            if instr.info.reads_dest and dest in spilled:
                resolve_use(dest)
            if dest in spilled:
                scratch = replace.get(dest)
                if scratch is None:
                    index = scratch_next[dest.kind]
                    if index >= len(_SCRATCH[dest.kind]):
                        # Both scratches feed sources; the dest write
                        # happens after the reads, so reusing the first
                        # scratch is safe.
                        scratch = _SCRATCH[dest.kind][0]
                    else:
                        scratch_next[dest.kind] = index + 1
                        scratch = _SCRATCH[dest.kind][index]
                slot = spilled[dest]
                op = "FST" if dest.kind == "f" else "ST"
                post.append(Instruction(
                    op, srcs=(scratch, SP), offset=slot * 8,
                    mem=MemRef("stack", slot), is_spill=True))
                dest = scratch
            else:
                dest = assignment[dest]

        out.extend(pre)
        out.append(instr.copy(dest=dest, srcs=new_srcs))
        out.extend(post)


def allocate_registers(cfg: Cfg) -> AllocationResult:
    """Allocate *cfg* in place; returns the assignment/spill summary."""
    return RegisterAllocator(cfg).allocate()
