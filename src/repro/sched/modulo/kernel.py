"""Kernel construction: modulo variable expansion and loop rebuild.

Given a feasible modulo schedule, this module rewrites the loop into::

    P:    compute trip count T; bail to the original loop when
          T < SC + 2*KU - 2; compute remainder R = (T-(SC-1)) mod KU
          and kernel count B = (T - R - (SC-1)) / KU
    P2:   skip the remainder loop when R == 0        (only when KU > 1)
    REM:  R scalar iterations of the original body   (only when KU > 1)
    PRO:  register-version initialization + SC-1 ramp-up phases
    KER:  KU renamed kernel copies + counter decrement, executed B times
    EPI:  SC-1 drain phases + live-out fixups
    H:    the untouched original loop (target of the short-trip bail)

Running the remainder *first* makes the pipelined portion execute
``T' = T - R ≡ SC-1 (mod KU)`` iterations, so the register version
holding each live-out value is a compile-time constant
(``(SC-2) mod KU``) and the epilogue needs no dynamic version selection.

Every emitted phase (prologue ramp, kernel copies, epilogue drain) lays
instructions out in virtual-time order — instance ``(iteration j,
op x)`` at time ``j*II + t[x]`` — so each dependence constraint
``t[b] + d*II > t[a]`` holds as *stream order* in the final program.
On the in-order machine, which executes the instruction stream
architecturally in program order, that is exactly the correctness
condition; modulo variable expansion then keeps simultaneously-live
values of one virtual register in ``K`` rotating copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from ...ir.cfg import BasicBlock, Cfg
from ...isa import ALLOCATABLE, Instruction, Reg
from .deps import LoopDeps, LoopShape
from .scheduler import ModuloSchedule
from .stats import (
    REASON_CMOV_CARRIED,
    REASON_PRESSURE,
    REASON_UNROLL,
    KernelInfo,
)

#: Per-bank register budget for the kernel; past this the expansion
#: would fight the allocatable registers and spill inside the kernel,
#: defeating the point.
_BANK_BUDGET = {kind: n - 2 for kind, n in ALLOCATABLE.items()}


@dataclass
class Mve:
    """Modulo-variable-expansion plan for one loop."""

    ku: int                                   # kernel unroll factor
    #: Version count per register; only expanded registers (> 1) appear.
    k_of: dict[Reg, int]
    #: (register, version index) -> fresh virtual register.
    versions: dict[tuple[Reg, int], Reg]


def plan_mve(deps: LoopDeps, sched: ModuloSchedule, max_unroll: int,
             fresh: Callable[[str], Reg],
             live_through: frozenset[Reg] = frozenset()) -> Union[Mve, str]:
    """Compute version counts; returns a bail-reason string on failure.

    A value defined at time ``t_d`` (first definition of its register)
    and read at ``t_u`` with iteration distance ``d`` is overwritten
    ``K`` iterations later; safety requires ``t_u + d*II < t_d + K*II``.
    The single equality exception is a register read and rewritten by
    the same instruction with distance 1 (an accumulator like
    ``FADD f, f, x``), where the read architecturally precedes the
    overwrite inside one instruction.

    *live_through* holds registers live across the loop (needed after
    the exit, never referenced by the body): they pin a register each
    for the kernel's whole extent, so the pressure estimate must count
    them — the old distinct-register count missed them and could wave
    through kernels whose expansion left the allocator short.
    """
    times, ii = sched.times, sched.ii
    first_def: dict[Reg, tuple[int, int]] = {}
    for reg, sites in deps.defs_of.items():
        first_def[reg] = min((times[d], d) for d in sites)

    need: dict[Reg, int] = {}
    for u, dists in enumerate(deps.use_dist):
        for reg, d in dists.items():
            fd_t, fd_op = first_def[reg]
            delta = times[u] + d * ii - fd_t
            if delta == ii and d == 1 and u == fd_op:
                k = 1
            else:
                k = delta // ii + 1
            need[reg] = max(need.get(reg, 1), k, 1)

    ku = max(need.values(), default=1)
    if ku > max_unroll:
        return REASON_UNROLL
    # Uniform version counts: every expanded register gets KU copies
    # (larger counts are always safe and KU | KU keeps the kernel
    # renaming static); K == 1 registers keep their identity.
    k_of = {reg: ku for reg, k in need.items() if k > 1}

    # A CMOV-style op reads and writes the same register operand; if
    # that operand carries across iterations *and* is expanded, the
    # read and the write would need different version registers.
    for u, ins in enumerate(deps.ops):
        if (ins.info.reads_dest and ins.dest is not None
                and deps.use_dist[u].get(ins.dest) == 1
                and ins.dest in k_of):
            return REASON_CMOV_CARRIED

    # Register-pressure estimate for the kernel: distinct registers
    # after renaming, plus the kernel counter, plus every live-through
    # value the kernel must carry untouched.  This is deliberately not
    # the kernel's MAXLIVE (analysis.pressure.block_pressure): linear
    # scan gives each expanded version one interval from the prologue
    # through the kernel to the epilogue, so the versions compete for
    # registers across the whole pipelined region.  Its two bails in
    # the grid (alvinn balanced la+swp .loop35 at f 29, dnasa7
    # balanced swp .loop11 at i 28) emit kernels of MAXLIVE f 13 and
    # i 16, yet pipelined anyway they spill (1 and 2 slots).
    counts = {"i": 1, "f": 0}
    seen: set[Reg] = set()
    for ins in deps.ops:
        for reg in ins.uses() + ins.defs():
            if reg in seen:
                continue
            seen.add(reg)
            counts[reg.kind] += ku if reg in k_of else 1
    for reg in live_through:
        if reg not in seen and not reg.is_zero:
            counts[reg.kind] += 1
    if any(counts[kind] > _BANK_BUDGET[kind] for kind in counts):
        return REASON_PRESSURE

    versions = {(reg, v): fresh(reg.kind)
                for reg in k_of for v in range(ku)}
    return Mve(ku=ku, k_of=k_of, versions=versions)


def _mov(dest: Reg, src: Reg) -> Instruction:
    return Instruction("FMOV" if dest.kind == "f" else "MOV",
                       dest=dest, srcs=(src,))


def build_pipeline(cfg: Cfg, shape: LoopShape, deps: LoopDeps,
                   sched: ModuloSchedule, mve: Mve,
                   live_into_exit: set[Reg],
                   fresh: Callable[[str], Reg]) -> KernelInfo:
    """Rewrite *cfg* in place; returns the kernel's verification info."""
    ops = deps.ops
    ii, times = sched.ii, sched.times
    sc = sched.stage_count
    ku = mve.ku
    stage = [t // ii for t in times]
    slot_order = sorted(range(len(ops)),
                        key=lambda i: (times[i] % ii, times[i], i))

    def version(reg: Reg, idx: int) -> Reg:
        k = mve.k_of.get(reg)
        if not k:
            return reg
        return mve.versions[(reg, idx % k)]

    def instantiate(i: int, jm: int) -> Instruction:
        """Op *i* for a relative iteration congruent to *jm* mod KU."""
        ins = ops[i]
        dists = deps.use_dist[i]
        srcs = tuple(version(r, jm - dists.get(r, 0)) for r in ins.srcs)
        dest = ins.dest
        if dest is not None and dest in mve.k_of:
            dest = version(dest, jm)
        return ins.copy(dest=dest, srcs=srcs)

    label_p = cfg.new_label("swpP")
    label_pro = cfg.new_label("swpPRO")
    label_ker = cfg.new_label("swpKER")
    label_epi = cfg.new_label("swpEPI")

    # ------------------------------------------------- dispatch block P
    # Trip count T of the original loop: with the probe value
    # i' + offset tested by CMPLT/CMPLE against hi, the body executes
    # T = ceil((hi - offset - i0 [+1 for CMPLE]) / step) times (the
    # loop guard upstream ensures T >= 1; smaller values fail the Tmin
    # test and run the original loop unchanged).
    p_instrs: list[Instruction] = []
    v_t = fresh("i")
    if shape.bound_reg is not None:
        hi_reg = shape.bound_reg
    else:
        hi_reg = fresh("i")
        p_instrs.append(Instruction("LDI", dest=hi_reg, imm=shape.bound_imm))
    v_d = fresh("i")
    p_instrs.append(Instruction("SUB", dest=v_d,
                                srcs=(hi_reg, shape.induction)))
    extra = (1 if shape.inclusive else 0) + (shape.step - 1) - shape.offset
    if extra:
        p_instrs.append(Instruction("ADD", dest=v_d, srcs=(v_d,), imm=extra))
    if shape.step == 1:
        v_t = v_d
    else:
        v_step = fresh("i")
        p_instrs.append(Instruction("LDI", dest=v_step, imm=shape.step))
        p_instrs.append(Instruction("DIVQ", dest=v_t, srcs=(v_d, v_step)))

    v_kc = fresh("i")                 # kernel execution count B
    v_rem: Optional[Reg] = None       # remainder count R (KU > 1 only)
    if ku == 1:
        p_instrs.append(Instruction("SUB", dest=v_kc, srcs=(v_t,),
                                    imm=sc - 1))
    else:
        v_a = fresh("i")
        v_ku = fresh("i")
        v_rem = fresh("i")
        v_b = fresh("i")
        p_instrs.append(Instruction("SUB", dest=v_a, srcs=(v_t,),
                                    imm=sc - 1))
        p_instrs.append(Instruction("LDI", dest=v_ku, imm=ku))
        p_instrs.append(Instruction("REMQ", dest=v_rem, srcs=(v_a, v_ku)))
        p_instrs.append(Instruction("SUB", dest=v_b, srcs=(v_a, v_rem)))
        p_instrs.append(Instruction("DIVQ", dest=v_kc, srcs=(v_b, v_ku)))
    t_min = sc + 2 * ku - 2
    v_cond = fresh("i")
    p_instrs.append(Instruction("CMPLT", dest=v_cond, srcs=(v_t,),
                                imm=t_min))
    p_instrs.append(Instruction("BNE", srcs=(v_cond,), label=shape.label))

    new_blocks: list[BasicBlock] = []
    if ku == 1:
        new_blocks.append(BasicBlock(label_p, p_instrs,
                                     fallthrough=label_pro))
    else:
        label_p2 = cfg.new_label("swpP2")
        label_rem = cfg.new_label("swpREM")
        new_blocks.append(BasicBlock(label_p, p_instrs,
                                     fallthrough=label_p2))
        new_blocks.append(BasicBlock(
            label_p2,
            [Instruction("BEQ", srcs=(v_rem,), label=label_pro)],
            fallthrough=label_rem))
        rem_instrs = [ins.copy() for ins in ops]
        rem_instrs.append(Instruction("SUB", dest=v_rem, srcs=(v_rem,),
                                      imm=1))
        rem_instrs.append(Instruction("BNE", srcs=(v_rem,),
                                      label=label_rem))
        new_blocks.append(BasicBlock(label_rem, rem_instrs,
                                     fallthrough=label_pro))

    # ------------------------------------------------- prologue block
    pro_instrs: list[Instruction] = []
    carried = set()
    for dists in deps.use_dist:
        carried.update(r for r, d in dists.items() if d == 1)
    for reg in sorted(mve.k_of, key=str):
        if reg in carried:
            # Relative iteration 0 reads version -1 mod KU = KU-1.
            pro_instrs.append(_mov(mve.versions[(reg, ku - 1)], reg))
    for phase in range(sc - 1):
        for i in slot_order:
            if stage[i] <= phase:
                pro_instrs.append(instantiate(i, (phase - stage[i]) % ku))
    new_blocks.append(BasicBlock(label_pro, pro_instrs,
                                 fallthrough=label_ker))

    # --------------------------------------------------- kernel block
    info = KernelInfo(loop_label=shape.label, kernel_label=label_ker,
                      ii=ii, stages=sc, unroll=ku,
                      body_ops=list(ops))
    ker_instrs: list[Instruction] = []
    inst_uid: dict[tuple[int, int], int] = {}
    for r in range(ku):
        for i in slot_order:
            ins = instantiate(i, (sc - 1 + r - stage[i]) % ku)
            inst_uid[(i, r)] = ins.uid
            if ins.is_mem:
                info.mem_tags[ins.uid] = (r - stage[i], i)
            ker_instrs.append(ins)
    for r in range(ku):
        for i in slot_order:
            jm = (sc - 1 + r - stage[i]) % ku
            for reg, p in deps.use_producer[i].items():
                d = deps.use_dist[i][reg]
                r_p = (r - stage[i] - d + stage[p]) % ku
                renamed = version(reg, jm - d)
                info.expected_writer[(inst_uid[(i, r)], str(renamed))] = \
                    inst_uid[(p, r_p)]
    ker_instrs.append(Instruction("SUB", dest=v_kc, srcs=(v_kc,), imm=1))
    ker_instrs.append(Instruction("BNE", srcs=(v_kc,), label=label_ker))
    new_blocks.append(BasicBlock(label_ker, ker_instrs,
                                 fallthrough=label_epi))

    # ------------------------------------------------- epilogue block
    epi_instrs: list[Instruction] = []
    for q in range(1, sc):
        for i in slot_order:
            if stage[i] >= q:
                epi_instrs.append(
                    instantiate(i, (sc - 2 + q - stage[i]) % ku))
    # The pipelined portion runs T' ≡ SC-1 (mod KU) iterations, so the
    # final value of every expanded register sits in a fixed version.
    for reg in sorted(mve.k_of, key=str):
        if reg in live_into_exit:
            epi_instrs.append(_mov(reg, mve.versions[(reg,
                                                      (sc - 2) % ku)]))
    new_blocks.append(BasicBlock(label_epi, epi_instrs,
                                 fallthrough=shape.exit_label))

    # --------------------------------------- splice into the CFG
    # Every outside edge into the loop now enters the dispatch block;
    # the original loop stays in place as the short-trip-count target.
    for block in cfg:
        if block.label == shape.label:
            continue
        term = block.terminator
        if term is not None and term.is_branch and term.label == shape.label:
            term.label = label_p
        if block.fallthrough == shape.label:
            block.fallthrough = label_p
    index = cfg.order.index(shape.label)
    for offset, block in enumerate(new_blocks):
        cfg.blocks[block.label] = block
        cfg.order.insert(index + offset, block.label)
    return info
