"""Machine-code verifier: hard well-formedness checks on final programs.

Run after linearization (and from tests) to catch compiler bugs before
they become mysterious simulation failures:

* every branch targets a defined label;
* no virtual registers survive register allocation;
* reserved registers are respected (nothing writes the zero registers
  or the stack pointer; spill scratch registers only appear in code
  the allocator emitted);
* every load/store carries a :class:`~repro.isa.MemRef` (the dependence
  analysis relies on them) and spill slots stay inside the stack area;
* execution cannot fall off the end of the program (the last
  instruction is a HALT or an unconditional branch);
* at least one HALT is reachable.
"""

from __future__ import annotations

from ..analysis.deps import analyze_loop_body
from ..isa import MachineProgram
from .regalloc import SPILL_SCRATCH

#: Scratch register numbers per bank, derived from the allocator's
#: own table so the two can never drift apart.
_SCRATCH_NUMS = {kind: tuple(reg.num for reg in regs)
                 for kind, regs in SPILL_SCRATCH.items()}


class VerificationError(Exception):
    """A generated program violates a well-formedness rule."""


def verify_program(program: MachineProgram,
                   allow_virtual: bool = False) -> None:
    """Raise :class:`VerificationError` on the first violation."""
    program.resolve()           # undefined labels raise ValueError
    instructions = program.instructions
    if not instructions:
        raise VerificationError("empty program")

    for index, instr in enumerate(instructions):
        for reg in instr.defs():
            if not allow_virtual and reg.virtual:
                raise VerificationError(
                    f"virtual register {reg} written {_at(index, instr)}")
            if not reg.virtual and reg.num == 31:
                raise VerificationError(
                    f"write to hardwired zero register {_at(index, instr)}")
            if not reg.virtual and reg.kind == "i" and reg.num == 30:
                raise VerificationError(
                    f"write to the stack pointer {_at(index, instr)}")
            if (not reg.virtual and not instr.is_spill
                    and _is_scratch(reg)
                    and not _scratch_consumer_nearby(instructions, index)):
                raise VerificationError(
                    f"scratch register {reg} written outside spill "
                    f"code {_at(index, instr)}")
        if not allow_virtual:
            for reg in instr.uses():
                if reg.virtual:
                    raise VerificationError(
                        f"virtual register {reg} read {_at(index, instr)}")

        if instr.is_mem:
            if instr.mem is None:
                raise VerificationError(
                    f"memory op without MemRef {_at(index, instr)}")
            if instr.mem.region == "stack" and not instr.is_spill:
                raise VerificationError(
                    f"stack access not marked as spill {_at(index, instr)}")

    last = instructions[-1]
    if last.op not in ("HALT", "BR"):
        reason = ("a conditional branch" if last.is_branch
                  else "a fall-through instruction")
        raise VerificationError(
            f"control can fall off the end: program ends with {reason}")

    if not any(i.op == "HALT" for i in instructions):
        raise VerificationError("program has no HALT")


def _at(index: int, instr) -> str:
    """Where a violation is, for its message: built only on a raise."""
    return f"at {index}: {instr.format()}"


def verify_pipelined_kernels(cfg, kernels) -> None:
    """Check cross-iteration dependences inside software-pipelined kernels.

    For each :class:`~repro.sched.modulo.KernelInfo`, the kernel block
    (still in virtual registers, before allocation rewrites the
    instructions) is replayed *twice* back to back -- the steady state
    of the modulo schedule, covering every wrap-around of the modulo
    reservation table:

    * every register operand whose producer lives in the loop body must
      read its value from exactly the instance modulo variable
      expansion predicted (no version is clobbered early and no stale
      version survives);
    * conflicting memory accesses must issue in iteration order:
      instances are tagged with ``(iteration offset, original body
      position)`` and any conflicting pair must appear in increasing
      tag order.  Conflict at a given instance distance is decided by a
      *fresh* run of the symbolic dependence analyzer over the recorded
      loop body — never by the scheduler's own arcs — so a scheduler
      that sharpened or dropped an arc it should not have is caught
      here, not trusted.
    """
    for info in kernels:
        block = cfg.blocks.get(info.kernel_label)
        if block is None:
            raise VerificationError(
                f"pipelined kernel block {info.kernel_label} missing")
        _verify_kernel_stream(block.instrs, info)


def _verify_kernel_stream(instrs, info) -> None:
    analysis = (analyze_loop_body(info.body_ops)
                if getattr(info, "body_ops", None) else None)
    last_writer: dict = {}
    mem_seen: list = []     # ((iteration, body position), Instruction)
    for copy in range(2):
        for instr in instrs:
            for reg in instr.uses():
                expected = info.expected_writer.get((instr.uid, str(reg)))
                if expected is None:
                    continue
                actual = last_writer.get(reg)
                if actual is not None and actual != expected:
                    raise VerificationError(
                        f"cross-iteration register dependence broken: "
                        f"{reg} written by unexpected instance "
                        f"{_in_kernel(info, copy, instr)}")
            tag = info.mem_tags.get(instr.uid)
            if tag is not None:
                key = (tag[0] + copy * info.unroll, tag[1])
                for other_key, other in mem_seen:
                    if other_key <= key:
                        continue
                    if instr.is_load and other.is_load:
                        continue
                    if _kernel_mem_conflict(instr, key, other, other_key,
                                            analysis):
                        raise VerificationError(
                            f"cross-iteration memory dependence broken: "
                            f"conflicts with later iteration's "
                            f"{other.format()} "
                            f"{_in_kernel(info, copy, instr)}")
                mem_seen.append((key, instr))
            for reg in instr.defs():
                last_writer[reg] = instr.uid


def _in_kernel(info, copy: int, instr) -> str:
    return f"kernel {info.kernel_label}, copy {copy}: {instr.format()}"


def _kernel_mem_conflict(earlier, earlier_key, later, later_key,
                         analysis) -> bool:
    """May the *earlier*-tagged instance conflict with the *later* one?

    With a body analysis available, conflict at instance distance
    ``later_iter - earlier_iter`` is decided by the symbolic verdict
    for the two body positions; at distance 0 the intra-iteration
    affine refinement of :meth:`MemRef.conflicts_with` additionally
    applies (both tests over-approximate, so their intersection is
    still sound).  Without an analysis (legacy kernels), fall back to
    the old rule: affine refinement within an iteration, region+symbol
    across iterations."""
    same_iter = later_key[0] == earlier_key[0]
    if analysis is not None:
        distance = later_key[0] - earlier_key[0]
        conflict = analysis.conflicts_at(earlier_key[1], later_key[1],
                                         distance)
        if (conflict and same_iter and earlier.mem is not None
                and later.mem is not None):
            conflict = earlier.mem.conflicts_with(later.mem)
        return conflict
    if earlier.mem is None or later.mem is None:
        return True
    if same_iter:
        return earlier.mem.conflicts_with(later.mem)
    return (earlier.mem.region == later.mem.region
            and earlier.mem.symbol == later.mem.symbol)


def _is_scratch(reg) -> bool:
    return reg.num in _SCRATCH_NUMS.get(reg.kind, ())


def _scratch_consumer_nearby(instructions, index: int) -> bool:
    """A non-spill write to a scratch register is legitimate when it is
    itself part of a spill sequence: the value is stored to a stack slot
    by the next few instructions (the allocator's spill-after-def), or
    the instruction rewrote a spilled destination in place."""
    for follower in instructions[index + 1:index + 4]:
        if follower.is_spill and follower.is_store:
            return True
        if follower.is_branch or follower.op == "HALT":
            break
    return False
