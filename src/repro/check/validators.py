"""Per-pass IR validators: structural checks run at pass boundaries.

Each validator inspects one invariant family and returns a list of
:class:`~repro.check.diagnostics.Diagnostic` (empty = clean).  They are
composed by :class:`repro.check.boundary.PipelineValidator`, which runs
the right subset at every ``opt.*`` / ``sched.*`` / ``codegen.*``
boundary of :func:`repro.harness.compile.compile_source`.

The checks, and the pass bugs they exist to catch:

* :func:`check_structure` -- CFG well-formedness: edges target defined
  blocks, control transfers sit at block ends, conditional branches
  have a fallthrough, control cannot fall off a block.  Catches passes
  that splice blocks wrongly (e.g. a bad unroll remainder branch).
* :func:`check_loops` -- loop-structure sanity: the CFG stays
  *reducible* (every retreating edge is a dominator back edge).  An
  optimization that creates a second entry into a loop body (a classic
  unroll/peel bug) is flagged here.
* :func:`check_register_discipline` -- pre-regalloc register
  discipline: only virtual registers (and the hardwired zeros) may
  appear before allocation; afterwards no virtual register may
  survive.
* :func:`check_def_before_use` -- every register use must be reachable
  from at least one definition (reaching definitions, projected to
  registers, through the generic dataflow engine).  Catches a
  DCE/copy-prop pass deleting a def whose value is still consumed.
* :func:`check_liveness_consistency` -- the engine's independent
  liveness must agree with :func:`repro.ir.liveness.liveness`, which
  the allocator and trace scheduler rely on.
* :func:`check_allocation` -- no two virtual registers with
  overlapping live intervals may share a physical register (the
  clobbered-live-register class of allocator bugs).
"""

from __future__ import annotations

from typing import Optional

from ..codegen.regalloc import AllocationResult, RegisterAllocator
from ..ir import Cfg, find_back_edges, liveness, reverse_postorder
from ..isa import Reg, SP
from .dataflow import DefinedRegisters, LiveVariables, solve
from .diagnostics import ERROR, Diagnostic


def _diag(rule: str, message: str, pass_name: str,
          block: str = "", severity: str = ERROR) -> Diagnostic:
    return Diagnostic(severity=severity, rule=rule, message=message,
                      pass_name=pass_name, block=block)


# ----------------------------------------------------------- structure
def check_structure(cfg: Cfg, pass_name: str) -> list[Diagnostic]:
    """CFG well-formedness: labels, terminators, edges, fallthroughs."""
    diags: list[Diagnostic] = []
    if cfg.entry not in cfg.blocks:
        return [_diag("cfg-structure",
                      f"entry block {cfg.entry!r} missing", pass_name)]
    if set(cfg.order) != set(cfg.blocks):
        diags.append(_diag(
            "cfg-structure", "layout order out of sync with block map",
            pass_name))
    if len(cfg.order) != len(set(cfg.order)):
        diags.append(_diag("cfg-structure",
                           "duplicate label in layout order", pass_name))
    for block in cfg:
        for index, instr in enumerate(block.instrs):
            is_last = index == len(block.instrs) - 1
            if (instr.is_branch or instr.op == "HALT") and not is_last:
                diags.append(_diag(
                    "cfg-structure",
                    f"control transfer {instr.format()} not at block end",
                    pass_name, block.label))
        for succ in block.successors():
            if succ not in cfg.blocks:
                diags.append(_diag(
                    "cfg-structure", f"unknown successor {succ!r}",
                    pass_name, block.label))
        term = block.terminator
        if term is None and not block.fallthrough:
            diags.append(_diag("cfg-structure",
                               "control falls off the end of the block",
                               pass_name, block.label))
        if (term is not None and term.is_branch and term.op != "BR"
                and not block.fallthrough):
            diags.append(_diag(
                "cfg-structure",
                f"conditional branch {term.format()} without a "
                "fallthrough successor", pass_name, block.label))
        if (block.fallthrough is not None
                and block.fallthrough not in cfg.blocks):
            diags.append(_diag(
                "cfg-structure",
                f"fallthrough to unknown block {block.fallthrough!r}",
                pass_name, block.label))
    return diags


# --------------------------------------------------------------- loops
def _retreating_edges(cfg: Cfg) -> list[tuple[str, str]]:
    """DFS retreating edges: target is an ancestor on the DFS stack."""
    retreating: list[tuple[str, str]] = []
    state: dict[str, int] = {}          # 1 = on stack, 2 = done
    stack: list[tuple[str, iter]] = [(cfg.entry,
                                      iter(cfg.successors(cfg.entry)))]
    state[cfg.entry] = 1
    while stack:
        label, succs = stack[-1]
        advanced = False
        for succ in succs:
            if state.get(succ) == 1:
                retreating.append((label, succ))
            elif succ not in state:
                state[succ] = 1
                stack.append((succ, iter(cfg.successors(succ))))
                advanced = True
                break
        if not advanced:
            state[label] = 2
            stack.pop()
    return retreating


def check_loops(cfg: Cfg, pass_name: str) -> list[Diagnostic]:
    """Loop-structure sanity: the CFG must stay reducible.

    Every DFS retreating edge must be a *back edge* in the dominance
    sense (its target dominates its source).  A retreating edge that
    is not one means some pass manufactured a second entry into a loop
    body -- the canonical broken-unroll/peel symptom, and a shape the
    loop-based passes downstream (LICM, modulo scheduling, trace
    formation) silently mishandle.
    """
    if cfg.entry not in cfg.blocks:
        return []        # structure check already reports this
    back = set(find_back_edges(cfg))
    diags: list[Diagnostic] = []
    for tail, header in _retreating_edges(cfg):
        if (tail, header) not in back:
            diags.append(_diag(
                "irreducible-loop",
                f"retreating edge {tail} -> {header} does not target a "
                "dominator (irreducible loop entry)", pass_name, tail))
    return diags


# ----------------------------------------------------- register rules
def check_register_discipline(cfg: Cfg, pass_name: str,
                              phase: str) -> list[Diagnostic]:
    """Register discipline per pipeline phase.

    ``phase="virtual"`` (before allocation): only virtual registers may
    appear -- a physical register this early would silently alias the
    allocator's assignment.  ``phase="physical"`` (after allocation):
    no virtual register may survive.
    """
    diags: list[Diagnostic] = []
    for block in cfg:
        for instr in block.instrs:
            for reg in instr.uses() + instr.defs():
                if phase == "virtual" and not reg.virtual:
                    diags.append(_diag(
                        "register-discipline",
                        f"physical register {reg} in {instr.format()} "
                        "before register allocation", pass_name,
                        block.label))
                elif phase == "physical" and reg.virtual:
                    diags.append(_diag(
                        "register-discipline",
                        f"virtual register {reg} survives allocation "
                        f"in {instr.format()}", pass_name, block.label))
    return diags


def check_def_before_use(cfg: Cfg, pass_name: str,
                         phase: str = "virtual") -> list[Diagnostic]:
    """Every use must be reached by at least one definition.

    A use no definition can reach on *any* path is a hard error: some
    pass deleted or failed to emit the producer.  CMOV-style reads of
    the destination (``info.reads_dest``) are exempt when the register
    has no reaching def -- predication legitimately compiles
    ``if (c) x = e;`` into a CMOV whose not-taken read of ``x`` mirrors
    the source program's own use of an uninitialized variable.

    ``phase`` selects the register population: ``"virtual"`` before
    allocation, ``"physical"`` after (where the stack pointer counts as
    machine-initialized).
    """
    if cfg.entry not in cfg.blocks:
        return []
    if phase == "virtual":
        def track(reg: Reg) -> bool:
            return reg.virtual
    else:
        def track(reg: Reg) -> bool:
            return not reg.virtual and reg is not SP
    reach_in, _reach_out = solve(cfg, DefinedRegisters(track=track))
    diags: list[Diagnostic] = []
    for label in reverse_postorder(cfg):
        block = cfg.blocks[label]
        defined = set(reach_in.get(label, frozenset()))
        for instr in block.instrs:
            for reg in instr.uses():
                if not track(reg) or reg in defined:
                    continue
                if instr.info.reads_dest and reg == instr.dest:
                    continue     # CMOV not-taken read, see docstring
                diags.append(_diag(
                    "use-before-def",
                    f"{reg} read by {instr.format()} but no definition "
                    "reaches it", pass_name, label))
            for reg in instr.defs():
                if track(reg):
                    defined.add(reg)
    return diags


def check_liveness_consistency(cfg: Cfg,
                               pass_name: str) -> list[Diagnostic]:
    """The dataflow engine's liveness must match ``ir.liveness``.

    Two independent formulations of the same analysis (the engine's
    :class:`LiveVariables` and the hand-rolled solver the allocator
    uses) disagreeing means one of them -- and therefore the allocator
    or the trace scheduler -- is wrong.
    """
    if cfg.entry not in cfg.blocks:
        return []
    live_in, live_out = liveness(cfg)
    engine_in, engine_out = solve(cfg, LiveVariables())
    diags: list[Diagnostic] = []
    for label in reverse_postorder(cfg):
        for name, theirs, ours in (("live-in", live_in[label],
                                    engine_in.get(label, frozenset())),
                                   ("live-out", live_out[label],
                                    engine_out.get(label, frozenset()))):
            if set(ours) != set(theirs):
                extra = set(ours) ^ set(theirs)
                diags.append(_diag(
                    "liveness-mismatch",
                    f"{name} disagrees between ir.liveness and the "
                    f"dataflow engine on {sorted(map(str, extra))}",
                    pass_name, label))
    return diags


# ----------------------------------------------------------- allocation
def capture_intervals(cfg: Cfg) -> dict[Reg, tuple[int, int]]:
    """Live intervals of every virtual register, pre-allocation.

    Uses the allocator's own (conservative, layout-order) interval
    model so the overlap check judges the assignment against exactly
    the contract the allocator promises to honour.
    """
    return {reg: (interval[0], interval[1])
            for reg, interval in
            RegisterAllocator(cfg)._intervals().items()}


def check_allocation(intervals: dict[Reg, tuple[int, int]],
                     allocation: AllocationResult,
                     pass_name: str = "codegen.regalloc"
                     ) -> list[Diagnostic]:
    """No two live-range-overlapping vregs may share a physical register.

    *intervals* must be captured with :func:`capture_intervals` on the
    CFG **before** allocation rewrites it.  Spilled registers live in
    stack slots and are exempt; distinct spilled registers must still
    get distinct slots.
    """
    diags: list[Diagnostic] = []
    by_phys: dict[Reg, list[tuple[int, int, Reg]]] = {}
    for vreg, phys in allocation.assignment.items():
        if vreg in allocation.spilled or vreg not in intervals:
            continue
        start, end = intervals[vreg]
        by_phys.setdefault(phys, []).append((start, end, vreg))
    for phys, entries in sorted(by_phys.items(), key=lambda e: str(e[0])):
        entries.sort()
        for (s1, e1, v1), (s2, e2, v2) in zip(entries, entries[1:]):
            if s2 <= e1:         # the allocator frees only past the end
                diags.append(_diag(
                    "register-clobber",
                    f"{v1} and {v2} share {phys} but their live "
                    f"intervals [{s1},{e1}] and [{s2},{e2}] overlap",
                    pass_name))
    slots: dict[int, Reg] = {}
    for vreg, slot in allocation.spilled.items():
        other = slots.get(slot)
        if other is not None:
            diags.append(_diag(
                "register-clobber",
                f"{other} and {vreg} share spill slot {slot}",
                pass_name))
        slots[slot] = vreg
    return diags
