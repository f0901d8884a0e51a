"""Property tests: the linear-scan allocation loop against a reference.

``RegisterAllocator.allocate`` keeps each bank's active intervals
sorted by end: it expires them from the front and inserts with
``bisect.insort``, which places an interval after those with an equal
end.  The reference below is the loop as it was, which rebuilt the
active list for every interval and re-sorted it (stably) after each
insertion.  Hypothesis drives CFGs of one to four blocks, with a loop
back edge, over more integer and FP virtual registers than a bank
holds, so intervals spill, steal registers and end together at block
boundaries.  Both must return the same assignment, spill slots and
rewritten code.

``RegisterAllocator._rewrite`` builds each rewritten instruction with
one constructor call and sets up spill scratch state only for an
instruction that reads or writes a spilled register.  ``ref_rewrite``
is the rewrite as it was, which defined a closure and built the
scratch state for every instruction and copied each one through
``Instruction.copy``; on the same CFGs, with and without spills, both
must emit the same instructions, field for field.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.regalloc import AllocationResult, RegisterAllocator
from repro.ir import BasicBlock, Cfg
from repro.isa import (
    ALLOCATABLE,
    SP,
    SPILL_SCRATCH,
    ZERO,
    Instruction,
    Locality,
    MemRef,
    Reg,
)


class RefAllocator(RegisterAllocator):
    """The allocation loop that rebuilt and re-sorted the active list."""

    def allocate(self):
        intervals = self._intervals()
        order = sorted(intervals, key=lambda r: intervals[r][0])
        free = {"i": [Reg("i", n) for n in range(ALLOCATABLE["i"])],
                "f": [Reg("f", n) for n in range(ALLOCATABLE["f"])]}
        active = {"i": [], "f": []}
        assignment = {}
        spilled = {}
        slots = 0

        for vreg in order:
            start, end = intervals[vreg]
            kind = vreg.kind
            bank = active[kind]
            keep = []
            for item_end, item in bank:
                if item_end < start:
                    free[kind].append(assignment[item])
                else:
                    keep.append((item_end, item))
            active[kind] = keep
            if free[kind]:
                assignment[vreg] = free[kind].pop()
                active[kind].append((end, vreg))
                active[kind].sort(key=lambda item: item[0])
                continue
            furthest_end, furthest = active[kind][-1]
            if furthest_end > end:
                assignment[vreg] = assignment.pop(furthest)
                spilled[furthest] = slots
                slots += 1
                active[kind][-1] = (end, vreg)
                active[kind].sort(key=lambda item: item[0])
            else:
                spilled[vreg] = slots
                slots += 1

        self._rewrite(assignment, spilled)
        return AllocationResult(assignment=assignment, spilled=spilled,
                                n_slots=slots)


def ref_rewrite(self, assignment, spilled):
    """The rewrite with a closure and scratch state per instruction."""
    for block in self.cfg:
        new_instrs = []
        for instr in block.instrs:
            scratch_next = {"i": 0, "f": 0}
            pre = []
            post = []
            replace = {}

            def resolve_use(reg):
                if not reg.virtual:
                    return reg
                if reg in replace:
                    return replace[reg]
                if reg in spilled:
                    index = scratch_next[reg.kind]
                    if index >= len(SPILL_SCRATCH[reg.kind]):
                        raise RuntimeError("out of spill scratch registers")
                    scratch_next[reg.kind] = index + 1
                    scratch = SPILL_SCRATCH[reg.kind][index]
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
                        if index >= len(SPILL_SCRATCH[dest.kind]):
                            scratch = SPILL_SCRATCH[dest.kind][0]
                        else:
                            scratch_next[dest.kind] = index + 1
                            scratch = SPILL_SCRATCH[dest.kind][index]
                    slot = spilled[dest]
                    op = "FST" if dest.kind == "f" else "ST"
                    post.append(Instruction(
                        op, srcs=(scratch, SP), offset=slot * 8,
                        mem=MemRef("stack", slot), is_spill=True))
                    dest = scratch
                else:
                    dest = assignment[dest]

            new_instrs.extend(pre)
            new_instrs.append(instr.copy(dest=dest, srcs=new_srcs))
            new_instrs.extend(post)
        block.instrs = new_instrs


class RefRewriteAllocator(RegisterAllocator):
    """The allocator with the rewrite as it was."""

    _rewrite = ref_rewrite


INTS = [Reg("i", k, virtual=True) for k in range(36)]
FPS = [Reg("f", k, virtual=True) for k in range(36)]


@st.composite
def instructions(draw):
    i_reg = st.sampled_from(INTS)
    f_reg = st.sampled_from(FPS)
    shape = draw(st.sampled_from(
        ("LDI", "FLDI", "ADD", "FMUL", "CVTIF", "FLD", "FST", "ZERO")))
    if shape == "LDI":
        return Instruction("LDI", dest=draw(i_reg), imm=1)
    if shape == "FLDI":
        return Instruction("FLDI", dest=draw(f_reg), imm=1.0)
    if shape == "ADD":
        return Instruction("ADD", dest=draw(i_reg),
                           srcs=(draw(i_reg), draw(i_reg)))
    if shape == "FMUL":
        return Instruction("FMUL", dest=draw(f_reg),
                           srcs=(draw(f_reg), draw(f_reg)))
    if shape == "CVTIF":
        return Instruction("CVTIF", dest=draw(f_reg), srcs=(draw(i_reg),))
    if shape == "FLD":
        return Instruction("FLD", dest=draw(f_reg), srcs=(draw(i_reg),),
                           offset=draw(st.sampled_from((0, 8))),
                           mem=MemRef("data", "A"),
                           locality=draw(st.sampled_from(tuple(Locality))),
                           group=draw(st.sampled_from((None, 1))),
                           comment=draw(st.sampled_from(("", "reuse"))))
    if shape == "FST":
        return Instruction("FST", srcs=(draw(f_reg), draw(i_reg)),
                           mem=MemRef("data", "A"))
    return Instruction("ADD", dest=draw(i_reg), srcs=(ZERO,), imm=0)


@st.composite
def cfg_specs(draw):
    """How many values of each bank the entry block defines, the loop's
    block bodies, the order in which the loop's last block stores the
    defined values (which keeps them live around the loop), and the
    block the loop branches back to."""
    defined = draw(st.integers(0, len(INTS)))
    n_blocks = draw(st.integers(1, 3))
    bodies = [draw(st.lists(instructions(), max_size=30))
              for _ in range(n_blocks)]
    tail = draw(st.permutations(range(defined)))
    back_to = draw(st.integers(0, n_blocks - 1))
    test = draw(st.sampled_from(INTS))
    return defined, bodies, tail, back_to, test


def build(spec) -> Cfg:
    defined, bodies, tail, back_to, test = spec
    cfg = Cfg(entry="E")
    entry = [Instruction("LDI", dest=reg, imm=k)
             for k, reg in enumerate(INTS[:defined])]
    entry += [Instruction("FLDI", dest=reg, imm=float(k))
              for k, reg in enumerate(FPS[:defined])]
    cfg.add_block(BasicBlock("E", entry, fallthrough="B0"))
    last = len(bodies) - 1
    for k, body in enumerate(bodies):
        instrs = [ins.copy() for ins in body]
        if k == last:
            instrs += [Instruction("FST", srcs=(FPS[n], INTS[n]),
                                   mem=MemRef("data", "A"))
                       for n in tail]
            instrs.append(Instruction("BNE", srcs=(test,),
                                      label=f"B{back_to}"))
        cfg.add_block(BasicBlock(
            f"B{k}", instrs, fallthrough=f"B{k + 1}" if k < last else "X"))
    cfg.add_block(BasicBlock("X", [Instruction("HALT")]))
    return cfg


def allocate(allocator_class, spec):
    cfg = build(spec)
    result = allocator_class(cfg).allocate()
    code = [instr.format() for block in cfg for instr in block.instrs]
    return result, code


@settings(max_examples=150, deadline=None)
@given(cfg_specs())
def test_allocation_matches_the_reference(spec):
    assert allocate(RegisterAllocator, spec) == allocate(RefAllocator, spec)


def fields(instr):
    """Every field of *instr* but its uid (a spill slot's ``MemRef`` is
    new in both rewrites, so memory references compare by value)."""
    return {"op": instr.op, "dest": instr.dest, "srcs": instr.srcs,
            "imm": instr.imm, "offset": instr.offset, "label": instr.label,
            "mem": repr(instr.mem), "locality": instr.locality,
            "group": instr.group, "is_spill": instr.is_spill,
            "comment": instr.comment, "uses": instr.uses(),
            "defs": instr.defs()}


def rewrite(allocator_class, spec):
    cfg = build(spec)
    result = allocator_class(cfg).allocate()
    return result, [fields(instr) for block in cfg for instr in block.instrs]


@settings(max_examples=150, deadline=None)
@given(cfg_specs())
def test_rewrite_matches_the_reference(spec):
    assert rewrite(RegisterAllocator, spec) == \
        rewrite(RefRewriteAllocator, spec)


def test_rewrite_matches_the_reference_with_and_without_spills():
    few = (3, [[Instruction("FMUL", dest=FPS[0], srcs=(FPS[1], FPS[2]))]],
           [2, 0, 1], 0, INTS[0])
    result, code = rewrite(RegisterAllocator, few)
    assert result.n_slots == 0
    assert (result, code) == rewrite(RefRewriteAllocator, few)
    # Every value is live around the loop and the FMULs chain them, so
    # some instruction reads a spilled register and writes another.
    body = [Instruction("FMUL", dest=FPS[k], srcs=(FPS[k + 1], FPS[k + 2]))
            for k in range(len(FPS) - 2)]
    many = (len(INTS), [body], list(range(len(INTS))), 0, INTS[0])
    result, code = rewrite(RegisterAllocator, many)
    assert result.n_slots > 0
    assert any(ins.dest in result.spilled
               and any(reg in result.spilled for reg in ins.srcs)
               for ins in body)
    assert any(instr["is_spill"] for instr in code)
    assert (result, code) == rewrite(RefRewriteAllocator, many)


def test_equal_ends_match_the_reference():
    """Thirty-six values per bank live out of the entry block end
    together; the loop stores them in turn, so the allocator spills."""
    spec = (len(INTS), [[]], list(reversed(range(len(INTS)))), 0, INTS[0])
    result, code = allocate(RegisterAllocator, spec)
    assert result.n_slots > 0
    assert (result, code) == allocate(RefAllocator, spec)


def test_stolen_register_expires_after_an_equal_end():
    """With all 29 FP registers taken, ``b`` steals a long value's
    register and ends where ``c`` ends; ``e`` then gets the register
    freed last, which must be ``b``'s, as the stable re-sort placed it
    after ``c``."""
    longs, (c, b, d, e) = FPS[:28], FPS[28:32]
    base = INTS[0]

    def store(reg):
        return Instruction("FST", srcs=(reg, base), mem=MemRef("data", "A"))

    body = ([Instruction("FLDI", dest=reg, imm=1.0) for reg in longs]
            + [Instruction("FLDI", dest=c, imm=2.0),
               Instruction("FLDI", dest=b, imm=3.0),
               Instruction("FMUL", dest=d, srcs=(c, b)),
               Instruction("FLDI", dest=e, imm=4.0),
               store(e), store(d)]
            + [store(reg) for reg in longs])
    spec = (0, [body], [], 0, base)
    result, code = allocate(RegisterAllocator, spec)
    assert result.assignment[e] == result.assignment[b]
    assert (result, code) == allocate(RefAllocator, spec)
