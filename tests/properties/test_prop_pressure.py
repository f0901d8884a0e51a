"""Property test: MAXLIVE is the register allocator's count.

``block_pressure`` claims to count what linear scan needs: at each
instruction, the registers live into it plus the one it writes.  On a
one-block program whose values are each defined once and read only
after their definition, linear scan's intervals are exactly those live
ranges, so the number of distinct physical registers it assigns per
bank must equal the block's MAXLIVE whenever nothing spills.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.pressure import BANKS, block_pressure
from repro.codegen.regalloc import N_ALLOCATABLE, allocate_registers
from repro.ir import BasicBlock, Cfg
from repro.isa import Instruction, Reg


@st.composite
def one_block_programs(draw):
    """Straight-line code over virtual int and fp registers, each
    defined once, every use after its def, ending in ``HALT``."""
    defined = {"i": [], "f": []}
    instrs = []

    def fresh(kind):
        reg = Reg(kind, len(defined["i"]) + len(defined["f"]),
                  virtual=True)
        defined[kind].append(reg)
        return reg

    def pick(kind):
        return draw(st.sampled_from(defined[kind]))

    for _ in range(draw(st.integers(min_value=0, max_value=60))):
        shape = draw(st.sampled_from(("LDI", "ADD", "ADDI", "CVTFI",
                                      "FLDI", "FADD", "CVTIF")))
        ints, fps = defined["i"], defined["f"]
        if shape == "ADD" and ints:
            srcs = (pick("i"), pick("i"))
            instrs.append(Instruction("ADD", dest=fresh("i"), srcs=srcs))
        elif shape == "ADDI" and ints:
            instrs.append(Instruction("ADD", dest=fresh("i"),
                                      srcs=(pick("i"),), imm=1))
        elif shape == "CVTFI" and fps:
            instrs.append(Instruction("CVTFI", dest=fresh("i"),
                                      srcs=(pick("f"),)))
        elif shape == "FADD" and fps:
            srcs = (pick("f"), pick("f"))
            instrs.append(Instruction("FADD", dest=fresh("f"), srcs=srcs))
        elif shape == "CVTIF" and ints:
            instrs.append(Instruction("CVTIF", dest=fresh("f"),
                                      srcs=(pick("i"),)))
        elif shape in ("LDI", "ADD", "ADDI", "CVTFI"):
            instrs.append(Instruction("LDI", dest=fresh("i"), imm=7))
        else:
            instrs.append(Instruction("FLDI", dest=fresh("f"), imm=0.5))
    instrs.append(Instruction("HALT"))
    return instrs


@given(one_block_programs())
@settings(max_examples=300, deadline=None)
def test_block_pressure_is_the_allocators_register_count(instrs):
    pressure = block_pressure(instrs, ())
    assume(all(pressure[bank] <= N_ALLOCATABLE[bank] for bank in BANKS))
    cfg = Cfg(entry="entry")
    cfg.add_block(BasicBlock("entry", list(instrs)))
    allocation = allocate_registers(cfg)
    assert allocation.n_slots == 0
    for bank in BANKS:
        used = {phys for vreg, phys in allocation.assignment.items()
                if vreg.kind == bank}
        assert len(used) == pressure[bank], bank
