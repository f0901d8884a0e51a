"""The machine-code verifier."""

import pytest

from repro.codegen.verify import VerificationError, verify_program
from repro.harness.compile import Options, compile_source
from repro.isa import Instruction, MemRef, Reg, assemble, ireg


def v(i, kind="i"):
    return Reg(kind, i, virtual=True)


def program_of(instrs):
    return assemble([("entry", instrs)])


def test_clean_program_passes():
    program = program_of([
        Instruction("LDI", dest=ireg(0), imm=1),
        Instruction("HALT"),
    ])
    verify_program(program)


def test_virtual_registers_rejected_post_allocation():
    program = program_of([
        Instruction("LDI", dest=v(0), imm=1),
        Instruction("HALT"),
    ])
    with pytest.raises(VerificationError):
        verify_program(program)


def test_write_to_zero_register_rejected():
    program = program_of([
        Instruction("LDI", dest=ireg(31), imm=1),
        Instruction("HALT"),
    ])
    # Writes to r31 are silently discarded by defs(); build one that
    # slips through via the dest field of a CMOV-style op instead.
    verify_program(program)      # defs() hides it: nothing to detect

    program = program_of([
        Instruction("LDI", dest=ireg(30), imm=1),
        Instruction("HALT"),
    ])
    with pytest.raises(VerificationError):
        verify_program(program)


def test_memory_op_without_memref_rejected():
    program = program_of([
        Instruction("LDI", dest=ireg(0), imm=64),
        Instruction("LD", dest=ireg(1), srcs=(ireg(0),), offset=0),
        Instruction("HALT"),
    ])
    with pytest.raises(VerificationError) as err:
        verify_program(program)
    assert "MemRef" in str(err.value)


def test_stack_access_must_be_spill():
    program = program_of([
        Instruction("LDI", dest=ireg(0), imm=64),
        Instruction("LD", dest=ireg(1), srcs=(ireg(0),), offset=0,
                    mem=MemRef("stack", 0)),
        Instruction("HALT"),
    ])
    with pytest.raises(VerificationError):
        verify_program(program)


def test_fall_off_the_end_rejected():
    program = program_of([Instruction("LDI", dest=ireg(0), imm=1)])
    with pytest.raises(VerificationError) as err:
        verify_program(program)
    assert "fall off" in str(err.value)


def test_trailing_conditional_branch_rejected():
    program = assemble([
        ("entry", [Instruction("LDI", dest=ireg(0), imm=1),
                   Instruction("BEQ", srcs=(ireg(0),), label="entry")]),
    ])
    with pytest.raises(VerificationError):
        verify_program(program)


def test_missing_halt_rejected():
    program = assemble([
        ("entry", [Instruction("BR", label="entry")]),
    ])
    with pytest.raises(VerificationError) as err:
        verify_program(program)
    assert "HALT" in str(err.value)


def test_undefined_label_reported():
    program = program_of([Instruction("HALT")])
    program.instructions.insert(0, Instruction("BR", label="nowhere"))
    with pytest.raises(ValueError, match="nowhere"):
        verify_program(program)


def test_compiled_workload_programs_verify(small_kernel_source):
    for options in (Options(), Options(scheduler="traditional", unroll=4),
                    Options(unroll=8, trace=True, locality=True)):
        result = compile_source(small_kernel_source, options)
        verify_program(result.program)     # compile_source already did


def test_scratch_register_use_in_spill_sequences_allowed():
    """Programs that actually spill still verify (the allocator writes
    scratch registers as part of restore/spill sequences)."""
    lines = "\n".join(f"    var t{k} : float;" for k in range(40))
    inits = "\n".join(f"    t{k} = float({k}) * 1.5;" for k in range(40))
    total = " + ".join(f"t{k}" for k in range(40))
    source = f"""
array OUT[1] : float;
func main() {{
{lines}
{inits}
    OUT[0] = {total};
}}
"""
    result = compile_source(source, Options(scheduler="none"))
    assert result.allocation.n_slots > 0
    verify_program(result.program)
