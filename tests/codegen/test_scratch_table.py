"""The register table in ``repro.isa`` has exactly one source of truth."""

from repro.codegen import verify
from repro.isa import (
    ALLOCATABLE,
    FZERO,
    PRESSURE_LIMIT,
    SP,
    SPILL_SCRATCH,
    ZERO,
    Reg,
)


def test_verify_derives_its_numbers_from_the_allocator_table():
    assert verify._SCRATCH_NUMS == {
        kind: tuple(reg.num for reg in regs)
        for kind, regs in SPILL_SCRATCH.items()}


def test_scratch_registers_are_physical_and_reserved():
    for kind, regs in SPILL_SCRATCH.items():
        for reg in regs:
            assert not reg.virtual
            assert reg.kind == kind
            # Outside the allocatable range, and never the stack
            # pointer or a hardwired zero.
            assert reg.num >= ALLOCATABLE[kind]
            assert reg is not SP
            assert not reg.is_zero


def test_register_table_partitions_each_bank():
    # Each of a bank's 32 registers is exactly one of: allocatable,
    # spill scratch, the stack pointer or the hardwired zero.
    reserved = {"i": (SP, ZERO), "f": (FZERO,)}
    for kind, count in ALLOCATABLE.items():
        regs = [Reg(kind, n) for n in range(count)]
        regs += [*SPILL_SCRATCH[kind], *reserved[kind]]
        assert all(reg.kind == kind and not reg.virtual for reg in regs)
        assert sorted(reg.num for reg in regs) == list(range(32))
    assert ALLOCATABLE == {"i": 28, "f": 29}
    # The smaller bank less 4 registers of headroom.
    assert PRESSURE_LIMIT == 24
