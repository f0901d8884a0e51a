"""Alpha-like target ISA: opcodes, registers, instructions, programs."""

from .opcodes import (
    BRANCH_OPS,
    COMMUTATIVE_OPS,
    LOAD_OPS,
    MEM_OPS,
    OPCODES,
    STORE_OPS,
    OpClass,
    OpInfo,
    opinfo,
)
from .registers import (
    ALLOCATABLE,
    FZERO,
    PRESSURE_LIMIT,
    SP,
    SPILL_SCRATCH,
    ZERO,
    Reg,
    VirtualRegAllocator,
    freg,
    ireg,
)
from .instruction import Instruction, Locality, MemRef
from .program import DataSymbol, MachineProgram, assemble

__all__ = [
    "BRANCH_OPS", "COMMUTATIVE_OPS", "LOAD_OPS", "MEM_OPS", "OPCODES",
    "STORE_OPS", "OpClass", "OpInfo", "opinfo",
    "ALLOCATABLE", "FZERO", "PRESSURE_LIMIT", "SP", "SPILL_SCRATCH",
    "ZERO", "Reg", "VirtualRegAllocator", "freg", "ireg",
    "Instruction", "Locality", "MemRef",
    "DataSymbol", "MachineProgram", "assemble",
]
