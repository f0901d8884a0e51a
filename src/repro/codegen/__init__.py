"""Code generation: lowering, register allocation, emission."""

from .lower import Lowerer, lower
from .regalloc import AllocationResult, allocate_registers
from .verify import VerificationError, verify_program

__all__ = [
    "Lowerer", "lower", "AllocationResult", "allocate_registers",
    "VerificationError", "verify_program",
]
