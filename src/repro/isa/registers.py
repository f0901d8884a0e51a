"""Register model: virtual and physical integer/floating-point registers.

The compiler works on an unbounded supply of virtual registers; the
linear-scan allocator (:mod:`repro.codegen.regalloc`) maps them onto the
Alpha's 32 integer and 32 floating-point physical registers.  Integer
register 31 is hardwired to zero (Alpha convention) and register 30 is
reserved as the stack pointer for spill slots, leaving 30 allocatable
integer registers and 31 allocatable FP registers (f31 reads as 0.0).
"""

from __future__ import annotations

NUM_INT_REGS = 32
NUM_FP_REGS = 32
ZERO_REG_NUM = 31          # r31 / f31 hardwired to zero
STACK_POINTER_NUM = 30     # r30 reserved for the spill/local area base


class Reg:
    """A register operand: integer/fp, virtual/physical.

    Registers are interned, so identity comparison works and creating
    the same register twice is cheap.  ``is_zero`` (physical r31/f31)
    is fixed when the register is interned: every operand walk asks it.
    """

    __slots__ = ("kind", "num", "virtual", "is_zero")
    _pool: dict[tuple[str, int, bool], "Reg"] = {}

    def __new__(cls, kind: str, num: int, virtual: bool = False) -> "Reg":
        key = (kind, num, virtual)
        reg = cls._pool.get(key)
        if reg is None:
            if kind not in ("i", "f"):
                raise ValueError(f"bad register kind {kind!r}")
            if num < 0:
                raise ValueError(f"bad register number {num}")
            reg = object.__new__(cls)
            reg.kind = kind
            reg.num = num
            reg.virtual = virtual
            reg.is_zero = not virtual and num == ZERO_REG_NUM
            cls._pool[key] = reg
        return reg

    @property
    def is_fp(self) -> bool:
        return self.kind == "f"

    def __repr__(self) -> str:
        prefix = "v" if self.virtual else ""
        return f"{prefix}{self.kind}{self.num}" if self.virtual else (
            f"{'f' if self.kind == 'f' else 'r'}{self.num}")

    def __reduce__(self):
        return (Reg, (self.kind, self.num, self.virtual))


def ireg(num: int) -> Reg:
    """Physical integer register ``r<num>``."""
    return Reg("i", num)


def freg(num: int) -> Reg:
    """Physical floating-point register ``f<num>``."""
    return Reg("f", num)


ZERO = ireg(ZERO_REG_NUM)
FZERO = freg(ZERO_REG_NUM)
SP = ireg(STACK_POINTER_NUM)


class VirtualRegAllocator:
    """Hands out fresh virtual registers during lowering."""

    def __init__(self) -> None:
        self._next = 0

    def new(self, kind: str) -> Reg:
        reg = Reg(kind, self._next, virtual=True)
        self._next += 1
        return reg

    def new_int(self) -> Reg:
        return self.new("i")

    def new_fp(self) -> Reg:
        return self.new("f")

    @property
    def count(self) -> int:
        return self._next
