"""Register model: virtual and physical integer/floating-point registers,
and the one table of what the allocator may assign.

The compiler works on an unbounded supply of virtual registers; the
linear-scan allocator (:mod:`repro.codegen.regalloc`) maps them onto the
Alpha's 32 integer and 32 floating-point physical registers.  Register
31 of each bank is hardwired to zero (r31 reads 0, f31 reads 0.0), r30
is the stack pointer for spill slots, and r28/r29 and f29/f30 are the
allocator's spill scratch registers.  That leaves 28 allocatable
integer registers (r0-r27) and 29 allocatable FP registers (f0-f28):
:data:`ALLOCATABLE`, the budget that the allocator, the schedulers'
pressure limits, the pipeliner and ``repro analyze`` all read.
"""

from __future__ import annotations

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

#: Registers the allocator can assign, per bank: r0-r27 and f0-f28.
ALLOCATABLE = {"i": 28, "f": 29}
#: Spill scratch registers per bank: the allocator restores spilled
#: values into them and stores spilled results from them, and the
#: machine-code verifier rejects any other write to them.
SPILL_SCRATCH = {"i": (ireg(28), ireg(29)), "f": (freg(29), freg(30))}
#: Live-value count past which the list scheduler stops *adding*
#: pressure (it keeps scheduling, just stops preferring
#: latency-stretching candidates): the smaller allocatable bank less a
#: headroom of 4, which covers allocator temporaries and the
#: inexactness of the scheduler's own live estimate.
PRESSURE_LIMIT = min(ALLOCATABLE.values()) - 4


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
