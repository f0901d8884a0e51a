"""Instruction and symbolic memory-reference representation.

An :class:`Instruction` is a single machine operation on virtual or
physical registers.  Loads and stores additionally carry a
:class:`MemRef`, a *symbolic* description of the access that the
dependence analysis uses to disambiguate memory operations (the paper
notes the Multiflow compiler's array dependence analysis as one reason
it exposes more load-level parallelism than gcc).

Loads may carry a *locality hint* set by the locality-analysis pass:
``HIT`` loads are scheduled with the optimistic architectural weight,
``MISS`` loads are balanced-scheduled with a miss-level weight, and
unhinted loads are balanced-scheduled normally (paper section 3.3).
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Optional

from .opcodes import OPCODES, OpInfo
from .registers import Reg


class Locality(enum.Enum):
    """Compile-time cache-behaviour hint attached to a load."""

    HIT = "hit"
    MISS = "miss"
    UNKNOWN = "unknown"


class MemRef:
    """Symbolic description of a load/store target for disambiguation.

    Attributes:
        region: ``"data"`` for named program symbols, ``"stack"`` for
            compiler-generated spill slots.
        symbol: array/scalar name, or the spill-slot index for stack refs.
        affine: optional ``(coeffs, const)`` pair describing the element
            index as an affine function of register values: ``coeffs``
            maps block-local value symbols (``r<num>#<k>``, one per
            value a register holds within its block, from
            ``Lowerer._value_symbol``) to integer coefficients and
            ``const`` is the constant term.  ``None`` when the
            subscript is not affine (irregular access).
    """

    __slots__ = ("region", "symbol", "affine")

    def __init__(self, region: str, symbol,
                 affine: Optional[tuple[dict[str, int], int]] = None) -> None:
        self.region = region
        self.symbol = symbol
        self.affine = affine

    def conflicts_with(self, other: "MemRef") -> bool:
        """Whether two references may touch the same memory.

        Distinct symbols never alias (the source language has no
        pointers); identical symbols with affine subscripts are
        independent when the subscripts provably differ in every
        iteration (equal coefficients, unequal constants).
        """
        if self.region != other.region or self.symbol != other.symbol:
            return False
        if self.affine is None or other.affine is None:
            return True
        coeffs_a, const_a = self.affine
        coeffs_b, const_b = other.affine
        if coeffs_a == coeffs_b:
            return const_a == const_b
        return True

    def __repr__(self) -> str:
        if self.affine is None:
            return f"{self.region}:{self.symbol}[?]"
        coeffs, const = self.affine
        terms = [f"{c}*{v}" for v, c in sorted(coeffs.items())]
        terms.append(str(const))
        return f"{self.region}:{self.symbol}[{'+'.join(terms)}]"


_instr_ids = itertools.count()


class Instruction:
    """One machine instruction.

    Operand conventions (see :mod:`repro.isa.opcodes`):

    * ALU ops: ``dest``, ``srcs`` (last source may be ``imm`` instead
      when the opcode allows literals and ``srcs`` is one short);
    * ``LDI``/``FLDI``: ``dest``, ``imm`` holds the constant;
    * loads: ``dest``, ``srcs = (base,)``, ``offset`` in bytes;
    * stores: ``srcs = (value, base)``, ``offset`` in bytes;
    * branches: ``label`` is the target; conditional branches test
      ``srcs[0]`` against zero;
    * CMOV family: ``dest`` is read as well as written.

    ``dest`` and ``srcs`` are never reassigned after construction: the
    register operands :meth:`uses` and :meth:`defs` return are derived
    from them once, here, because every dataflow walk asks for them.
    Rewrite an instruction with :meth:`copy`.
    """

    __slots__ = ("op", "info", "dest", "srcs", "imm", "offset", "label",
                 "mem", "locality", "group", "is_spill", "uid", "comment",
                 "_uses", "_defs")

    def __init__(self, op: str, dest: Optional[Reg] = None,
                 srcs: Iterable[Reg] = (), imm=None, offset: int = 0,
                 label: Optional[str] = None, mem: Optional[MemRef] = None,
                 locality: Locality = Locality.UNKNOWN,
                 group: Optional[int] = None,
                 is_spill: bool = False, comment: str = "") -> None:
        info = OPCODES[op]
        self.op = op
        self.info: OpInfo = info
        self.dest = dest
        if srcs.__class__ is not tuple:
            srcs = tuple(srcs)
        self.srcs = srcs
        self.imm = imm
        self.offset = offset
        self.label = label
        self.mem = mem
        self.locality = locality
        self.group = group
        self.is_spill = is_spill
        self.uid = next(_instr_ids)
        self.comment = comment
        # The common shape passes every rule of _validate; anything
        # else gets the full check and its error message.
        if (len(srcs) != info.nsrc or (dest is None) == info.has_dest
                or (label is None and info.is_branch)):
            self._validate()
        regs = srcs + (dest,) if info.reads_dest else srcs
        for reg in regs:
            if reg.is_zero:
                regs = tuple([reg for reg in regs if not reg.is_zero])
                break
        self._uses = regs
        self._defs = () if dest is None or dest.is_zero else (dest,)

    def _validate(self) -> None:
        info = self.info
        if info.has_dest and self.dest is None:
            raise ValueError(f"{self.op} requires a destination")
        if not info.has_dest and self.dest is not None:
            raise ValueError(f"{self.op} takes no destination")
        if info.is_branch and self.label is None:
            raise ValueError(f"{self.op} requires a label")
        nsrc = len(self.srcs)
        if nsrc == info.nsrc:
            pass
        elif info.imm_ok and nsrc == info.nsrc - 1 and self.imm is not None:
            pass
        elif self.op in ("LDI", "FLDI") and self.imm is not None:
            pass
        else:
            raise ValueError(
                f"{self.op} expects {info.nsrc} sources "
                f"(got {nsrc}, imm={self.imm!r})")

    # ------------------------------------------------------------- queries
    @property
    def is_load(self) -> bool:
        return self.op in ("LD", "FLD")

    @property
    def is_store(self) -> bool:
        return self.op in ("ST", "FST")

    @property
    def is_mem(self) -> bool:
        return self.info.is_mem

    @property
    def is_branch(self) -> bool:
        return self.info.is_branch

    def uses(self) -> tuple[Reg, ...]:
        """Registers read by this instruction (zero registers excluded)."""
        return self._uses

    def defs(self) -> tuple[Reg, ...]:
        """Registers written by this instruction (writes to r31 discarded)."""
        return self._defs

    def copy(self, **overrides) -> "Instruction":
        """A fresh instruction (new uid) with selected fields replaced."""
        fields = dict(
            op=self.op, dest=self.dest, srcs=self.srcs, imm=self.imm,
            offset=self.offset, label=self.label, mem=self.mem,
            locality=self.locality, group=self.group,
            is_spill=self.is_spill, comment=self.comment,
        )
        fields.update(overrides)
        return Instruction(**fields)

    # ------------------------------------------------------------ printing
    def __repr__(self) -> str:
        return f"<{self.format()}>"

    def format(self) -> str:
        op = self.op
        parts: list[str] = []
        if self.is_load:
            parts.append(f"{self.dest}, {self.offset}({self.srcs[0]})")
        elif self.is_store:
            parts.append(f"{self.srcs[0]}, {self.offset}({self.srcs[1]})")
        elif op in ("LDI", "FLDI"):
            parts.append(f"{self.dest}, {self.imm}")
        elif self.is_branch:
            operands = ", ".join(map(str, self.srcs))
            target = self.label
            parts.append(f"{operands}, {target}" if operands else target)
        else:
            operands = list(map(str, self.srcs))
            if self.imm is not None:
                operands.append(f"#{self.imm}")
            if self.dest is not None:
                operands.insert(0, str(self.dest))
            parts.append(", ".join(operands))
        text = f"{op:<8}{parts[0]}" if parts and parts[0] else op
        annotations = []
        if self.locality is Locality.HIT:
            annotations.append("hit")
        elif self.locality is Locality.MISS:
            annotations.append("miss")
        if self.is_spill:
            annotations.append("spill")
        if self.comment:
            annotations.append(self.comment)
        if annotations:
            text += f"    ; {' '.join(annotations)}"
        return text
