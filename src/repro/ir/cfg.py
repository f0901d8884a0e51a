"""Control-flow graph over basic blocks of machine instructions.

A :class:`BasicBlock` holds straight-line instructions; its last
instruction may be a conditional branch (``BEQ``/``BNE``, whose target
is the *taken* successor), an unconditional ``BR``, or ``HALT``.  Any
block without a terminating ``BR``/``HALT`` falls through to
``block.fallthrough``.

The CFG keeps blocks in *layout order*; :meth:`Cfg.linearize` emits a
:class:`~repro.isa.program.MachineProgram`, inserting ``BR``
instructions wherever layout order breaks a fallthrough edge.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..isa import DataSymbol, Instruction, MachineProgram, assemble


class BasicBlock:
    """One basic block: a label, instructions, and a fallthrough edge."""

    def __init__(self, label: str,
                 instrs: Optional[list[Instruction]] = None,
                 fallthrough: Optional[str] = None) -> None:
        self.label = label
        self.instrs: list[Instruction] = instrs if instrs is not None else []
        self.fallthrough = fallthrough

    @property
    def terminator(self) -> Optional[Instruction]:
        """The control-transfer instruction ending the block, if any."""
        if self.instrs and (self.instrs[-1].is_branch
                            or self.instrs[-1].op == "HALT"):
            return self.instrs[-1]
        return None

    @property
    def body(self) -> list[Instruction]:
        """Instructions excluding the terminator."""
        term = self.terminator
        return self.instrs[:-1] if term is not None else list(self.instrs)

    def successors(self) -> list[str]:
        """Successor labels; for conditional branches, taken target first."""
        term = self.terminator
        if term is None:
            return [self.fallthrough] if self.fallthrough else []
        if term.op == "HALT":
            return []
        if term.op == "BR":
            return [term.label]
        succs = [term.label]
        if self.fallthrough:
            succs.append(self.fallthrough)
        return succs

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label}: {len(self.instrs)} instrs>"


class Cfg:
    """A function-level control-flow graph in layout order."""

    def __init__(self, entry: str = "entry") -> None:
        self.blocks: dict[str, BasicBlock] = {}
        self.order: list[str] = []
        self.entry = entry
        self.symbols: dict[str, DataSymbol] = {}
        self.data_size: int = 0
        self._label_counter = 0

    # -------------------------------------------------------- construction
    def new_label(self, stem: str = "L") -> str:
        self._label_counter += 1
        return f".{stem}{self._label_counter}"

    def add_block(self, block: BasicBlock,
                  after: Optional[str] = None) -> BasicBlock:
        if block.label in self.blocks:
            raise ValueError(f"duplicate block {block.label!r}")
        self.blocks[block.label] = block
        if after is None:
            self.order.append(block.label)
        else:
            self.order.insert(self.order.index(after) + 1, block.label)
        return block

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    def __iter__(self) -> Iterator[BasicBlock]:
        for label in self.order:
            yield self.blocks[label]

    def __len__(self) -> int:
        return len(self.blocks)

    # ------------------------------------------------------------- queries
    def successors(self, label: str) -> list[str]:
        return self.blocks[label].successors()

    def predecessors(self) -> dict[str, list[str]]:
        """Map from block label to predecessor labels (in layout order)."""
        preds: dict[str, list[str]] = {label: [] for label in self.order}
        for label in self.order:
            for succ in self.blocks[label].successors():
                preds[succ].append(label)
        return preds

    def instruction_count(self) -> int:
        return sum(len(b.instrs) for b in self)

    # ---------------------------------------------------------- validation
    def verify(self) -> None:
        """Check structural invariants; raise ValueError on violation."""
        if self.entry not in self.blocks:
            raise ValueError(f"entry block {self.entry!r} missing")
        if set(self.order) != set(self.blocks):
            raise ValueError("layout order out of sync with block map")
        for block in self:
            for instr in block.instrs[:-1]:
                if instr.is_branch or instr.op == "HALT":
                    raise ValueError(
                        f"{block.label}: control transfer {instr.format()} "
                        "not at block end")
            for succ in block.successors():
                if succ not in self.blocks:
                    raise ValueError(
                        f"{block.label}: unknown successor {succ!r}")
            term = block.terminator
            if term is None and not block.fallthrough:
                raise ValueError(f"{block.label}: falls off the end")

    def prune_unreachable(self) -> list[str]:
        """Drop blocks unreachable from the entry; return removed labels."""
        seen: set[str] = set()
        stack = [self.entry]
        while stack:
            label = stack.pop()
            if label in seen:
                continue
            seen.add(label)
            stack.extend(self.blocks[label].successors())
        removed = [label for label in self.order if label not in seen]
        for label in removed:
            del self.blocks[label]
        self.order = [label for label in self.order if label in seen]
        return removed

    # ------------------------------------------------------------ emission
    def linearize(self) -> MachineProgram:
        """Emit a linear program in layout order.

        Fallthrough edges to non-adjacent blocks get an explicit ``BR``.
        The entry block must be first in layout order.
        """
        if self.order and self.order[0] != self.entry:
            self.order.remove(self.entry)
            self.order.insert(0, self.entry)
        chunks: list[tuple[Optional[str], list[Instruction]]] = []
        for position, label in enumerate(self.order):
            block = self.blocks[label]
            instrs = list(block.instrs)
            next_label = (self.order[position + 1]
                          if position + 1 < len(self.order) else None)
            if block.terminator is None or (
                    block.terminator.is_branch
                    and block.terminator.op != "BR"):
                if block.fallthrough and block.fallthrough != next_label:
                    instrs.append(Instruction("BR", label=block.fallthrough))
            chunks.append((label, instrs))
        return assemble(chunks, symbols=self.symbols,
                        data_size=self.data_size)

    def format(self) -> str:
        lines: list[str] = []
        for block in self:
            header = f"{block.label}:"
            if block.fallthrough:
                header += f"    ; fallthrough {block.fallthrough}"
            lines.append(header)
            lines.extend(f"    {instr.format()}" for instr in block.instrs)
        return "\n".join(lines)
