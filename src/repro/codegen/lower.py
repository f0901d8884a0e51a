"""AST -> CFG lowering: instruction selection for the Alpha-like ISA.

Strategy notes (all deliberate, see DESIGN.md):

* **Calls are inlined.**  Semantic analysis rejects recursion and pins
  ``return`` to the end of a body, so a call becomes: copy arguments
  into fresh virtual registers, splice the body, read the return value.
* **Scalars live in registers.**  Locals and parameters are bound to
  virtual registers.  Global scalars that are never assigned are
  *promoted*: initialized once into a register at entry.  Assigned
  globals live in the data segment and are loaded/stored per access.
* **Loops are rotated** (top-test guard + bottom-test latch) so an
  iteration executes a single conditional branch, like Multiflow's
  loop code.
* **Symbolic memory references.**  Every load/store carries a
  :class:`~repro.isa.instruction.MemRef`.  An affine subscript is the
  AST's flattened subscript with each variable replaced by a
  block-local symbol for the value its register holds (``r<num>#<k>``,
  renewed when the register is redefined), giving the dependence DAG a
  sound "same array, provably different element" disambiguator.  This
  is the only affine model lowering keeps: registers carry none, and
  the loop dependence analyzer (:mod:`repro.analysis.deps`) recovers
  addresses from the lowered code itself.
* **Address CSE + displacement folding.**  Affine subscripts share one
  scaled-index computation per basic block (keyed by their coefficient
  vector) and fold the constant term into the load/store displacement,
  so ``A[i][j-1]``, ``A[i][j]`` and ``A[i][j+1]`` cost one address
  computation plus three displaced accesses — the Multiflow-style code
  shape that makes unrolled loop bodies compact.
* **Strength reduction.**  Constant multiplies by powers of two become
  shifts, two-bit constants become shift+add (so row-major address
  arithmetic costs 1-cycle shifts/adds rather than 8-cycle multiplies).
"""

from __future__ import annotations

from typing import Optional

from ..analysis.affine import AffineForm, flatten_subscript
from ..frontend import ast
from ..frontend.errors import CompileError
from ..ir import BasicBlock, Cfg
from ..isa import (
    DataSymbol,
    Instruction,
    Locality,
    MemRef,
    Reg,
    VirtualRegAllocator,
    ZERO,
)
from ..machine.config import ELEMENT_BYTES, ELEMENTS_PER_LINE

_CMP_OP = {"==": "CMPEQ", "!=": "CMPNE", "<": "CMPLT", "<=": "CMPLE"}
_FCMP_OP = {"==": "FCMPEQ", "!=": "FCMPNE", "<": "FCMPLT", "<=": "FCMPLE"}
_INT_ARITH = {"+": "ADD", "-": "SUB", "*": "MUL", "/": "DIVQ", "%": "REMQ"}
_FP_ARITH = {"+": "FADD", "-": "FSUB", "*": "FMUL", "/": "FDIV"}
_HINTS = {"hit": Locality.HIT, "miss": Locality.MISS}


class Lowerer:
    """Lowers one analyzed program to a CFG of virtual-register code."""

    def __init__(self, program: ast.ProgramAST) -> None:
        self.program = program
        self.vregs = VirtualRegAllocator()
        self.cfg = Cfg(entry="entry")
        self._block: Optional[BasicBlock] = None
        self._scopes: list[dict[str, Reg]] = []
        self._reg_sym: dict[Reg, str] = {}
        self._addr_cache: dict = {}
        self._promoted: dict[str, Reg] = {}
        self._memory_globals: dict[str, DataSymbol] = {}
        self._symbol_counter = 0

    # =========================================================== driver
    def lower(self) -> Cfg:
        self._layout_data()
        entry = BasicBlock("entry")
        self.cfg.add_block(entry)
        self._set_block(entry)
        self._init_globals()
        main = self.program.function("main")
        self._scopes.append({})
        self._stmt_list(main.body.statements)
        self._scopes.pop()
        self._emit(Instruction("HALT"))
        self.cfg.prune_unreachable()
        self.cfg.verify()
        return self.cfg

    # ====================================================== data layout
    def _layout_data(self) -> None:
        address = 64  # keep address 0 unused
        line_bytes = ELEMENTS_PER_LINE * ELEMENT_BYTES
        assigned = self._assigned_globals()
        for array in self.program.arrays:
            address = _align(address, line_bytes)
            symbol = DataSymbol(
                name=array.name, address=address,
                size_bytes=array.size_elems * ELEMENT_BYTES,
                is_fp=array.type == ast.FLOAT, dims=array.dims)
            self.cfg.symbols[array.name] = symbol
            address += symbol.size_bytes
        for decl in self.program.globals:
            if decl.name not in assigned:
                continue  # promoted to a register
            address = _align(address, ELEMENT_BYTES)
            symbol = DataSymbol(name=decl.name, address=address,
                                size_bytes=ELEMENT_BYTES,
                                is_fp=decl.type == ast.FLOAT)
            self.cfg.symbols[decl.name] = symbol
            self._memory_globals[decl.name] = symbol
            address += ELEMENT_BYTES
        self.cfg.data_size = _align(address, line_bytes)

    def _assigned_globals(self) -> set[str]:
        """Globals some assignment writes.  Unlike
        :func:`~repro.opt.astutils.assigned_names`, a ``var``
        declaration does not count: it declares a local."""
        global_names = {g.name for g in self.program.globals}
        return {stmt.target.ident for func in self.program.functions
                for stmt in ast.walk_stmts(func.body)
                if type(stmt) is ast.Assign
                and type(stmt.target) is ast.Name} & global_names

    def _init_globals(self) -> None:
        for decl in self.program.globals:
            if decl.name in self._memory_globals:
                if decl.init is not None:
                    value = self._expr(decl.init)
                    self._store_scalar_global(decl, value)
            else:
                reg = self.vregs.new("f" if decl.type == ast.FLOAT else "i")
                self._promoted[decl.name] = reg
                init = decl.init if decl.init is not None else (
                    ast.FloatLit(value=0.0, type=ast.FLOAT)
                    if decl.type == ast.FLOAT
                    else ast.IntLit(value=0, type=ast.INT))
                self._expr(init, dest=reg)

    # ==================================================== block plumbing
    def _set_block(self, block: BasicBlock) -> None:
        self._block = block
        # Value symbols and the shared-address cache are block-local
        # (see module docstring).
        self._reg_sym = {}
        self._addr_cache = {}

    def _start_block(self, stem: str,
                     after: Optional[str] = None) -> BasicBlock:
        """Create a block placed right after *after* in layout order."""
        label = self.cfg.new_label(stem)
        block = BasicBlock(label)
        self.cfg.add_block(block, after=after or self._block.label)
        return block

    def _emit(self, instr: Instruction) -> Instruction:
        self._block.instrs.append(instr)
        for reg in instr.defs():
            # The register no longer holds the value its symbol named.
            self._reg_sym.pop(reg, None)
        return instr

    # ========================================================= statements
    def _stmt_list(self, statements: list[ast.Stmt]) -> None:
        for stmt in statements:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            reg = self.vregs.new("f" if stmt.type == ast.FLOAT else "i")
            self._scopes[-1][stmt.name] = reg
            if stmt.init is not None:
                self._expr(stmt.init, dest=reg)
        elif isinstance(stmt, ast.Assign):
            self._assign(stmt)
        elif isinstance(stmt, ast.If):
            self._if_stmt(stmt)
        elif isinstance(stmt, ast.While):
            self._while_stmt(stmt)
        elif isinstance(stmt, ast.For):
            self._for_stmt(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._expr(stmt.expr)
        elif isinstance(stmt, ast.Block):
            self._stmt_list(stmt.statements)
        elif isinstance(stmt, ast.Return):
            raise CompileError("unexpected return during lowering", stmt.loc)
        else:
            raise CompileError(f"cannot lower {type(stmt).__name__}",
                               stmt.loc)

    def _assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.Name):
            name = target.ident
            reg = self._lookup(name)
            if reg is None:
                value = self._expr(stmt.value)
                decl = next(g for g in self.program.globals
                            if g.name == name)
                self._store_scalar_global(decl, value)
            else:
                self._expr(stmt.value, dest=reg)
        else:
            value = self._expr(stmt.value)
            addr, offset, mem = self._array_address(target)
            op = "FST" if target.type == ast.FLOAT else "ST"
            self._emit(Instruction(op, srcs=(value, addr), offset=offset,
                                   mem=mem))

    def _store_scalar_global(self, decl: ast.VarDecl, value: Reg) -> None:
        symbol = self._memory_globals[decl.name]
        op = "FST" if decl.type == ast.FLOAT else "ST"
        mem = MemRef("data", decl.name, affine=({}, 0))
        self._emit(Instruction(op, srcs=(value, ZERO),
                               offset=symbol.address, mem=mem))

    # ------------------------------------------------------- control flow
    def _if_stmt(self, stmt: ast.If) -> None:
        cond = self._expr(stmt.cond)
        then_block = self._start_block("then")
        if stmt.else_body is not None:
            else_block = self._start_block("else", after=then_block.label)
            end_block = self._start_block("endif", after=else_block.label)
            self._emit(Instruction("BEQ", srcs=(cond,),
                                   label=else_block.label))
            self._block.fallthrough = then_block.label
            self._set_block(then_block)
            self._stmt_list(stmt.then_body.statements)
            self._emit(Instruction("BR", label=end_block.label))
            self._set_block(else_block)
            self._stmt_list(stmt.else_body.statements)
            self._block.fallthrough = end_block.label
            self._set_block(end_block)
        else:
            end_block = self._start_block("endif", after=then_block.label)
            self._emit(Instruction("BEQ", srcs=(cond,),
                                   label=end_block.label))
            self._block.fallthrough = then_block.label
            self._set_block(then_block)
            self._stmt_list(stmt.then_body.statements)
            self._block.fallthrough = end_block.label
            self._set_block(end_block)

    def _while_stmt(self, stmt: ast.While) -> None:
        self._loop(cond=stmt.cond, body=stmt.body.statements, step=None)

    def _for_stmt(self, stmt: ast.For) -> None:
        self._stmt(stmt.init)
        self._loop(cond=stmt.cond, body=stmt.body.statements,
                   step=stmt.step)

    def _loop(self, cond: ast.Expr, body: list[ast.Stmt],
              step: Optional[ast.Assign]) -> None:
        """Rotated loop: guard test, body, bottom test back edge."""
        body_block = self._start_block("loop")
        exit_block = self._start_block("exit", after=body_block.label)
        # Guard: skip the loop entirely when the condition is false.
        guard_cond = self._expr(cond)
        self._emit(Instruction("BEQ", srcs=(guard_cond,),
                               label=exit_block.label))
        self._block.fallthrough = body_block.label
        self._set_block(body_block)
        self._stmt_list(body)
        if step is not None:
            self._stmt(step)
        latch_cond = self._expr(cond)
        self._emit(Instruction("BNE", srcs=(latch_cond,),
                               label=body_block.label))
        self._block.fallthrough = exit_block.label
        self._set_block(exit_block)

    # ======================================================== expressions
    def _lookup(self, name: str) -> Optional[Reg]:
        if self._scopes and name in self._scopes[-1]:
            return self._scopes[-1][name]
        if name in self._promoted:
            return self._promoted[name]
        return None

    def _expr(self, expr: ast.Expr, dest: Optional[Reg] = None) -> Reg:
        """Lower *expr*; if *dest* is given the result lands there."""
        if isinstance(expr, ast.IntLit):
            reg = dest or self.vregs.new_int()
            self._emit(Instruction("LDI", dest=reg, imm=expr.value))
            return reg
        if isinstance(expr, ast.FloatLit):
            reg = dest or self.vregs.new_fp()
            self._emit(Instruction("FLDI", dest=reg, imm=float(expr.value)))
            return reg
        if isinstance(expr, ast.Name):
            return self._name_expr(expr, dest)
        if isinstance(expr, ast.ArrayIndex):
            return self._array_load(expr, dest)
        if isinstance(expr, ast.Cast):
            return self._cast_expr(expr, dest)
        if isinstance(expr, ast.UnaryOp):
            return self._unary_expr(expr, dest)
        if isinstance(expr, ast.BinOp):
            return self._binop_expr(expr, dest)
        if isinstance(expr, ast.Call):
            return self._call_expr(expr, dest)
        if isinstance(expr, ast.Select):
            return self._select_expr(expr, dest)
        raise CompileError(f"cannot lower {type(expr).__name__}", expr.loc)

    def _select_expr(self, expr: ast.Select, dest: Optional[Reg]) -> Reg:
        """Lower a predication select to MOV + CMOVNE."""
        cond = self._expr(expr.cond)
        true_val = self._expr(expr.if_true)
        is_fp = expr.type == ast.FLOAT
        reg = dest or self.vregs.new("f" if is_fp else "i")
        self._expr(expr.if_false, dest=reg)
        op = "FCMOVNE" if is_fp else "CMOVNE"
        self._emit(Instruction(op, dest=reg, srcs=(cond, true_val)))
        return reg

    def _name_expr(self, expr: ast.Name, dest: Optional[Reg]) -> Reg:
        name = expr.ident
        reg = self._lookup(name)
        if reg is not None:
            return self._move(reg, dest)
        # In-memory global scalar.
        symbol = self._memory_globals[name]
        is_fp = expr.type == ast.FLOAT
        reg = dest or self.vregs.new("f" if is_fp else "i")
        mem = MemRef("data", name, affine=({}, 0))
        self._emit(Instruction("FLD" if is_fp else "LD", dest=reg,
                               srcs=(ZERO,), offset=symbol.address, mem=mem))
        return reg

    def _cast_expr(self, expr: ast.Cast, dest: Optional[Reg]) -> Reg:
        operand = self._expr(expr.operand)
        if expr.target == ast.FLOAT:
            if operand.kind == "f":
                return self._move(operand, dest)
            reg = dest or self.vregs.new_fp()
            self._emit(Instruction("CVTIF", dest=reg, srcs=(operand,)))
            return reg
        if operand.kind == "i":
            return self._move(operand, dest)
        reg = dest or self.vregs.new_int()
        self._emit(Instruction("CVTFI", dest=reg, srcs=(operand,)))
        return reg

    def _move(self, source: Reg, dest: Optional[Reg]) -> Reg:
        if dest is None or dest is source:
            return source
        op = "FMOV" if source.kind == "f" else "MOV"
        self._emit(Instruction(op, dest=dest, srcs=(source,)))
        return dest

    def _unary_expr(self, expr: ast.UnaryOp, dest: Optional[Reg]) -> Reg:
        operand = self._expr(expr.operand)
        if expr.op == "-":
            if operand.kind == "f":
                reg = dest or self.vregs.new_fp()
                self._emit(Instruction("FNEG", dest=reg, srcs=(operand,)))
                return reg
            reg = dest or self.vregs.new_int()
            self._emit(Instruction("SUB", dest=reg, srcs=(ZERO, operand)))
            return reg
        if expr.op == "!":
            reg = dest or self.vregs.new_int()
            self._emit(Instruction("CMPEQ", dest=reg, srcs=(operand,), imm=0))
            return reg
        raise CompileError(f"unknown unary {expr.op!r}", expr.loc)

    def _binop_expr(self, expr: ast.BinOp, dest: Optional[Reg]) -> Reg:
        op = expr.op
        if op in ("&&", "||"):
            left = self._expr(expr.left)
            right = self._expr(expr.right)
            reg = dest or self.vregs.new_int()
            # Normalize both sides to 0/1 and combine; operands are
            # already 0/1 when produced by comparisons, and the CMPNE
            # normalization keeps other int values correct.
            lnorm = self.vregs.new_int()
            rnorm = self.vregs.new_int()
            self._emit(Instruction("CMPNE", dest=lnorm, srcs=(left,), imm=0))
            self._emit(Instruction("CMPNE", dest=rnorm, srcs=(right,), imm=0))
            self._emit(Instruction("AND" if op == "&&" else "OR",
                                   dest=reg, srcs=(lnorm, rnorm)))
            return reg
        if op in _CMP_OP or op in (">", ">="):
            return self._compare(expr, dest)
        left_is_fp = expr.left.type == ast.FLOAT
        if left_is_fp:
            left = self._expr(expr.left)
            right = self._expr(expr.right)
            reg = dest or self.vregs.new_fp()
            self._emit(Instruction(_FP_ARITH[op], dest=reg,
                                   srcs=(left, right)))
            return reg
        return self._int_arith(expr, dest)

    def _mul_const(self, src: Reg, const: int,
                   dest: Optional[Reg]) -> Optional[Reg]:
        """Strength-reduced multiply by a constant, or None if not worth it.

        Powers of two become one shift; constants with two set bits
        become two shifts and an add (e.g. ``x*96 = (x<<6)+(x<<5)``) —
        cheaper than the 8-cycle integer multiply.
        """
        if const <= 0:
            return None
        bits = [b for b in range(const.bit_length()) if (const >> b) & 1]
        if len(bits) == 1:
            reg = dest or self.vregs.new_int()
            self._emit(Instruction("SLL", dest=reg, srcs=(src,),
                                   imm=bits[0]))
            return reg
        if len(bits) == 2:
            high = self.vregs.new_int()
            self._emit(Instruction("SLL", dest=high, srcs=(src,),
                                   imm=bits[1]))
            reg = dest or self.vregs.new_int()
            if bits[0] == 0:
                self._emit(Instruction("ADD", dest=reg, srcs=(high, src)))
            else:
                low = self.vregs.new_int()
                self._emit(Instruction("SLL", dest=low, srcs=(src,),
                                       imm=bits[0]))
                self._emit(Instruction("ADD", dest=reg, srcs=(high, low)))
            return reg
        return None

    def _int_arith(self, expr: ast.BinOp, dest: Optional[Reg]) -> Reg:
        op = expr.op
        left = self._expr(expr.left)
        # Strength-reduce multiply by simple literals.
        if op == "*":
            const = _const_int(expr.right)
            if const is not None:
                reduced = self._mul_const(left, const, dest)
                if reduced is not None:
                    return reduced
            const_l = _const_int(expr.left)
            if const_l is not None:
                right = self._expr(expr.right)
                reduced = self._mul_const(right, const_l, dest)
                if reduced is not None:
                    return reduced
        # Immediate operand form for + and - with literal rhs.
        const = _const_int(expr.right)
        if op in ("+", "-") and const is not None and -32768 <= const < 32768:
            reg = dest or self.vregs.new_int()
            self._emit(Instruction(_INT_ARITH[op], dest=reg, srcs=(left,),
                                   imm=const))
            return reg
        right = self._expr(expr.right)
        reg = dest or self.vregs.new_int()
        self._emit(Instruction(_INT_ARITH[op], dest=reg, srcs=(left, right)))
        return reg

    def _compare(self, expr: ast.BinOp, dest: Optional[Reg]) -> Reg:
        op = expr.op
        left_expr, right_expr = expr.left, expr.right
        if op == ">":
            op, left_expr, right_expr = "<", right_expr, left_expr
        elif op == ">=":
            op, left_expr, right_expr = "<=", right_expr, left_expr
        is_fp = left_expr.type == ast.FLOAT
        left = self._expr(left_expr)
        reg = dest or self.vregs.new_int()
        table = _FCMP_OP if is_fp else _CMP_OP
        const = None if is_fp else _const_int(right_expr)
        if const is not None and -32768 <= const < 32768:
            self._emit(Instruction(table[op], dest=reg, srcs=(left,),
                                   imm=const))
        else:
            right = self._expr(right_expr)
            self._emit(Instruction(table[op], dest=reg, srcs=(left, right)))
        return reg

    # ------------------------------------------------------- array access
    def _array_load(self, expr: ast.ArrayIndex, dest: Optional[Reg]) -> Reg:
        addr, offset, mem = self._array_address(expr)
        is_fp = expr.type == ast.FLOAT
        reg = dest or self.vregs.new("f" if is_fp else "i")
        locality = _HINTS.get(expr.hint, Locality.UNKNOWN)
        self._emit(Instruction("FLD" if is_fp else "LD", dest=reg,
                               srcs=(addr,), offset=offset, mem=mem,
                               locality=locality, group=expr.group))
        return reg

    def _value_symbol(self, reg: Reg) -> str:
        """A block-local symbol naming the register's current value."""
        sym = self._reg_sym.get(reg)
        if sym is None:
            self._symbol_counter += 1
            sym = f"r{reg.num}#{self._symbol_counter}"
            self._reg_sym[reg] = sym
        return sym

    def _resolve_affine(self, form: AffineForm):
        """Rewrite an AST-level affine form over register-value symbols.

        Returns ``(coeffs, const, sym_regs)`` with ``coeffs`` a sorted
        tuple over block-local value symbols and ``sym_regs`` mapping
        each symbol to the register currently holding it, or None when
        some variable is not register-resident (e.g. assigned globals).
        """
        coeffs: dict[str, int] = {}
        sym_regs: dict[str, Reg] = {}
        for name, coeff in form.coeffs:
            reg = self._lookup(name)
            if reg is None or reg.kind != "i":
                return None
            sym = self._value_symbol(reg)
            coeffs[sym] = coeffs.get(sym, 0) + coeff
            sym_regs[sym] = reg
        resolved = tuple(sorted((s, c) for s, c in coeffs.items() if c))
        return resolved, form.const, sym_regs

    def _scaled_index(self, coeffs, sym_regs: dict[str, Reg]) -> Reg:
        """Byte-scaled Σ coeff*reg, CSE'd per block by coefficient key."""
        cached = self._addr_cache.get(coeffs)
        if cached is not None:
            return cached
        acc: Optional[Reg] = None
        for sym, coeff in coeffs:
            reg = sym_regs[sym]
            negative = coeff < 0
            magnitude = -coeff if negative else coeff
            if magnitude == 1:
                term = reg
            else:
                term = self._mul_const(reg, magnitude, None)
                if term is None:
                    term = self.vregs.new_int()
                    self._emit(Instruction("MUL", dest=term, srcs=(reg,),
                                           imm=magnitude))
            if acc is None:
                if negative:
                    flipped = self.vregs.new_int()
                    self._emit(Instruction("SUB", dest=flipped,
                                           srcs=(ZERO, term)))
                    term = flipped
                acc = term
            else:
                summed = self.vregs.new_int()
                self._emit(Instruction("SUB" if negative else "ADD",
                                       dest=summed, srcs=(acc, term)))
                acc = summed
        scaled = self.vregs.new_int()
        if acc is None:
            self._emit(Instruction("LDI", dest=scaled, imm=0))
        else:
            self._emit(Instruction("SLL", dest=scaled, srcs=(acc,), imm=3))
        self._addr_cache[coeffs] = scaled
        return scaled

    def _array_address(self, expr: ast.ArrayIndex) -> tuple[Reg, int, MemRef]:
        """(base register, displacement, MemRef) for an array element.

        Affine subscripts share one scaled-index computation per block
        and put ``array base + 8*constant`` in the displacement; other
        subscripts fall back to explicit per-reference address code.
        """
        decl = self.program.array(expr.array)
        base = self.cfg.symbols[expr.array].address
        flat_ast = flatten_subscript(expr, decl)
        if flat_ast is not None:
            resolved = self._resolve_affine(flat_ast)
            if resolved is not None:
                coeffs, const, sym_regs = resolved
                mem = MemRef("data", expr.array,
                             affine=(dict(coeffs), const))
                displacement = base + 8 * const
                if not coeffs:
                    if 0 <= displacement < 32768:
                        return ZERO, displacement, mem
                    addr = self._addr_cache.get(("abs", displacement))
                    if addr is None:
                        addr = self.vregs.new_int()
                        self._emit(Instruction("LDI", dest=addr,
                                               imm=displacement))
                        self._addr_cache[("abs", displacement)] = addr
                    return addr, 0, mem
                scaled = self._scaled_index(coeffs, sym_regs)
                if -32768 <= displacement < 32768:
                    return scaled, displacement, mem
                key = ("withbase", base, coeffs)
                combined = self._addr_cache.get(key)
                if combined is None:
                    base_reg = self._addr_cache.get(("abs", base))
                    if base_reg is None:
                        base_reg = self.vregs.new_int()
                        self._emit(Instruction("LDI", dest=base_reg,
                                               imm=base))
                        self._addr_cache[("abs", base)] = base_reg
                    combined = self.vregs.new_int()
                    self._emit(Instruction("ADD", dest=combined,
                                           srcs=(scaled, base_reg)))
                    self._addr_cache[key] = combined
                offset = 8 * const
                if -32768 <= offset < 32768:
                    return combined, offset, mem
                final = self.vregs.new_int()
                big = self.vregs.new_int()
                self._emit(Instruction("LDI", dest=big, imm=offset))
                self._emit(Instruction("ADD", dest=final, srcs=(combined,
                                                                big)))
                return final, 0, mem

        # Fallback: non-affine subscript, explicit address arithmetic.
        flat: Optional[Reg] = None
        for dim_index, index_expr in enumerate(expr.indices):
            stride = 1
            for d in decl.dims[dim_index + 1:]:
                stride *= d
            index_reg = self._expr(index_expr)
            if stride != 1:
                scaled = self._mul_const(index_reg, stride, None)
                if scaled is None:
                    scaled = self.vregs.new_int()
                    self._emit(Instruction("MUL", dest=scaled,
                                           srcs=(index_reg,), imm=stride))
                index_reg = scaled
            if flat is None:
                flat = index_reg
            else:
                summed = self.vregs.new_int()
                self._emit(Instruction("ADD", dest=summed,
                                       srcs=(flat, index_reg)))
                flat = summed
        byte_addr = self.vregs.new_int()
        self._emit(Instruction("SLL", dest=byte_addr, srcs=(flat,), imm=3))
        mem = MemRef("data", expr.array, affine=None)
        if 0 <= base < 32768:
            return byte_addr, base, mem
        base_reg = self.vregs.new_int()
        self._emit(Instruction("LDI", dest=base_reg, imm=base))
        addr = self.vregs.new_int()
        self._emit(Instruction("ADD", dest=addr, srcs=(byte_addr, base_reg)))
        return addr, 0, mem

    # -------------------------------------------------------------- calls
    def _call_expr(self, expr: ast.Call, dest: Optional[Reg]) -> Reg:
        func = self.program.function(expr.func)
        arg_regs: list[Reg] = []
        for arg, param in zip(expr.args, func.params):
            value = self._expr(arg)
            fresh = self.vregs.new("f" if param.type == ast.FLOAT else "i")
            self._move(value, fresh)
            arg_regs.append(fresh)
        scope = {param.name: reg
                 for param, reg in zip(func.params, arg_regs)}
        self._scopes.append(scope)
        statements = list(func.body.statements)
        result: Optional[Reg] = None
        if statements and isinstance(statements[-1], ast.Return):
            ret = statements.pop()
            self._stmt_list(statements)
            if ret.value is not None:
                is_fp = func.return_type == ast.FLOAT
                result = dest or self.vregs.new("f" if is_fp else "i")
                self._expr(ret.value, dest=result)
        else:
            self._stmt_list(statements)
        self._scopes.pop()
        if result is None:
            # Void call in expression position is rejected by sema; a
            # dummy register keeps the type checker of this module calm.
            result = dest or self.vregs.new_int()
        return result


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def _const_int(expr: ast.Expr) -> Optional[int]:
    if isinstance(expr, ast.IntLit):
        return expr.value
    if (isinstance(expr, ast.UnaryOp) and expr.op == "-"
            and isinstance(expr.operand, ast.IntLit)):
        return -expr.operand.value
    return None


def lower(program: ast.ProgramAST) -> Cfg:
    """Lower an analyzed program AST to a virtual-register CFG."""
    return Lowerer(program).lower()
