"""Loop unrolling (paper sections 3.1 and 4.2).

Unrolls canonical innermost ``for`` loops by a factor of 4 or 8:

* the unrolled body must stay under the paper's size caps — 64
  instructions for factor 4, 128 for factor 8;
* loops with more than one internal conditional branch are not
  unrolled (simple conditionals that predication converts to CMOVs do
  not count);
* remainder iterations are *postconditioned*: emitted as nested ``if``
  copies after the unrolled loop (paper Figure 4), so that when
  locality analysis is also active the first unrolled copy keeps its
  cache-miss role.

A loop already transformed by locality analysis (which performs its
own reuse-driven unrolling) is left alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..frontend import ast
from .astutils import (
    assigned_names,
    clone_expr,
    clone_stmt,
    internal_branch_count,
    rewrite_loops,
)

#: Paper's unrolled-body instruction caps, per unrolling factor.
SIZE_LIMITS = {4: 64, 8: 128}


@dataclass
class UnrollStats:
    unrolled: int = 0
    skipped_size: int = 0
    skipped_branches: int = 0
    skipped_form: int = 0
    loops_seen: int = 0
    factors: list[int] = field(default_factory=list)


@dataclass
class CanonicalLoop:
    """A ``for`` loop in unrollable form (see :class:`ast.For`)."""

    ivar: str
    lo: ast.Expr
    hi: ast.Expr
    cmp: str          # "<" or "<="
    step: int


def canonicalize(loop: ast.For) -> Optional[CanonicalLoop]:
    """Match ``for (i = lo; i </<= hi; i = i + c)`` with const c > 0."""
    init = loop.init
    if not isinstance(init.target, ast.Name):
        return None
    ivar = init.target.ident
    cond = loop.cond
    if not (isinstance(cond, ast.BinOp) and cond.op in ("<", "<=")):
        return None
    if not (isinstance(cond.left, ast.Name) and cond.left.ident == ivar):
        return None
    step_stmt = loop.step
    if not (isinstance(step_stmt.target, ast.Name)
            and step_stmt.target.ident == ivar):
        return None
    step_value = _match_increment(step_stmt.value, ivar)
    if step_value is None or step_value <= 0:
        return None
    if ivar in assigned_names(loop.body):
        return None
    hi_nodes = ast.walk(cond.right)
    if any(type(node) is ast.Call
           for node in hi_nodes + ast.walk(init.value)):
        return None
    if any(type(node) is ast.Name and node.ident == ivar
           for node in hi_nodes):
        return None
    return CanonicalLoop(ivar=ivar, lo=init.value, hi=cond.right,
                         cmp=cond.op, step=step_value)


def _match_increment(expr: ast.Expr, ivar: str) -> Optional[int]:
    if not (isinstance(expr, ast.BinOp) and expr.op == "+"):
        return None
    left, right = expr.left, expr.right
    if isinstance(left, ast.Name) and left.ident == ivar and \
            isinstance(right, ast.IntLit):
        return right.value
    if isinstance(right, ast.Name) and right.ident == ivar and \
            isinstance(left, ast.IntLit):
        return left.value
    return None


def is_innermost(loop: ast.For) -> bool:
    """No loop statements anywhere inside the body."""
    return not any(type(node) in (ast.For, ast.While)
                   for node in ast.walk_stmts(loop.body))


def estimate_instructions(node, program: ast.ProgramAST) -> int:
    """Rough lowered-instruction estimate for the size caps."""
    if isinstance(node, ast.Block):
        return sum(estimate_instructions(s, program) for s in node.statements)
    if isinstance(node, ast.Assign):
        cost = _expr_cost(node.value, program)
        if isinstance(node.target, ast.ArrayIndex):
            cost += 1 + _subscript_cost(node.target, program)
        return cost + 1
    if isinstance(node, ast.If):
        cost = _expr_cost(node.cond, program) + 2
        cost += estimate_instructions(node.then_body, program)
        if node.else_body is not None:
            cost += 1 + estimate_instructions(node.else_body, program)
        return cost
    if isinstance(node, (ast.While, ast.For)):
        return 4 + estimate_instructions(node.body, program)
    if isinstance(node, ast.ExprStmt):
        return _expr_cost(node.expr, program)
    if isinstance(node, ast.VarDecl):
        return (_expr_cost(node.init, program) + 1) if node.init else 0
    if isinstance(node, ast.Return):
        return _expr_cost(node.value, program) if node.value else 0
    return 1


def _subscript_cost(ref: ast.ArrayIndex, program: ast.ProgramAST) -> int:
    """Extra cost of a reference's subscripts: free when affine."""
    from ..analysis.affine import affine_of

    cost = 0
    for index in ref.indices:
        if affine_of(index) is None:
            cost += _expr_cost(index, program) + 1
    return cost


def _expr_cost(expr: ast.Expr, program: ast.ProgramAST) -> int:
    if expr is None:
        return 0
    if isinstance(expr, (ast.IntLit, ast.FloatLit)):
        return 1
    if isinstance(expr, ast.Name):
        return 0
    if isinstance(expr, ast.ArrayIndex):
        # Affine subscripts share address code per block and fold their
        # constant into the displacement (see codegen.lower), so an
        # affine reference costs about one instruction.
        return 1 + _subscript_cost(expr, program)
    if isinstance(expr, ast.BinOp):
        return 1 + _expr_cost(expr.left, program) + _expr_cost(expr.right,
                                                               program)
    if isinstance(expr, (ast.UnaryOp, ast.Cast)):
        return 1 + _expr_cost(expr.operand, program)
    if isinstance(expr, ast.Select):
        return 2 + sum(_expr_cost(e, program)
                       for e in (expr.cond, expr.if_true, expr.if_false))
    if isinstance(expr, ast.Call):
        try:
            func = program.function(expr.func)
        except KeyError:
            return 4
        body_cost = estimate_instructions(func.body, program)
        return body_cost + sum(_expr_cost(a, program) + 1 for a in expr.args)
    return 1


def _offset_subst(ivar: str, offset: int):
    if offset == 0:
        return None
    return {ivar: lambda: ast.BinOp(
        op="+", left=ast.Name(ident=ivar, type=ast.INT),
        right=ast.IntLit(value=offset, type=ast.INT), type=ast.INT)}


def unroll_loop(loop: ast.For, canon: CanonicalLoop,
                factor: int) -> ast.Block:
    """Build the unrolled + postconditioned replacement for *loop*."""
    ivar, step = canon.ivar, canon.step
    copies: list[ast.Stmt] = []
    for k in range(factor):
        copies.append(clone_stmt(loop.body, _offset_subst(ivar, k * step)))
    main_cond = ast.BinOp(
        op=canon.cmp,
        left=ast.BinOp(op="+", left=ast.Name(ident=ivar, type=ast.INT),
                       right=ast.IntLit(value=(factor - 1) * step,
                                        type=ast.INT), type=ast.INT),
        right=clone_expr(canon.hi), type=ast.INT)
    main_step = ast.Assign(
        target=ast.Name(ident=ivar, type=ast.INT),
        value=ast.BinOp(op="+", left=ast.Name(ident=ivar, type=ast.INT),
                        right=ast.IntLit(value=factor * step, type=ast.INT),
                        type=ast.INT))
    main_loop = ast.For(init=clone_stmt(loop.init), cond=main_cond,
                        step=main_step,
                        body=ast.Block(statements=copies), loc=loop.loc)
    main_loop._unrolled = factor  # noqa: SLF001 - marker for later passes

    # Postconditioned remainder: factor-1 nested ifs (paper Figure 4).
    epilogue: Optional[ast.Stmt] = None
    for _ in range(factor - 1):
        step_stmt = ast.Assign(
            target=ast.Name(ident=ivar, type=ast.INT),
            value=ast.BinOp(op="+", left=ast.Name(ident=ivar, type=ast.INT),
                            right=ast.IntLit(value=step, type=ast.INT),
                            type=ast.INT))
        inner: list[ast.Stmt] = [clone_stmt(loop.body), step_stmt]
        if epilogue is not None:
            inner.append(epilogue)
        guard = ast.BinOp(op=canon.cmp,
                          left=ast.Name(ident=ivar, type=ast.INT),
                          right=clone_expr(canon.hi), type=ast.INT)
        epilogue = ast.If(cond=guard, then_body=ast.Block(statements=inner))
        epilogue._no_predicate = True  # noqa: SLF001 - keep as branches

    statements: list[ast.Stmt] = [main_loop]
    if epilogue is not None:
        statements.append(epilogue)
    return ast.Block(statements=statements, loc=loop.loc)


class Unroller:
    """Applies unrolling across a whole program."""

    def __init__(self, program: ast.ProgramAST, factor: int) -> None:
        if factor not in SIZE_LIMITS:
            raise ValueError(f"unsupported unroll factor {factor}")
        self.program = program
        self.factor = factor
        self.limit = SIZE_LIMITS[factor]
        self.stats = UnrollStats()

    def run(self) -> UnrollStats:
        for func in self.program.functions:
            func.body = rewrite_loops(func.body, self._for)
        return self.stats

    def _for(self, loop: ast.For) -> ast.Stmt:
        if getattr(loop, "_la_processed", False) or \
                getattr(loop, "_unrolled", 0):
            return loop
        if not is_innermost(loop):
            return loop
        self.stats.loops_seen += 1
        canon = canonicalize(loop)
        if canon is None:
            self.stats.skipped_form += 1
            return loop
        if internal_branch_count(loop.body) > 1:
            self.stats.skipped_branches += 1
            return loop
        # The size cap limits the unrolled block, possibly reducing the
        # factor rather than disabling unrolling outright (the paper's
        # swm256 footnote: the 64-instruction limit prevented *full*
        # unrolling by 4, while the 128 limit at factor 8 allowed more).
        body_cost = max(estimate_instructions(loop.body, self.program), 1)
        effective = min(self.factor, self.limit // body_cost)
        if effective < 2:
            self.stats.skipped_size += 1
            return loop
        self.stats.unrolled += 1
        self.stats.factors.append(effective)
        return unroll_loop(loop, canon, effective)


def unroll_program(program: ast.ProgramAST, factor: int) -> UnrollStats:
    """Unroll all eligible innermost loops of *program* in place."""
    return Unroller(program, factor).run()
