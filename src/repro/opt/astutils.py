"""AST cloning, substitution and loop rewriting for the loop
transformations, and the statement queries they share.

Unrolling and peeling duplicate loop bodies while rewriting the
induction variable (``i`` -> ``i + k`` or a constant).  Cloning keeps
type annotations and locality hints.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..frontend import ast

Subst = dict[str, Callable[[], ast.Expr]]


def clone_expr(expr: ast.Expr, subst: Optional[Subst] = None) -> ast.Expr:
    """Deep-copy *expr*, replacing ``Name(x)`` for ``x`` in *subst*."""
    if isinstance(expr, ast.IntLit):
        return ast.IntLit(value=expr.value, loc=expr.loc, type=expr.type)
    if isinstance(expr, ast.FloatLit):
        return ast.FloatLit(value=expr.value, loc=expr.loc, type=expr.type)
    if isinstance(expr, ast.Name):
        if subst and expr.ident in subst:
            replacement = subst[expr.ident]()
            replacement.type = expr.type
            return replacement
        return ast.Name(ident=expr.ident, loc=expr.loc, type=expr.type)
    if isinstance(expr, ast.ArrayIndex):
        node = ast.ArrayIndex(
            array=expr.array,
            indices=[clone_expr(i, subst) for i in expr.indices],
            loc=expr.loc, type=expr.type)
        node.hint = expr.hint
        node.group = expr.group
        return node
    if isinstance(expr, ast.BinOp):
        return ast.BinOp(op=expr.op, left=clone_expr(expr.left, subst),
                         right=clone_expr(expr.right, subst),
                         loc=expr.loc, type=expr.type)
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(op=expr.op, operand=clone_expr(expr.operand, subst),
                           loc=expr.loc, type=expr.type)
    if isinstance(expr, ast.Call):
        return ast.Call(func=expr.func,
                        args=[clone_expr(a, subst) for a in expr.args],
                        loc=expr.loc, type=expr.type)
    if isinstance(expr, ast.Cast):
        return ast.Cast(target=expr.target,
                        operand=clone_expr(expr.operand, subst),
                        loc=expr.loc, type=expr.type)
    if isinstance(expr, ast.Select):
        return ast.Select(cond=clone_expr(expr.cond, subst),
                          if_true=clone_expr(expr.if_true, subst),
                          if_false=clone_expr(expr.if_false, subst),
                          loc=expr.loc, type=expr.type)
    raise TypeError(f"cannot clone {type(expr).__name__}")


def clone_stmt(stmt: ast.Stmt, subst: Optional[Subst] = None) -> ast.Stmt:
    """Deep-copy *stmt* with the same substitution rules as clone_expr."""
    if isinstance(stmt, ast.Block):
        return ast.Block(
            statements=[clone_stmt(s, subst) for s in stmt.statements],
            loc=stmt.loc)
    if isinstance(stmt, ast.Assign):
        return ast.Assign(target=clone_expr(stmt.target, subst),
                          value=clone_expr(stmt.value, subst), loc=stmt.loc)
    if isinstance(stmt, ast.If):
        else_body = (clone_stmt(stmt.else_body, subst)
                     if stmt.else_body is not None else None)
        return ast.If(cond=clone_expr(stmt.cond, subst),
                      then_body=clone_stmt(stmt.then_body, subst),
                      else_body=else_body, loc=stmt.loc)
    if isinstance(stmt, ast.While):
        return ast.While(cond=clone_expr(stmt.cond, subst),
                         body=clone_stmt(stmt.body, subst), loc=stmt.loc)
    if isinstance(stmt, ast.For):
        return ast.For(init=clone_stmt(stmt.init, subst),
                       cond=clone_expr(stmt.cond, subst),
                       step=clone_stmt(stmt.step, subst),
                       body=clone_stmt(stmt.body, subst), loc=stmt.loc)
    if isinstance(stmt, ast.Return):
        value = clone_expr(stmt.value, subst) if stmt.value else None
        return ast.Return(value=value, loc=stmt.loc)
    if isinstance(stmt, ast.ExprStmt):
        return ast.ExprStmt(expr=clone_expr(stmt.expr, subst), loc=stmt.loc)
    if isinstance(stmt, ast.VarDecl):
        init = clone_expr(stmt.init, subst) if stmt.init else None
        return ast.VarDecl(name=stmt.name, type=stmt.type, init=init,
                           loc=stmt.loc)
    raise TypeError(f"cannot clone {type(stmt).__name__}")


def rewrite_loops(stmt: ast.Stmt,
                  rewrite: Callable[[ast.For], ast.Stmt]) -> ast.Stmt:
    """Replace every ``for`` loop under *stmt* by ``rewrite(loop)``.

    Post-order, in statement order: a loop's body is rewritten before
    the loop is handed to *rewrite*, and what *rewrite* returns is not
    visited again.  Returns *stmt*, or its replacement when it is a
    loop itself.
    """
    for name in ast.STMT_CHILDREN[type(stmt)]:
        child = getattr(stmt, name)
        if type(child) is list:
            setattr(stmt, name, [rewrite_loops(item, rewrite)
                                 for item in child])
        elif child is not None:
            setattr(stmt, name, rewrite_loops(child, rewrite))
    return rewrite(stmt) if type(stmt) is ast.For else stmt


def assigned_names(stmt: ast.Stmt) -> set[str]:
    """Scalar names assigned or declared anywhere inside *stmt*."""
    names: set[str] = set()
    for node in ast.walk_stmts(stmt):
        if type(node) is ast.Assign and type(node.target) is ast.Name:
            names.add(node.target.ident)
        elif type(node) is ast.VarDecl:
            names.add(node.name)
    return names


def internal_branch_count(body: ast.Block) -> int:
    """Number of conditional constructs inside a loop body.

    The paper does not unroll loops with more than one internal
    conditional branch (section 4.2); simple conditionals that the
    predication pass converts to CMOVs do not count, which we
    approximate by not counting ``If`` nodes without an ``else`` whose
    body is a single scalar/array assignment.
    """
    return sum(1 for node in ast.walk_stmts(body)
               if type(node) in (ast.While, ast.For)
               or (type(node) is ast.If and not is_predicable_if(node)))


def is_predicable_if(node: ast.If) -> bool:
    """Whether predication turns this ``If`` into straight-line CMOV code.

    Mirrors :mod:`repro.opt.predication`: no else branch, and the body
    is a single assignment to a scalar or an array element.
    """
    if node.else_body is not None:
        return False
    stmts = node.then_body.statements
    return (len(stmts) == 1 and isinstance(stmts[0], ast.Assign)
            and isinstance(stmts[0].target, (ast.Name, ast.ArrayIndex)))
