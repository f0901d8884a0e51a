"""Predication: convert simple conditionals into CMOV selects.

Mirrors the paper's footnote 2: "Using the Alpha's conditional move
instruction, the Multiflow compiler does predicated execution on simple
conditional branches."  The pattern

.. code-block:: text

    if (cond) { target = value; }

becomes ``target = select(cond, value, target)``, which lowers to a
conditional move — straight-line code, no branch.  For an array
target the store executes unconditionally but writes back the old
value when the condition is false (store squashing).

Safety rules: no ``else``, a single assignment in the body, and the
speculated value expression must be non-trapping (no division) and
call-free; the re-read of an array target must not trap either (array
subscripts in this language cannot fault, so only the value expression
matters).
"""

from __future__ import annotations

from ..frontend import ast


def _is_speculation_safe(expr: ast.Expr) -> bool:
    """No call and no ``/`` or ``%``: safe to evaluate unconditionally."""
    return not any(type(node) is ast.Call
                   or (type(node) is ast.BinOp and node.op in ("/", "%"))
                   for node in ast.walk(expr))


def predicable(stmt: ast.If) -> bool:
    """Whether *stmt* matches the CMOV-convertible pattern."""
    if getattr(stmt, "_no_predicate", False):
        return False
    if stmt.else_body is not None:
        return False
    body = stmt.then_body.statements
    if len(body) != 1 or not isinstance(body[0], ast.Assign):
        return False
    assign = body[0]
    if not isinstance(assign.target, (ast.Name, ast.ArrayIndex)):
        return False
    if not _is_speculation_safe(assign.value):
        return False
    if not _is_speculation_safe(stmt.cond):
        return False
    if isinstance(assign.target, ast.ArrayIndex):
        if not all(_is_speculation_safe(i) for i in assign.target.indices):
            return False
    return True


def _convert(stmt: ast.If) -> ast.Assign:
    from .astutils import clone_expr

    assign = stmt.then_body.statements[0]
    old_value = clone_expr(assign.target)
    select = ast.Select(cond=stmt.cond, if_true=assign.value,
                        if_false=old_value, loc=stmt.loc,
                        type=assign.value.type)
    return ast.Assign(target=assign.target, value=select, loc=stmt.loc)


class Predicator:
    def __init__(self, program: ast.ProgramAST) -> None:
        self.program = program
        self.converted = 0

    def run(self) -> int:
        for func in self.program.functions:
            self._block(func.body)
        return self.converted

    def _block(self, block: ast.Block) -> None:
        for index, stmt in enumerate(block.statements):
            if isinstance(stmt, ast.If) and predicable(stmt):
                block.statements[index] = _convert(stmt)
                self.converted += 1
                continue
            self._stmt(stmt)

    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._block(stmt)
        elif isinstance(stmt, ast.If):
            self._block(stmt.then_body)
            if stmt.else_body is not None:
                self._block(stmt.else_body)
        elif isinstance(stmt, (ast.While, ast.For)):
            self._block(stmt.body)


def predicate_program(program: ast.ProgramAST) -> int:
    """Convert all predicable ``if`` statements; return the count."""
    return Predicator(program).run()
