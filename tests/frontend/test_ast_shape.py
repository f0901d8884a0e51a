"""The tree's shape: ``ast.CHILDREN`` and the two walks over it."""

import dataclasses
import inspect
from typing import get_args, get_type_hints

from repro.frontend import ast, frontend


def _is_node_type(hint) -> bool:
    return any(isinstance(t, type) and issubclass(t, (ast.Expr, ast.Stmt))
               for t in (hint, *get_args(hint)))


def _concrete_node_classes() -> set[type]:
    return {cls for _, cls in inspect.getmembers(ast, inspect.isclass)
            if cls.__module__ == ast.__name__
            and issubclass(cls, (ast.Expr, ast.Stmt))
            and cls not in (ast.Expr, ast.Stmt)}


def test_children_lists_every_node_valued_field_in_field_order():
    """A new node class or node-valued field must go into CHILDREN;
    every walk and the clone read the tree's shape from there alone."""
    assert set(ast.CHILDREN) == _concrete_node_classes()
    for cls, names in ast.CHILDREN.items():
        hints = get_type_hints(cls)
        expected = tuple(f.name for f in dataclasses.fields(cls)
                         if _is_node_type(hints[f.name]))
        assert names == expected, cls.__name__


def test_walk_is_preorder_in_field_order():
    body = frontend("""
array A[8] : float;
func main() {
    var i : int;
    for (i = 0; i < 8; i = i + 1) { A[i] = -A[i]; }
}
""").function("main").body
    loop = body.statements[-1]
    assert [type(n).__name__ for n in ast.walk(loop)] == [
        "For",
        "Assign", "Name", "IntLit",               # init
        "BinOp", "Name", "IntLit",                # cond
        "Assign", "Name", "BinOp", "Name", "IntLit",   # step
        "Block", "Assign", "ArrayIndex", "Name",  # body: target
        "UnaryOp", "ArrayIndex", "Name"]          # value
    # The statement walk keeps the header's assignments, not its cond.
    assert ast.walk_stmts(loop) == [
        loop, loop.init, loop.step, loop.body, loop.body.statements[0]]
