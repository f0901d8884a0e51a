"""AST utilities: cloning, substitution, structural queries."""

from repro.frontend import ast, frontend
from repro.opt.astutils import (
    assigned_names,
    clone_expr,
    clone_stmt,
    internal_branch_count,
    is_predicable_if,
)


def main_body(source: str) -> ast.Block:
    return frontend(source).function("main").body


def loop_of(source: str) -> ast.For:
    for stmt in main_body(source).statements:
        if isinstance(stmt, ast.For):
            return stmt
    raise AssertionError("no loop")


SRC = """
array A[8] : float;
func main() {
    var i : int; var x : float;
    for (i = 0; i < 8; i = i + 1) {
        x = A[i] * 2.0 + float(i);
        A[i] = x;
    }
}
"""


class TestClone:
    def test_clone_is_deep(self):
        loop = loop_of(SRC)
        copy = clone_stmt(loop)
        assert copy is not loop
        assert copy.body is not loop.body
        assert copy.body.statements[0].value is not \
            loop.body.statements[0].value

    def test_clone_preserves_types(self):
        loop = loop_of(SRC)
        copy = clone_stmt(loop)
        original_expr = loop.body.statements[0].value
        cloned_expr = copy.body.statements[0].value
        assert cloned_expr.type == original_expr.type == ast.FLOAT

    def test_substitution_replaces_names(self):
        loop = loop_of(SRC)
        subst = {"i": lambda: ast.BinOp(
            op="+", left=ast.Name(ident="i", type=ast.INT),
            right=ast.IntLit(value=3, type=ast.INT), type=ast.INT)}
        copy = clone_stmt(loop.body, subst)
        ref = copy.statements[0].value.left.left    # A[i+3] load
        assert isinstance(ref, ast.ArrayIndex)
        index = ref.indices[0]
        assert isinstance(index, ast.BinOp)
        assert index.right.value == 3

    def test_substitution_preserves_annotated_type(self):
        name = ast.Name(ident="i", type=ast.INT)
        subst = {"i": lambda: ast.IntLit(value=7)}
        replaced = clone_expr(name, subst)
        assert isinstance(replaced, ast.IntLit)
        assert replaced.type == ast.INT

    def test_locality_hints_survive_cloning(self):
        ref = ast.ArrayIndex(array="A",
                             indices=[ast.IntLit(value=0, type=ast.INT)],
                             type=ast.FLOAT)
        ref.hint = "miss"
        ref.group = 12
        copy = clone_expr(ref)
        assert copy.hint == "miss"
        assert copy.group == 12


class TestQueries:
    def test_assigned_names_sees_all_paths(self):
        body = main_body("""
func main() {
    var a : int; var b : int; var c : int;
    a = 1;
    if (a < 2) { b = 2; } else { c = 3; }
    while (a < 10) { a = a + 1; }
}
""")
        names = assigned_names(body)
        assert {"a", "b", "c"} <= names

    def test_internal_branch_count_skips_predicable(self):
        loop = loop_of("""
array A[8] : float;
func main() {
    var i : int;
    for (i = 0; i < 8; i = i + 1) {
        if (A[i] < 0.0) { A[i] = 0.0 - A[i]; }
    }
}
""")
        assert internal_branch_count(loop.body) == 0

    def test_internal_branch_count_counts_if_else(self):
        loop = loop_of("""
array A[8] : float;
func main() {
    var i : int;
    for (i = 0; i < 8; i = i + 1) {
        if (A[i] < 0.0) { A[i] = 0.0; } else { A[i] = 1.0; }
    }
}
""")
        assert internal_branch_count(loop.body) == 1

    def test_internal_branch_count_counts_nested_loops(self):
        loop = main_body("""
array A[8][8] : float;
func main() {
    var i : int; var j : int;
    for (i = 0; i < 8; i = i + 1) {
        for (j = 0; j < 8; j = j + 1) { A[i][j] = 0.0; }
    }
}
""").statements[-1]
        assert internal_branch_count(loop.body) == 1

    def test_is_predicable_if(self):
        program = frontend("""
func main() {
    var x : int; x = 0;
    if (x < 1) { x = 2; }
    if (x < 1) { x = 2; } else { x = 3; }
}
""")
        statements = program.function("main").body.statements
        ifs = [s for s in statements if isinstance(s, ast.If)]
        assert is_predicable_if(ifs[0])
        assert not is_predicable_if(ifs[1])
