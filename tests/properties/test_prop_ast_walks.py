"""Property tests: the AST queries against the hand-written walks they
replaced.

Every walk over the AST now reads the tree's shape from
``ast.CHILDREN``: ``ast.walk`` and ``ast.walk_stmts``, the queries
built on them (the source lints, the unroller's loop tests, the
predicator's speculation check, the lowerer's assigned globals), the
locality analysis's load references and the ``rewrite_loops`` driver.  The references below are those walks as
they were, one recursion per node class.  Both sides must agree, visit
for visit, on

* the 17 workloads and a few edge programs (indirect stores, loads in
  loop headers and ``return``, calls in loop bounds, division under a
  guard, locals with initializers), each after the frontend and after
  every AST transform of the ``la+lu8`` and ``lu4`` pipelines with
  predication;
* the programs of the strategies in ``test_prop_compiler.py``;
* for the lints, also every variant of those programs with one
  statement deleted, so that unused variables and dead stores occur.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.analysis.locality import analyze_locality, walk_load_refs
from repro.check.diagnostics import WARNING, Diagnostic
from repro.check.lints import lint_ast
from repro.codegen.lower import Lowerer
from repro.frontend import ast, frontend
from repro.opt.astutils import (
    assigned_names,
    internal_branch_count,
    is_predicable_if,
    rewrite_loops,
)
from repro.opt.predication import (
    _is_speculation_safe,
    predicable,
    predicate_program,
)
from repro.opt.unroll import (
    CanonicalLoop,
    _match_increment,
    canonicalize,
    is_innermost,
    unroll_program,
)
from repro.workloads import WORKLOAD_ORDER, WORKLOADS

from .test_prop_compiler import loop_programs, straightline_programs


# =============================================== the walks as they were
def ref_walk_exprs(node):
    """Yield every expression node under *node* (statement or expr)."""
    if node is None:
        return
    if isinstance(node, ast.Expr):
        yield node
        if isinstance(node, ast.BinOp):
            yield from ref_walk_exprs(node.left)
            yield from ref_walk_exprs(node.right)
        elif isinstance(node, (ast.UnaryOp, ast.Cast)):
            yield from ref_walk_exprs(node.operand)
        elif isinstance(node, ast.ArrayIndex):
            for index in node.indices:
                yield from ref_walk_exprs(index)
        elif isinstance(node, ast.Call):
            for arg in node.args:
                yield from ref_walk_exprs(arg)
        elif isinstance(node, ast.Select):
            for sub in (node.cond, node.if_true, node.if_false):
                yield from ref_walk_exprs(sub)
        return
    # Statements.
    if isinstance(node, ast.Block):
        for stmt in node.statements:
            yield from ref_walk_exprs(stmt)
    elif isinstance(node, ast.Assign):
        # The *target* of a scalar assignment is a write, not a read;
        # array-index targets read their subscripts.
        if isinstance(node.target, ast.ArrayIndex):
            for index in node.target.indices:
                yield from ref_walk_exprs(index)
        yield from ref_walk_exprs(node.value)
    elif isinstance(node, ast.If):
        yield from ref_walk_exprs(node.cond)
        yield from ref_walk_exprs(node.then_body)
        yield from ref_walk_exprs(node.else_body)
    elif isinstance(node, ast.While):
        yield from ref_walk_exprs(node.cond)
        yield from ref_walk_exprs(node.body)
    elif isinstance(node, ast.For):
        yield from ref_walk_exprs(node.init)
        yield from ref_walk_exprs(node.cond)
        yield from ref_walk_exprs(node.step)
        yield from ref_walk_exprs(node.body)
    elif isinstance(node, ast.Return):
        yield from ref_walk_exprs(node.value)
    elif isinstance(node, ast.ExprStmt):
        yield from ref_walk_exprs(node.expr)
    elif isinstance(node, ast.VarDecl):
        yield from ref_walk_exprs(node.init)


def ref_walk_stmts(node):
    """Yield every statement node under *node*, including itself."""
    if node is None:
        return
    yield node
    if isinstance(node, ast.Block):
        for stmt in node.statements:
            yield from ref_walk_stmts(stmt)
    elif isinstance(node, ast.If):
        yield from ref_walk_stmts(node.then_body)
        yield from ref_walk_stmts(node.else_body)
    elif isinstance(node, (ast.While, ast.For)):
        yield from ref_walk_stmts(node.body)


def ref_lint_ast(program):
    """Source-level lints over an analyzed program."""
    diags = []
    for func in program.functions:
        reads = set()
        for expr in ref_walk_exprs(func.body):
            if isinstance(expr, ast.Name):
                reads.add(expr.ident)
        declared = {}
        assigns = {}
        for stmt in ref_walk_stmts(func.body):
            if isinstance(stmt, ast.VarDecl):
                declared[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign) and \
                    isinstance(stmt.target, ast.Name):
                assigns.setdefault(stmt.target.ident, []).append(stmt)
            elif isinstance(stmt, ast.For):
                for part in (stmt.init, stmt.step):
                    if isinstance(part.target, ast.Name):
                        assigns.setdefault(part.target.ident,
                                           []).append(part)
        for param in func.params:
            if param.name not in reads and param.name not in assigns:
                diags.append(Diagnostic(
                    severity=WARNING, rule="unused-variable",
                    message=f"parameter '{param.name}' of "
                            f"'{func.name}' is never used",
                    pass_name="frontend", loc=param.loc))
        for name, decl in declared.items():
            if name in reads:
                continue
            if name not in assigns:
                diags.append(Diagnostic(
                    severity=WARNING, rule="unused-variable",
                    message=f"variable '{name}' is declared but never "
                            "used", pass_name="frontend", loc=decl.loc))
            else:
                for site in assigns[name]:
                    diags.append(Diagnostic(
                        severity=WARNING, rule="dead-store",
                        message=f"value assigned to '{name}' is never "
                                "read", pass_name="frontend",
                        loc=site.loc))
    return diags


def ref_walk_load_refs(stmt):
    """All ArrayIndex *loads* in deterministic order.

    An ArrayIndex in expression position is a load; an assignment
    target is a store (skipped), though loads inside its subscripts are
    yielded.
    """

    def from_expr(expr):
        if isinstance(expr, ast.ArrayIndex):
            yield expr
            for index in expr.indices:
                yield from from_expr(index)
        elif isinstance(expr, ast.BinOp):
            yield from from_expr(expr.left)
            yield from from_expr(expr.right)
        elif isinstance(expr, (ast.UnaryOp, ast.Cast)):
            yield from from_expr(expr.operand)
        elif isinstance(expr, ast.Call):
            for arg in expr.args:
                yield from from_expr(arg)
        elif isinstance(expr, ast.Select):
            yield from from_expr(expr.cond)
            yield from from_expr(expr.if_true)
            yield from from_expr(expr.if_false)

    if isinstance(stmt, ast.Block):
        for child in stmt.statements:
            yield from ref_walk_load_refs(child)
    elif isinstance(stmt, ast.Assign):
        yield from from_expr(stmt.value)
        if isinstance(stmt.target, ast.ArrayIndex):
            for index in stmt.target.indices:
                yield from from_expr(index)
    elif isinstance(stmt, ast.If):
        yield from from_expr(stmt.cond)
        yield from ref_walk_load_refs(stmt.then_body)
        if stmt.else_body is not None:
            yield from ref_walk_load_refs(stmt.else_body)
    elif isinstance(stmt, (ast.While, ast.For)):
        yield from ref_walk_load_refs(stmt.body)
    elif isinstance(stmt, ast.ExprStmt):
        yield from from_expr(stmt.expr)
    elif isinstance(stmt, ast.VarDecl) and stmt.init is not None:
        yield from from_expr(stmt.init)


def ref_canonicalize(loop):
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
    if ivar in ref_assigned_names(loop.body):
        return None
    if ref_contains_call(cond.right) or ref_contains_call(init.value):
        return None
    if ivar in ref_free_names(cond.right):
        return None
    return CanonicalLoop(ivar=ivar, lo=init.value, hi=cond.right,
                         cmp=cond.op, step=step_value)


def ref_contains_call(expr):
    if isinstance(expr, ast.Call):
        return True
    if isinstance(expr, ast.BinOp):
        return ref_contains_call(expr.left) or ref_contains_call(expr.right)
    if isinstance(expr, (ast.UnaryOp, ast.Cast)):
        return ref_contains_call(expr.operand)
    if isinstance(expr, ast.ArrayIndex):
        return any(ref_contains_call(i) for i in expr.indices)
    if isinstance(expr, ast.Select):
        return any(ref_contains_call(e)
                   for e in (expr.cond, expr.if_true, expr.if_false))
    return False


def ref_free_names(expr):
    names = set()

    def visit(node):
        if isinstance(node, ast.Name):
            names.add(node.ident)
        elif isinstance(node, ast.BinOp):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, (ast.UnaryOp, ast.Cast)):
            visit(node.operand)
        elif isinstance(node, ast.ArrayIndex):
            for index in node.indices:
                visit(index)
        elif isinstance(node, ast.Call):
            for arg in node.args:
                visit(arg)
        elif isinstance(node, ast.Select):
            visit(node.cond)
            visit(node.if_true)
            visit(node.if_false)

    visit(expr)
    return names


def ref_is_innermost(loop):
    """No loop statements anywhere inside the body."""

    def clean(stmt):
        if isinstance(stmt, (ast.For, ast.While)):
            return False
        if isinstance(stmt, ast.Block):
            return all(clean(s) for s in stmt.statements)
        if isinstance(stmt, ast.If):
            return clean(stmt.then_body) and (
                stmt.else_body is None or clean(stmt.else_body))
        return True

    return clean(loop.body)


def ref_assigned_names(stmt):
    """Scalar names assigned anywhere inside *stmt*."""
    names = set()

    def visit(node):
        if isinstance(node, ast.Block):
            for child in node.statements:
                visit(child)
        elif isinstance(node, ast.Assign):
            if isinstance(node.target, ast.Name):
                names.add(node.target.ident)
        elif isinstance(node, ast.If):
            visit(node.then_body)
            if node.else_body is not None:
                visit(node.else_body)
        elif isinstance(node, (ast.While,)):
            visit(node.body)
        elif isinstance(node, ast.For):
            visit(node.init)
            visit(node.step)
            visit(node.body)
        elif isinstance(node, ast.VarDecl):
            names.add(node.name)

    visit(stmt)
    return names


def ref_internal_branch_count(body):
    count = 0

    def visit(node):
        nonlocal count
        if isinstance(node, ast.Block):
            for child in node.statements:
                visit(child)
        elif isinstance(node, ast.If):
            if not is_predicable_if(node):
                count += 1
            visit(node.then_body)
            if node.else_body is not None:
                visit(node.else_body)
        elif isinstance(node, (ast.While, ast.For)):
            count += 1
            visit(node.body)

    visit(body)
    return count


def ref_is_speculation_safe(expr):
    if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.Name)):
        return True
    if isinstance(expr, ast.ArrayIndex):
        return all(ref_is_speculation_safe(i) for i in expr.indices)
    if isinstance(expr, ast.BinOp):
        if expr.op in ("/", "%"):
            return False
        return (ref_is_speculation_safe(expr.left)
                and ref_is_speculation_safe(expr.right))
    if isinstance(expr, (ast.UnaryOp, ast.Cast)):
        return ref_is_speculation_safe(expr.operand)
    if isinstance(expr, ast.Select):
        return all(ref_is_speculation_safe(e)
                   for e in (expr.cond, expr.if_true, expr.if_false))
    return False  # calls and anything unknown


def ref_assigned_globals(program):
    global_names = {g.name for g in program.globals}
    assigned = set()

    def visit(stmt):
        if isinstance(stmt, ast.Block):
            for child in stmt.statements:
                visit(child)
        elif isinstance(stmt, ast.Assign):
            if isinstance(stmt.target, ast.Name):
                assigned.add(stmt.target.ident)
        elif isinstance(stmt, ast.If):
            visit(stmt.then_body)
            if stmt.else_body is not None:
                visit(stmt.else_body)
        elif isinstance(stmt, ast.While):
            visit(stmt.body)
        elif isinstance(stmt, ast.For):
            visit(stmt.init)
            visit(stmt.step)
            visit(stmt.body)

    for func in program.functions:
        visit(func.body)
    return assigned & global_names


def ref_rewrite_loops(block, rewrite):
    """The unroller's and the locality analyzer's driver recursion."""

    def _block(block):
        block.statements = [_stmt(s) for s in block.statements]
        return block

    def _stmt(stmt):
        if isinstance(stmt, ast.Block):
            return _block(stmt)
        if isinstance(stmt, ast.If):
            stmt.then_body = _block(stmt.then_body)
            if stmt.else_body is not None:
                stmt.else_body = _block(stmt.else_body)
            return stmt
        if isinstance(stmt, ast.While):
            stmt.body = _block(stmt.body)
            return stmt
        if isinstance(stmt, ast.For):
            stmt.body = _block(stmt.body)
            return rewrite(stmt)
        return stmt

    return _block(block)


# ============================================================ corpus
EDGE_SOURCES = {
    # Indirect stores and loads, loads and calls in loop headers and in
    # a ``return``, a division and a call under a guard, a local
    # initialized from a load, an unused local and a dead store, a
    # ``while`` whose condition loads, a loop bound that reads the
    # induction variable, a ``for`` around a ``while``.
    "edges": """
array A[64] : float;
array B[64] : int;
array C[64] : float;
var n : int = 60;
var g : int = 0;
var k : int = 3;
func pick(m : int) : int { return B[m] % 7; }
func scale(x : float) : float { return x * A[k] + C[B[k]]; }
func main() {
    var i : int; var j : int; var t : float; var unused : int;
    var dead : int;
    dead = 4;
    j = 0;
    for (i = B[0]; i < n - B[1]; i = i + 1) {
        A[B[i]] = C[i] + A[B[i + 1]];
        if (C[i] < 0.0) { C[i] = A[i] / 2.0; }
        if (i > 3) { t = C[i]; } else { t = A[i]; }
        if (B[i] != 0) { A[i] = -C[i] + float(i); }
        g = g + B[i];
    }
    for (i = 0; i < pick(n); i = i + 1) {
        C[i] = scale(A[i]);
        if (i > 2) { g = pick(i); }
    }
    for (i = 0; i < n - i; i = i + 2) { C[i] = A[i] * 0.5; }
    for (i = 1; i <= 40; i = i + 1) {
        var q : float = C[B[i]];
        A[i] = q + A[i - 1];
        if (!(B[i] < 2) && B[i] > 0) { B[i] = B[i] / 2; }
    }
    while (B[j] < 3 && j < 10) {
        for (i = 0; i < 8; i = i + 1) { A[j * 8 + i] = t; }
        j = j + 1;
    }
    for (i = 0; i < 4; i = i + 1) {
        j = i;
        while (j > 0) { j = j - 1; }
    }
    k = pick(j);
}
""",
}


def _corpus():
    for name in WORKLOAD_ORDER:
        yield name, WORKLOADS[name].source
    yield from EDGE_SOURCES.items()


def _stages(source: str, name: str = "program"):
    """The AST after the frontend and after each AST transform of the
    ``la+lu8`` and ``lu4`` pipelines with predication, each checked
    before the next transform runs (they rewrite in place)."""
    program = frontend(source, name)
    yield program
    analyze_locality(program)
    yield program
    unroll_program(program, 8)
    yield program
    predicate_program(program)
    yield program
    program = frontend(source, name)
    unroll_program(program, 4)
    yield program
    predicate_program(program)
    yield program


# ========================================================== comparisons
def _assert_same_tree(a, b) -> None:
    """*a* and *b* are equal node for node, with the same attributes."""
    assert type(a) is type(b)
    assert vars(a).keys() == vars(b).keys()
    for name, value in vars(a).items():
        other = vars(b)[name]
        if isinstance(value, (ast.Expr, ast.Stmt)):
            _assert_same_tree(value, other)
        elif isinstance(value, list):
            assert len(value) == len(other)
            for x, y in zip(value, other):
                _assert_same_tree(x, y)
        else:
            assert value == other, name


def _ids(nodes) -> list[int]:
    return [id(node) for node in nodes]


def _check_statement_queries(program) -> None:
    assert Lowerer(program)._assigned_globals() == \
        ref_assigned_globals(program)
    for func in program.functions:
        nodes = ast.walk(func.body)
        # The old expression walk is the full walk's expressions, less
        # assignment targets (an array target's subscripts stay).
        targets = {id(node.target) for node in nodes
                   if type(node) is ast.Assign}
        assert _ids(ref_walk_exprs(func.body)) == [
            id(node) for node in nodes
            if isinstance(node, ast.Expr) and id(node) not in targets]
        assert _ids(ast.walk_stmts(func.body)) == [
            id(node) for node in nodes if isinstance(node, ast.Stmt)]
        for node in nodes:
            if isinstance(node, ast.Expr):
                assert _is_speculation_safe(node) == \
                    ref_is_speculation_safe(node)
                continue
            assert _ids(walk_load_refs(node)) == \
                _ids(ref_walk_load_refs(node))
            assert assigned_names(node) == ref_assigned_names(node)
            if type(node) is ast.Block:
                assert internal_branch_count(node) == \
                    ref_internal_branch_count(node)
            elif type(node) is ast.For:
                assert is_innermost(node) == ref_is_innermost(node)
                assert canonicalize(node) == ref_canonicalize(node)


def _check_lints(program) -> None:
    """The lints agree on *program* and on every variant of it with one
    statement deleted."""
    assert lint_ast(program) == ref_lint_ast(program)
    for func in program.functions:
        for block in ast.walk_stmts(func.body):
            if type(block) is not ast.Block:
                continue
            statements = block.statements
            for index in range(len(statements)):
                block.statements = statements[:index] + \
                    statements[index + 1:]
                assert lint_ast(program) == ref_lint_ast(program)
            block.statements = statements


def _check_rewrite_loops(source: str, name: str) -> None:
    """The shared driver visits the same loops in the same order and
    builds the same tree as the drivers' own recursion did."""
    trees, visits = [], []
    for driver in (rewrite_loops, ref_rewrite_loops):
        program = frontend(source, name)
        seen = []

        def wrap(loop):
            seen.append((loop.loc, ref_is_innermost(loop)))
            return ast.Block(statements=[loop], loc=loop.loc)

        for func in program.functions:
            func.body = driver(func.body, wrap)
        trees.append(program)
        visits.append(seen)
    assert visits[0] == visits[1]
    for new, old in zip(*(t.functions for t in trees)):
        _assert_same_tree(new.body, old.body)


def _check_source(source: str, name: str = "program",
                  lint_variants: bool = False) -> None:
    for program in _stages(source, name):
        _check_statement_queries(program)
        assert lint_ast(program) == ref_lint_ast(program)
    if lint_variants:
        _check_lints(frontend(source, name))
    _check_rewrite_loops(source, name)


# ================================================================ tests
def test_queries_match_the_walks_on_every_workload():
    for name, source in _corpus():
        _check_source(source, name, lint_variants=name in EDGE_SOURCES)


def test_edge_program_exercises_the_differences():
    """The edge program reaches what the workloads do not: a load in a
    store's subscript, so target-before-value order would show; lint
    findings; unsafe speculation; non-canonical loops; a ``while``
    inside a ``for``."""
    program = frontend(EDGE_SOURCES["edges"])
    assert any(d.rule == "dead-store" for d in lint_ast(program))
    assert any(d.rule == "unused-variable" for d in lint_ast(program))
    loops = [n for n in ast.walk(program.function("main").body)
             if type(n) is ast.For]
    assert [is_innermost(loop) for loop in loops] == \
        [True, True, True, True, True, False]
    assert [canonicalize(loop) is None for loop in loops] == \
        [False, True, True, False, False, False]
    first = loops[0].body.statements[0]
    assert [ref.array for ref in walk_load_refs(first)] == \
        ["C", "A", "B", "B"]
    ifs = [n for n in ast.walk(program.function("main").body)
           if type(n) is ast.If]
    assert [predicable(node) for node in ifs] == \
        [False, False, True, False, False]


def test_assigned_globals_ignores_declarations():
    """A ``var`` with a global's name declares a local: the lowerer
    keeps the global promoted, while ``assigned_names`` counts it.
    Semantic analysis rejects such a program, so it is built by hand."""
    body = ast.Block(statements=[
        ast.VarDecl(name="g", type=ast.INT),
        ast.Assign(target=ast.Name(ident="h"),
                   value=ast.IntLit(value=1))])
    program = ast.ProgramAST(
        globals=[ast.VarDecl(name="g", type=ast.INT),
                 ast.VarDecl(name="h", type=ast.INT)],
        functions=[ast.FuncDecl(name="main", body=body)])
    assert Lowerer(program)._assigned_globals() == {"h"} == \
        ref_assigned_globals(program)
    assert assigned_names(body) == {"g", "h"} == ref_assigned_names(body)


@given(straightline_programs())
@settings(max_examples=30, deadline=None)
def test_queries_match_the_walks_on_straight_line_programs(case):
    _check_source(case[0], lint_variants=True)


@given(loop_programs())
@settings(max_examples=30, deadline=None)
def test_queries_match_the_walks_on_loop_programs(case):
    _check_source(case[0], lint_variants=True)
