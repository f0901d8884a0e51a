"""Cache locality analysis (paper section 3.3): Mowry/Lam/Gupta-style
reuse detection with loop peeling, reuse-driven unrolling, and hit/miss
marking of loads.

For each innermost canonical loop (unit step, constant lower bound):

* a load whose flattened subscript is *invariant* in the induction
  variable has **temporal reuse**: the loop is peeled, the peeled copy's
  load is marked MISS and the in-loop copies HIT (paper Figure 5);
* a load with stride 1 in the induction variable, whose other subscript
  terms are multiples of the line size (arrays are line-aligned, so the
  line phase is then a compile-time constant), has **spatial reuse**:
  the loop is unrolled by the elements-per-line factor with a
  postconditioned remainder (paper Figure 4), the copy that starts a
  cache line is marked MISS and the rest HIT;
* anything else — non-affine subscripts, unknown alignment, non-unit
  stride — is left UNKNOWN and scheduled by plain balanced scheduling
  (the paper's four limitations, section 5.3).

Marked loads drive the selective balanced scheduler
(:class:`repro.sched.weights.BalancedWeights` with locality enabled),
and each MISS load is tied to its line's HIT loads with an ordering arc
in the dependence DAG (via the ``group`` field).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..frontend import ast
from ..machine.config import ELEMENTS_PER_LINE
from ..opt.astutils import assigned_names, clone_stmt, rewrite_loops
from ..opt.unroll import (
    CanonicalLoop,
    canonicalize,
    estimate_instructions,
    is_innermost,
    unroll_loop,
)
from .affine import flatten_subscript

#: Locality analysis unrolls by the line-geometry factor regardless of
#: the LU pass's 64/128-instruction caps (the paper treats this limited
#: unrolling as part of the algorithm); these generous limits only stop
#: pathological blow-ups.
PEEL_SIZE_LIMIT = 128
UNROLL_SIZE_LIMIT = 256


@dataclass
class RefInfo:
    """Classification of one load reference in the original loop body."""

    kind: str                       # "temporal" | "spatial" | "unknown"
    array: str = ""
    rest_coeffs: tuple = ()         # non-induction coefficients
    const: int = 0                  # constant term of the flat subscript


@dataclass
class LocalityStats:
    loops_seen: int = 0
    loops_peeled: int = 0
    loops_unrolled: int = 0
    refs_temporal: int = 0
    refs_spatial: int = 0
    refs_unknown: int = 0
    marked_hits: int = 0
    marked_misses: int = 0


def walk_load_refs(stmt: ast.Stmt) -> list[ast.ArrayIndex]:
    """All ArrayIndex *loads* under *stmt*, in deterministic order.

    An ArrayIndex in expression position is a load; an assignment
    target is a store (skipped), though loads inside its subscripts are
    collected, after the assigned value's (reuse-group ids follow this
    order).  Loop headers and ``return`` values are not searched.
    Everything else follows :data:`ast.CHILDREN` in :func:`ast.walk`
    order.
    """
    refs: list[ast.ArrayIndex] = []

    def visit(node) -> None:
        cls = type(node)
        if cls is ast.Assign:
            visit(node.value)
            if type(node.target) is ast.ArrayIndex:
                for index in node.target.indices:
                    visit(index)
            return
        if cls is ast.For or cls is ast.While:
            visit(node.body)
            return
        if cls is ast.Return:
            return
        if cls is ast.ArrayIndex:
            refs.append(node)
        for name in ast.CHILDREN[cls]:
            child = getattr(node, name)
            if type(child) is list:
                for item in child:
                    visit(item)
            elif child is not None:
                visit(child)

    visit(stmt)
    return refs


class LocalityAnalyzer:
    """Applies locality analysis across a program AST, in place."""

    def __init__(self, program: ast.ProgramAST) -> None:
        self.program = program
        self.stats = LocalityStats()
        self._groups = itertools.count(1)
        self._group_ids: dict[tuple, int] = {}

    # -------------------------------------------------------------- driver
    def run(self) -> LocalityStats:
        for func in self.program.functions:
            func.body = rewrite_loops(func.body, self._loop)
        return self.stats

    # ------------------------------------------------------ classification
    def _classify(self, ref: ast.ArrayIndex, ivar: str,
                  frozen: set[str]) -> RefInfo:
        try:
            decl = self.program.array(ref.array)
        except KeyError:
            return RefInfo("unknown")
        flat = flatten_subscript(ref, decl)
        if flat is None:
            return RefInfo("unknown")
        coeff_iv = flat.coeff(ivar)
        rest = tuple(sorted((v, c) for v, c in flat.coeffs if v != ivar))
        if any(v in frozen for v, _ in rest):
            # A subscript variable assigned inside the body: the access
            # pattern is not loop-stable, give up on this reference.
            return RefInfo("unknown")
        if coeff_iv == 0:
            return RefInfo("temporal", ref.array, rest, flat.const)
        if coeff_iv == 1 and all(c % ELEMENTS_PER_LINE == 0
                                 for _, c in rest):
            return RefInfo("spatial", ref.array, rest, flat.const)
        return RefInfo("unknown")

    # ------------------------------------------------------------ the loop
    def _loop(self, loop: ast.For) -> ast.Stmt:
        if not is_innermost(loop):
            return loop
        self.stats.loops_seen += 1
        canon = canonicalize(loop)
        if canon is None or canon.step != 1:
            return loop
        if not isinstance(canon.lo, ast.IntLit):
            return loop                 # unknown alignment (limitation 1/3)
        lo = canon.lo.value
        ivar = canon.ivar
        frozen = assigned_names(loop.body)
        frozen.discard(ivar)

        infos = [self._classify(ref, ivar, frozen)
                 for ref in walk_load_refs(loop.body)]
        n_temporal = sum(1 for i in infos if i.kind == "temporal")
        n_spatial = sum(1 for i in infos if i.kind == "spatial")
        self.stats.refs_temporal += n_temporal
        self.stats.refs_spatial += n_spatial
        self.stats.refs_unknown += sum(1 for i in infos
                                       if i.kind == "unknown")
        if not n_temporal and not n_spatial:
            return loop

        body_cost = estimate_instructions(loop.body, self.program)
        do_peel = n_temporal > 0 and body_cost <= PEEL_SIZE_LIMIT
        do_unroll = (n_spatial > 0
                     and body_cost * ELEMENTS_PER_LINE <= UNROLL_SIZE_LIMIT)
        if not do_peel and not do_unroll:
            return loop

        inner_lo = lo + 1 if do_peel else lo
        statements: list[ast.Stmt] = []

        if do_peel:
            self.stats.loops_peeled += 1
            peeled = clone_stmt(
                loop.body,
                {ivar: lambda: ast.IntLit(value=lo, type=ast.INT)})
            missed: set[int] = set()
            self._mark_copy(peeled, infos, offset=0, lo=lo,
                            role="peel", missed=missed)
            statements.append(peeled)

        inner_init = ast.Assign(
            target=ast.Name(ident=ivar, type=ast.INT),
            value=ast.IntLit(value=inner_lo, type=ast.INT))
        inner_loop = ast.For(init=inner_init, cond=loop.cond,
                             step=loop.step, body=loop.body, loc=loop.loc)

        if do_unroll:
            self.stats.loops_unrolled += 1
            inner_canon = CanonicalLoop(
                ivar=ivar, lo=inner_init.value, hi=canon.hi,
                cmp=canon.cmp, step=1)
            unrolled = unroll_loop(inner_loop, inner_canon,
                                   ELEMENTS_PER_LINE)
            main_loop = unrolled.statements[0]
            missed = set()
            copies = main_loop.body.statements
            per_copy = len(copies) // ELEMENTS_PER_LINE
            for k in range(ELEMENTS_PER_LINE):
                copy_block = ast.Block(
                    statements=copies[k * per_copy:(k + 1) * per_copy])
                self._mark_copy(copy_block, infos, offset=k, lo=inner_lo,
                                role="loop", missed=missed)
            main_loop._la_processed = True  # noqa: SLF001
            statements.append(unrolled)
        else:
            missed = set()
            self._mark_copy(inner_loop.body, infos, offset=0, lo=inner_lo,
                            role="loop", missed=missed,
                            temporal_only=not do_unroll)
            inner_loop._la_processed = True  # noqa: SLF001
            statements.append(inner_loop)

        if do_peel:
            guard = ast.If(
                cond=ast.BinOp(op=canon.cmp,
                               left=ast.IntLit(value=lo, type=ast.INT),
                               right=canon.hi, type=ast.INT),
                then_body=ast.Block(statements=statements))
            guard._no_predicate = True  # noqa: SLF001
            init = ast.Assign(target=ast.Name(ident=ivar, type=ast.INT),
                              value=ast.IntLit(value=lo, type=ast.INT))
            return ast.Block(statements=[init, guard], loc=loop.loc)
        return ast.Block(statements=statements, loc=loop.loc)

    # ------------------------------------------------------------- marking
    def _group(self, key: tuple) -> int:
        gid = self._group_ids.get(key)
        if gid is None:
            gid = next(self._groups)
            self._group_ids[key] = gid
        return gid

    def _mark_copy(self, copy: ast.Stmt, infos: list[RefInfo],
                   offset: int, lo: int, role: str, missed: set[int],
                   temporal_only: bool = False) -> None:
        """Set hint/group on every load ref of one body copy.

        ``offset`` is the copy's induction offset (k in an unrolled
        body), ``lo`` the loop's constant lower bound, ``missed`` the
        set of group ids already given their MISS load in this
        straight-line region.
        """
        refs = list(walk_load_refs(copy))
        if len(refs) != len(infos):
            raise AssertionError("clone changed reference structure")
        for ref, info in zip(refs, infos):
            if info.kind == "unknown":
                continue
            if info.kind == "temporal":
                key = ("t", info.array, info.rest_coeffs, info.const)
                gid = self._group(key)
                ref.group = gid
                if role == "peel":
                    ref.hint = "miss" if gid not in missed else "hit"
                    missed.add(gid)
                    self.stats.marked_misses += 1
                else:
                    ref.hint = "hit"
                    self.stats.marked_hits += 1
                continue
            # Spatial.
            if temporal_only:
                continue
            position = info.const + offset + lo
            line_index = position // ELEMENTS_PER_LINE
            phase = position % ELEMENTS_PER_LINE
            key = ("s", info.array, info.rest_coeffs, line_index)
            gid = self._group(key)
            ref.group = gid
            if role == "peel":
                if phase == 0:
                    ref.hint = "miss"
                    missed.add(gid)
                    self.stats.marked_misses += 1
                continue
            if phase == 0 and gid not in missed:
                ref.hint = "miss"
                missed.add(gid)
                self.stats.marked_misses += 1
            else:
                ref.hint = "hit"
                self.stats.marked_hits += 1


def analyze_locality(program: ast.ProgramAST) -> LocalityStats:
    """Run locality analysis on *program* in place."""
    return LocalityAnalyzer(program).run()
