"""Lint diagnostics: source- and IR-level code-quality findings.

Lints never abort a compilation -- they are warnings and notes
surfaced by ``repro check`` (and collected by an enabled
:class:`~repro.check.boundary.PipelineValidator` in lint mode).

Source-level lints run on the analyzed AST, *before* the loop
transforms clone bodies (so each finding is reported once), and carry
the :class:`~repro.frontend.errors.SourceLocation` of the offending
construct:

* ``unused-variable`` (warning) -- a local variable or parameter is
  declared but never referenced;
* ``dead-store`` (warning) -- a local variable is assigned but its
  value is never read anywhere in the function; every assignment site
  is reported.

IR-level lints run on the lowered CFG (no source positions survive
lowering):

* ``unreachable-block`` (warning) -- a block no path from the entry
  reaches;
* ``store-never-loaded`` (note) -- a data symbol is stored to but
  never loaded; informational because result arrays of a kernel are
  legitimately write-only inside the program.

The two loop lints of ``repro analyze`` are read off its per-loop
records, in :mod:`repro.analysis.report`.
"""

from __future__ import annotations

from ..frontend import ast
from ..ir import Cfg
from .diagnostics import NOTE, WARNING, Diagnostic


def lint_ast(program: ast.ProgramAST) -> list[Diagnostic]:
    """Source-level lints over an analyzed program."""
    diags: list[Diagnostic] = []
    for func in program.functions:
        nodes = ast.walk(func.body)
        # Every name is a read except a scalar assignment's target (an
        # array target's subscripts are reads).
        targets = {id(node.target) for node in nodes
                   if type(node) is ast.Assign}
        reads = {node.ident for node in nodes
                 if type(node) is ast.Name and id(node) not in targets}
        declared: dict[str, ast.VarDecl] = {}
        assigns: dict[str, list] = {}
        for node in nodes:
            if type(node) is ast.VarDecl:
                declared[node.name] = node
            elif type(node) is ast.Assign and \
                    type(node.target) is ast.Name:
                assigns.setdefault(node.target.ident, []).append(node)
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


# -------------------------------------------------------------- IR lints
def lint_cfg(cfg: Cfg, pass_name: str = "lower") -> list[Diagnostic]:
    """IR-level lints over a lowered CFG."""
    diags: list[Diagnostic] = []
    reachable: set[str] = set()
    stack = [cfg.entry]
    while stack:
        label = stack.pop()
        if label in reachable or label not in cfg.blocks:
            continue
        reachable.add(label)
        stack.extend(cfg.blocks[label].successors())
    for label in cfg.order:
        if label not in reachable:
            diags.append(Diagnostic(
                severity=WARNING, rule="unreachable-block",
                message="no path from the entry reaches this block",
                pass_name=pass_name, block=label))

    stored: dict[object, str] = {}
    loaded: set[object] = set()
    for block in cfg:
        for instr in block.instrs:
            if instr.mem is None or instr.mem.region != "data":
                continue
            if instr.is_store:
                stored.setdefault(instr.mem.symbol, block.label)
            elif instr.is_load:
                loaded.add(instr.mem.symbol)
    for symbol, label in stored.items():
        if symbol not in loaded:
            diags.append(Diagnostic(
                severity=NOTE, rule="store-never-loaded",
                message=f"data symbol '{symbol}' is stored but never "
                        "loaded (write-only output?)",
                pass_name=pass_name, block=label))
    return diags

