"""Abstract syntax tree for the mini loop language.

The language is a small C-like loop language chosen to exercise exactly
the paper's machinery: multi-dimensional global arrays (for locality
analysis), counted ``for`` loops (for unrolling/peeling), conditionals
(for predication and trace scheduling), and inlinable functions.

Types are ``int`` (64-bit) and ``float`` (IEEE double).  Semantic
analysis annotates every expression node with ``.type``.

:data:`CHILDREN` names each node class's node-valued fields; the two
walks, :func:`walk` and :func:`walk_stmts`, follow it, and the
analyses that collect from a tree (lints, loop tests, speculation
safety, assigned names) are queries over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union, get_args, get_type_hints

from .errors import SourceLocation

INT = "int"
FLOAT = "float"
Type = str  # INT or FLOAT


# ------------------------------------------------------------- expressions
@dataclass
class Expr:
    loc: Optional[SourceLocation] = field(default=None, kw_only=True)
    type: Optional[Type] = field(default=None, kw_only=True, compare=False)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class Name(Expr):
    ident: str = ""


@dataclass
class ArrayIndex(Expr):
    array: str = ""
    indices: list[Expr] = field(default_factory=list)
    # Locality-analysis annotations (paper section 3.3): "hit"/"miss"
    # hint for the generated load, and a reuse-group id linking a miss
    # load to the hit loads that reuse its cache line.
    hint: Optional[str] = field(default=None, kw_only=True, compare=False)
    group: Optional[int] = field(default=None, kw_only=True, compare=False)


@dataclass
class BinOp(Expr):
    op: str = ""        # + - * / % == != < <= > >= && ||
    left: Expr = None
    right: Expr = None


@dataclass
class UnaryOp(Expr):
    op: str = ""        # - !
    operand: Expr = None


@dataclass
class Call(Expr):
    func: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class Cast(Expr):
    """Explicit ``int(e)`` / ``float(e)`` conversion (or one inserted
    implicitly by semantic analysis)."""

    target: Type = INT
    operand: Expr = None


@dataclass
class Select(Expr):
    """``cond != 0 ? if_true : if_false`` — not source syntax; created by
    the predication pass and lowered to a CMOV (paper section 4.2,
    footnote 2: Multiflow predicates simple conditionals with the
    Alpha's conditional move)."""

    cond: Expr = None
    if_true: Expr = None
    if_false: Expr = None


# -------------------------------------------------------------- statements
@dataclass
class Stmt:
    loc: Optional[SourceLocation] = field(default=None, kw_only=True)


@dataclass
class Block(Stmt):
    statements: list[Stmt] = field(default_factory=list)


@dataclass
class Assign(Stmt):
    target: Union[Name, ArrayIndex] = None
    value: Expr = None


@dataclass
class If(Stmt):
    cond: Expr = None
    then_body: Block = None
    else_body: Optional[Block] = None


@dataclass
class While(Stmt):
    cond: Expr = None
    body: Block = None


@dataclass
class For(Stmt):
    """C-style counted loop: ``for (init; cond; step) body``.

    ``init`` and ``step`` are assignments.  The unroller/peeler only
    fire on loops in *canonical* form (integer induction variable ``i``,
    ``i = lo``, ``i < hi`` or ``i <= hi``, ``i = i + c`` with constant
    ``c > 0``, and ``i`` not otherwise assigned in the body); the
    lowering handles the general case.
    """

    init: Assign = None
    cond: Expr = None
    step: Assign = None
    body: Block = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


# ------------------------------------------------------------ declarations
@dataclass
class Param:
    name: str
    type: Type
    loc: Optional[SourceLocation] = None


@dataclass
class VarDecl(Stmt):
    """Local or global scalar: ``var x : int [= expr];``"""

    name: str = ""
    type: Type = INT
    init: Optional[Expr] = None


@dataclass
class ArrayDecl:
    """Global array: ``array A[d0][d1]... : float;``

    Arrays are laid out row-major, 8-byte elements, aligned on cache-line
    boundaries (the paper aligns arrays on 32-byte lines).
    """

    name: str = ""
    dims: tuple[int, ...] = ()
    type: Type = FLOAT
    loc: Optional[SourceLocation] = None

    @property
    def size_elems(self) -> int:
        total = 1
        for d in self.dims:
            total *= d
        return total


@dataclass
class FuncDecl:
    name: str = ""
    params: list[Param] = field(default_factory=list)
    return_type: Optional[Type] = None
    body: Block = None
    locals: list[VarDecl] = field(default_factory=list, compare=False)
    loc: Optional[SourceLocation] = None


@dataclass
class ProgramAST:
    name: str = "program"
    arrays: list[ArrayDecl] = field(default_factory=list)
    globals: list[VarDecl] = field(default_factory=list)
    functions: list[FuncDecl] = field(default_factory=list)

    def function(self, name: str) -> FuncDecl:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)

    def array(self, name: str) -> ArrayDecl:
        for arr in self.arrays:
            if arr.name == name:
                return arr
        raise KeyError(name)


# -------------------------------------------------------------- tree shape
#: Each node class's node-valued fields, in field order: the one place
#: the tree's shape is written down (CPython's ``ast._fields``).  A
#: field holds a node, ``None`` or a list of nodes.
CHILDREN: dict[type, tuple[str, ...]] = {
    IntLit: (),
    FloatLit: (),
    Name: (),
    ArrayIndex: ("indices",),
    BinOp: ("left", "right"),
    UnaryOp: ("operand",),
    Call: ("args",),
    Cast: ("operand",),
    Select: ("cond", "if_true", "if_false"),
    Block: ("statements",),
    Assign: ("target", "value"),
    If: ("cond", "then_body", "else_body"),
    While: ("cond", "body"),
    For: ("init", "cond", "step", "body"),
    Return: ("value",),
    ExprStmt: ("expr",),
    VarDecl: ("init",),
}


def _holds_statements(hint) -> bool:
    return any(isinstance(t, type) and issubclass(t, Stmt)
               for t in (hint, *get_args(hint)))


#: The statement-valued fields of each statement class's CHILDREN, read
#: off their annotations: what :func:`walk_stmts` follows.
STMT_CHILDREN = {
    cls: tuple(name for name in names
               if _holds_statements(get_type_hints(cls)[name]))
    for cls, names in CHILDREN.items() if issubclass(cls, Stmt)}


def walk(node) -> list:
    """*node* and every node under it, in pre-order and field order.

    CPython's ``ast.walk``, but depth-first: a node precedes its
    children, and a field's whole subtree precedes the next field's.
    """
    nodes: list = []
    _collect(node, CHILDREN, nodes)
    return nodes


def walk_stmts(stmt: Stmt) -> list[Stmt]:
    """*stmt* and every statement under it, in :func:`walk`'s order.

    Never enters an expression.  A ``for`` header's ``init`` and
    ``step`` are assignments, so they are included, right after the
    loop and before its body.
    """
    stmts: list[Stmt] = []
    _collect(stmt, STMT_CHILDREN, stmts)
    return stmts


def _collect(node, children: dict, out: list) -> None:
    out.append(node)
    for name in children[type(node)]:
        child = getattr(node, name)
        if type(child) is list:
            for item in child:
                _collect(item, children, out)
        elif child is not None:
            _collect(child, children, out)
