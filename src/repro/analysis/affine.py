"""Affine forms, and the affine analysis of AST index expressions.

Locality analysis, lowering's memory references and the unroller's
size estimate need array subscripts expressed as affine functions of
scalar variables: ``index = sum(coeff_v * v) + const``.  Anything else
— products of two variables, divisions, calls — is *not affine* and
the reference is excluded from reuse analysis, exactly the paper's
"index expressions that introduce irregularity" limitation (section
5.3).  :func:`flatten_subscript` is the AST-level address model; the
loop dependence analyzer (:mod:`repro.analysis.deps`) builds the same
:class:`AffineForm` values over the registers of lowered code.
"""

from __future__ import annotations

from typing import Optional

from ..frontend import ast


class AffineForm:
    """``sum(coeffs[v] * v) + const`` with integer coefficients.

    ``coeffs`` holds ``(name, coeff)`` pairs sorted by name, with no
    zero coefficient; :meth:`add` and :meth:`scale` keep it so.  A form
    is an immutable value: equal, and hashed alike, when ``coeffs`` and
    ``const`` are.
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: tuple[tuple[str, int], ...] = (),
                 const: int = 0) -> None:
        self.coeffs = coeffs
        self.const = const

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AffineForm:
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self) -> int:
        return hash((self.coeffs, self.const))

    def __repr__(self) -> str:
        return f"AffineForm(coeffs={self.coeffs!r}, const={self.const!r})"

    @staticmethod
    def constant(value: int) -> "AffineForm":
        return AffineForm((), value)

    @staticmethod
    def variable(name: str) -> "AffineForm":
        return AffineForm(((name, 1),), 0)

    def coeff_map(self) -> dict[str, int]:
        return dict(self.coeffs)

    def coeff(self, name: str) -> int:
        return self.coeff_map().get(name, 0)

    def add(self, other: "AffineForm", sign: int = 1) -> "AffineForm":
        const = self.const + sign * other.const
        if not other.coeffs:
            return AffineForm(self.coeffs, const)
        if not self.coeffs and sign == 1:
            return AffineForm(other.coeffs, const)
        coeffs = self.coeff_map()
        for name, c in other.coeffs:
            coeffs[name] = coeffs.get(name, 0) + sign * c
        return AffineForm(
            tuple(sorted((n, c) for n, c in coeffs.items() if c != 0)),
            const)

    def scale(self, factor: int) -> "AffineForm":
        if factor == 1:
            return self
        if factor == 0:
            return AffineForm.constant(0)
        # Scaling keeps the names, so the pairs stay sorted.
        return AffineForm(tuple([(n, c * factor) for n, c in self.coeffs]),
                          self.const * factor)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        parts = [f"{c}*{n}" for n, c in self.coeffs]
        parts.append(str(self.const))
        return " + ".join(parts)


def affine_of(expr: ast.Expr) -> Optional[AffineForm]:
    """The affine form of an integer AST expression, or None."""
    if isinstance(expr, ast.IntLit):
        return AffineForm.constant(expr.value)
    if isinstance(expr, ast.Name):
        return AffineForm.variable(expr.ident)
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = affine_of(expr.operand)
        return inner.scale(-1) if inner is not None else None
    if isinstance(expr, ast.BinOp):
        if expr.op in ("+", "-"):
            left = affine_of(expr.left)
            right = affine_of(expr.right)
            if left is None or right is None:
                return None
            return left.add(right, 1 if expr.op == "+" else -1)
        if expr.op == "*":
            left = affine_of(expr.left)
            right = affine_of(expr.right)
            if left is None or right is None:
                return None
            if left.is_constant:
                return right.scale(left.const)
            if right.is_constant:
                return left.scale(right.const)
            return None
    return None


def flatten_subscript(ref: ast.ArrayIndex,
                      decl: ast.ArrayDecl) -> Optional[AffineForm]:
    """Row-major flat element index of a (possibly multi-dim) reference."""
    total: Optional[AffineForm] = AffineForm.constant(0)
    for dim_index, index_expr in enumerate(ref.indices):
        form = affine_of(index_expr)
        if form is None:
            return None
        stride = 1
        for d in decl.dims[dim_index + 1:]:
            stride *= d
        total = total.add(form.scale(stride))
    return total
