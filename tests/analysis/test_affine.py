"""AST-level affine analysis of subscripts."""

from repro.analysis import AffineForm, affine_of, flatten_subscript
from repro.frontend import ast, parse


def expr_of(text: str) -> ast.Expr:
    program = parse(f"func main() {{ x = {text}; }}")
    return program.function("main").body.statements[0].value


class TestAffineForm:
    def test_constant(self):
        form = AffineForm.constant(5)
        assert form.is_constant
        assert form.const == 5

    def test_variable(self):
        form = AffineForm.variable("i")
        assert form.coeff("i") == 1
        assert form.coeff("j") == 0

    def test_addition_merges_terms(self):
        a = AffineForm((("i", 2),), 1)
        b = AffineForm((("i", 3), ("j", 1)), 2)
        combined = a.add(b)
        assert combined.coeff("i") == 5
        assert combined.coeff("j") == 1
        assert combined.const == 3

    def test_subtraction_cancels(self):
        a = AffineForm((("i", 2),), 1)
        combined = a.add(a, -1)
        assert combined.is_constant
        assert combined.const == 0

    def test_scaling(self):
        form = AffineForm((("i", 2),), 3).scale(4)
        assert form.coeff("i") == 8
        assert form.const == 12

    def test_scale_by_zero(self):
        assert AffineForm((("i", 2),), 3).scale(0).is_constant


class TestAffineOf:
    def test_literal(self):
        assert affine_of(expr_of("7")).const == 7

    def test_variable(self):
        assert affine_of(expr_of("i")).coeff("i") == 1

    def test_linear_combination(self):
        form = affine_of(expr_of("2 * i + j - 3"))
        assert form.coeff("i") == 2
        assert form.coeff("j") == 1
        assert form.const == -3

    def test_constant_times_parenthesized(self):
        form = affine_of(expr_of("4 * (i + 1)"))
        assert form.coeff("i") == 4
        assert form.const == 4

    def test_negation(self):
        form = affine_of(expr_of("-i + 5"))
        assert form.coeff("i") == -1
        assert form.const == 5

    def test_variable_product_is_not_affine(self):
        assert affine_of(expr_of("i * j")) is None

    def test_division_is_not_affine(self):
        assert affine_of(expr_of("i / 2")) is None

    def test_call_is_not_affine(self):
        assert affine_of(expr_of("f(i)")) is None

    def test_nested_array_ref_is_not_affine(self):
        assert affine_of(expr_of("A[i] + 1")) is None


class TestFlattenSubscript:
    def test_row_major_flattening(self):
        decl = ast.ArrayDecl(name="A", dims=(8, 16), type=ast.FLOAT)
        ref = expr_of("A[i][j]")
        flat = flatten_subscript(ref, decl)
        assert flat.coeff("i") == 16
        assert flat.coeff("j") == 1

    def test_three_dimensions(self):
        decl = ast.ArrayDecl(name="A", dims=(4, 8, 16), type=ast.FLOAT)
        flat = flatten_subscript(expr_of("A[i][j][k]"), decl)
        assert flat.coeff("i") == 128
        assert flat.coeff("j") == 16
        assert flat.coeff("k") == 1

    def test_constant_offsets_fold(self):
        decl = ast.ArrayDecl(name="A", dims=(8, 16), type=ast.FLOAT)
        flat = flatten_subscript(expr_of("A[i + 1][j - 2]"), decl)
        assert flat.const == 16 - 2

    def test_non_affine_subscript_gives_none(self):
        decl = ast.ArrayDecl(name="A", dims=(8, 16), type=ast.FLOAT)
        assert flatten_subscript(expr_of("A[i][i * j]"), decl) is None
