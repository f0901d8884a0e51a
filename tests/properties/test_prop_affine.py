"""Property tests: affine forms agree with direct evaluation.

``AffineForm`` is a slotted class whose ``scale(1)`` returns the form
itself and whose ``add`` skips the merge when one side is constant.
``RefAffineForm`` below is the frozen dataclass it replaced; forms built
by the same operations in both must have the same ``coeffs`` and
``const``, compare equal exactly when the reference forms do, and hash
alike.
"""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AffineForm, affine_of
from repro.frontend import parse

NAMES = ("i", "j", "k")

coeff_lists = st.lists(
    st.tuples(st.sampled_from(NAMES), st.integers(-20, 20)),
    max_size=5)
envs = st.fixed_dictionaries({n: st.integers(-100, 100) for n in NAMES})


def evaluate(form: AffineForm, env: dict) -> int:
    return sum(c * env[n] for n, c in form.coeffs) + form.const


def build(pairs, const) -> AffineForm:
    form = AffineForm.constant(const)
    for name, coeff in pairs:
        form = form.add(AffineForm.variable(name).scale(coeff))
    return form


@given(coeff_lists, st.integers(-50, 50), coeff_lists,
       st.integers(-50, 50), envs)
@settings(max_examples=100, deadline=None)
def test_addition_is_pointwise(pairs_a, ca, pairs_b, cb, env):
    a, b = build(pairs_a, ca), build(pairs_b, cb)
    assert evaluate(a.add(b), env) == evaluate(a, env) + evaluate(b, env)
    assert evaluate(a.add(b, -1), env) == evaluate(a, env) - evaluate(b, env)


@given(coeff_lists, st.integers(-50, 50), st.integers(-10, 10), envs)
@settings(max_examples=100, deadline=None)
def test_scaling_is_pointwise(pairs, const, factor, env):
    form = build(pairs, const)
    assert evaluate(form.scale(factor), env) == factor * evaluate(form, env)


@given(coeff_lists, st.integers(-50, 50))
@settings(max_examples=100, deadline=None)
def test_zero_coefficients_are_normalized_away(pairs, const):
    form = build(pairs, const)
    assert all(c != 0 for _, c in form.coeffs)


@st.composite
def affine_source_exprs(draw, depth=0):
    """Textual expressions that are affine by construction."""
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return str(draw(st.integers(-9, 9)))
        return draw(st.sampled_from(NAMES))
    kind = draw(st.integers(0, 2))
    left = draw(affine_source_exprs(depth=depth + 1))
    right = draw(affine_source_exprs(depth=depth + 1))
    if kind == 0:
        return f"({left} + {right})"
    if kind == 1:
        return f"({left} - {right})"
    scale = draw(st.integers(-6, 6))
    return f"({scale} * {left})"


@given(affine_source_exprs(), envs)
@settings(max_examples=100, deadline=None)
def test_affine_of_matches_python_eval(text, env):
    program = parse(f"func main() {{ x = {text}; }}")
    expr = program.function("main").body.statements[0].value
    form = affine_of(expr)
    assert form is not None
    assert evaluate(form, env) == eval(text, {}, dict(env))  # noqa: S307


@dataclass(frozen=True)
class RefAffineForm:
    """The frozen dataclass ``AffineForm`` was."""

    coeffs: tuple = ()
    const: int = 0

    @staticmethod
    def constant(value):
        return RefAffineForm((), value)

    @staticmethod
    def variable(name):
        return RefAffineForm(((name, 1),), 0)

    def add(self, other, sign=1):
        coeffs = dict(self.coeffs)
        for name, c in other.coeffs:
            coeffs[name] = coeffs.get(name, 0) + sign * c
        return RefAffineForm(
            tuple(sorted((n, c) for n, c in coeffs.items() if c != 0)),
            self.const + sign * other.const)

    def scale(self, factor):
        if factor == 0:
            return RefAffineForm.constant(0)
        return RefAffineForm(
            tuple(sorted((n, c * factor) for n, c in self.coeffs)),
            self.const * factor)


#: One step of a form program: make a constant or a variable, or add,
#: subtract or scale forms made by earlier steps.
steps = st.one_of(
    st.tuples(st.just("constant"), st.integers(-9, 9)),
    st.tuples(st.just("variable"), st.sampled_from(NAMES)),
    st.tuples(st.just("add"), st.integers(0, 99), st.integers(0, 99),
              st.sampled_from((1, -1))),
    st.tuples(st.just("scale"), st.integers(0, 99), st.integers(-3, 3)))


def run_steps(cls, program):
    forms = [cls.constant(0)]
    for step in program:
        if step[0] == "constant":
            forms.append(cls.constant(step[1]))
        elif step[0] == "variable":
            forms.append(cls.variable(step[1]))
        elif step[0] == "add":
            a, b = forms[step[1] % len(forms)], forms[step[2] % len(forms)]
            forms.append(a.add(b, step[3]))
        else:
            forms.append(forms[step[1] % len(forms)].scale(step[2]))
    return forms


@given(st.lists(steps, max_size=25))
@settings(max_examples=300, deadline=None)
def test_forms_match_the_frozen_dataclass(program):
    forms = run_steps(AffineForm, program)
    refs = run_steps(RefAffineForm, program)
    assert [(f.coeffs, f.const) for f in forms] == \
        [(r.coeffs, r.const) for r in refs]
    for form, ref in zip(forms, refs):
        assert hash(form) == hash(ref)
        for other, other_ref in zip(forms, refs):
            assert (form == other) == (ref == other_ref)
