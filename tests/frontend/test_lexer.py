"""Lexer behaviour: tokens, literals, comments, positions, errors."""

import pytest

from repro.frontend import LexError, tokenize
from repro.frontend.tokens import OPERATORS


def kinds(source):
    return [t.kind for t in tokenize(source)]


def test_empty_source_yields_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind == "<eof>"


def test_keywords_and_identifiers():
    tokens = tokenize("for forty int integer")
    assert [t.kind for t in tokens[:-1]] == ["for", "ident", "int", "ident"]


def test_integer_literal():
    token = tokenize("42")[0]
    assert token.kind == "intlit"
    assert token.value == 42


def test_float_literals():
    values = [t.value for t in tokenize("1.5 2. 0.25 1e3 2.5e-2")[:-1]]
    assert values == [1.5, 2.0, 0.25, 1000.0, 0.025]
    assert all(isinstance(v, float) for v in values)


def test_integer_not_mistaken_for_float():
    token = tokenize("100")[0]
    assert token.kind == "intlit"


def test_multichar_operators_win_over_prefixes():
    assert kinds("== = <= < && !")[:-1] == ["==", "=", "<=", "<", "&&", "!"]


def test_every_operator_lexes_as_itself():
    """The lexer looks operators up by one and two characters."""
    for op in OPERATORS:
        assert [(t.kind, t.text) for t in tokenize(op)[:-1]] == [(op, op)]


def test_comments_are_skipped():
    tokens = tokenize("a # this is a comment\nb")
    assert [t.text for t in tokens[:-1]] == ["a", "b"]


def test_line_and_column_tracking():
    tokens = tokenize("a\n  b")
    assert (tokens[0].loc.line, tokens[0].loc.column) == (1, 1)
    assert (tokens[1].loc.line, tokens[1].loc.column) == (2, 3)


def test_unexpected_character_raises():
    with pytest.raises(LexError):
        tokenize("a @ b")


def test_underscore_identifiers():
    token = tokenize("_foo_bar1")[0]
    assert token.kind == "ident"
    assert token.text == "_foo_bar1"


def test_brackets_and_punctuation():
    assert kinds("[ ] ( ) { } , ; :")[:-1] == \
        ["[", "]", "(", ")", "{", "}", ",", ";", ":"]
