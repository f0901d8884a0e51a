"""Token kinds for the mini loop language."""

from __future__ import annotations

from .errors import SourceLocation

KEYWORDS = frozenset({
    "array", "var", "func", "if", "else", "while", "for", "return",
    "int", "float",
})

# Every operator is one or two characters long: the lexer looks up the
# next two characters, then the next one, so the longest match wins.
OPERATORS = (
    "==", "!=", "<=", ">=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!",
    "(", ")", "{", "}", "[", "]", ",", ";", ":",
)


class Token:
    """One token; the lexer makes it and nothing changes it.

    ``kind`` is ``"ident"``, ``"intlit"``, ``"floatlit"``, a keyword or
    an operator; ``value`` is a literal's int/float, the text otherwise.
    """

    __slots__ = ("kind", "text", "value", "loc")

    def __init__(self, kind: str, text: str, value: object,
                 loc: SourceLocation) -> None:
        self.kind = kind
        self.text = text
        self.value = value
        self.loc = loc

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r} @ {self.loc})"


EOF_KIND = "<eof>"
