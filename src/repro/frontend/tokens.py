"""Token kinds for the mini loop language."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    kind: str          # "ident", "intlit", "floatlit", a keyword, or an operator
    text: str
    value: object      # int/float for literals, text otherwise
    loc: SourceLocation

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r} @ {self.loc})"


EOF_KIND = "<eof>"
