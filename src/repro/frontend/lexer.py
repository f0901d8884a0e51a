"""Hand-written lexer for the mini loop language.

Comments run from ``#`` to end of line.  Numeric literals are decimal;
a literal containing ``.`` or an exponent is a float.
"""

from __future__ import annotations

from .errors import LexError, SourceLocation
from .tokens import EOF_KIND, KEYWORDS, OPERATORS, Token

_PAIRS = frozenset(op for op in OPERATORS if len(op) == 2)
_SINGLES = frozenset(op for op in OPERATORS if len(op) == 1)


def tokenize(source: str) -> list[Token]:
    """Convert *source* into a token list ending with an EOF token."""
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_loc = SourceLocation(line, col)
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = text if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, text, start_loc))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            is_float = False
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                is_float = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value: object = float(text) if is_float else int(text)
            except ValueError as exc:
                raise LexError(f"bad numeric literal {text!r}", start_loc) from exc
            tokens.append(Token("floatlit" if is_float else "intlit",
                                text, value, start_loc))
            col += j - i
            i = j
            continue
        op = source[i:i + 2]
        if op not in _PAIRS:
            if ch not in _SINGLES:
                raise LexError(f"unexpected character {ch!r}", start_loc)
            op = ch
        tokens.append(Token(op, op, op, start_loc))
        i += len(op)
        col += len(op)
    tokens.append(Token(EOF_KIND, "", None, SourceLocation(line, col)))
    return tokens
