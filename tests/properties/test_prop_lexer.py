"""Property tests: the lexer against a reference model.

``tokenize`` finds an operator by looking up the next two characters,
then the next one.  The reference below is the lexer as it was, which
tried every operator in turn with ``str.startswith``.  Both run on the
17 workloads and on generated text: the language's characters mixed
with non-ASCII letters and digits (``str.isalpha`` and ``str.isdigit``
accept them, and ``int`` parses some), characters no token starts
with, and arbitrary text.  The token streams (kind, text, value and
its type, line, column) must be equal, and so must each ``LexError``'s
message and position.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.errors import LexError, SourceLocation
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import EOF_KIND, KEYWORDS, Token
from repro.workloads.programs import WORKLOAD_ORDER, WORKLOADS

#: The operator table the reference lexer scans in order; longer
#: operators precede their prefixes.
REF_OPERATORS = (
    "==", "!=", "<=", ">=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!",
    "(", ")", "{", "}", "[", "]", ",", ";", ":",
)


def ref_tokenize(source):
    """The lexer with a ``startswith`` scan over every operator."""
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(source)

    def loc():
        return SourceLocation(line, col)

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
        start_loc = loc()
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
        if ch.isdigit() or (ch == "." and i + 1 < n
                            and source[i + 1].isdigit()):
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
                value = float(text) if is_float else int(text)
            except ValueError as exc:
                raise LexError(f"bad numeric literal {text!r}",
                               start_loc) from exc
            tokens.append(Token("floatlit" if is_float else "intlit",
                                text, value, start_loc))
            col += j - i
            i = j
            continue
        for op in REF_OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token(op, op, op, start_loc))
                i += len(op)
                col += len(op)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", start_loc)
    tokens.append(Token(EOF_KIND, "", None, loc()))
    return tokens


def outcome(lexer, source):
    try:
        tokens = lexer(source)
    except LexError as exc:
        return ("LexError", str(exc), exc.loc.line, exc.loc.column)
    return [(t.kind, t.text, t.value, type(t.value), t.loc.line,
             t.loc.column) for t in tokens]


def test_workloads_lex_as_the_reference():
    for name in WORKLOAD_ORDER:
        source = WORKLOADS[name].source
        assert outcome(tokenize, source) == outcome(ref_tokenize, source), \
            name


#: The language's characters, non-ASCII letters and digits (Arabic-Indic
#: three, superscript two, full-width seven), and characters no token
#: starts with (no-break space, euro sign, a roman numeral, an emoji).
ALPHABET = ("abexyzEe_019.+-*/%<>=!&|(){}[],;:# \t\r\n"
            "éßж中٣²７ €Ⅻ😀")


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=60))
def test_generated_text_lexes_as_the_reference(source):
    assert outcome(tokenize, source) == outcome(ref_tokenize, source)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40))
def test_arbitrary_text_lexes_as_the_reference(source):
    assert outcome(tokenize, source) == outcome(ref_tokenize, source)
