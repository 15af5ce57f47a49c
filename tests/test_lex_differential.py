"""The lexer against a frozen reference.

``_reference_lex`` is a verbatim copy of ``textio.lex`` as it was when
variables and names were scanned by two copies of one loop, with the
character classes and the punctuation table it read.  On many seeded random
strings, the lexer must give the same tokens (kind, text and span), or fail
with the same ``ParseError`` message and span.
"""

import random

from mulam.textio import ParseError, Token, lex

# ---------- the reference: the two-loop lexer, verbatim ----------

_PUNCT = {
    "\\": "LAM",
    ".": "DOT",
    "(": "LPAR",
    ")": "RPAR",
    "[": "LBRACK",
    "]": "RBRACK",
    ",": "COMMA",
    "+": "PLUS",
    "*": "STAR",
    "<": "LT",
    ">": "GT",
}


def _is_ident_start(c: str) -> bool:
    return "a" <= c <= "z"


def _is_digit(c: str) -> bool:
    # ASCII only, as NUM says: ``str.isdigit`` also takes superscripts and
    # other scripts' digits.
    return "0" <= c <= "9"


def _is_ident_char(c: str) -> bool:
    return "a" <= c <= "z" or "A" <= c <= "Z" or "0" <= c <= "9" or c == "_"


def _reference_lex(src: str) -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            toks.append(Token(_PUNCT[c], c, i, i + 1))
            i += 1
            continue
        if _is_digit(c):
            j = i
            while j < n and _is_digit(src[j]):
                j += 1
            toks.append(Token("NUM", src[i:j], i, j))
            i = j
            continue
        if c == "'":
            j = i + 1
            if j >= n or not _is_ident_start(src[j]):
                raise ParseError("expected identifier after quote", i, i + 1)
            while j < n and _is_ident_char(src[j]):
                j += 1
            toks.append(Token("NAME", src[i + 1 : j], i, j))
            i = j
            continue
        if _is_ident_start(c):
            j = i
            while j < n and _is_ident_char(src[j]):
                j += 1
            word = src[i:j]
            toks.append(Token("MU" if word == "mu" else "VAR", word, i, j))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i, i + 1)
    toks.append(Token("EOF", "", n, n))
    return toks


# ---------- the comparison ----------

# The pieces a random string is drawn from: quotes, the keyword, ASCII and
# non-ASCII letters and digits, the identifier underscore, Unicode
# whitespace, every punctuation token, and a character no token takes.
PIECES = (
    ["'", "'", "mu", "mu", "'mu", "_", "~", ";"]
    + list("abmuxyzAMZ")
    + list("0179")
    + ["\xe9", "\xdf", "\u03bb", "\u03a9", "\xb5", "\u0663", "\xb2", "\U0001d7d8"]
    + [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u2028", "\u3000"]
    + list(_PUNCT)
)
SAMPLES = 100_000


def _outcome(lexer, src: str):
    try:
        return [(t.kind, t.text, t.start, t.end) for t in lexer(src)]
    except ParseError as err:
        return ("error", err.message, err.start, err.end)


def _strings(seed: int, count: int):
    rng = random.Random(seed)
    choice, randrange = rng.choice, rng.randrange
    for _ in range(count):
        yield "".join([choice(PIECES) for _ in range(randrange(9))])


def test_the_piece_pool_reaches_every_outcome():
    kinds = set()
    for src in _strings(0, 2000):
        out = _outcome(_reference_lex, src)
        if out[0] == "error":
            kinds.add(out[1].split()[0])
        else:
            kinds.update(k for k, *_ in out)
    assert kinds == {"expected", "unexpected", "EOF", "NUM", "NAME", "VAR", "MU", *_PUNCT.values()}


def test_lex_matches_the_two_loop_reference():
    mismatches = [
        src for src in _strings(28, SAMPLES) if _outcome(lex, src) != _outcome(_reference_lex, src)
    ]
    assert not mismatches, mismatches[:5]
