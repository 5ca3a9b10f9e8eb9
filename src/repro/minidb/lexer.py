"""SQL lexer for minidb.

Produces a flat list of :class:`Token` objects consumed by the
recursive-descent parser. The token language covers the SQL dialect minidb
executes: identifiers (optionally double-quoted), string literals with
doubled-quote escaping, numeric literals, operators, and punctuation.
Keywords are not distinguished here — the parser matches identifier tokens
case-insensitively against expected keywords (through each IDENT token's
precomputed ``upper``), which keeps the lexer small and lets column names
shadow non-reserved words.

The scanner is one compiled pattern walked with ``Pattern.finditer``: one
regex match per token, leading whitespace and comments included. Character
classes follow Python's ``str`` predicates (``isspace``/``isdigit``/
``isalpha``/``isalnum``), which differ from regex ``\\d``/``\\w`` outside
ASCII; a non-ASCII statement is matched against a same-length stand-in
text where each non-ASCII space, digit and letter is replaced by an ASCII
one of the same class (see :func:`_class_text`), so the pattern's ASCII
classes decide exactly what the predicates would, and token values are
sliced from the original text.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import SQLSyntaxError

# token kinds
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
PUNCT = "PUNCT"
PARAM = "PARAM"
EOF = "EOF"


class Token(NamedTuple):
    """A single lexical token with its source position (for error messages).

    ``upper`` is ``value.upper()`` for IDENT tokens (quoted ones included)
    and ``None`` for every other kind, so a keyword test is one set lookup.
    STRING, NUMBER and quoted-IDENT tokens record the position just past
    their end; the others record where they start.
    """

    kind: str
    value: str
    pos: int
    upper: str | None = None

    def matches_keyword(self, word: str) -> bool:
        return self.upper == word.upper()


# whitespace and comments before a token are consumed by the same match;
# the alternatives follow in the order the token kinds are tried, and each
# group number below is the token's ``Match.lastindex``. A match that ends
# the input after trailing whitespace has no group; ``(.)`` catches any
# character no token starts with (an unterminated quote, an illegal
# character), so consecutive matches tile the whole text
_TOKEN_RE = re.compile(
    r"(?:\s+|--[^\n]*\n?|/\*.*?\*/)*"
    r"(?:(/\*)"  # 1: unterminated block comment
    r"|'([^']*(?:''[^']*)*)'(?!')"  # 2: string body ('' escapes a quote)
    r'|"([^"]*)"'  # 3: quoted identifier
    r"|((?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"  # 4: number
    r"|([A-Za-z_]\w*)"  # 5: identifier (\w is exactly isalnum() or "_")
    r"|(<=|>=|<>|!=|\|\||[-+*/%<>=])"  # 6: operator
    r"|([(),.;])"  # 7: punctuation
    r"|(\?)"  # 8: positional parameter
    r"|(.)"  # 9: no token starts here
    r"|\Z)",
    re.DOTALL,
)
_OPEN_COMMENT, _STRING, _QUOTED, _NUMBER, _IDENT, _OP, _PUNCT, _PARAM = range(1, 9)
_new_token = tuple.__new__


def _stand_in(ch: str) -> str:
    """The ASCII character of ``ch``'s lexical class, or ``ch`` itself.

    Other characters keep their identity: a numeric non-digit such as
    ``'½'`` is ``isalnum`` (an identifier may continue with it, as ``\\w``
    allows) but cannot start a token, which no ASCII class expresses.
    """
    if ch.isspace():
        return " "
    if ch.isdigit():
        return "0"
    if ch.isalpha():
        return "a"
    return ch


def _class_text(sql: str) -> str:
    """``sql`` with each non-ASCII space/digit/letter replaced by an ASCII
    one of the same class; same length, so positions carry over."""
    if sql.isascii():
        return sql
    return sql.translate({ord(ch): _stand_in(ch) for ch in set(sql) if ch > "\x7f"})


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` into a list ending with an EOF token.

    Raises :class:`SQLSyntaxError` on unterminated strings or illegal
    characters.
    """
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(_class_text(sql)):
        group = m.lastindex
        if group is None:
            break  # trailing whitespace/comments up to the end of input
        if group == _IDENT:
            start, end = m.span(group)
            value = sql[start:end]
            append(_new_token(Token, (IDENT, value, start, value.upper())))
        elif group == _OP or group == _PUNCT:
            start, end = m.span(group)
            kind = OP if group == _OP else PUNCT
            append(_new_token(Token, (kind, sql[start:end], start, None)))
        elif group == _NUMBER:
            start, end = m.span(group)
            append(_new_token(Token, (NUMBER, sql[start:end], end, None)))
        elif group == _STRING:
            start, end = m.span(group)
            value = sql[start:end].replace("''", "'")
            append(_new_token(Token, (STRING, value, end + 1, None)))
        elif group == _QUOTED:
            start, end = m.span(group)
            value = sql[start:end]
            append(_new_token(Token, (IDENT, value, end + 1, value.upper())))
        elif group == _PARAM:
            append(_new_token(Token, (PARAM, "?", m.start(group), None)))
        else:
            raise _lex_error(sql, m.start(group))
    append(_new_token(Token, (EOF, "", len(sql), None)))
    return tokens


def _lex_error(sql: str, pos: int) -> SQLSyntaxError:
    """The error for a position no token starts at."""
    ch = sql[pos]
    if ch == "/":
        return SQLSyntaxError(f"unterminated comment at position {pos}")
    if ch == "'":
        return SQLSyntaxError(f"unterminated string literal at position {pos}")
    if ch == '"':
        return SQLSyntaxError(f"unterminated quoted identifier at position {pos}")
    return SQLSyntaxError(f"illegal character {ch!r} at position {pos}")
