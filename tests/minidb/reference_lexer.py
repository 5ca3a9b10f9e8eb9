"""Reference SQL tokenizer for the lexer differential test.

A verbatim copy of the character-at-a-time tokenizer minidb used before
the single-pattern scanner in ``repro.minidb.lexer``. It is test-only: the
differential property in ``test_lexer.py`` checks that the scanner yields
the same ``(kind, value, pos)`` tokens and the same ``SQLSyntaxError``
messages on any input.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.minidb.errors import SQLSyntaxError

# token kinds
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
PUNCT = "PUNCT"
PARAM = "PARAM"
EOF = "EOF"

_TWO_CHAR_OPS = ("<=", ">=", "<>", "!=", "||")
_ONE_CHAR_OPS = "+-*/%<>="
_PUNCT = "(),.;"


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position (for error messages)."""

    kind: str
    value: str
    pos: int

    def matches_keyword(self, word: str) -> bool:
        return self.kind == IDENT and self.value.upper() == word.upper()


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` into a list ending with an EOF token.

    Raises :class:`SQLSyntaxError` on unterminated strings or illegal
    characters.
    """
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            newline = sql.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end < 0:
                raise SQLSyntaxError(f"unterminated comment at position {i}")
            i = end + 2
            continue
        if ch == "'":
            value, i = _read_string(sql, i)
            tokens.append(Token(STRING, value, i))
            continue
        if ch == '"':
            value, i = _read_quoted_identifier(sql, i)
            tokens.append(Token(IDENT, value, i))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            value, i = _read_number(sql, i)
            tokens.append(Token(NUMBER, value, i))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            tokens.append(Token(IDENT, sql[start:i], start))
            continue
        if sql[i : i + 2] in _TWO_CHAR_OPS:
            tokens.append(Token(OP, sql[i : i + 2], i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(OP, ch, i))
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(PUNCT, ch, i))
            i += 1
            continue
        if ch == "?":
            tokens.append(Token(PARAM, "?", i))
            i += 1
            continue
        raise SQLSyntaxError(f"illegal character {ch!r} at position {i}")
    tokens.append(Token(EOF, "", n))
    return tokens


def _read_string(sql: str, start: int) -> tuple[str, int]:
    """Read a single-quoted string literal starting at ``start``.

    SQL escapes a quote by doubling it: ``'it''s'`` → ``it's``.
    """
    parts: list[str] = []
    i = start + 1
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise SQLSyntaxError(f"unterminated string literal at position {start}")


def _read_quoted_identifier(sql: str, start: int) -> tuple[str, int]:
    end = sql.find('"', start + 1)
    if end < 0:
        raise SQLSyntaxError(f"unterminated quoted identifier at position {start}")
    return sql[start + 1 : end], end + 1


def _read_number(sql: str, start: int) -> tuple[str, int]:
    i = start
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            # exponent must be followed by optional sign + digits
            j = i + 1
            if j < n and sql[j] in "+-":
                j += 1
            if j < n and sql[j].isdigit():
                seen_exp = True
                i = j
            else:
                break
        else:
            break
    return sql[start:i], i
