"""Unit tests for the SQL lexer, and a differential property against the
character-at-a-time reference tokenizer (``reference_lexer.py``)."""

import pytest
import reference_lexer
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sql_conformance import CASES

from repro.minidb import parser
from repro.minidb.errors import SQLSyntaxError
from repro.minidb.lexer import EOF, IDENT, NUMBER, OP, PUNCT, STRING, Token, tokenize


def kinds(sql):
    return [t.kind for t in tokenize(sql)]


def values(sql):
    return [t.value for t in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == EOF

    def test_whitespace_only(self):
        assert kinds("  \n\t ") == [EOF]

    def test_identifier(self):
        tokens = tokenize("employees")
        assert tokens[0].kind == IDENT
        assert tokens[0].value == "employees"

    def test_identifier_with_underscore_and_digits(self):
        assert values("brand_A_sales2") == ["brand_A_sales2"]

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].kind == NUMBER
        assert tokens[0].value == "42"

    def test_float_literal(self):
        assert values("3.14") == ["3.14"]

    def test_scientific_notation(self):
        assert values("1e5 2.5E-3") == ["1e5", "2.5E-3"]

    def test_leading_dot_number(self):
        assert values(".5") == [".5"]

    def test_string_literal(self):
        tokens = tokenize("'hello'")
        assert tokens[0].kind == STRING
        assert tokens[0].value == "hello"

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_empty_string_literal(self):
        assert tokenize("''")[0].value == ""

    def test_quoted_identifier(self):
        tokens = tokenize('"My Table"')
        assert tokens[0].kind == IDENT
        assert tokens[0].value == "My Table"


class TestOperators:
    @pytest.mark.parametrize("op", ["<=", ">=", "<>", "!=", "||"])
    def test_two_char_operators(self, op):
        tokens = tokenize(f"a {op} b")
        assert tokens[1].kind == OP
        assert tokens[1].value == op

    @pytest.mark.parametrize("op", list("+-*/%<>="))
    def test_single_char_operators(self, op):
        tokens = tokenize(f"a {op} b")
        assert tokens[1].value == op

    def test_punctuation(self):
        tokens = tokenize("(a, b);")
        assert [t.value for t in tokens if t.kind == PUNCT] == ["(", ",", ")", ";"]

    def test_adjacent_operators_not_merged(self):
        # "a<-1" is "<" then unary "-"
        assert values("a<-1") == ["a", "<", "-", "1"]


class TestComments:
    def test_line_comment_skipped(self):
        assert values("SELECT -- comment\n 1") == ["SELECT", "1"]

    def test_line_comment_at_end(self):
        assert values("SELECT 1 -- trailing") == ["SELECT", "1"]

    def test_block_comment_skipped(self):
        assert values("SELECT /* stuff \n more */ 1") == ["SELECT", "1"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT /* oops")


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError, match="unterminated string"):
            tokenize("'abc")

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(SQLSyntaxError):
            tokenize('"abc')

    def test_illegal_character(self):
        with pytest.raises(SQLSyntaxError, match="illegal character"):
            tokenize("SELECT #")

    def test_keyword_matching_is_case_insensitive(self):
        token = tokenize("select")[0]
        assert token.matches_keyword("SELECT")
        assert token.matches_keyword("select")

    def test_positions_recorded(self):
        tokens = tokenize("ab cd")
        assert tokens[0].pos == 0
        assert tokens[1].pos == 3


class TestIdentifierUpper:
    def test_ident_tokens_carry_upper(self):
        tokens = tokenize('select "Mixed Case" Straße')
        assert [t.upper for t in tokens[:-1]] == ["SELECT", "MIXED CASE", "STRASSE"]

    def test_other_kinds_have_no_upper(self):
        tokens = tokenize("'select' 1 + ( ?")
        assert all(t.upper is None for t in tokens)


# ------------------------------------------------------------ differential

#: SQL fragments that sit at the lexer's decision points: keywords,
#: doubled-quote strings, quoted identifiers, number shapes the scanner
#: must stop inside ("1.", "1e", "1.2.3"), comments, and operators
FRAGMENTS = (
    "SELECT", "select", "FrOm", "where", "_x1", "a", "e", "E", "x",
    "'a''b'", "''", "'", "'x", '"Id"', '""', '"', "1", "42", "1.", ".5",
    "1e5", "1e", "1e+", "1E-3", "2.5e", "1.2.3", "..", ".", "0x1",
    "-- note\n", "--", "/* c */", "/*", "*/", "/*/", "\n", " ", "\t",
    "<=", ">=", "<>", "!=", "||", "|", "!", "+", "-", "*", "/", "%", "<",
    ">", "=", "(", ")", ",", ";", "?", "#", "$",
    # non-ASCII: str.isdigit/isalpha/isspace differ from regex \d/\w/\s
    # classes here (superscript and Arabic-Indic digits, a numeric
    # non-digit, ideographs, letters whose upper() grows, odd spaces)
    "²", "١٢", "½", "Ⅻ", "一", "ß", "é", "\u00a0", "\u2028", "\x1c",
)

sql_texts = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=3)), max_size=12
).map("".join)


def _lexed(tokenizer, sql):
    try:
        return [(t.kind, t.value, t.pos) for t in tokenizer(sql)]
    except SQLSyntaxError as exc:
        return str(exc)


@settings(max_examples=1500, derandomize=True)
@given(sql=sql_texts)
def test_tokenize_matches_reference(sql):
    assert _lexed(tokenize, sql) == _lexed(reference_lexer.tokenize, sql)


def _reference_tokens(sql):
    return [
        Token(t.kind, t.value, t.pos, t.value.upper() if t.kind == IDENT else None)
        for t in reference_lexer.tokenize(sql)
    ]


def _parsed(sql):
    try:
        return parser.parse(sql)
    except SQLSyntaxError as exc:
        return str(exc)


@pytest.mark.parametrize("sql", [sql for sql, _ in CASES])
def test_conformance_corpus_parses_the_same(sql, monkeypatch):
    expected = _parsed(sql)
    monkeypatch.setattr(parser, "tokenize", _reference_tokens)
    assert _parsed(sql) == expected
