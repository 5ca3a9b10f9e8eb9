"""Recursive-descent SQL parser for minidb.

Entry points:

* :func:`parse` — parse a single statement (trailing semicolon allowed).
* :func:`parse_script` — parse a ``;``-separated script into a list.

The dialect covers the subset of SQL the BridgeScope toolkit and its
benchmarks exercise: SELECT with joins/aggregation/subqueries/set ops, the
three DML statements, core DDL, transaction control, and GRANT/REVOKE with
optional column lists.
"""

from __future__ import annotations

from . import ast_nodes as ast
from .errors import SQLSyntaxError
from .lexer import EOF, IDENT, NUMBER, OP, PARAM, PUNCT, STRING, Token, tokenize

_JOIN_KINDS = {"INNER", "LEFT", "RIGHT", "CROSS", "FULL"}
_PRIVILEGE_ACTIONS = {
    "SELECT",
    "INSERT",
    "UPDATE",
    "DELETE",
    "CREATE",
    "DROP",
    "ALTER",
    "ALL",
}


def parse(sql: str) -> ast.Statement:
    """Parse exactly one SQL statement. Raises :class:`SQLSyntaxError`."""
    parser = _Parser(tokenize(sql), sql)
    stmt = parser.parse_statement()
    parser.skip_semicolons()
    parser.expect_eof()
    return stmt


def parse_script(sql: str) -> list[ast.Statement]:
    """Parse a semicolon-separated script into a statement list."""
    parser = _Parser(tokenize(sql), sql)
    statements: list[ast.Statement] = []
    parser.skip_semicolons()
    while not parser.at_eof():
        statements.append(parser.parse_statement())
        parser.skip_semicolons()
    return statements


def statement_action(stmt: ast.Statement) -> str:
    """The privilege action a statement requires (SELECT/INSERT/...)."""
    mapping = {
        ast.SelectStatement: "SELECT",
        ast.InsertStatement: "INSERT",
        ast.UpdateStatement: "UPDATE",
        ast.DeleteStatement: "DELETE",
        ast.CreateTableStatement: "CREATE",
        ast.CreateIndexStatement: "CREATE",
        ast.CreateViewStatement: "CREATE",
        ast.DropTableStatement: "DROP",
        ast.DropIndexStatement: "DROP",
        ast.DropViewStatement: "DROP",
        ast.AlterTableStatement: "ALTER",
        ast.AnalyzeStatement: "ALTER",  # maintenance: table-owner surface
    }
    for klass, action in mapping.items():
        if isinstance(stmt, klass):
            return action
    return "OTHER"


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.source = source
        self.pos = 0

    # ---------------------------------------------------------------- utils

    def peek(self, offset: int = 0) -> Token:
        if not offset:
            return self.tokens[self.pos]
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != EOF:
            self.pos += 1
        return token

    def at_eof(self) -> bool:
        return self.tokens[self.pos].kind == EOF

    def check_keyword(self, *words: str) -> bool:
        """Whether the next token is one of ``words`` (upper-case literals);
        non-IDENT tokens have ``upper`` None and never match."""
        return self.tokens[self.pos].upper in words

    def match_keyword(self, *words: str) -> bool:
        if self.tokens[self.pos].upper in words:
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.match_keyword(word):
            raise self.error(f"expected {word}")

    def match_punct(self, value: str) -> bool:
        token = self.peek()
        if token.kind == PUNCT and token.value == value:
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> None:
        if not self.match_punct(value):
            raise self.error(f"expected {value!r}")

    def match_op(self, *values: str) -> str | None:
        token = self.peek()
        if token.kind == OP and token.value in values:
            self.advance()
            return token.value
        return None

    def expect_identifier(self, what: str = "identifier") -> str:
        token = self.peek()
        if token.kind != IDENT:
            raise self.error(f"expected {what}")
        self.advance()
        return token.value

    def skip_semicolons(self) -> None:
        while self.match_punct(";"):
            pass

    def expect_eof(self) -> None:
        if not self.at_eof():
            raise self.error("unexpected trailing input")

    def error(self, message: str) -> SQLSyntaxError:
        token = self.peek()
        found = token.value or "<end of input>"
        return SQLSyntaxError(
            f"{message} near {found!r} (position {token.pos}) in: {self.source.strip()[:120]}"
        )

    # ----------------------------------------------------------- statements

    def parse_statement(self) -> ast.Statement:
        parse_kind = _STATEMENT_PARSERS.get(self.tokens[self.pos].upper)
        if parse_kind is None:
            raise self.error("expected a SQL statement")
        return parse_kind(self)

    def parse_explain(self) -> ast.ExplainStatement:
        self.expect_keyword("EXPLAIN")
        analyze = self.match_keyword("ANALYZE")
        return ast.ExplainStatement(self.parse_select(), analyze=analyze)

    def parse_analyze(self) -> ast.AnalyzeStatement:
        self.expect_keyword("ANALYZE")
        table = None
        if self.peek().kind == IDENT:
            table = self.expect_identifier("table name")
        return ast.AnalyzeStatement(table)

    def parse_begin(self) -> ast.BeginStatement:
        # BEGIN [TRANSACTION] | [BEGIN] START TRANSACTION
        self.match_keyword("BEGIN")
        if self.match_keyword("START"):
            self.expect_keyword("TRANSACTION")
        else:
            self.match_keyword("TRANSACTION")
        return ast.BeginStatement()

    def parse_commit(self) -> ast.CommitStatement:
        self.expect_keyword("COMMIT")
        self.match_keyword("TRANSACTION")
        return ast.CommitStatement()

    def parse_rollback(self) -> ast.RollbackStatement:
        self.expect_keyword("ROLLBACK")
        self.match_keyword("TRANSACTION")
        if self.match_keyword("TO"):
            self.match_keyword("SAVEPOINT")
            return ast.RollbackStatement(savepoint=self.expect_identifier())
        return ast.RollbackStatement()

    def parse_savepoint(self) -> ast.SavepointStatement:
        self.expect_keyword("SAVEPOINT")
        return ast.SavepointStatement(self.expect_identifier())

    def parse_release(self) -> ast.ReleaseSavepointStatement:
        self.expect_keyword("RELEASE")
        self.match_keyword("SAVEPOINT")
        return ast.ReleaseSavepointStatement(self.expect_identifier())

    # -------------------------------------------------------------- SELECT

    def parse_select(self) -> ast.SelectStatement:
        self.expect_keyword("SELECT")
        distinct = False
        if self.match_keyword("DISTINCT"):
            distinct = True
        elif self.match_keyword("ALL"):
            pass

        items = [self.parse_select_item()]
        while self.match_punct(","):
            items.append(self.parse_select_item())

        from_sources: list[ast.TableRef | ast.SubqueryRef] = []
        joins: list[ast.Join] = []
        if self.match_keyword("FROM"):
            from_sources.append(self.parse_table_source())
            while True:
                if self.match_punct(","):
                    from_sources.append(self.parse_table_source())
                    continue
                join = self.try_parse_join()
                if join is None:
                    break
                joins.append(join)

        where = self.parse_expression() if self.match_keyword("WHERE") else None

        group_by: list[ast.Expr] = []
        if self.match_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expression())
            while self.match_punct(","):
                group_by.append(self.parse_expression())

        having = self.parse_expression() if self.match_keyword("HAVING") else None

        stmt = ast.SelectStatement(
            items=items,
            from_sources=from_sources,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

        set_kind = None
        if self.match_keyword("UNION"):
            set_kind = "UNION ALL" if self.match_keyword("ALL") else "UNION"
        elif self.match_keyword("INTERSECT"):
            set_kind = "INTERSECT"
        elif self.match_keyword("EXCEPT"):
            set_kind = "EXCEPT"
        if set_kind is not None:
            rhs = self.parse_select()
            # ORDER BY / LIMIT written after the rhs bind to the whole set
            # operation (standard SQL); hoist them to the outer statement.
            stmt.set_op = (set_kind, rhs)
            stmt.order_by, rhs.order_by = rhs.order_by, []
            stmt.limit, rhs.limit = rhs.limit, None
            stmt.offset, rhs.offset = rhs.offset, None
            return stmt

        if self.match_keyword("ORDER"):
            self.expect_keyword("BY")
            stmt.order_by.append(self.parse_order_item())
            while self.match_punct(","):
                stmt.order_by.append(self.parse_order_item())

        if self.match_keyword("LIMIT"):
            stmt.limit = self.parse_nonnegative_int("LIMIT")
            if self.match_keyword("OFFSET"):
                stmt.offset = self.parse_nonnegative_int("OFFSET")
        elif self.match_keyword("OFFSET"):
            stmt.offset = self.parse_nonnegative_int("OFFSET")

        return stmt

    def parse_nonnegative_int(self, clause: str) -> int:
        token = self.peek()
        if token.kind != NUMBER:
            raise self.error(f"expected integer after {clause}")
        self.advance()
        try:
            value = int(token.value)
        except ValueError:
            raise self.error(f"{clause} requires an integer") from None
        if value < 0:
            raise self.error(f"{clause} must be non-negative")
        return value

    def parse_select_item(self) -> ast.SelectItem:
        token = self.peek()
        # bare * or table.*
        if token.kind == OP and token.value == "*":
            self.advance()
            return ast.SelectItem(ast.Star())
        if (
            token.kind == IDENT
            and self.peek(1).kind == PUNCT
            and self.peek(1).value == "."
            and self.peek(2).kind == OP
            and self.peek(2).value == "*"
        ):
            self.advance()
            self.advance()
            self.advance()
            return ast.SelectItem(ast.Star(table=token.value))
        expr = self.parse_expression()
        alias = None
        if self.match_keyword("AS"):
            alias = self.expect_identifier("alias")
        elif self.peek().kind == IDENT and not self._is_clause_boundary():
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    _CLAUSE_WORDS = {
        "FROM",
        "WHERE",
        "GROUP",
        "HAVING",
        "ORDER",
        "LIMIT",
        "OFFSET",
        "UNION",
        "INTERSECT",
        "EXCEPT",
        "ON",
        "INNER",
        "LEFT",
        "RIGHT",
        "FULL",
        "CROSS",
        "JOIN",
        "AND",
        "OR",
        "AS",
        "SET",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
        "ASC",
        "DESC",
    }

    def _is_clause_boundary(self) -> bool:
        return self.tokens[self.pos].upper in self._CLAUSE_WORDS

    def parse_table_source(self) -> ast.TableRef | ast.SubqueryRef:
        if self.match_punct("("):
            subquery = self.parse_select()
            self.expect_punct(")")
            self.match_keyword("AS")
            alias = self.expect_identifier("subquery alias")
            return ast.SubqueryRef(subquery, alias)
        name = self.expect_identifier("table name")
        if self.match_punct("."):
            # dotted relations name the observability system views
            # (system.statements etc.); user tables cannot contain a dot
            # unless quoted, in which case the lexer already produced a
            # single IDENT token and no '.' punct follows
            name = f"{name}.{self.expect_identifier('table name')}"
        alias = None
        if self.match_keyword("AS"):
            alias = self.expect_identifier("alias")
        elif self.peek().kind == IDENT and not self._is_clause_boundary():
            alias = self.advance().value
        return ast.TableRef(name, alias)

    def try_parse_join(self) -> ast.Join | None:
        kind = None
        if self.check_keyword("JOIN"):
            self.advance()
            kind = "INNER"
        else:
            upper = self.peek().upper
            if upper in _JOIN_KINDS:
                kind = upper
                self.advance()
                self.match_keyword("OUTER")
                self.expect_keyword("JOIN")
                if kind == "FULL":
                    raise self.error("FULL OUTER JOIN is not supported")
        if kind is None:
            return None
        source = self.parse_table_source()
        condition = None
        if kind != "CROSS":
            self.expect_keyword("ON")
            condition = self.parse_expression()
        return ast.Join(kind, source, condition)

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expression()
        descending = False
        if self.match_keyword("DESC"):
            descending = True
        else:
            self.match_keyword("ASC")
        return ast.OrderItem(expr, descending)

    # ----------------------------------------------------------------- DML

    def parse_insert(self) -> ast.InsertStatement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier("table name")
        columns: list[str] | None = None
        if self.match_punct("("):
            columns = [self.expect_identifier("column name")]
            while self.match_punct(","):
                columns.append(self.expect_identifier("column name"))
            self.expect_punct(")")
        if self.check_keyword("SELECT"):
            return ast.InsertStatement(table, columns, rows=None, select=self.parse_select())
        self.expect_keyword("VALUES")
        rows = [self.parse_value_row()]
        while self.match_punct(","):
            rows.append(self.parse_value_row())
        return ast.InsertStatement(table, columns, rows=rows)

    def parse_value_row(self) -> list[ast.Expr]:
        self.expect_punct("(")
        row = [self.parse_expression()]
        while self.match_punct(","):
            row.append(self.parse_expression())
        self.expect_punct(")")
        return row

    def parse_update(self) -> ast.UpdateStatement:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier("table name")
        self.expect_keyword("SET")
        assignments = [self.parse_assignment()]
        while self.match_punct(","):
            assignments.append(self.parse_assignment())
        where = self.parse_expression() if self.match_keyword("WHERE") else None
        return ast.UpdateStatement(table, assignments, where)

    def parse_assignment(self) -> tuple[str, ast.Expr]:
        column = self.expect_identifier("column name")
        if not self.match_op("="):
            raise self.error("expected '=' in SET clause")
        return column, self.parse_expression()

    def parse_delete(self) -> ast.DeleteStatement:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_identifier("table name")
        where = self.parse_expression() if self.match_keyword("WHERE") else None
        return ast.DeleteStatement(table, where)

    # ----------------------------------------------------------------- DDL

    def parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.match_keyword("TABLE"):
            return self.parse_create_table()
        if self.match_keyword("UNIQUE"):
            self.expect_keyword("INDEX")
            return self.parse_create_index(unique=True)
        if self.match_keyword("INDEX"):
            return self.parse_create_index(unique=False)
        or_replace = False
        if self.match_keyword("OR"):
            self.expect_keyword("REPLACE")
            or_replace = True
        if self.match_keyword("VIEW"):
            name = self.expect_identifier("view name")
            self.expect_keyword("AS")
            return ast.CreateViewStatement(name, self.parse_select(), or_replace)
        raise self.error("expected TABLE, INDEX, or VIEW after CREATE")

    def parse_create_table(self) -> ast.CreateTableStatement:
        if_not_exists = self._match_if_not_exists()
        table = self.expect_identifier("table name")
        self.expect_punct("(")
        stmt = ast.CreateTableStatement(table, columns=[], if_not_exists=if_not_exists)
        while True:
            if self.check_keyword("PRIMARY"):
                self.advance()
                self.expect_keyword("KEY")
                stmt.primary_key = self.parse_paren_name_list()
            elif self.check_keyword("FOREIGN"):
                self.advance()
                self.expect_keyword("KEY")
                columns = self.parse_paren_name_list()
                self.expect_keyword("REFERENCES")
                ref_table = self.expect_identifier("referenced table")
                ref_columns = (
                    self.parse_paren_name_list()
                    if self.peek().kind == PUNCT and self.peek().value == "("
                    else []
                )
                stmt.foreign_keys.append(
                    ast.ForeignKeyDef(columns, ref_table, ref_columns)
                )
            elif self.check_keyword("UNIQUE") and self.peek(1).value == "(":
                self.advance()
                stmt.uniques.append(self.parse_paren_name_list())
            elif self.check_keyword("CHECK") and self.peek(1).value == "(":
                self.advance()
                self.expect_punct("(")
                stmt.checks.append(self.parse_expression())
                self.expect_punct(")")
            else:
                stmt.columns.append(self.parse_column_def())
            if not self.match_punct(","):
                break
        self.expect_punct(")")
        return stmt

    def _match_if_not_exists(self) -> bool:
        if self.check_keyword("IF"):
            self.advance()
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            return True
        return False

    def _match_if_exists(self) -> bool:
        if self.check_keyword("IF"):
            self.advance()
            self.expect_keyword("EXISTS")
            return True
        return False

    def parse_paren_name_list(self) -> list[str]:
        self.expect_punct("(")
        names = [self.expect_identifier("name")]
        while self.match_punct(","):
            names.append(self.expect_identifier("name"))
        self.expect_punct(")")
        return names

    def parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_identifier("column name")
        declared = self.expect_identifier("column type")
        # optional length: VARCHAR(40) / NUMERIC(10,2)
        if self.peek().kind == PUNCT and self.peek().value == "(":
            self.advance()
            length_parts = [self.advance().value]
            while self.match_punct(","):
                length_parts.append(self.advance().value)
            self.expect_punct(")")
            declared = f"{declared}({','.join(length_parts)})"
        column = ast.ColumnDef(name, declared)
        while True:
            if self.match_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                column.primary_key = True
            elif self.check_keyword("NOT"):
                self.advance()
                self.expect_keyword("NULL")
                column.not_null = True
            elif self.match_keyword("NULL"):
                pass
            elif self.match_keyword("UNIQUE"):
                column.unique = True
            elif self.match_keyword("DEFAULT"):
                column.default = self.parse_primary()
            elif self.check_keyword("CHECK"):
                self.advance()
                self.expect_punct("(")
                column.check = self.parse_expression()
                self.expect_punct(")")
            elif self.match_keyword("REFERENCES"):
                ref_table = self.expect_identifier("referenced table")
                ref_column = ""
                if self.match_punct("("):
                    ref_column = self.expect_identifier("referenced column")
                    self.expect_punct(")")
                column.references = (ref_table, ref_column)
            else:
                break
        return column

    def parse_create_index(self, unique: bool) -> ast.CreateIndexStatement:
        if_not_exists = self._match_if_not_exists()
        name = self.expect_identifier("index name")
        self.expect_keyword("ON")
        table = self.expect_identifier("table name")
        using = None
        if self.match_keyword("USING"):
            method = self.expect_identifier("index method").upper()
            if method not in ("BTREE", "HASH"):
                raise self.error(f"unknown index method {method!r}")
            using = method
        columns = self.parse_paren_name_list()
        return ast.CreateIndexStatement(
            name, table, columns, unique, if_not_exists, using
        )

    def parse_drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.match_keyword("TABLE"):
            if_exists = self._match_if_exists()
            tables = [self.expect_identifier("table name")]
            while self.match_punct(","):
                tables.append(self.expect_identifier("table name"))
            cascade = bool(self.match_keyword("CASCADE"))
            self.match_keyword("RESTRICT")
            return ast.DropTableStatement(tables, if_exists, cascade)
        if self.match_keyword("INDEX"):
            if_exists = self._match_if_exists()
            return ast.DropIndexStatement(self.expect_identifier("index name"), if_exists)
        if self.match_keyword("VIEW"):
            if_exists = self._match_if_exists()
            names = [self.expect_identifier("view name")]
            while self.match_punct(","):
                names.append(self.expect_identifier("view name"))
            return ast.DropViewStatement(names, if_exists)
        if self.match_keyword("DATABASE"):
            # deliberately parsed so the security layer can reject it by rule
            name = self.expect_identifier("database name")
            return ast.DropTableStatement([name], if_exists=False, cascade=True)
        raise self.error("expected TABLE, INDEX, VIEW, or DATABASE after DROP")

    def parse_alter(self) -> ast.AlterTableStatement:
        self.expect_keyword("ALTER")
        self.expect_keyword("TABLE")
        table = self.expect_identifier("table name")
        if self.match_keyword("ADD"):
            self.match_keyword("COLUMN")
            return ast.AlterTableStatement(
                table, "ADD_COLUMN", column=self.parse_column_def()
            )
        if self.match_keyword("DROP"):
            self.match_keyword("COLUMN")
            return ast.AlterTableStatement(
                table, "DROP_COLUMN", old_name=self.expect_identifier("column name")
            )
        if self.match_keyword("RENAME"):
            if self.match_keyword("TO"):
                return ast.AlterTableStatement(
                    table, "RENAME_TABLE", new_name=self.expect_identifier("new name")
                )
            self.match_keyword("COLUMN")
            old = self.expect_identifier("column name")
            self.expect_keyword("TO")
            new = self.expect_identifier("new column name")
            return ast.AlterTableStatement(
                table, "RENAME_COLUMN", old_name=old, new_name=new
            )
        raise self.error("expected ADD, DROP, or RENAME after ALTER TABLE")

    # -------------------------------------------------------- GRANT/REVOKE

    def parse_grant_revoke(self) -> ast.Statement:
        grant = self.advance().upper == "GRANT"  # else REVOKE
        actions: list[str] = []
        columns: list[str] | None = None
        while True:
            action = self.expect_identifier("privilege action").upper()
            if action not in _PRIVILEGE_ACTIONS:
                raise self.error(f"unknown privilege action {action!r}")
            actions.append(action)
            if action == "ALL":
                self.match_keyword("PRIVILEGES")
            if self.peek().kind == PUNCT and self.peek().value == "(":
                columns = self.parse_paren_name_list()
            if not self.match_punct(","):
                break
        self.expect_keyword("ON")
        self.match_keyword("TABLE")
        objects = [self._grant_object()]
        while self.match_punct(","):
            objects.append(self._grant_object())
        self.expect_keyword("TO" if grant else "FROM")
        grantee = self.expect_identifier("grantee")
        if grant:
            return ast.GrantStatement(actions, columns, objects, grantee)
        return ast.RevokeStatement(actions, columns, objects, grantee)

    def _grant_object(self) -> str:
        """An object name in GRANT/REVOKE; ``*`` means database-wide."""
        if self.match_op("*"):
            return "*"
        return self.expect_identifier("object name")

    # ---------------------------------------------------------- expressions

    def parse_expression(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.match_keyword("OR"):
            left = ast.BinaryOp("OR", left, self.parse_and())
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_not()
        while self.match_keyword("AND"):
            left = ast.BinaryOp("AND", left, self.parse_not())
        return left

    def parse_not(self) -> ast.Expr:
        if self.match_keyword("NOT"):
            return ast.UnaryOp("NOT", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> ast.Expr:
        if self.check_keyword("EXISTS"):
            self.advance()
            self.expect_punct("(")
            subquery = self.parse_select()
            self.expect_punct(")")
            return ast.ExistsExpr(subquery)
        left = self.parse_comparison()
        # postfix predicates: IS [NOT] NULL, [NOT] IN/BETWEEN/LIKE
        while True:
            if self.match_keyword("IS"):
                negated = bool(self.match_keyword("NOT"))
                self.expect_keyword("NULL")
                left = ast.IsNullExpr(left, negated)
                continue
            negated = False
            save = self.pos
            if self.match_keyword("NOT"):
                negated = True
            if self.match_keyword("IN"):
                left = self.parse_in_tail(left, negated)
                continue
            if self.match_keyword("BETWEEN"):
                low = self.parse_comparison()
                self.expect_keyword("AND")
                high = self.parse_comparison()
                left = ast.BetweenExpr(left, low, high, negated)
                continue
            if self.match_keyword("LIKE"):
                left = ast.LikeExpr(left, self.parse_comparison(), negated)
                continue
            if self.match_keyword("ILIKE"):
                left = ast.LikeExpr(
                    left, self.parse_comparison(), negated, case_insensitive=True
                )
                continue
            if negated:
                self.pos = save  # NOT belonged to an enclosing parse_not
            break
        return left

    def parse_in_tail(self, operand: ast.Expr, negated: bool) -> ast.InExpr:
        self.expect_punct("(")
        if self.check_keyword("SELECT"):
            subquery = self.parse_select()
            self.expect_punct(")")
            return ast.InExpr(operand, subquery, negated)
        candidates = [self.parse_expression()]
        while self.match_punct(","):
            candidates.append(self.parse_expression())
        self.expect_punct(")")
        return ast.InExpr(operand, candidates, negated)

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_additive()
        op = self.match_op("=", "<>", "!=", "<", "<=", ">", ">=")
        if op:
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, left, self.parse_additive())
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while True:
            op = self.match_op("+", "-", "||")
            if not op:
                return left
            left = ast.BinaryOp(op, left, self.parse_multiplicative())

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_unary()
        while True:
            op = self.match_op("*", "/", "%")
            if not op:
                return left
            left = ast.BinaryOp(op, left, self.parse_unary())

    def parse_unary(self) -> ast.Expr:
        op = self.match_op("-", "+")
        if op:
            return ast.UnaryOp(op, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == NUMBER:
            self.advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if token.kind == STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.kind == PARAM:
            raise self.error("positional parameters are not supported")
        if token.kind == PUNCT and token.value == "(":
            self.advance()
            if self.check_keyword("SELECT"):
                subquery = self.parse_select()
                self.expect_punct(")")
                return ast.ScalarSubquery(subquery)
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        if token.kind == IDENT:
            upper = token.upper
            if upper == "NULL":
                self.advance()
                return ast.Literal(None)
            if upper == "TRUE":
                self.advance()
                return ast.Literal(True)
            if upper == "FALSE":
                self.advance()
                return ast.Literal(False)
            if upper == "CASE":
                return self.parse_case()
            if upper == "CAST":
                return self.parse_cast()
            if upper == "NOT":
                self.advance()
                return ast.UnaryOp("NOT", self.parse_not())
            # function call?
            if self.peek(1).kind == PUNCT and self.peek(1).value == "(":
                return self.parse_function_call()
            return self.parse_column_ref()
        raise self.error("expected an expression")

    def parse_case(self) -> ast.CaseExpr:
        self.expect_keyword("CASE")
        operand = None
        if not self.check_keyword("WHEN"):
            operand = self.parse_expression()
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.match_keyword("WHEN"):
            condition = self.parse_expression()
            self.expect_keyword("THEN")
            whens.append((condition, self.parse_expression()))
        if not whens:
            raise self.error("CASE requires at least one WHEN branch")
        default = self.parse_expression() if self.match_keyword("ELSE") else None
        self.expect_keyword("END")
        return ast.CaseExpr(operand, whens, default)

    def parse_cast(self) -> ast.CastExpr:
        self.expect_keyword("CAST")
        self.expect_punct("(")
        operand = self.parse_expression()
        self.expect_keyword("AS")
        target = self.expect_identifier("type name")
        if self.peek().kind == PUNCT and self.peek().value == "(":
            self.advance()
            length = self.advance().value
            self.expect_punct(")")
            target = f"{target}({length})"
        self.expect_punct(")")
        return ast.CastExpr(operand, target)

    def parse_function_call(self) -> ast.FunctionCall:
        name = self.advance().upper
        self.expect_punct("(")
        distinct = bool(self.match_keyword("DISTINCT"))
        args: list[ast.Expr] = []
        if not (self.peek().kind == PUNCT and self.peek().value == ")"):
            if self.peek().kind == OP and self.peek().value == "*":
                self.advance()
                args.append(ast.Star())
            else:
                args.append(self.parse_expression())
                while self.match_punct(","):
                    args.append(self.parse_expression())
        self.expect_punct(")")
        return ast.FunctionCall(name, args, distinct)

    def parse_column_ref(self) -> ast.ColumnRef:
        first = self.expect_identifier("column name")
        if self.peek().kind == PUNCT and self.peek().value == ".":
            self.advance()
            second = self.expect_identifier("column name")
            return ast.ColumnRef(second, table=first)
        return ast.ColumnRef(first)


#: the statement parser for each leading keyword; every parser consumes
#: that keyword itself
_STATEMENT_PARSERS = {
    "EXPLAIN": _Parser.parse_explain,
    "SELECT": _Parser.parse_select,
    "INSERT": _Parser.parse_insert,
    "UPDATE": _Parser.parse_update,
    "DELETE": _Parser.parse_delete,
    "CREATE": _Parser.parse_create,
    "DROP": _Parser.parse_drop,
    "ALTER": _Parser.parse_alter,
    "ANALYZE": _Parser.parse_analyze,
    "BEGIN": _Parser.parse_begin,
    "START": _Parser.parse_begin,
    "COMMIT": _Parser.parse_commit,
    "ROLLBACK": _Parser.parse_rollback,
    "SAVEPOINT": _Parser.parse_savepoint,
    "RELEASE": _Parser.parse_release,
    "GRANT": _Parser.parse_grant_revoke,
    "REVOKE": _Parser.parse_grant_revoke,
}
