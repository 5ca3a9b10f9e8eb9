"""EXPLAIN and execution choose the same table scans.

Two properties over randomly generated, type-consistent statements
(fixed-seed Hypothesis), with and without ``ANALYZE`` statistics, over
hash, btree and composite indexes:

* For single-table and two-table-join SELECTs, the path kind of every
  EXPLAIN scan line (seq/index/range/union/ordered) equals the kind of the
  scan event the statement records for that binding when it runs, and the
  ``(batched)`` annotation appears exactly when the statement bumped
  ``batch_scans``.
* ``UPDATE`` and ``DELETE`` (run inside ``BEGIN ... ROLLBACK``) bump the
  same access-path counter as a ``SELECT`` with the same WHERE clause.
* For joins whose sides are base tables, derived tables or views, every
  EXPLAIN (and EXPLAIN ANALYZE) join line names the strategy of the join
  event the statement records when it runs.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb import Database

#: table -> column -> type ("int" | "text"); ``id`` is in both tables, so
#: it is only ever referenced qualified in joins
TABLES = {
    "t": {"id": "int", "a": "int", "b": "int", "c": "text", "d": "int"},
    "u": {"id": "int", "t_id": "int", "w": "int", "e": "text"},
}
TEXTS = ("p", "q", "r", "s")
ACCESS_COUNTERS = ("seq_scans", "index_scans", "range_scans", "union_scans")

_LINE_KINDS = (
    ("Ordered Index Scan", "ordered"),
    ("Index Range Scan", "range"),
    ("Index Union Scan", "union"),
    ("Index Scan", "index"),
    ("Seq Scan", "seq"),
)


@pytest.fixture(scope="module", params=[False, True], ids=["static", "analyzed"])
def session(request):
    """One database per statistics mode, shared by every example: the
    statements leave no changes behind (SELECTs, and DML rolled back)."""
    db = Database(owner="admin")
    s = db.connect("admin")
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c TEXT, d INT)")
    s.execute("CREATE TABLE u (id INT PRIMARY KEY, t_id INT, w INT, e TEXT)")
    s.execute("CREATE INDEX ix_t_a ON t (a)")
    s.execute("CREATE INDEX ix_t_b ON t USING BTREE (b)")
    s.execute("CREATE INDEX ix_t_cd ON t USING BTREE (c, d)")
    s.execute("CREATE INDEX ix_t_ad ON t (a, d)")
    s.execute("CREATE INDEX ix_u_t ON u (t_id)")
    s.execute("CREATE INDEX ix_u_w ON u USING BTREE (w)")
    s.execute("CREATE INDEX ix_u_we ON u USING BTREE (w, e)")
    s.execute("CREATE VIEW vt AS SELECT id AS k, a FROM t")
    s.execute("CREATE VIEW vu AS SELECT t_id AS tk, w FROM u")
    for n in range(60):
        b = "NULL" if n % 11 == 0 else str((n * 7) % 20)
        s.execute(
            f"INSERT INTO t VALUES ({n}, {n % 6}, {b}, "
            f"'{TEXTS[n % 4]}', {n % 9})"
        )
    for n in range(40):
        w = "NULL" if n % 13 == 0 else str(n % 15)
        s.execute(
            f"INSERT INTO u VALUES ({n}, {(n * 3) % 70}, {w}, "
            f"'{TEXTS[(n // 3) % 4]}')"
        )
    if request.param:
        s.execute("ANALYZE")
    return s


# ------------------------------------------------------------- generators


def _literal(kind: str):
    if kind == "int":
        return st.integers(min_value=-2, max_value=22).map(str)
    return st.sampled_from(TEXTS).map(lambda v: f"'{v}'")


@st.composite
def _atom(draw, table: str, qualifiers: tuple[str, ...], allow_id: bool = True):
    """One WHERE conjunct over one column of ``table``."""
    columns = [c for c in TABLES[table] if allow_id or c != "id"]
    column = draw(st.sampled_from(columns))
    kind = TABLES[table][column]
    qualifier = draw(st.sampled_from(qualifiers))
    ref = f"{qualifier}.{column}" if qualifier else column
    lit = _literal(kind)
    shape = draw(
        st.sampled_from(
            ("eq", "eq", "cmp", "cmp_flipped", "between", "in", "or", "or_mixed",
             "is_null", "not_eq")
        )
    )
    if shape == "eq":
        return f"{ref} = {draw(lit)}"
    if shape in ("cmp", "cmp_flipped"):
        op = draw(st.sampled_from(("<", "<=", ">", ">=")))
        if shape == "cmp":
            return f"{ref} {op} {draw(lit)}"
        return f"{draw(lit)} {op} {ref}"
    if shape == "between":
        return f"{ref} BETWEEN {draw(lit)} AND {draw(lit)}"
    if shape == "in":
        members = draw(st.lists(st.one_of(lit, st.just("NULL")), min_size=1, max_size=4))
        return f"{ref} IN ({', '.join(members)})"
    if shape == "or":
        disjuncts = []
        for _ in range(draw(st.integers(min_value=2, max_value=3))):
            if draw(st.booleans()):
                disjuncts.append(f"{ref} = {draw(lit)}")
            else:
                op = draw(st.sampled_from(("<", ">=")))
                disjuncts.append(f"{ref} {op} {draw(lit)}")
        return "(" + " OR ".join(disjuncts) + ")"
    if shape == "or_mixed":  # spans two columns: never an index union
        other = draw(st.sampled_from([c for c in columns if c != column]))
        other_ref = f"{qualifier}.{other}" if qualifier else other
        other_lit = _literal(TABLES[table][other])
        return f"({ref} = {draw(lit)} OR {other_ref} = {draw(other_lit)})"
    if shape == "is_null":
        return f"{ref} IS NULL"
    return f"NOT {ref} = {draw(lit)}"


@st.composite
def _where(draw, table: str, qualifiers: tuple[str, ...], max_atoms: int = 3):
    atoms = draw(st.lists(_atom(table, qualifiers), min_size=0, max_size=max_atoms))
    return " AND ".join(atoms) if atoms else None


@st.composite
def single_table_selects(draw):
    table = draw(st.sampled_from(tuple(TABLES)))
    alias = draw(st.sampled_from((None, "x")))
    binding = alias or table
    where = draw(_where(table, (None, binding)))
    columns = list(TABLES[table])
    shape = draw(st.sampled_from(("star", "count", "ordered", "ordered", "grouped")))
    from_clause = f"{table} AS {alias}" if alias else table
    sql_where = f" WHERE {where}" if where else ""
    if shape == "star":
        sql = f"SELECT * FROM {from_clause}{sql_where}"
    elif shape == "count":
        sql = f"SELECT COUNT(*) FROM {from_clause}{sql_where}"
    elif shape == "grouped":
        key = draw(st.sampled_from(columns))
        sql = f"SELECT {key}, COUNT(*) FROM {from_clause}{sql_where} GROUP BY {key}"
    else:
        order = draw(st.sampled_from(
            ("b", "b DESC", "c, d", "d", "w", "w DESC", "w, e", "id", "id DESC")
        ))
        if not all(part.split()[0] in TABLES[table] for part in order.split(", ")):
            order = "id"
        limit = draw(st.sampled_from(("", " LIMIT 3", " LIMIT 10 OFFSET 2")))
        sql = f"SELECT id FROM {from_clause}{sql_where} ORDER BY {order}{limit}"
    return sql, {table: binding}


@st.composite
def join_selects(draw):
    form = draw(st.sampled_from(("inner", "left", "comma", "reversed", "non_equi")))
    atoms = []
    for table in ("t", "u"):
        atoms.extend(draw(st.lists(_atom(table, (table,)), max_size=2)))
        # unqualified names that exist in only one of the two tables
        if draw(st.booleans()):
            atoms.append(draw(_atom(table, (None,), allow_id=False)))
    draw(st.randoms()).shuffle(atoms)
    if form == "inner":
        from_clause = "t JOIN u ON t.id = u.t_id"
    elif form == "left":
        from_clause = "t LEFT JOIN u ON t.id = u.t_id"
    elif form == "reversed":
        from_clause = "u JOIN t ON u.t_id = t.id"
    elif form == "non_equi":
        from_clause = "t JOIN u ON t.a < u.w"
    else:
        from_clause = "t, u"
        atoms.insert(0, "t.id = u.t_id")
    where = f" WHERE {' AND '.join(atoms)}" if atoms else ""
    return f"SELECT t.id, u.id FROM {from_clause}{where}", {"t": "t", "u": "u"}


# --------------------------------------------------------------- checking


def _line_kind(line: str) -> str | None:
    for prefix, kind in _LINE_KINDS:
        if line.startswith(prefix):
            return kind
    return None


def _counters(s) -> dict[str, int]:
    stats = s.db.planner_stats
    return {name: stats[name] for name in ACCESS_COUNTERS + ("batch_scans",)}


def _assert_explain_matches_execution(s, sql: str, binding_of_table: dict) -> None:
    lines = [row[0] for row in s.execute("EXPLAIN " + sql).rows]
    tracer = s.db.tracer
    before = _counters(s)
    probe = tracer.probe()
    try:
        s.execute(sql)
    finally:
        tracer.release(probe)
    after = _counters(s)
    events: dict[str, list[str]] = {}
    for event in probe.scans:
        events.setdefault(event["binding"], []).append(event["kind"])
    scan_lines = [line for line in lines if _line_kind(line) is not None]
    assert len(scan_lines) == len(binding_of_table), (sql, lines)
    for line in scan_lines:
        table = re.search(r" on (\w+)", line).group(1)
        binding = binding_of_table[table]
        assert events.get(binding) == [_line_kind(line)], (sql, lines, probe.scans)
    batched = after["batch_scans"] > before["batch_scans"]
    annotated = [line.endswith("(batched)") for line in scan_lines]
    assert all(annotated) if batched else not any(annotated), (sql, lines)


class TestExplainMatchesExecution:
    @settings(max_examples=150, derandomize=True)
    @given(case=single_table_selects())
    def test_single_table(self, session, case):
        sql, binding_of_table = case
        _assert_explain_matches_execution(session, sql, binding_of_table)

    @settings(max_examples=100, derandomize=True)
    @given(case=join_selects())
    def test_two_table_join(self, session, case):
        sql, binding_of_table = case
        _assert_explain_matches_execution(session, sql, binding_of_table)


#: each join side as a base table, a derived table or a view, with the
#: binding it is referenced by and its (key column, other column)
_LEFT_SIDES = (
    ("t", "t", ("id", "a")),
    ("(SELECT id AS k, a FROM t) d", "d", ("k", "a")),
    ("vt", "vt", ("k", "a")),
)
_RIGHT_SIDES = (
    ("u", "u", ("t_id", "w")),
    ("(SELECT t_id AS tk, w FROM u) e", "e", ("tk", "w")),
    ("vu", "vu", ("tk", "w")),
)
_JOIN_STRATEGIES = (
    ("Hash Join", "hash"),
    ("Nested Loop Join", "nested-loop"),
    ("Cross Join", "cross"),
)


@st.composite
def derived_join_selects(draw):
    left, lb, (lkey, lother) = draw(st.sampled_from(_LEFT_SIDES))
    right, rb, (rkey, rother) = draw(st.sampled_from(_RIGHT_SIDES))

    def ref(binding: str, column: str) -> str:
        # every side column but ``id`` (on both base tables) is unique to
        # its side, so the rest may be referenced unqualified
        qualify = column == "id" or draw(st.booleans())
        return f"{binding}.{column}" if qualify else column

    form = draw(st.sampled_from(("inner", "left", "comma", "non_equi", "cross")))
    equi = f"{ref(lb, lkey)} = {ref(rb, rkey)}"
    atoms = []
    if draw(st.booleans()):
        atoms.append(f"{ref(lb, lother)} > {draw(st.integers(-1, 6))}")
    if form == "inner":
        from_clause = f"{left} JOIN {right} ON {equi}"
    elif form == "left":
        from_clause = f"{left} LEFT JOIN {right} ON {equi}"
    elif form == "non_equi":
        from_clause = f"{left} JOIN {right} ON {ref(lb, lother)} < {ref(rb, rother)}"
    elif form == "cross":
        from_clause = f"{left} CROSS JOIN {right}"
    else:
        from_clause = f"{left}, {right}"
        atoms.insert(0, equi)
    where = f" WHERE {' AND '.join(atoms)}" if atoms else ""
    return f"SELECT * FROM {from_clause}{where}"


def _explained_strategies(s, sql: str) -> list[str]:
    strategies = []
    for (line,) in s.execute(sql).rows:
        for prefix, strategy in _JOIN_STRATEGIES:
            if line.startswith(prefix):
                strategies.append(strategy)
    return strategies


def _assert_join_strategies_match(s, sql: str) -> None:
    tracer = s.db.tracer
    probe = tracer.probe()
    try:
        s.execute(sql)
    finally:
        tracer.release(probe)
    ran = [event["strategy"] for event in probe.joins]
    assert _explained_strategies(s, "EXPLAIN " + sql) == ran, (sql, ran)
    assert _explained_strategies(s, "EXPLAIN ANALYZE " + sql) == ran, (sql, ran)


class TestExplainJoinsMatchExecution:
    def test_derived_table_equi_join_is_hashed(self, session):
        sql = "SELECT * FROM (SELECT id AS k FROM t) d JOIN u ON k = u.t_id"
        _assert_join_strategies_match(session, sql)
        assert _explained_strategies(session, "EXPLAIN " + sql) == ["hash"]

    def test_view_equi_join_is_hashed(self, session):
        sql = "SELECT * FROM vt JOIN u ON k = t_id"
        _assert_join_strategies_match(session, sql)
        assert _explained_strategies(session, "EXPLAIN " + sql) == ["hash"]

    @settings(max_examples=100, derandomize=True)
    @given(sql=derived_join_selects())
    def test_derived_and_view_joins(self, session, sql):
        _assert_join_strategies_match(session, sql)


def _access_delta(s, sql: str) -> dict[str, int]:
    before = _counters(s)
    s.execute(sql)
    after = _counters(s)
    return {name: after[name] - before[name] for name in ACCESS_COUNTERS}


@st.composite
def dml_wheres(draw):
    table = draw(st.sampled_from(tuple(TABLES)))
    return table, draw(_where(table, (None, table)))


@settings(max_examples=120, derandomize=True)
@given(case=dml_wheres())
def test_dml_scans_like_select(session, case):
    table, where = case
    sql_where = f" WHERE {where}" if where else ""
    expected = _access_delta(session, f"SELECT * FROM {table}{sql_where}")
    assert sum(expected.values()) == 1
    text_column = "c" if table == "t" else "e"
    for dml in (
        f"UPDATE {table} SET {text_column} = {text_column}{sql_where}",
        f"DELETE FROM {table}{sql_where}",
    ):
        session.execute("BEGIN")
        try:
            assert _access_delta(session, dml) == expected, (dml, expected)
        finally:
            session.execute("ROLLBACK")
