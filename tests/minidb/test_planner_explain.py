"""Tests for access-path planning and EXPLAIN."""

import pytest

from repro.minidb import Database, parse
from repro.minidb.planner import (
    choose_access_path,
    extract_equality_bindings,
    plan_table_scan,
)


@pytest.fixture
def s():
    db = Database(owner="a")
    session = db.connect("a")
    session.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, name TEXT, val FLOAT)"
    )
    session.execute("CREATE INDEX ix_grp ON t (grp)")
    for i in range(200):
        session.db.heap("t").insert(
            {"id": i, "grp": i % 10, "name": f"n{i}", "val": float(i)}
        )
    return session


class TestEqualityExtraction:
    def where(self, sql):
        return parse(f"SELECT * FROM t WHERE {sql}").where

    def test_simple_equality(self):
        bindings = extract_equality_bindings(self.where("grp = 3"), "t")
        assert [(b.column, b.value) for b in bindings] == [("grp", 3)]

    def test_reversed_operands(self):
        bindings = extract_equality_bindings(self.where("5 = id"), "t")
        assert bindings[0].column == "id"

    def test_and_conjuncts_collected(self):
        bindings = extract_equality_bindings(
            self.where("grp = 1 AND name = 'x' AND val > 2"), "t"
        )
        assert {b.column for b in bindings} == {"grp", "name"}

    def test_or_not_extracted(self):
        assert extract_equality_bindings(self.where("grp = 1 OR grp = 2"), "t") == []

    def test_qualified_other_binding_ignored(self):
        bindings = extract_equality_bindings(self.where("u.grp = 1"), "t")
        assert bindings == []

    def test_null_equality_ignored(self):
        assert extract_equality_bindings(self.where("grp = NULL"), "t") == []

    def test_none_where(self):
        assert extract_equality_bindings(None, "t") == []


class TestAccessPathChoice:
    def test_index_chosen_for_bound_column(self, s):
        heap = s.db.heap("t")
        bindings = extract_equality_bindings(
            parse("SELECT * FROM t WHERE grp = 3").where, "t"
        )
        path, index, key = choose_access_path("t", heap, bindings)
        assert path.kind == "index"
        assert index.name == "ix_grp"
        assert key == (3,)

    def test_unique_index_preferred(self, s):
        heap = s.db.heap("t")
        bindings = extract_equality_bindings(
            parse("SELECT * FROM t WHERE grp = 3 AND id = 7").where, "t"
        )
        path, index, _ = choose_access_path("t", heap, bindings)
        assert index.unique  # the PK index wins over ix_grp

    def test_seq_scan_without_match(self, s):
        heap = s.db.heap("t")
        bindings = extract_equality_bindings(
            parse("SELECT * FROM t WHERE name = 'x'").where, "t"
        )
        path, index, _ = choose_access_path("t", heap, bindings)
        assert path.kind == "seq"
        assert index is None


class TestPlannedExecution:
    def test_results_identical_with_and_without_index(self, s):
        indexed = s.execute("SELECT id FROM t WHERE grp = 4 ORDER BY id").rows
        s.execute("DROP INDEX ix_grp")
        scanned = s.execute("SELECT id FROM t WHERE grp = 4 ORDER BY id").rows
        assert indexed == scanned
        assert len(indexed) == 20

    def test_planner_stats_updated(self, s):
        before = dict(s.db.planner_stats)
        s.execute("SELECT * FROM t WHERE grp = 1")
        assert s.db.planner_stats["index_scans"] == before["index_scans"] + 1
        s.execute("SELECT * FROM t WHERE val > 5")
        assert s.db.planner_stats["seq_scans"] > before["seq_scans"]

    def test_pk_point_lookup(self, s):
        rows = s.execute("SELECT name FROM t WHERE id = 42").rows
        assert rows == [("n42",)]

    def test_residual_predicate_still_applied(self, s):
        rows = s.execute("SELECT id FROM t WHERE grp = 4 AND val > 100").rows
        assert all(rid > 100 for (rid,) in rows)

    def test_join_with_pushdown(self, s):
        s.execute("CREATE TABLE u (id INT PRIMARY KEY, t_grp INT)")
        s.execute("INSERT INTO u VALUES (1, 4)")
        rows = s.execute(
            "SELECT COUNT(*) FROM u JOIN t ON t.grp = u.t_grp WHERE t.grp = 4"
        ).rows
        assert rows == [(20,)]

    def test_empty_probe(self, s):
        assert s.execute("SELECT * FROM t WHERE id = 99999").rows == []


class TestExplain:
    def test_explain_index_scan(self, s):
        result = s.execute("EXPLAIN SELECT * FROM t WHERE grp = 3")
        assert result.columns == ["QUERY PLAN"]
        assert "Index Scan using ix_grp on t" in result.rows[0][0]

    def test_explain_seq_scan(self, s):
        result = s.execute("EXPLAIN SELECT * FROM t WHERE val > 1")
        assert "Seq Scan on t" in result.rows[0][0]

    def test_explain_repeated_binding_follows_execution(self, s):
        # ``FROM t, t`` makes unqualified ``grp`` ambiguous: execution
        # scans sequentially (and then raises), so EXPLAIN neither probes
        # ix_grp nor pushes the conjunct down
        sql = "SELECT * FROM t, t WHERE grp = 3"
        lines = [row[0] for row in s.execute("EXPLAIN " + sql).rows]
        assert lines == ["Seq Scan on t", "Cross Join on t"]
        before = s.db.planner_stats["seq_scans"]
        with pytest.raises(Exception, match="ambiguous"):
            s.execute(sql)
        assert s.db.planner_stats["seq_scans"] == before + 2

    def test_explain_join_lists_both_tables(self, s):
        s.execute("CREATE TABLE u (a INT)")
        result = s.execute("EXPLAIN SELECT * FROM t JOIN u ON t.id = u.a")
        plans = "\n".join(r[0] for r in result.rows)
        assert "on t" in plans
        assert "on u" in plans

    def test_explain_does_not_execute(self, s):
        before = s.db.snapshot()
        s.execute("EXPLAIN SELECT * FROM t WHERE grp = 1")
        assert s.db.snapshot() == before

    def test_explain_requires_select_privilege(self, s):
        s.db.create_user("nobody")
        session = s.db.connect("nobody")
        with pytest.raises(Exception):
            session.execute("EXPLAIN SELECT * FROM t")

    def test_explain_no_base_tables(self, s):
        result = s.execute("EXPLAIN SELECT 1")
        assert "no base tables" in result.rows[0][0]

    def test_plan_table_scan_helper(self, s):
        stmt = parse("SELECT * FROM t WHERE grp = 2")
        path = plan_table_scan("t", s.db.heap("t"), stmt.where, "t").path
        assert path.kind == "index"
        assert "Index Scan" in path.describe()
