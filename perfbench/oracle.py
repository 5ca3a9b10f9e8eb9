"""Result oracle that shares no code with minidb's query path.

* SQL reads are re-evaluated by a stdlib ``sqlite3`` copy of the loaded
  rows and compared ignoring row order, except under ORDER BY, with a
  float tolerance.
* Writes are checked against a shadow model of acknowledged commits
  (:class:`Shadow`); final table contents are read from the heaps, not
  through SQL.
* ``get_value`` rankings are checked against the brute-force
  :func:`repro.core.similarity.top_k` over the column's distinct values
  as sqlite returns them.
* ``proxy`` pipelines are re-run by calling the ML tools directly on the
  rows sqlite returns for the producer's query.

Every check runs outside the timing. :meth:`Oracle.self_test` plants
one wrong row and fails the run unless the comparison catches it.
"""

from __future__ import annotations

import ast as pyast
import math
import re
import sqlite3
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.similarity import top_k

ABS_TOL = 1e-6
REL_TOL = 1e-9


@dataclass(frozen=True)
class Expect:
    """What the oracle should see for one call.

    ``kind`` is one of ``sql`` (compare with sqlite running ``sql``),
    ``rows`` (compare with ``rows``), ``rowcount``, ``ok``, ``denied``
    (an error with code ``code``), ``value`` (a get_value ranking for
    ``args = (table, column, key, k)``), ``schema`` (get_schema lists
    every table in ``args``) and ``proxy`` (``args`` is the pipeline).
    """

    kind: str
    tag: str = ""
    sql: str = ""
    order: tuple[int, ...] = ()
    limit: int | None = None
    rows: tuple = ()
    count: int = 0
    code: str = ""
    args: Any = None


# --------------------------------------------------------------------------
# value comparison
# --------------------------------------------------------------------------


def same_value(a: Any, b: Any) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def same_row(a: Iterable[Any], b: Iterable[Any]) -> bool:
    a, b = tuple(a), tuple(b)
    return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))


def _sort_key(row: Iterable[Any]) -> tuple:
    key = []
    for value in row:
        if value is None:
            key.append((0, 0))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            key.append((1, round(float(value), 4)))
        else:
            key.append((2, str(value)))
    return tuple(key)


def same_multiset(got: list, expected: list) -> bool:
    if len(got) != len(expected):
        return False
    return all(
        same_row(a, b)
        for a, b in zip(sorted(got, key=_sort_key), sorted(expected, key=_sort_key))
    )


def compare_rows(
    got: list, expected: list, order: tuple[int, ...] = (), limit: int | None = None
) -> str | None:
    """``None`` when ``got`` matches ``expected``, else a reason.

    Without ``order`` rows compare as multisets. With ORDER BY key
    positions the key sequence must match exactly and rows within each
    run of equal keys as multisets. Under LIMIT, ``expected`` may hold
    more rows than the limit (the oracle over-fetches): the run of ties
    cut by the limit need only be drawn from the expected rows with that
    key, since SQL leaves the choice among ties open.
    """
    if not order:
        if same_multiset(got, expected):
            return None
        return f"rows differ: got {_preview(got)}, expected {_preview(expected)}"
    cut = len(got) if limit is not None else None
    if limit is not None and len(got) != min(limit, len(expected)):
        return f"got {len(got)} rows, expected {min(limit, len(expected))}"
    if limit is None and len(got) != len(expected):
        return f"got {len(got)} rows, expected {len(expected)}"

    def key(row: Any) -> tuple:
        return tuple(row[i] for i in order)

    for position, (a, b) in enumerate(zip(got, expected[: len(got)])):
        if not same_row(key(a), key(b)):
            return f"order key differs at row {position}: {key(a)} vs {key(b)}"
    start = 0
    while start < len(got):
        end = start
        while end < len(got) and same_row(key(got[end]), key(got[start])):
            end += 1
        group = got[start:end]
        if cut is not None and end == cut:
            pool = [r for r in expected if same_row(key(r), key(got[start]))]
            for row in group:
                if not any(same_row(row, candidate) for candidate in pool):
                    return f"row {row!r} is not among the tied rows"
        elif not same_multiset(group, list(expected[start:end])):
            return f"rows differ in tie group at {start}: {_preview(group)}"
        start = end
    return None


def _preview(rows: list, limit: int = 3) -> str:
    head = ", ".join(repr(tuple(r)) for r in rows[:limit])
    more = f" ... ({len(rows)} rows)" if len(rows) > limit else ""
    return f"[{head}{more}]"


# --------------------------------------------------------------------------
# sqlite copy
# --------------------------------------------------------------------------

_SQLITE_TYPES = {"INT": "INTEGER", "INTEGER": "INTEGER", "BIGINT": "INTEGER",
                 "FLOAT": "REAL", "REAL": "REAL", "DOUBLE": "REAL"}


class SqliteCopy:
    """A stdlib sqlite3 database holding the same rows as the minidb one."""

    def __init__(self) -> None:
        self.conn = sqlite3.connect(":memory:", check_same_thread=False)

    def load_table(self, schema: Any, rows: Iterable[dict], indexes: Iterable[str] = ()) -> None:
        """Create ``schema``'s table and insert ``rows`` (column dicts) in
        the given order, which is then sqlite's rowid order."""
        columns = [c.name for c in schema.columns]
        decl = ", ".join(
            f"{c.name} {_SQLITE_TYPES.get(c.ctype.name.upper(), 'TEXT')}"
            for c in schema.columns
        )
        self.conn.execute(f"CREATE TABLE {schema.name} ({decl})")
        self.conn.executemany(
            f"INSERT INTO {schema.name} VALUES ({', '.join('?' * len(columns))})",
            ([row.get(c) for c in columns] for row in rows),
        )
        for column in list(schema.primary_key) + list(indexes):
            self.conn.execute(
                f"CREATE INDEX sq_{schema.name}_{column} ON {schema.name} ({column})"
            )
        self.conn.commit()

    def rows(self, sql: str) -> list[tuple]:
        # not cached: results kept for repeated statements would grow the
        # benchmark's memory with every distinct statement a run checks
        return self.conn.execute(sql).fetchall()

    def close(self) -> None:
        self.conn.close()


# --------------------------------------------------------------------------
# shadow model of acknowledged writes
# --------------------------------------------------------------------------


class Shadow:
    """Expected contents of the written tables: ``table -> pk -> row``.

    Writers update it only when their ``commit`` is acknowledged, so a
    rolled-back write never reaches it.
    """

    def __init__(self) -> None:
        self.tables: dict[str, dict[Any, tuple]] = {}

    def apply(self, table: str, key: Any, row: tuple | None) -> None:
        if row is None:
            self.tables[table].pop(key, None)
        else:
            self.tables[table][key] = row

    def row(self, table: str, key: Any) -> tuple | None:
        return self.tables[table].get(key)

    def diff(self, table: str, actual: dict[Any, tuple]) -> list[str]:
        """Every key whose row differs between the shadow and ``actual``."""
        expected = self.tables[table]
        problems = []
        for key in sorted(set(expected) | set(actual), key=repr):
            want, have = expected.get(key), actual.get(key)
            if want is None or have is None or not same_row(want, have):
                problems.append(f"{table}[{key!r}]: expected {want!r}, found {have!r}")
        return problems


def heap_contents(db: Any, table: str) -> dict[Any, tuple]:
    """``pk -> row`` read straight from the heap (no SQL involved)."""
    schema = db.catalog.table(table)
    columns = [c.name for c in schema.columns]
    (pk,) = schema.primary_key
    return {row[pk]: tuple(row[c] for c in columns) for _, row in db.heap(table).rows()}


# --------------------------------------------------------------------------
# the oracle
# --------------------------------------------------------------------------

_VALUE_LINE = re.compile(r"^  (.*)  \(relevance ([0-9.]+)\)$")


class Oracle:
    """Checks recorded calls against the sqlite copy and brute force."""

    def __init__(self, copy: SqliteCopy):
        self.copy = copy
        self._rankings: dict[tuple, list[tuple[Any, float]]] = {}
        self._ml = None

    def check(self, record: Any) -> str | None:
        expect: Expect = record.expect
        result = record.result
        if expect.kind == "denied":
            if result.is_error and result.error_code == expect.code:
                return None
            return f"expected a {expect.code} denial, got {result.render()[:200]!r}"
        if result.is_error:
            return f"unexpected {result.error_code}: {str(result.content)[:200]}"
        if expect.kind == "ok":
            return None
        if expect.kind == "sql":
            return compare_rows(
                result.metadata.get("rows", []),
                self.copy.rows(expect.sql),
                expect.order,
                expect.limit,
            )
        if expect.kind == "rows":
            return compare_rows(result.metadata.get("rows", []), list(expect.rows))
        if expect.kind == "rowcount":
            got = result.metadata.get("rowcount")
            return None if got == expect.count else f"rowcount {got}, expected {expect.count}"
        if expect.kind == "value":
            return self._check_value(result.content, *expect.args)
        if expect.kind == "schema":
            missing = [t for t in expect.args if t not in result.content]
            return f"schema misses {missing}" if missing else None
        if expect.kind == "proxy":
            return self._check_proxy(result, expect.args)
        raise ValueError(f"unknown expectation kind {expect.kind!r}")

    # ------------------------------------------------------------ get_value

    def ranking(self, table: str, column: str, key: str, k: int) -> list[tuple[Any, float]]:
        memo = (table, column, key, k)
        if memo not in self._rankings:
            values = [
                row[0]
                for row in self.copy.rows(
                    f"SELECT DISTINCT {column} FROM {table} WHERE {column} IS NOT NULL"
                )
            ]
            self._rankings[memo] = top_k(key, values, k)
        return self._rankings[memo]

    def _check_value(self, text: str, table: str, column: str, key: str, k: int) -> str | None:
        got = []
        for line in text.splitlines()[1:]:
            match = _VALUE_LINE.match(line)
            if match is None:
                return f"unparseable get_value line {line!r}"
            got.append((pyast.literal_eval(match.group(1)), float(match.group(2))))
        expected = self.ranking(table, column, key, k)
        if [v for v, _ in got] != [v for v, _ in expected]:
            return f"ranking {got!r} differs from brute force {expected!r}"
        for (_, a), (_, b) in zip(got, expected):
            if abs(a - b) > 0.0051:
                return f"relevance {a} differs from brute force {b:.4f}"
        return None

    # ---------------------------------------------------------------- proxy

    def _evaluate(self, node: Any) -> Any:
        """Run a pipeline plan directly: sqlite for ``select``, the ML
        tool server's functions for the rest. Nothing is kept: a result
        held for the next round would grow the oracle with every round."""
        from repro.mltools.server import MLToolServer

        if node.tool == "select":
            return self.copy.rows(node.args["sql"])
        if self._ml is None:
            self._ml = MLToolServer()
        args = {
            key: self._payload(self._evaluate(value)) if hasattr(value, "tool") else value
            for key, value in node.args.items()
        }
        result = self._ml.invoke(node.tool, **args)
        if result.is_error:
            raise RuntimeError(f"oracle pipeline stage {node.tool} failed: {result.content}")
        return result

    @staticmethod
    def _payload(value: Any) -> Any:
        if hasattr(value, "metadata"):
            return value.metadata.get("payload", value.content)
        return value

    def _check_proxy(self, result: Any, plan: Any) -> str | None:
        expected = self._evaluate(plan)
        got = self._payload(result)
        if not same_structure(got, self._payload(expected)):
            return f"proxy output {str(got)[:160]} differs from direct tool run"
        return None

    # ------------------------------------------------------------ self-test

    def self_test(self, records: list) -> str | None:
        """Plant one wrong row into a checked result; the comparison must
        catch it. Returns a reason when it does not."""
        for record in records:
            expect = record.expect
            if expect.kind not in ("sql", "rows") or record.result.is_error:
                continue
            rows = list(record.result.metadata.get("rows", []))
            if not rows:
                continue
            planted = list(rows[0])
            planted[-1] = _perturb(planted[-1])
            rows[0] = tuple(planted)
            if expect.kind == "sql":
                expected = self.copy.rows(expect.sql)
            else:
                expected = list(expect.rows)
            if compare_rows(rows, expected, expect.order, expect.limit) is None:
                return f"planted wrong row {rows[0]!r} was not caught"
            return None
        return "no checked SQL result to plant a wrong row into"


def _perturb(value: Any) -> Any:
    if isinstance(value, bool) or value is None:
        return "planted"
    if isinstance(value, (int, float)):
        return value + 1
    return f"{value}-planted"


def same_structure(a: Any, b: Any) -> bool:
    """Deep equality with the float tolerance (dicts, lists, tuples)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_structure(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_structure(x, y) for x, y in zip(a, b))
    if hasattr(a, "tolist"):
        return same_structure(a.tolist(), b)
    if hasattr(b, "tolist"):
        return same_structure(a, b.tolist())
    return same_value(a, b)
