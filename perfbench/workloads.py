"""The three workloads: data, sessions, and agent task streams.

Each workload builds its database from the seed (:meth:`setup`, the
timed set-up), opens the service front door over it, and hands the
harness one :class:`~harness.Client` per agent session. Task streams
are infinite generators drawing from a ``random.Random`` derived from
the seed, so the same seed gives the same calls in the same order per
session. Every call carries an :class:`~oracle.Expect` for the oracle.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import Any, Iterator

from repro.bench.bird_ext import NL_FORMS, generate_bird_ext_tasks
from repro.bench.datasets import build_bird_database, build_housing_database
from repro.bench.nl2ml import generate_nl2ml_tasks
from repro.mcp import ToolCall
from repro.minidb import Database
from repro.service import Dispatcher, SessionManager

from harness import Client, CountingFilesystem, make_handler
from oracle import Expect, Shadow, SqliteCopy, heap_contents

WORKERS = 2


def call(tool: str, **args: Any) -> ToolCall:
    return ToolCall(tool, args)


class Workload:
    """One workload: set-up, clients, and the oracle's view of the data."""

    name = ""
    #: calls in one round of the task stream; the harness measures whole
    #: rounds (set by :meth:`clients` where a round is longer than a call)
    round_calls = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.db: Database | None = None
        self.manager: SessionManager | None = None
        self.dispatcher: Dispatcher | None = None
        self.service_sessions: list[Any] = []
        self.fs: CountingFilesystem | None = None
        self.shadow = Shadow()

    # the harness calls these in order
    def setup(self, tracer: Any, attempt: int) -> None:
        raise NotImplementedError

    def clients(self) -> list[Client]:
        raise NotImplementedError

    def prime(self) -> None:
        """Untimed calls that fill caches the same way on every run."""

    def oracle_data(self) -> SqliteCopy:
        """The oracle's view of the loaded data: a sqlite copy of the rows
        reads are checked against, and the shadow of the written tables."""
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Checks on the state after the windows; one message per fault."""
        return []

    def data_sizes(self) -> dict[str, int]:
        return {name: self.db.table_row_count(name) for name in self.db.catalog.tables}

    def open_service(self, tracer: Any, users: list[str]) -> None:
        self.manager = SessionManager(self.db)
        self.service_sessions = [self.manager.create_session(user) for user in users]
        self.dispatcher = Dispatcher(
            self.manager, workers=WORKERS, queue_limit=64, handler=make_handler(tracer)
        )

    def close(self) -> None:
        if self.dispatcher is not None:
            self.dispatcher.close()
            self.dispatcher = None
        if self.manager is not None:
            self.manager.close()
            self.manager = None
        if self.db is not None:
            self.db.close()


# --------------------------------------------------------------------------
# agent_oltp
# --------------------------------------------------------------------------

BIRD_SCALE = 200

#: read-only tables: (table, pk, two projected columns)
_POINT_TABLES = [
    ("schools", "cds_code", "school_name, enrollment"),
    ("satscores", "score_id", "cds_code, avg_math"),
    ("brand_a_items", "item_id", "item_name, price"),
    ("brand_a_sales", "order_id", "region, amount"),
    ("brand_a_refunds", "refund_id", "order_id, reason"),
    ("brand_b_sales", "order_id", "amount, region"),
    ("clients", "client_id", "client_name, district"),
    ("accounts", "account_id", "client_id, balance"),
]
#: tables with a B-tree on the primary key: (table, pk, projected column)
_RANGE_TABLES = [
    ("brand_a_sales", "order_id", "amount"),
    ("schools", "cds_code", "enrollment"),
    ("accounts", "account_id", "balance"),
]
#: tables with a B-tree on an ordering column: (table, pk, column, low, high)
_TOPN_TABLES = [
    ("brand_a_sales", "order_id", "amount", 50, 1800),
    ("accounts", "account_id", "balance", 0, 8500),
    ("satscores", "score_id", "avg_math", 400, 700),
]
#: text columns no workload writes: get_value targets and their keys. Not
#: brand_a_items.item_name: top_k over its 8,000 values takes 20-35 ms, and
#: at one get_value in six it took 37% of the window's handler time
_VALUE_COLUMNS = [
    ("schools", "county", ["la county", "orange", "san diego area", "fresno"]),
    ("schools", "charter_type", [NL_FORMS[v] for v in ("directly funded", "locally funded", "independent")]),
    ("brand_a_items", "category", ["women", "men", "kids", "sport clothes"]),
    ("brand_a_sales", "region", ["west", "east", "midwest area", "south"]),
    ("brand_a_refunds", "reason", ["broken item", "late", "size wrong"]),
]
#: the tables admin write transactions touch, with their private keys
_WRITE_TABLES = {
    "brand_b_sales": ("order_id", "INSERT INTO brand_b_sales (order_id, amount, region) VALUES ({k}, {a}, '{t}')",
                      "UPDATE brand_b_sales SET amount = {a} WHERE order_id = {k}"),
    "clients": ("client_id", "INSERT INTO clients (client_id, client_name, district) VALUES ({k}, 'Agent {a}', '{t}')",
                "UPDATE clients SET client_name = 'Agent {a}' WHERE client_id = {k}"),
}
_PRIVATE_KEY_BASE = 10_000_000
#: per-task shares of the repo's own simulated agents on the BIRD-Ext
#: suite (both model profiles, as agent_mix.py measures them; selftest.py
#: checks they still agree): an admin task writes one time in two; a read
#: task calls get_value before its one select 19% of the time, a write
#: task before it begins 16% of the time; 27% of the normal role's tasks
#: that make any call are write tasks it holds no privilege for
AGENT_MIX = {
    "admin_write_task": 0.50,
    "read_get_value": 0.19,
    "write_get_value": 0.16,
    "normal_write_attempt": 0.27,
}


class AgentOltp(Workload):
    """Two agent sessions (admin + normal) of short index-served calls."""

    name = "agent_oltp"

    def setup(self, tracer: Any, attempt: int) -> None:
        self.db = build_bird_database(seed=self.seed, scale=BIRD_SCALE)
        admin = self.db.connect("admin")
        for table, pk, _ in _RANGE_TABLES:
            admin.execute(f"CREATE INDEX bt_{table}_{pk} ON {table} USING BTREE ({pk})")
        for table, _, column, _, _ in _TOPN_TABLES:
            admin.execute(f"CREATE INDEX bt_{table}_{column} ON {table} USING BTREE ({column})")
        # normal may insert into one table only: its other write attempts
        # are denied by the verifier, its deletes find no tool at all
        admin.execute("GRANT INSERT ON brand_b_sales TO normal")
        self.open_service(tracer, ["admin", "normal"])

    def oracle_data(self) -> SqliteCopy:
        copy = SqliteCopy()
        extra = {t: [c] for t, _, c, _, _ in _TOPN_TABLES}
        for name in self.db.catalog.tables:
            schema = self.db.catalog.table(name)
            copy.load_table(schema, (row for _, row in self.db.heap(name).rows()), extra.get(name, ()))
        for table in _WRITE_TABLES:
            self.shadow.tables[table] = heap_contents(self.db, table)
        return copy

    def prime(self) -> None:
        # build every get_value catalog once, one at a time, so that none is
        # built inside a timed window: first asked for by both sessions at
        # once, a catalog is built twice, and whether that happened depended
        # on the seed's call order (peak RSS moved by ~13 MB between seeds)
        admin = self.service_sessions[0]
        for table, column, keys in _VALUE_COLUMNS:
            request = call("get_value", col=f"{table}.{column}", key=keys[0], k=3)
            request.rid = 0  # the handler's request id: outside any window
            result = self.dispatcher.call(admin.token, request)
            if result.is_error:
                raise RuntimeError(f"priming get_value on {table}.{column}: {result.render()}")

    def clients(self) -> list[Client]:
        sizes = self.data_sizes()
        objects = tuple(self.db.catalog.object_names())
        admin, normal = self.service_sessions
        return [
            Client(admin.token, "admin", self._tasks(0, sizes, objects, writer=True)),
            Client(normal.token, "normal", self._tasks(1, sizes, objects, writer=False)),
        ]

    # ------------------------------------------------------------ streams

    def _tasks(self, index: int, sizes: dict, objects: tuple, writer: bool) -> Iterator:
        rng = random.Random(self.seed * 7919 + index)
        live: dict[str, list[int]] = {t: [] for t in _WRITE_TABLES}
        next_key = [_PRIVATE_KEY_BASE]
        while True:
            if writer and rng.random() < AGENT_MIX["admin_write_task"]:
                yield self._write_task(rng, objects, live, next_key)
            elif not writer and rng.random() < AGENT_MIX["normal_write_attempt"]:
                yield self._denied_task(rng, objects, sizes)
            else:
                yield self._read_task(rng, sizes, objects)

    def _context(self, rng: random.Random, objects: tuple, value_share: float) -> Iterator:
        """get_schema, then get_value ``value_share`` of the time."""
        yield call("get_schema"), Expect("schema", args=objects)
        if rng.random() < value_share:
            table, column, keys = rng.choice(_VALUE_COLUMNS)
            key, k = rng.choice(keys), rng.choice((3, 5))
            yield call("get_value", col=f"{table}.{column}", key=key, k=k), Expect(
                "value", args=(table, column, key, k)
            )

    def _read_task(self, rng: random.Random, sizes: dict, objects: tuple) -> Iterator:
        yield from self._context(rng, objects, AGENT_MIX["read_get_value"])
        sql, expect = self._select(rng, sizes)
        yield call("select", sql=sql), expect

    def _select(self, rng: random.Random, sizes: dict) -> tuple[str, Expect]:
        roll = rng.random()
        if roll < 0.7:
            table, pk, columns = rng.choice(_POINT_TABLES)
            projection = "*" if rng.random() < 0.5 else f"{pk}, {columns}"
            key = rng.randint(1, sizes[table])
            sql = f"SELECT {projection} FROM {table} WHERE {pk} = {key}"
            return sql, Expect("sql", tag="point", sql=sql)
        if roll < 0.85:
            table, pk, column = rng.choice(_RANGE_TABLES)
            width = rng.randint(2, 9)
            low = rng.randint(1, sizes[table] - width)
            if rng.random() < 0.5:
                where = f"{pk} BETWEEN {low} AND {low + width}"
            else:
                where = f"{pk} >= {low} AND {pk} < {low + width}"
            sql = f"SELECT {pk}, {column} FROM {table} WHERE {where}"
            return sql, Expect("sql", tag="range", sql=sql)
        table, pk, column, low, high = rng.choice(_TOPN_TABLES)
        direction = rng.choice(("DESC", "ASC"))
        limit = rng.randint(3, 10)
        where = ""
        if rng.random() < 0.5:
            bound = rng.randint(low, high)
            where = f" WHERE {column} {'<' if direction == 'DESC' else '>'} {bound}"
        base = f"SELECT {pk}, {column} FROM {table}{where} ORDER BY {column} {direction}"
        return f"{base} LIMIT {limit}", Expect(
            "sql", tag="topn", sql=f"{base} LIMIT {limit + 64}", order=(1,), limit=limit
        )

    def _write_task(self, rng: random.Random, objects: tuple, live: dict, next_key: list) -> Iterator:
        yield from self._context(rng, objects, AGENT_MIX["write_get_value"])
        table = rng.choice(sorted(_WRITE_TABLES))
        pk, insert_sql, update_sql = _WRITE_TABLES[table]
        if table == "clients":
            text = rng.choice(("north", "south", "east", "west"))
        else:
            text = rng.choice(("West Coast", "Midwest"))
        amount = round(rng.uniform(10.0, 400.0), 2)
        # both tables are (key, written column, text column)
        value = amount if table == "brand_b_sales" else f"Agent {amount}"
        keys = live[table]
        op = rng.choice(("insert", "update", "delete")) if keys else "insert"
        if op == "insert":
            key = next_key[0]
            next_key[0] += 1
            sql = insert_sql.format(k=key, a=amount, t=text)
            row = (key, value, text)
        else:
            key = rng.choice(keys)
            if op == "update":
                sql = update_sql.format(k=key, a=amount)
                row = (key, value, self.shadow.row(table, key)[2])
            else:
                sql = f"DELETE FROM {table} WHERE {pk} = {key}"
                row = None
        check = f"SELECT * FROM {table} WHERE {pk} = {key}"
        commit = rng.random() >= 0.1
        begun = yield call("begin"), Expect("ok")
        written = yield call(op, sql=sql), Expect("rowcount", count=1)
        yield call("select", sql=check), Expect(
            "rows", tag="point", rows=(row,) if row is not None else ()
        )
        if not commit:
            yield call("rollback"), Expect("ok")
            return
        done = yield call("commit"), Expect("ok")
        if not (begun.is_error or written.is_error or done.is_error):
            self.shadow.apply(table, key, row)
            if op == "insert":
                keys.append(key)
            elif op == "delete":
                keys.remove(key)

    def _denied_task(self, rng: random.Random, objects: tuple, sizes: dict) -> Iterator:
        # the simulated agents stop after get_schema shows the missing
        # privilege; this one tries the write, which must be denied
        yield call("get_schema"), Expect("schema", args=objects)
        if rng.random() < 0.5:
            key = rng.randint(1, sizes["accounts"])
            yield call("insert", sql=(
                f"INSERT INTO accounts (account_id, client_id, balance) VALUES ({key + sizes['accounts']}, 1, 0.0)"
            )), Expect("denied", code="SecurityViolation")
        else:
            key = rng.randint(1, sizes["clients"])
            yield call("delete", sql=f"DELETE FROM clients WHERE client_id = {key}"), Expect(
                "denied", code="ToolNotFoundError"
            )

    def final_checks(self) -> list[str]:
        problems = []
        for table in _WRITE_TABLES:
            problems += self.shadow.diff(table, heap_contents(self.db, table))
        return problems


# --------------------------------------------------------------------------
# analytics_proxy
# --------------------------------------------------------------------------

HOUSE_ROWS = 50_000
#: seed of the fixed BIRD-Ext read suite (10 instances of each of its 15
#: templates) and NL2ML suite the analyst works through
SUITE_SEED = 0
_TEMPLATES = 15


class AnalyticsProxy(Workload):
    """One analyst session: BIRD-Ext read templates and NL2ML pipelines."""

    name = "analytics_proxy"

    def setup(self, tracer: Any, attempt: int) -> None:
        from repro.mltools.server import MLToolServer

        self.db = build_bird_database(seed=self.seed, scale=BIRD_SCALE)
        housing = build_housing_database(seed=self.seed, rows=HOUSE_ROWS)
        schema = housing.catalog.table("house")
        self.db.connect("admin").execute(schema.render_create())
        heap = self.db.heap("house")
        for _, row in housing.heap("house").rows():
            heap.insert(dict(row))
        self.open_service(tracer, ["admin"])
        self.service_sessions[0].bridge.registry.add_server(MLToolServer())

    def oracle_data(self) -> SqliteCopy:
        copy = SqliteCopy()
        for name in self.db.catalog.tables:
            schema = self.db.catalog.table(name)
            copy.load_table(schema, (row for _, row in self.db.heap(name).rows()))
        return copy

    def clients(self) -> list[Client]:
        (session,) = self.service_sessions
        suite = generate_bird_ext_tasks(seed=SUITE_SEED, n_read=150, n_write_each=0)
        by_level: dict[int, list] = {}
        for task in generate_nl2ml_tasks(seed=SUITE_SEED):
            if "train_forest" not in {node.tool for node in task.plan.postorder()}:
                by_level.setdefault(task.level, []).append(task.plan)
        self.round_calls = len(self._round(suite[:_TEMPLATES], by_level, 0, random.Random(0)))
        return [Client(session.token, "analyst", self._tasks(suite, by_level))]

    def _tasks(self, suite: list, by_level: dict) -> Iterator:
        instances = len(suite) // _TEMPLATES
        rng = random.Random(self.seed)
        round_index = 0
        while True:
            # every run walks the suite's instances from the first, so runs
            # of any seed cover the same constants; the seed builds the
            # data and orders each round
            start = _TEMPLATES * (round_index % instances)
            yield from self._round(suite[start:start + _TEMPLATES], by_level, round_index, rng)
            round_index += 1

    def _round(self, reads: list, by_level: dict, index: int, rng: random.Random) -> list:
        """One round: one instance of every read template and one pipeline
        of every level, in a seeded order, one call per task. The harness
        measures whole rounds, which keeps the call mix of every run the
        same."""
        steps = [self._read(t.gold_sql) for t in reads if "NOT EXISTS" not in t.gold_sql]
        for level, plans in sorted(by_level.items()):
            steps.append(self._pipeline(plans[index % len(plans)], level))
        rng.shuffle(steps)
        return steps

    @staticmethod
    def _read(sql: str) -> Iterator:
        order, limit = order_keys(sql)
        oracle_sql = sql
        if limit is not None:
            oracle_sql = sql[: sql.rindex(" LIMIT ")] + f" LIMIT {limit + 64}"
        yield call("select", sql=sql), Expect(
            "sql", tag="template", sql=oracle_sql, order=order, limit=limit
        )

    @staticmethod
    def _pipeline(plan: Any, level: int) -> Iterator:
        yield call("proxy", target_tool=plan.tool, tool_args=proxy_args(plan.args)), Expect(
            "proxy", tag=f"level{level}", args=plan
        )


def proxy_args(args: dict) -> dict:
    """A pipeline plan's arguments as proxy producer specs."""
    out = {}
    for key, value in args.items():
        if hasattr(value, "tool"):
            out[key] = {
                "__tool__": value.tool,
                "__args__": proxy_args(value.args),
                "__transform__": "lambda x: x",
            }
        else:
            out[key] = value
    return out


def order_keys(sql: str) -> tuple[tuple[int, ...], int | None]:
    """Output positions of a template's ORDER BY keys, and its LIMIT."""
    if " ORDER BY " not in sql:
        return (), None
    head, tail = sql.split(" ORDER BY ", 1)
    limit = None
    if " LIMIT " in tail:
        tail, limit_text = tail.split(" LIMIT ", 1)
        limit = int(limit_text)
    items = [i.strip() for i in head.split(" FROM ", 1)[0][len("SELECT "):].split(",")]
    positions = []
    for key in tail.split(","):
        expr = key.strip().rsplit(" ", 1)[0] if key.strip().upper().endswith(("ASC", "DESC")) else key.strip()
        for position, item in enumerate(items):
            if item == expr or item.endswith(f" AS {expr}"):
                positions.append(position)
                break
        else:
            raise ValueError(f"ORDER BY key {expr!r} is not in the select list of {sql!r}")
    return tuple(positions), limit


# --------------------------------------------------------------------------
# durable_txn
# --------------------------------------------------------------------------

#: written-then-read tables in the fixed order transactions touch them
_DURABLE_TABLES = {
    "events": ("CREATE TABLE events (id INT PRIMARY KEY, kind TEXT, detail TEXT)", 4_000),
    "ledger": ("CREATE TABLE ledger (id INT PRIMARY KEY, owner TEXT, balance FLOAT, version INT)", 8_000),
    "orders": ("CREATE TABLE orders (id INT PRIMARY KEY, account INT, amount FLOAT, status TEXT)", 8_000),
}
#: the column an UPDATE rewrites: the third of each table
_UPDATED_COLUMN = {"events": "detail", "ledger": "balance", "orders": "amount"}
AUTO_CHECKPOINT_RECORDS = 500


def _durable_row(table: str, key: int, rng: random.Random) -> tuple:
    if table == "events":
        return (key, rng.choice(("open", "close", "audit")), f"event {rng.randint(1, 999)}")
    if table == "ledger":
        return (key, f"owner {key % 97}", round(rng.uniform(0, 5000), 2), rng.randint(1, 9))
    return (key, rng.randint(1, 8000), round(rng.uniform(1, 900), 2), rng.choice(("new", "paid", "sent")))


class DurableTxn(Workload):
    """Two writer sessions on a durable, fsync-per-commit database."""

    name = "durable_txn"

    def setup(self, tracer: Any, attempt: int) -> None:
        self.path = os.path.join(self.workdir, f"db-{attempt}")
        shutil.rmtree(self.path, ignore_errors=True)
        self.fs = CountingFilesystem()
        self.db = Database.open(
            self.path,
            fsync_commits=True,
            auto_checkpoint_records=AUTO_CHECKPOINT_RECORDS,
            filesystem=self.fs,
        )
        rng = random.Random(self.seed)
        admin = self.db.connect("admin")
        for table, (ddl, rows) in _DURABLE_TABLES.items():
            admin.execute(ddl)
            columns = [c.name for c in self.db.catalog.table(table).columns]
            heap = self.db.heap(table)
            for key in range(1, rows + 1):
                heap.insert(dict(zip(columns, _durable_row(table, key, rng))))
        # bulk loads bypass the WAL: a checkpoint makes them durable
        self.db.checkpoint()
        self.open_service(tracer, ["admin", "admin"])

    def oracle_data(self) -> SqliteCopy:
        for table in _DURABLE_TABLES:
            self.shadow.tables[table] = heap_contents(self.db, table)
        return SqliteCopy()

    def clients(self) -> list[Client]:
        return [
            Client(session.token, f"writer{index}", self._tasks(index))
            for index, session in enumerate(self.service_sessions)
        ]

    def _tasks(self, index: int) -> Iterator:
        rng = random.Random(self.seed * 7919 + index)
        # session ``index`` owns the pre-loaded keys with key % 2 == index
        # and inserts keys 1_000_000 + 2j + index: no two sessions share one
        owned = {
            table: [k for k in range(1, rows + 1) if k % 2 == index]
            for table, (_, rows) in _DURABLE_TABLES.items()
        }
        next_key = {table: 1_000_000 + index for table in _DURABLE_TABLES}
        while True:
            yield self._transaction(rng, owned, next_key)

    def _transaction(self, rng: random.Random, owned: dict, next_key: dict) -> Iterator:
        tables = sorted(rng.sample(sorted(_DURABLE_TABLES), rng.randint(1, 3)))
        writes = []
        statements = []
        for table in tables:
            # as many inserts as deletes: the tables keep their size, so
            # memory does not grow with the number of commits a run makes
            op = rng.choices(("insert", "update", "delete"), weights=(3, 4, 3))[0]
            if op == "insert":
                key = next_key[table]
                next_key[table] += 2
                row = _durable_row(table, key, rng)
                values = ", ".join(repr(v) for v in row)
                sql = f"INSERT INTO {table} VALUES ({values})"
            else:
                key = rng.choice(owned[table])
                old = self.shadow.row(table, key)
                if op == "update":
                    value = _durable_row(table, key, rng)[2]
                    row = old[:2] + (value,) + old[3:]
                    sql = f"UPDATE {table} SET {_UPDATED_COLUMN[table]} = {value!r} WHERE id = {key}"
                else:
                    row = None
                    sql = f"DELETE FROM {table} WHERE id = {key}"
            writes.append((op, table, key, row))
            statements.append((op, sql))
        commit = rng.random() >= 0.1
        results = [(yield call("begin"), Expect("ok"))]
        for op, sql in statements:
            result = yield call(op, sql=sql), Expect("rowcount", count=1)
            results.append(result)
        op, table, key, row = writes[-1]
        yield call("select", sql=f"SELECT * FROM {table} WHERE id = {key}"), Expect(
            "rows", tag="point", rows=(row,) if row is not None else ()
        )
        if not commit:
            yield call("rollback"), Expect("ok")
            return
        results.append((yield call("commit"), Expect("ok")))
        if any(r.is_error for r in results):
            return
        for op, table, key, row in writes:
            self.shadow.apply(table, key, row)
            if op == "insert":
                owned[table].append(key)
            elif op == "delete":
                owned[table].remove(key)

    # ------------------------------------------------------------ recovery

    def recover(self, repeats: int) -> tuple[list[float], list[str]]:
        """Close, then time ``Database.open`` on the directory the run left
        behind ``repeats`` times; the first reopen is the durability check."""
        self.close()
        self.db = None
        times, problems = [], []
        for attempt in range(repeats):
            started = time.perf_counter()
            db = Database.open(self.path, fsync_commits=True, auto_checkpoint_records=AUTO_CHECKPOINT_RECORDS)
            times.append(time.perf_counter() - started)
            if attempt == 0:
                for table in _DURABLE_TABLES:
                    problems += self.shadow.diff(table, heap_contents(db, table))
            db.close()
        return times, problems


BY_NAME = {cls.name: cls for cls in (AgentOltp, AnalyticsProxy, DurableTxn)}
