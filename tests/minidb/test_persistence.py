"""Durable storage engine: WAL + snapshot persistence and crash recovery.

Covers the PR-3 tentpole contract end to end:

* kill-and-reopen round trips restore tables, rows, secondary indexes,
  views, users/grants, rid counters, and ``(uid, version)`` change
  counters exactly;
* rolled-back transactions never reach disk;
* a torn final WAL record (crash mid-append) is detected and truncated,
  never half-applied — verified at *every byte boundary* of the final
  record, against an independent shadow replay of the WAL;
* checkpoints compact the WAL atomically and refuse to run while a
  transaction holds uncommitted changes in the heaps.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.minidb import (
    Database,
    PersistenceError,
    TransactionError,
    UniqueViolation,
)


def reopen(path: str) -> Database:
    return Database.open(path)


@pytest.fixture
def dbdir(tmp_path):
    return str(tmp_path / "db")


def seeded(path: str) -> Database:
    db = Database.open(path)
    session = db.connect("admin")
    session.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT DEFAULT 0)"
    )
    session.execute(
        "INSERT INTO items VALUES (1, 'alpha', 5), (2, 'beta', 7)"
    )
    return db


class TestRoundTrip:
    def test_rows_and_schema_survive_reopen(self, dbdir):
        db = seeded(dbdir)
        expected = db.snapshot()
        db.close()
        db2 = reopen(dbdir)
        assert db2.snapshot() == expected
        schema = db2.catalog.table("items")
        assert schema.column_names() == ["id", "name", "qty"]
        assert schema.primary_key == ("id",)
        assert schema.column("qty").default == 0

    def test_counters_restored_exactly(self, dbdir):
        db = seeded(dbdir)
        heap = db.heap("items")
        uid, version, next_rid = heap.uid, heap.version, heap._next_rid
        db.close()
        heap2 = reopen(dbdir).heap("items")
        assert (heap2.uid, heap2.version, heap2._next_rid) == (
            uid, version, next_rid,
        )

    def test_crash_without_close_is_durable(self, dbdir):
        db = seeded(dbdir)
        expected = db.snapshot()
        del db  # simulated crash: no close(), no checkpoint
        assert reopen(dbdir).snapshot() == expected

    def test_rolled_back_transaction_not_durable(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("INSERT INTO items VALUES (3, 'ghost', 0)")
        session.execute("UPDATE items SET qty = 99 WHERE id = 1")
        session.execute("ROLLBACK")
        session.execute("INSERT INTO items VALUES (4, 'real', 1)")
        db.close()
        rows = reopen(dbdir).snapshot()["items"]
        names = [row["name"] for row in rows]
        assert "ghost" not in names
        assert "real" in names
        assert rows[0]["qty"] == 5

    def test_failed_statement_not_durable(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        with pytest.raises(UniqueViolation):
            # second row violates the PK: the whole statement rolls back
            session.execute(
                "INSERT INTO items VALUES (3, 'partial', 0), (1, 'dup', 0)"
            )
        db.close()
        names = [r["name"] for r in reopen(dbdir).snapshot()["items"]]
        assert "partial" not in names

    def test_savepoint_partial_rollback_durable(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("INSERT INTO items VALUES (3, 'kept', 0)")
        session.execute("SAVEPOINT sp")
        session.execute("INSERT INTO items VALUES (4, 'dropped', 0)")
        session.execute("ROLLBACK TO SAVEPOINT sp")
        session.execute("COMMIT")
        db.close()
        names = [r["name"] for r in reopen(dbdir).snapshot()["items"]]
        assert "kept" in names
        assert "dropped" not in names

    def test_secondary_indexes_rebuilt(self, dbdir):
        db = seeded(dbdir)
        db.connect("admin").execute("CREATE INDEX idx_name ON items (name)")
        db.close()
        db2 = reopen(dbdir)
        heap = db2.heap("items")
        assert set(heap.indexes) == {"pk_items", "idx_name"}
        assert heap.indexes["idx_name"].probe(("beta",)) == {2}
        assert db2.catalog.index("idx_name").columns == ("name",)
        # the index is live, not just cataloged: uniqueness still enforced
        with pytest.raises(UniqueViolation):
            db2.connect("admin").execute(
                "INSERT INTO items VALUES (1, 'clash', 0)"
            )

    def test_dropped_index_stays_dropped(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        session.execute("CREATE INDEX idx_name ON items (name)")
        session.execute("DROP INDEX idx_name")
        db.close()
        db2 = reopen(dbdir)
        assert set(db2.heap("items").indexes) == {"pk_items"}
        assert "idx_name" not in db2.catalog.indexes

    def test_views_roundtrip_through_sql(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        session.execute(
            "CREATE VIEW busy AS SELECT name, qty FROM items "
            "WHERE qty > 5 ORDER BY qty DESC"
        )
        session.execute(
            "CREATE VIEW stats AS SELECT COUNT(*) AS n, SUM(qty) AS total "
            "FROM items"
        )
        expected_busy = session.query("SELECT * FROM busy")
        expected_stats = session.query("SELECT * FROM stats")
        db.close()
        session2 = reopen(dbdir).connect("admin")
        assert session2.query("SELECT * FROM busy") == expected_busy
        assert session2.query("SELECT * FROM stats") == expected_stats

    def test_users_and_grants_survive(self, dbdir):
        db = seeded(dbdir)
        db.create_user("analyst")
        session = db.connect("admin")
        session.execute("GRANT SELECT (id, name) ON items TO analyst")
        db.close()
        db2 = reopen(dbdir)
        analyst = db2.connect("analyst")
        assert analyst.query("SELECT name FROM items WHERE id = 1") == [
            {"name": "alpha"}
        ]
        from repro.minidb import PermissionDenied

        with pytest.raises(PermissionDenied):
            analyst.execute("SELECT qty FROM items")

    def test_revoke_survives(self, dbdir):
        db = seeded(dbdir)
        db.create_user("analyst")
        session = db.connect("admin")
        session.execute("GRANT SELECT ON items TO analyst")
        session.execute("REVOKE SELECT ON items FROM analyst")
        db.close()
        from repro.minidb import PermissionDenied

        with pytest.raises(PermissionDenied):
            reopen(dbdir).connect("analyst").execute("SELECT id FROM items")

    def test_alter_table_roundtrip(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        session.execute("ALTER TABLE items ADD COLUMN tag TEXT DEFAULT 'x'")
        session.execute("ALTER TABLE items RENAME COLUMN qty TO amount")
        session.execute("ALTER TABLE items RENAME TO stock")
        session.execute("ALTER TABLE stock DROP COLUMN name")
        expected = db.snapshot()
        db.close()
        db2 = reopen(dbdir)
        assert db2.snapshot() == expected
        assert db2.catalog.table("stock").column_names() == [
            "id", "amount", "tag",
        ]

    def test_drop_table_and_recreate_changes_uid(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        old_uid = db.heap("items").uid
        session.execute("DROP TABLE items")
        session.execute("CREATE TABLE items (id INT PRIMARY KEY)")
        session.execute("INSERT INTO items VALUES (10)")
        new_uid = db.heap("items").uid
        assert new_uid != old_uid
        db.close()
        db2 = reopen(dbdir)
        assert db2.heap("items").uid == new_uid
        assert db2.snapshot()["items"] == [{"id": 10}]


class TestEngineLifecycle:
    def test_in_memory_remains_default(self):
        db = Database(owner="admin")
        assert db.engine.durable is False
        assert db.engine.catalog_dir is None
        # no redo overhead: the transaction manager skips record building
        assert db.connect("admin").tx.redo_enabled is False

    def test_checkpoint_compacts_wal(self, dbdir):
        db = seeded(dbdir)
        wal_path = db.engine.wal_path
        assert os.path.getsize(wal_path) > 0
        db.checkpoint()
        assert os.path.getsize(wal_path) == 0
        expected = db.snapshot()
        db.close()
        db2 = reopen(dbdir)
        assert db2.snapshot() == expected
        assert db2.engine.snapshot_loaded is True
        assert db2.engine.stats["wal_replayed"] == 0

    def test_checkpoint_refused_inside_transaction(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        session.execute("BEGIN")
        session.execute("INSERT INTO items VALUES (9, 'open', 0)")
        with pytest.raises(TransactionError):
            db.checkpoint()
        session.execute("ROLLBACK")
        db.checkpoint()  # fine once the transaction is gone
        db.close()

    def test_auto_checkpoint_by_record_count(self, tmp_path):
        path = str(tmp_path / "auto")
        db = Database.open(path, auto_checkpoint_records=5)
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for i in range(8):
            session.execute(f"INSERT INTO t VALUES ({i})")
        # 1 DDL + 8 inserts crossed the threshold at least once
        assert db.engine.stats["checkpoints"] >= 2  # initial + automatic
        with open(db.engine.wal_path, "rb") as fh:
            remaining = [line for line in fh.read().split(b"\n") if line]
        assert len(remaining) < 5  # compaction kept the log short
        db.close()
        assert reopen(path).table_row_count("t") == 8

    def test_auto_checkpoint_deferred_during_transaction(self, tmp_path):
        path = str(tmp_path / "defer")
        db = Database.open(path, auto_checkpoint_records=3)
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        checkpoints_before = db.engine.stats["checkpoints"]
        session.execute("BEGIN")
        for i in range(6):
            session.execute(f"INSERT INTO t VALUES ({i})")
        session.execute("COMMIT")  # threshold crossed mid-commit: deferred
        assert db.engine.stats["checkpoints"] > checkpoints_before
        db.close()
        assert reopen(path).table_row_count("t") == 6

    def test_closed_engine_rejects_writes(self, dbdir):
        db = seeded(dbdir)
        session = db.connect("admin")
        db.close()
        with pytest.raises(PersistenceError):
            session.execute("INSERT INTO items VALUES (5, 'late', 0)")

    def test_lock_file_guards_against_second_writer(self, dbdir):
        db = seeded(dbdir)
        assert os.path.exists(db.engine.lock_path)
        # fake another live process holding the lock (pid 1 is always up)
        db.close()
        assert not os.path.exists(db.engine.lock_path)
        os.makedirs(dbdir, exist_ok=True)
        with open(os.path.join(dbdir, "LOCK"), "w") as fh:
            fh.write("1\n")
        with pytest.raises(PersistenceError, match="locked by running process"):
            Database.open(dbdir)
        os.unlink(os.path.join(dbdir, "LOCK"))

    def test_same_process_double_open_refused(self, dbdir):
        db = seeded(dbdir)
        with pytest.raises(PersistenceError, match="already open in this"):
            Database.open(dbdir)
        db.close()
        db2 = reopen(dbdir)  # fine once the first handle is closed
        db2.close()

    def test_failed_recovery_releases_lock(self, dbdir):
        db = seeded(dbdir)
        db.checkpoint()
        db.close()
        snapshot_path = os.path.join(dbdir, "snapshot.json")
        with open(snapshot_path, "r+") as fh:
            fh.write("garbage")  # corrupt the snapshot header
        with pytest.raises(PersistenceError):
            Database.open(dbdir)
        # the failed open must not hold the directory hostage
        assert not os.path.exists(os.path.join(dbdir, "LOCK"))

    def test_stale_lock_from_dead_process_is_stolen(self, dbdir):
        db = seeded(dbdir)
        expected = db.snapshot()
        db.close()
        with open(os.path.join(dbdir, "LOCK"), "w") as fh:
            fh.write("999999999\n")  # beyond pid_max: never a live process
        db2 = reopen(dbdir)  # steals the stale lock instead of failing
        assert db2.snapshot() == expected
        db2.close()

    def test_open_seeds_owner_only_when_fresh(self, dbdir):
        db = Database.open(dbdir, owner="creator")
        db.create_user("other")
        db.close()
        db2 = Database.open(dbdir, owner="impostor")
        assert db2.privileges.owner == "creator"
        assert db2.privileges.has_user("other")


def wal_bytes(path: str) -> bytes:
    with open(os.path.join(path, "wal.jsonl"), "rb") as fh:
        return fh.read()


def shadow_replay(data: bytes) -> dict[int, dict]:
    """Independent oracle: apply committed WAL batches to a dict model.

    Mirrors the durability contract, not the implementation: only whole
    batches terminated by a commit-marked record count; a trailing batch
    whose commit marker is missing (torn away) is ignored entirely.
    """
    rows: dict[int, dict] = {}
    pending: list[dict] = []
    # the final split element is either b"" (file ends with a newline) or
    # a torn fragment — both are outside the durable prefix
    for line in data.split(b"\n")[:-1]:
        if not line:
            continue
        try:
            pending.append(json.loads(line))
        except ValueError:
            break
        if not pending[-1].get("commit"):
            continue
        for record in pending:
            if record["op"] in ("insert", "update"):
                rows[record["rid"]] = dict(record["row"])
            elif record["op"] == "delete":
                del rows[record["rid"]]
        pending = []
    return rows


def durable_prefix(data: bytes) -> bytes:
    """Bytes recovery must keep: up to the last complete committed batch."""
    end = 0
    position = 0
    while True:
        newline = data.find(b"\n", position)
        if newline == -1:
            break
        try:
            record = json.loads(data[position:newline])
        except ValueError:
            break
        position = newline + 1
        if isinstance(record, dict) and record.get("commit"):
            end = position
    return data[:end]


def copy_db(src: str, dst: str, wal: bytes) -> None:
    if os.path.exists(dst):
        shutil.rmtree(dst)
    os.makedirs(dst)
    shutil.copy2(os.path.join(src, "snapshot.json"), dst)
    with open(os.path.join(dst, "wal.jsonl"), "wb") as fh:
        fh.write(wal)


class TestTornWal:
    def _fixture(self, tmp_path) -> str:
        path = str(tmp_path / "db")
        db = Database.open(path)
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.checkpoint()  # WAL now contains exactly the DML below
        session.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
        session.execute("UPDATE t SET name = 'TWO' WHERE id = 2")
        # final transaction is multi-record: tearing its last record must
        # discard the *whole* batch, not leave rid 3 half-applied
        session.execute("INSERT INTO t VALUES (3, 'three'), (4, 'four')")
        db.close()
        return path

    def test_truncation_at_every_byte_of_final_record(self, tmp_path):
        path = self._fixture(tmp_path)
        data = wal_bytes(path)
        final_start = data.rstrip(b"\n").rfind(b"\n") + 1
        scratch = str(tmp_path / "scratch")
        for cut in range(final_start, len(data) + 1):
            truncated = data[:cut]
            copy_db(path, scratch, truncated)
            db = reopen(scratch)
            got = {rid: row for rid, row in db.heap("t").rows()}
            assert got == shadow_replay(truncated), f"mismatch at cut={cut}"
            # a torn final record takes its whole uncommitted batch with
            # it: rid 3 must never appear without rid 4
            if cut < len(data):
                assert 3 not in got and 4 not in got
            # bytes past the last committed batch are physically gone
            assert wal_bytes(scratch) == durable_prefix(truncated)
            db.close()

    def test_garbage_tail_truncated(self, tmp_path):
        path = self._fixture(tmp_path)
        data = wal_bytes(path)
        scratch = str(tmp_path / "scratch")
        copy_db(path, scratch, data + b'{"seq": nope\n')
        db = reopen(scratch)
        assert db.engine.stats["wal_truncated_bytes"] > 0
        assert {rid for rid, _ in db.heap("t").rows()} == {1, 2, 3, 4}
        assert wal_bytes(scratch) == data
        db.close()

    def test_sequence_gap_ends_replay(self, tmp_path):
        path = self._fixture(tmp_path)
        data = wal_bytes(path)
        gap = json.dumps(
            {"seq": 999, "op": "insert", "table": "t", "rid": 9,
             "row": {"id": 9, "name": "gap"}, "uid": 1, "version": 99,
             "commit": True}
        ).encode() + b"\n"
        scratch = str(tmp_path / "scratch")
        copy_db(path, scratch, data + gap)
        db = reopen(scratch)
        assert {rid for rid, _ in db.heap("t").rows()} == {1, 2, 3, 4}
        assert wal_bytes(scratch) == data
        db.close()

    def test_torn_commit_never_half_applies_transaction(self, tmp_path):
        """A multi-statement explicit transaction whose commit batch is
        torn mid-way recovers to the pre-transaction state entirely."""
        path = str(tmp_path / "db")
        db = Database.open(path)
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.checkpoint()
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1, 'first')")
        session.execute("INSERT INTO t VALUES (2, 'second')")
        session.execute("UPDATE t SET name = 'FIRST' WHERE id = 1")
        session.execute("COMMIT")  # one batch, three records
        db.close()
        data = wal_bytes(path)
        lines = data.rstrip(b"\n").split(b"\n")
        assert len(lines) == 3
        scratch = str(tmp_path / "scratch")
        # keep 1 or 2 complete records of the 3-record batch: recovery
        # must apply none of them
        for keep in (1, 2):
            partial = b"\n".join(lines[:keep]) + b"\n"
            copy_db(path, scratch, partial)
            recovered = reopen(scratch)
            assert len(recovered.heap("t")) == 0
            assert wal_bytes(scratch) == b""  # uncommitted batch truncated
            recovered.close()


# one statement of a random committed history; ids collide on purpose so
# failed statements (PK violations) exercise the undo path too
_VALUES = st.integers(min_value=0, max_value=6)
_STATEMENTS = st.one_of(
    st.tuples(st.just("insert"), _VALUES, st.text("abc", max_size=4)),
    st.tuples(st.just("update"), _VALUES, st.text("abc", max_size=4)),
    st.tuples(st.just("delete"), _VALUES, st.just("")),
)


@st.composite
def histories(draw):
    """A list of (in_tx, commit, statements) blocks."""
    blocks = draw(
        st.lists(
            st.tuples(
                st.booleans(),  # wrap in BEGIN .. COMMIT/ROLLBACK
                st.booleans(),  # commit (vs rollback) when wrapped
                st.lists(_STATEMENTS, min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return blocks


class TestCrashRecoveryProperty:
    # tmp_path reuse across examples is handled explicitly (rmtree per run)
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(history=histories())
    def test_truncated_wal_recovers_durable_prefix(self, history, tmp_path):
        """Replay a random committed history, truncate the WAL at every byte
        boundary of the final record, reopen, and check the recovered heap
        equals an independent shadow replay of the durable prefix."""
        path = str(tmp_path / "db")
        if os.path.exists(path):
            shutil.rmtree(path)
        db = Database.open(path)
        session = db.connect("admin")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        db.checkpoint()

        def run(statement):
            op, key, text = statement
            try:
                if op == "insert":
                    session.execute(
                        f"INSERT INTO t VALUES ({key}, '{text}')"
                    )
                elif op == "update":
                    session.execute(
                        f"UPDATE t SET name = '{text}' WHERE id = {key}"
                    )
                else:
                    session.execute(f"DELETE FROM t WHERE id = {key}")
            except UniqueViolation:
                pass  # failed statement: undo ran, nothing durable

        for in_tx, commit, statements in history:
            if in_tx:
                session.execute("BEGIN")
            for statement in statements:
                run(statement)
            if in_tx:
                session.execute("COMMIT" if commit else "ROLLBACK")

        live = {rid: row for rid, row in db.heap("t").rows()}
        del db, session  # crash: no close()

        data = wal_bytes(path)
        # full-file recovery equals the live state and the shadow model
        assert shadow_replay(data) == live
        scratch = str(tmp_path / "scratch")
        if not data:
            return
        final_start = data.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(final_start, len(data) + 1):
            truncated = data[:cut]
            copy_db(path, scratch, truncated)
            recovered = reopen(scratch)
            got = {rid: row for rid, row in recovered.heap("t").rows()}
            # the commit-aware shadow drops any torn trailing batch, so
            # one expression covers every cut point
            assert got == shadow_replay(truncated), f"cut={cut}"
            assert wal_bytes(scratch) == durable_prefix(truncated)
            recovered.close()
