"""Component counters are registry instruments, exported once, by name.

A durable, lock-managed database with a retrieval cache and two
dispatchers that have served calls: every component instrument must show
up in ``system.metrics`` and ``render_text()`` under its pinned name and
kind, with the value its owner's ``.stats`` view (or the service
``snapshot()``) reports. The two dispatchers count into the same
database-wide service instruments.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.mcp import ToolCall
from repro.minidb import Database
from repro.service import Dispatcher, SessionManager

ENGINE_COUNTERS = (
    "wal_replayed",
    "wal_skipped",
    "wal_truncated_bytes",
    "commits",
    "records",
    "wal_appends",
    "wal_bytes",
    "wal_fsyncs",
    "checkpoints",
    "checkpoint_failures",
    "storage_failures",
)
LOCK_COUNTERS = ("acquisitions", "waits", "timeouts", "deadlocks", "upgrades")
CACHE_COUNTERS = ("hits", "misses", "rebuilds", "persisted_hits")
STORE_COUNTERS = ("loads", "misses", "stores")
SESSION_COUNTERS = ("created", "expired", "closed", "rejected")
SERVICE_COUNTERS = (
    "submitted",
    "completed",
    "errors",
    "rejected",
    "retryable_errors",
    "storage_errors",
)

#: every component instrument: exported name -> kind
EXPECTED_KINDS = {
    **{f"minidb_engine_{key}": "counter" for key in ENGINE_COUNTERS},
    "minidb_engine_snapshot_loaded": "gauge",
    "minidb_engine_panicked": "gauge",
    **{f"minidb_lock_{key}": "counter" for key in LOCK_COUNTERS},
    "minidb_lock_waiting": "gauge",
    **{f"minidb_retrieval_cache_{key}": "counter" for key in CACHE_COUNTERS},
    **{f"minidb_retrieval_store_{key}": "counter" for key in STORE_COUNTERS},
    "minidb_sessions_live": "gauge",
    **{f"service_sessions_{key}": "counter" for key in SESSION_COUNTERS},
    "service_active_sessions": "gauge",
    **{f"service_{key}": "counter" for key in SERVICE_COUNTERS},
    "service_queue_depth": "gauge",
    "service_max_queue_depth": "gauge",
    "service_degraded": "gauge",
}

#: service samples that repeated values exported elsewhere; gone for good
DROPPED = (
    "service_lock_waits",
    "service_lock_timeouts",
    "service_deadlocks",
    "service_latency_samples",
    "service_p50_latency_s",
    "service_p95_latency_s",
)


@pytest.fixture
def served(tmp_path):
    """A reopened durable database after two dispatchers served calls."""
    path = str(tmp_path / "db")
    db = Database.open(path)
    admin = db.connect("admin")
    admin.execute("CREATE TABLE products (id INT PRIMARY KEY, name TEXT)")
    for i, name in enumerate(("red shoe", "blue hat", "green coat")):
        admin.execute(f"INSERT INTO products VALUES ({i}, '{name}')")
    del admin
    db.close()

    db = Database.open(path)  # recovery loads the snapshot
    manager = SessionManager(db, lock_timeout_s=5.0)
    first = Dispatcher(manager, workers=2)
    second = Dispatcher(manager, workers=1)
    alice = manager.create_session("admin").token
    bob = manager.create_session("admin").token
    gone = manager.create_session("admin").token
    manager.close_session(gone)

    select = ToolCall("select", {"sql": "SELECT name FROM products WHERE id = 1"})
    lookup = ToolCall("get_value", {"col": "products.name", "key": "shoe", "k": 2})
    for _ in range(3):
        assert not first.call(alice, select).is_error
    assert not first.call(alice, lookup).is_error
    assert not second.call(bob, lookup).is_error
    write = ToolCall("insert", {"sql": "INSERT INTO products VALUES (9, 'tan boot')"})
    assert not second.call(bob, write).is_error
    assert second.call(bob, ToolCall("select", {"sql": "SELECT nope"})).is_error
    yield db, manager, first, second
    first.close()
    second.close()
    manager.close()
    db.close()


def _exported(db: Database, viewer) -> tuple[dict, dict]:
    """``name -> (kind, value)`` from system.metrics (read through the
    ``viewer`` session) and from render_text()."""
    gc.collect()  # settle the live-session gauge before reading it
    view = {
        name: (kind, value)
        for name, kind, value in viewer.execute(
            "SELECT name, kind, value FROM system.metrics"
        ).rows
    }
    kinds: dict[str, str] = {}
    values: dict[str, float] = {}
    for line in db.metrics.render_text().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            kinds[name] = kind
        elif not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            values[name] = float(value)
    text = {name: (kinds.get(name), value) for name, value in values.items()}
    return view, text


class TestComponentInstruments:
    def test_names_and_kinds_in_both_exports(self, served):
        db = served[0]
        viewer = db.connect("admin")
        view, text = _exported(db, viewer)
        for name, kind in EXPECTED_KINDS.items():
            assert view[name][0] == kind, name
            assert text[name][0] == kind, name
            assert view[name][1] == text[name][1], name
        for name in DROPPED:
            assert name not in view and name not in text
        hist = "service_request_latency_seconds"
        assert text[f"{hist}_count"][0] is None  # a histogram series line
        assert view[f"{hist}_count"] == ("histogram", text[f"{hist}_count"][1])

    def test_values_match_stats_views(self, served):
        db, manager, first, _ = served
        viewer = db.connect("admin")
        view, _ = _exported(db, viewer)

        def value(name: str) -> float:
            return view[name][1]

        engine, locks, cache = db.engine, manager.lock_manager, db.retrieval_cache
        for key in ENGINE_COUNTERS:
            assert value(f"minidb_engine_{key}") == engine.stats[key], key
        assert engine.stats["commits"] >= 1 and engine.stats["wal_bytes"] > 0
        assert engine.snapshot_loaded is True
        assert value("minidb_engine_snapshot_loaded") == 1
        assert value("minidb_engine_panicked") == 0
        for key in LOCK_COUNTERS:
            assert value(f"minidb_lock_{key}") == locks.stats[key], key
        assert locks.stats["acquisitions"] > 0
        assert value("minidb_lock_waiting") == locks.waiting_count() == 0
        for key in CACHE_COUNTERS:
            assert value(f"minidb_retrieval_cache_{key}") == cache.stats[key], key
        assert cache.stats["misses"] == 1 and cache.stats["hits"] == 1
        for key in STORE_COUNTERS:
            assert value(f"minidb_retrieval_store_{key}") == cache.store.stats[key]
        assert cache.store.stats["stores"] == 1
        assert value("minidb_sessions_live") == len(db.live_sessions)

    def test_session_manager_counts_exported(self, served):
        db, manager, _, _ = served
        viewer = db.connect("admin")
        view, _ = _exported(db, viewer)
        for key in SESSION_COUNTERS:
            assert view[f"service_sessions_{key}"][1] == manager.stats[key], key
        assert dict(manager.stats) == {
            "created": 3, "expired": 0, "closed": 1, "rejected": 0,
        }
        assert view["service_active_sessions"][1] == manager.active_count() == 2

    def test_snapshot_matches_exported_service_values(self, served):
        db, _, first, second = served
        viewer = db.connect("admin")
        view, _ = _exported(db, viewer)
        snapshot = first.metrics.snapshot()
        assert second.metrics.snapshot() == snapshot
        for key in SERVICE_COUNTERS:
            assert snapshot[key] == view[f"service_{key}"][1], key
        for key in ("queue_depth", "max_queue_depth"):
            assert snapshot[key] == view[f"service_{key}"][1], key
        assert snapshot["degraded"] is False
        assert view["service_degraded"][1] == 0
        assert snapshot["active_sessions"] == view["service_active_sessions"][1]
        assert snapshot["lock_waits"] == view["minidb_lock_waits"][1]
        assert snapshot["lock_timeouts"] == view["minidb_lock_timeouts"][1]
        assert snapshot["deadlocks"] == view["minidb_lock_deadlocks"][1]
        latency = "service_request_latency_seconds"
        assert snapshot["latency_samples"] == view[f"{latency}_count"][1]
        assert snapshot["p50_latency_s"] == view[f"{latency}_p50"][1]
        assert snapshot["p95_latency_s"] == view[f"{latency}_p95"][1]

    def test_both_dispatchers_add_up(self, served):
        db, _, _, _ = served
        viewer = db.connect("admin")
        view, _ = _exported(db, viewer)
        # first served 4 calls, second 3 (one of them an error)
        assert view["service_submitted"][1] == 7
        assert view["service_completed"][1] == 7
        assert view["service_errors"][1] == 1
        assert view["service_request_latency_seconds_count"][1] == 7


def test_concurrent_dispatchers_lose_no_counts(tmp_path):
    """More workers than cores across two dispatchers, with a short
    switch interval: every shared service count adds up exactly."""
    db = Database.open(str(tmp_path / "db"))
    db.connect("admin").execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    manager = SessionManager(db, lock_timeout_s=10.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        dispatchers = [
            Dispatcher(manager, workers=4, queue_limit=512) for _ in range(2)
        ]
        tokens = [manager.create_session("admin").token for _ in range(8)]
        futures = [
            dispatchers[n % 2].submit(
                tokens[n % 8],
                ToolCall("select", {"sql": f"SELECT v FROM t WHERE id = {n}"}),
            )
            for n in range(400)
        ]
        results = [future.result(timeout=60.0) for future in futures]
        for dispatcher in dispatchers:
            dispatcher.close(timeout_s=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(result.is_error for result in results)
    snapshot = dispatchers[0].metrics.snapshot()
    assert snapshot["submitted"] == snapshot["completed"] == 400
    assert snapshot["latency_samples"] == 400
    assert manager.stats["created"] == 8
    assert db.metrics.get("minidb_lock_waiting").value == 0
    assert manager.lock_manager.stats["acquisitions"] >= 400
    manager.close()
    db.close()
