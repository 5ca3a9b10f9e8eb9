"""Closed-loop load generator, dispatcher handler, layer patches, and metric math.

Every workload drives the service front door the way agents do: a
:class:`~repro.service.SessionManager` holds one toolkit per agent
session and a threaded :class:`~repro.service.Dispatcher` runs their
tool calls. Each client thread owns one session and runs *tasks*: a
task is a generator that yields ``(ToolCall, expectation)`` steps and
receives each call's :class:`~repro.mcp.ToolResult` before yielding the
next (closed loop: a client's next call waits for its previous reply).
Expectations are checked by the oracle between sub-windows, outside the
timing.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.faults.filesystem import Filesystem
from repro.mcp import ToolCall, ToolResult

import measure
import spans as sp

#: a task: yields (call, expectation), receives the call's result
Task = Iterator[tuple[ToolCall, tuple]]


@dataclass
class Client:
    """One closed-loop agent: a session token and its task stream."""

    token: str
    label: str
    tasks: Iterator[Task]


@dataclass
class Record:
    """One tool call as the client saw it."""

    client: str
    call: ToolCall
    expect: Any  # an oracle.Expect
    result: ToolResult
    submitted: float
    done: float

    @property
    def latency(self) -> float:
        return self.done - self.submitted


@dataclass
class Window:
    """What one timed window produced."""

    records: list[Record]
    started: float
    ended: float
    tasks: int
    counters: dict[str, float] = field(default_factory=dict)
    #: CPU time of the whole process over the window (every thread)
    cpu_seconds: float = 0.0
    #: time the hypervisor kept the process's CPUs from running
    steal_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.ended - self.started

    @classmethod
    def merge(cls, windows: list["Window"]) -> "Window":
        """One window of several run one after another: their records,
        and the sums of their lengths, tasks, counters and times."""
        counters: dict[str, float] = {}
        for window in windows:
            for key, value in window.counters.items():
                counters[key] = counters.get(key, 0) + value
        started = windows[0].started
        return cls(
            [record for window in windows for record in window.records],
            started,
            started + sum(window.seconds for window in windows),
            sum(window.tasks for window in windows),
            counters,
            sum(window.cpu_seconds for window in windows),
            sum(window.steal_seconds for window in windows),
        )


# --------------------------------------------------------------------------
# the dispatcher handler and the closed loop
# --------------------------------------------------------------------------


def make_handler(tracer: sp.Tracer) -> Callable:
    """The dispatcher ``handler=``: stamps the call and carries the
    request id on the worker thread for the span wrappers."""
    root = tracer.wrap(lambda session, call: session.call(call), "dispatcher.handler")

    def handler(session: Any, call: ToolCall) -> ToolResult:
        call.t_start = time.perf_counter()
        tracer.begin_request(call.rid)
        try:
            return root(session, call)
        finally:
            tracer.end_request()
            call.t_end = time.perf_counter()

    return handler


def run_window(
    dispatcher: Any,
    clients: list[Client],
    seconds: float,
    rids: Iterator[int],
    counters: Callable[[], dict[str, float]] | None = None,
    max_calls: int | None = None,
) -> Window:
    """Run every client's tasks until ``seconds`` pass or, given
    ``max_calls``, that many calls are made; a task that is running then
    is finished, so no transaction is left open. ``counters`` is sampled
    before and after; the window holds deltas."""
    records: list[Record] = []
    tasks_done = itertools.count()
    failures: list[Exception] = []
    before = counters() if counters else {}
    steal_started = measure.steal_s()
    cpu_started = time.process_time()
    started = time.perf_counter()
    deadline = started + seconds
    limit = max_calls if max_calls is not None else float("inf")

    def loop(client: Client) -> None:
        try:
            while time.perf_counter() < deadline and len(records) < limit:
                task = next(client.tasks)
                step = next(task, None)
                while step is not None:
                    call, expect = step
                    call.rid = next(rids)
                    submitted = time.perf_counter()
                    result = dispatcher.call(client.token, call, timeout=120.0)
                    done = time.perf_counter()
                    records.append(
                        Record(client.label, call, expect, result, submitted, done)
                    )
                    try:
                        step = task.send(result)
                    except StopIteration:
                        step = None
                next(tasks_done)
        except Exception as exc:  # re-raised below in the main thread
            failures.append(exc)

    threads = [
        threading.Thread(target=loop, args=(client,), name=f"client-{client.label}")
        for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 150.0)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish its last task")
    ended = max([started] + [r.done for r in records])
    cpu_seconds = time.process_time() - cpu_started
    steal_seconds = measure.steal_s() - steal_started
    if failures:
        raise failures[0]
    after = counters() if counters else {}
    deltas = {key: after[key] - before.get(key, 0) for key in after}
    return Window(records, started, ended, next(tasks_done), deltas, cpu_seconds, steal_seconds)


# --------------------------------------------------------------------------
# I/O accounting through the Filesystem seam
# --------------------------------------------------------------------------


class _CountingFile:
    """File proxy that counts the bytes written through it."""

    def __init__(self, fh: Any, fs: "CountingFilesystem"):
        self._fh = fh
        self._fs = fs

    def write(self, data: Any) -> int:
        size = len(data.encode("utf-8")) if isinstance(data, str) else len(data)
        self._fs.bytes_written += size
        return self._fh.write(data)

    def fileno(self) -> int:
        return self._fh.fileno()

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._fh, attr)

    def __enter__(self) -> "_CountingFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        self._fh.close()


class CountingFilesystem(Filesystem):
    """Passthrough seam that counts bytes written and fsyncs."""

    def __init__(self) -> None:
        self.bytes_written = 0
        self.fsyncs = 0

    def open(self, path: str, mode: str = "r", encoding: str | None = None) -> Any:
        fh = super().open(path, mode, encoding)
        if any(flag in mode for flag in "wax+"):
            return _CountingFile(fh, self)
        return fh

    def fsync(self, fh: Any) -> None:
        self.fsyncs += 1
        os.fsync(fh.fileno())


# --------------------------------------------------------------------------
# layer patches for the traced run
# --------------------------------------------------------------------------

#: planner_stats counters summed into ``executor.index_scans_per_select``
INDEX_PATHS = ("index_scans", "range_scans", "union_scans", "ordered_scans")
_PLANNER_KEYS = ("seq_scans", "batch_scans", "hash_joins") + INDEX_PATHS

#: span name per tool server (or ``server/tool``)
TOOL_SPANS = {
    "bridgescope.execution": "execution.tool",
    "bridgescope.context/get_schema": "context.get_schema",
    "bridgescope.context/get_value": "context.get_value",
    "bridgescope.context/get_object": "context.get_object",
    "bridgescope.transaction/begin": "transaction.begin_tool",
    "bridgescope.transaction/commit": "transaction.commit_tool",
    "bridgescope.transaction/rollback": "transaction.rollback_tool",
    "bridgescope.proxy": "proxy.run",
    "mltools/train_linear": "mltools.train_linear",
    "mltools/zscore_normalize": "mltools.normalize",
    "mltools/minmax_normalize": "mltools.normalize",
    "mltools/predict": "mltools.predict",
}


def install_layer_spans(tracer: sp.Tracer) -> None:
    """Patch each layer's public entry points at the names callers use."""
    from repro.core import minidb_binding
    from repro.core.verification import SqlVerifier
    from repro.mcp.registry import ToolRegistry
    from repro.minidb import ast_nodes as ast
    from repro.minidb import database
    from repro.minidb.engines.durable import DurableEngine
    from repro.minidb.executor import Executor
    from repro.minidb.transactions import TransactionManager
    from repro.retrieval.catalog import ValueCatalog
    from repro.retrieval.engine import CatalogCache
    from repro.service.locks import LockManager
    from repro.service.sessions import ServiceSession

    dml = (ast.InsertStatement, ast.UpdateStatement, ast.DeleteStatement)

    def executor_name(executor: Any, stmt: Any, session: Any) -> str:
        if isinstance(stmt, ast.SelectStatement):
            return "executor.select"
        return "executor.dml" if isinstance(stmt, dml) else "executor.other"

    def planner_before(executor: Any, stmt: Any, session: Any) -> dict:
        stats = executor.db.planner_stats
        return {key: stats[key] for key in _PLANNER_KEYS}

    def planner_delta(before: dict, result: Any, executor: Any, *_: Any) -> dict:
        stats = executor.db.planner_stats
        delta = {key: stats[key] - before[key] for key in _PLANNER_KEYS}
        delta["rows"] = len(result.rows) if result is not None and result.rows else 0
        return delta

    tracer.patch(ServiceSession, "call", "sessions.call")
    tracer.patch(ToolRegistry, "call", "registry.call")
    tracer.patch(SqlVerifier, "verify", "verification.verify")
    tracer.patch(minidb_binding.MinidbBinding, "analyze_sql", "binding.analyze_sql")
    tracer.patch(minidb_binding.MinidbBinding, "run_sql", "binding.run_sql")
    # parse/analyze are module globals: patch where each caller resolves them
    for module in (minidb_binding, database):
        tracer.patch(module, "parse", "parser.parse")
        tracer.patch(module, "analyze", "analysis.analyze")
    tracer.patch(database.Session, "execute_statement", "database.execute_statement")
    tracer.patch(database.Database, "authorize", "database.authorize")
    tracer.patch(
        Executor, "execute", executor_name, on_enter=planner_before, on_exit=planner_delta
    )
    tracer.patch(CatalogCache, "lookup", "retrieval.lookup")
    tracer.patch(ValueCatalog, "top_k", "retrieval.top_k")
    tracer.patch(TransactionManager, "commit", "transactions.commit")
    tracer.patch(DurableEngine, "append_commit", "wal.append")
    tracer.patch(DurableEngine, "checkpoint", "checkpoint")
    tracer.patch(LockManager, "acquire", "locks.acquire")


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def _ms(seconds: float | None) -> float:
    return 0.0 if seconds is None else seconds * 1e3


def _us(seconds: float | None) -> float:
    return 0.0 if seconds is None else seconds * 1e6


class Tally:
    """The end-to-end figures of a window run as several sub-windows.

    Each sub-window's records are added here once the oracle has checked
    them and are then dropped: what is kept per call is a float or two,
    so the benchmark's own memory barely grows with throughput and a peak
    RSS read after the window is the program's.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.steal_seconds = 0.0
        self.calls = 0
        self.tasks = 0
        self.tokens = 0
        self.latencies = array("d")
        self.points = array("d")
        self.txns = array("d")
        self.dml_bytes = 0
        self.counters: dict[str, float] = {}

    def add(self, window: Window, tokens: Callable[[ToolResult], int]) -> None:
        self.seconds += window.seconds
        self.cpu_seconds += window.cpu_seconds
        self.steal_seconds += window.steal_seconds
        self.calls += len(window.records)
        self.tasks += window.tasks
        for key, value in window.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        by_client: dict[str, list[Record]] = {}
        for record in window.records:
            self.latencies.append(record.latency)
            self.tokens += tokens(record.result)
            if is_point_select(record):
                self.points.append(record.latency)
            by_client.setdefault(record.client, []).append(record)
        # a sub-window finishes every task it starts, so no transaction
        # spans two of them
        for records in by_client.values():
            begun, pending = None, 0
            for record in records:
                tool = record.call.tool
                if tool == "begin":
                    begun, pending = record.submitted, 0
                elif tool in ("insert", "update", "delete") and begun is not None:
                    pending += len(record.call.args["sql"].encode("utf-8"))
                elif tool == "commit" and begun is not None and not record.result.is_error:
                    self.txns.append(record.done - begun)
                    self.dml_bytes += pending
                    begun = None
                elif tool == "rollback":
                    begun = None

    def metrics(self, speed: float = 1.0, reference: float = 1.0) -> dict[str, float]:
        """Every end-to-end figure the window has (throughput, latency
        percentiles, tokens, transactions, write amplification, proxy
        rows); a figure the workload does not produce is left out.
        Rates are taken over the window's
        :func:`measure.reference_seconds` at ``speed`` (the probes') and
        ``reference``; ``calls_per_s_wall`` is the plain rate. Latencies
        are wall times."""
        seconds = measure.reference_seconds(
            self.seconds, self.cpu_seconds, self.steal_seconds, speed, reference
        )
        out = {
            "calls_per_s": self.calls / seconds,
            "calls_per_s_wall": self.calls / self.seconds,
            "call_p50_ms": _ms(measure.median(self.latencies)),
            "call_p90_ms": _ms(measure.percentile(self.latencies, 0.90)),
            "call_p99_ms": _ms(measure.percentile(self.latencies, 0.99)),
            "result_tokens_per_call": self.tokens / self.calls,
        }
        if self.points:
            out["point_select_p50_ms"] = _ms(measure.median(self.points))
        if self.txns:
            out["txn_p50_ms"] = _ms(measure.median(self.txns))
            out["txn_p99_ms"] = _ms(measure.percentile(self.txns, 0.99))
            out["commits_per_s"] = len(self.txns) / seconds
        if self.counters.get("fs_bytes_written") and self.dml_bytes:
            out["write_amplification"] = self.counters["fs_bytes_written"] / self.dml_bytes
        if self.counters.get("proxy_rows"):
            out["proxy_rows_per_s"] = self.counters["proxy_rows"] / seconds
        return out


def is_point_select(record: Record) -> bool:
    return record.expect.tag == "point" and not record.result.is_error


def layer_metrics(tracer: sp.Tracer, window: Window) -> dict[str, float]:
    """Per-layer figures from the spans recorded in a traced window."""
    spans = tracer.spans
    selfs = sp.self_times(spans)
    children = sp.children_of(spans)
    durations: dict[str, list[float]] = {}
    self_by_name: dict[str, list[float]] = {}
    for span in spans:
        durations.setdefault(span[sp.NAME], []).append(span[sp.END] - span[sp.START])
        self_by_name.setdefault(span[sp.NAME], []).append(selfs[span[sp.SID]])

    def p(name: str, q: float, scale: Callable = _us, self_time: bool = False) -> float:
        values = (self_by_name if self_time else durations).get(name, [])
        return scale(measure.percentile(values, q) if values else None)

    def count(name: str) -> int:
        return len(durations.get(name, ()))

    records = window.records
    m: dict[str, float] = {}
    queue_waits = [r.call.t_start - r.submitted for r in records]
    handoffs = [r.done - r.call.t_end for r in records]
    m["dispatcher.queue_wait_us_p50"] = _us(measure.median(queue_waits))
    m["dispatcher.queue_wait_us_p99"] = _us(measure.percentile(queue_waits, 0.99))
    m["dispatcher.handoff_us_p50"] = _us(measure.median(handoffs))
    m["sessions.call_self_us_p50"] = p("sessions.call", 0.5, self_time=True)
    m["registry.call_self_us_p50"] = p("registry.call", 0.5, self_time=True)

    m["verification.verify_us_p50"] = p("verification.verify", 0.5)
    m["verification.verify_self_us_p50"] = p("verification.verify", 0.5, self_time=True)
    m["verification.denied"] = sum(
        1 for s in spans if s[sp.NAME] == "verification.verify" and s[sp.ERROR]
    )
    m["binding.analyze_sql_us_p50"] = p("binding.analyze_sql", 0.5)
    m["binding.run_sql_us_p50"] = p("binding.run_sql", 0.5)
    m["binding.run_sql_self_us_p50"] = p("binding.run_sql", 0.5, self_time=True)

    # an executed SQL tool call: an execution tool span whose statement
    # passed verification and reached the binding's run_sql
    parses = analyses = sql_calls = 0
    for span in spans:
        if span[sp.NAME] != "execution.tool":
            continue
        names = [s[sp.NAME] for s in _descendants(span, children)]
        if "binding.run_sql" not in names:
            continue
        sql_calls += 1
        parses += names.count("parser.parse")
        analyses += names.count("analysis.analyze")
    m["parser.calls_per_sql_call"] = parses / sql_calls if sql_calls else 0.0
    m["parser.parse_us_p50"] = p("parser.parse", 0.5)
    m["analysis.calls_per_sql_call"] = analyses / sql_calls if sql_calls else 0.0
    m["analysis.analyze_us_p50"] = p("analysis.analyze", 0.5)
    m["database.execute_statement_us_p50"] = p("database.execute_statement", 0.5)
    m["database.authorize_us_p50"] = p("database.authorize", 0.5)

    m["executor.select_us_p50"] = p("executor.select", 0.5)
    m["executor.select_us_p90"] = p("executor.select", 0.9)
    m["executor.dml_us_p50"] = p("executor.dml", 0.5)
    selects = [s[sp.ATTRS] for s in spans if s[sp.NAME] == "executor.select"]
    n_sel = len(selects) or 1
    m["executor.seq_scans_per_select"] = sum(a["seq_scans"] for a in selects) / n_sel
    m["executor.index_scans_per_select"] = (
        sum(a[k] for a in selects for k in INDEX_PATHS) / n_sel
    )
    m["executor.batch_scans_per_select"] = sum(a["batch_scans"] for a in selects) / n_sel
    m["executor.hash_joins_per_select"] = sum(a["hash_joins"] for a in selects) / n_sel
    m["executor.rows_per_select"] = sum(a["rows"] for a in selects) / n_sel
    m["execution.tool_self_us_p50"] = p("execution.tool", 0.5, self_time=True)

    m["context.get_schema_us_p50"] = p("context.get_schema", 0.5)
    m["context.get_value_us_p50"] = p("context.get_value", 0.5)
    m["context.get_value_us_p99"] = p("context.get_value", 0.99)
    c = window.counters
    lookups = sum(c.get(f"catalog_{k}", 0) for k in ("hits", "misses", "rebuilds", "persisted_hits"))
    m["retrieval.catalog_hit_ratio"] = c.get("catalog_hits", 0) / lookups if lookups else 0.0
    m["retrieval.lookup_us_p50"] = p("retrieval.lookup", 0.5)
    m["retrieval.top_k_us_p50"] = p("retrieval.top_k", 0.5)

    m["transaction.begin_tool_us_p50"] = p("transaction.begin_tool", 0.5)
    m["transaction.commit_tool_us_p50"] = p("transaction.commit_tool", 0.5)
    m["transactions.commit_us_p50"] = p("transactions.commit", 0.5)
    m["transactions.commit_us_p99"] = p("transactions.commit", 0.99)

    m["wal.append_us_p50"] = p("wal.append", 0.5)
    m["wal.append_us_p99"] = p("wal.append", 0.99)
    commits = c.get("wal_commits", 0)
    m["wal.bytes_per_commit"] = c.get("wal_bytes", 0) / commits if commits else 0.0
    m["wal.fsyncs_per_commit"] = c.get("wal_fsyncs", 0) / commits if commits else 0.0
    checkpoints = durations.get("checkpoint", [])
    m["checkpoint.count"] = len(checkpoints)
    m["checkpoint.ms_p50"] = _ms(measure.median(checkpoints))
    m["checkpoint.ms_max"] = _ms(max(checkpoints) if checkpoints else None)
    m["fs.bytes_written"] = c.get("fs_bytes_written", 0)

    explicit_txns = count("transaction.begin_tool")
    m["locks.acquire_us_p99"] = p("locks.acquire", 0.99)
    m["locks.waits_per_txn"] = c.get("lock_waits", 0) / explicit_txns if explicit_txns else 0.0
    m["locks.deadlocks"] = c.get("lock_deadlocks", 0)
    m["locks.timeouts"] = c.get("lock_timeouts", 0)
    m["locks.acquisitions_per_call"] = c.get("lock_acquisitions", 0) / max(1, len(records))

    proxy_calls = count("proxy.run")
    m["proxy.self_ms_p50"] = p("proxy.run", 0.5, scale=_ms, self_time=True)
    m["proxy.rows_routed_per_call"] = c.get("proxy_rows", 0) / proxy_calls if proxy_calls else 0.0
    m["proxy.producer_calls_per_call"] = (
        c.get("proxy_producer_calls", 0) / proxy_calls if proxy_calls else 0.0
    )
    m["mltools.train_linear_ms_p50"] = p("mltools.train_linear", 0.5, scale=_ms)
    m["mltools.normalize_ms_p50"] = p("mltools.normalize", 0.5, scale=_ms)
    m["trace.reconcile_error_pct"] = reconcile_error_pct(spans, selfs, records)
    return m


def _descendants(span: tuple, children: dict[int, list[tuple]]) -> list[tuple]:
    out: list[tuple] = []
    stack = list(children.get(span[sp.SID], ()))
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(children.get(node[sp.SID], ()))
    return out


def reconcile_error_pct(
    spans: list[tuple], selfs: dict[int, float], records: list[Record]
) -> float:
    """Mean |latency - (queue wait + sum of span self times + handoff)|
    over traced point-select calls, as a percentage of their latency.

    Zero when every span nests inside its parent and the handler span
    covers the request; a mis-parented or escaping span shows here.
    """
    grouped = sp.by_request(spans)
    errors = []
    for record in records:
        if not is_point_select(record):
            continue
        parts = (record.call.t_start - record.submitted) + (record.done - record.call.t_end)
        parts += sum(selfs[s[sp.SID]] for s in grouped.get(record.call.rid, ()))
        errors.append(abs(record.latency - parts) / record.latency)
    return 100.0 * measure.mean(errors)


def point_select_split(tracer: sp.Tracer, records: list[Record]) -> list[tuple[str, float, float]]:
    """Median self time per layer over traced point-select calls, with
    its share of the median call latency: ``(layer, us, share)``."""
    selfs = sp.self_times(tracer.spans)
    grouped = sp.by_request(tracer.spans)
    per_layer: dict[str, list[float]] = {}
    latencies = []
    for record in records:
        if not is_point_select(record):
            continue
        latencies.append(record.latency)
        totals: dict[str, float] = {
            "dispatcher.queue_wait": record.call.t_start - record.submitted,
            "dispatcher.handoff": record.done - record.call.t_end,
        }
        for span in grouped.get(record.call.rid, ()):
            totals[span[sp.NAME]] = totals.get(span[sp.NAME], 0.0) + selfs[span[sp.SID]]
        for name, value in totals.items():
            per_layer.setdefault(name, []).append(value)
    call = measure.median(latencies) or 0.0
    rows = []
    for name, values in sorted(per_layer.items()):
        values += [0.0] * (len(latencies) - len(values))
        value = measure.median(values) or 0.0
        rows.append((name, value * 1e6, value / call if call else 0.0))
    rows.sort(key=lambda row: -row[1])
    return rows


def service_counters(manager: Any, sessions: list[Any], fs: CountingFilesystem | None) -> Callable[[], dict[str, float]]:
    """A sampler of every counter the layer metrics take deltas of."""
    db = manager.db

    def sample() -> dict[str, float]:
        out: dict[str, float] = {}
        for key, value in manager.lock_manager.stats.items():
            out[f"lock_{key}"] = value
        cache = db.retrieval_cache
        for key in ("hits", "misses", "rebuilds", "persisted_hits"):
            out[f"catalog_{key}"] = cache.stats[key] if cache is not None else 0
        engine_stats = getattr(db.engine, "stats", {})
        for key in ("commits", "wal_bytes", "wal_fsyncs"):
            out[f"wal_{key}" if key == "commits" else key] = engine_stats.get(key, 0)
        out["proxy_rows"] = sum(s.bridge.proxy.stats.values_routed for s in sessions)
        out["proxy_producer_calls"] = sum(s.bridge.proxy.stats.producer_calls for s in sessions)
        out["fs_bytes_written"] = fs.bytes_written if fs is not None else 0
        return out

    return sample
