"""Observability overhead + feature benchmark (PR 9).

Two questions:

1. **Zero-cost-when-dark** — with every ``observability_options`` switch at
   its default, how much slower is the tier-1 statement hot path than a
   build with no observability dispatch at all? The baseline replicates
   ``Session.execute``'s dark body (count and log the statement, parse
   unless handed a parsed statement, execute) so the measured delta is
   exactly the dark-mode dispatch: one options-dict read plus the
   thread-local tracer probes the inner hooks perform. Gated at ≤ 5% (the
   PR-7 seam-overhead pattern).
2. **Cost when lit** — the same workload with tracing enabled (ring buffer
   recording, span construction, scan events), reported but not gated.

Variants are interleaved, rotated, and best-of-``repeats`` under
``time.process_time`` for the same reasons as
:func:`repro.bench.fault_recovery.measure_seam_overhead`.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable

from ..minidb import Database
from ..minidb.parser import parse


def _build_db(rows: int, tracing: bool = False) -> tuple[Database, Any]:
    db = Database(owner="admin")
    session = db.connect("admin")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, name TEXT)")
    session.execute("CREATE INDEX ix_t_v ON t USING BTREE (v)")
    for n in range(rows):
        session.execute(f"INSERT INTO t VALUES ({n}, {n % 50}, 'name{n}')")
    if tracing:
        db.observability_options["tracing"] = True
    return db, session


def _plain_execute(session: Any, sql: str, stmt: Any = None) -> Any:
    """``Session.execute``'s dark-path body without the observability
    dispatch: the no-dispatch baseline the dark-mode gate compares
    against."""
    session.statements += 1
    session.statement_log.append(sql)
    if stmt is None:
        stmt = parse(sql)
    return session.execute_statement(stmt)


def measure_dark_overhead(
    statements: int = 600, rows: int = 2_000, repeats: int = 5
) -> dict[str, Any]:
    """Point-lookup workload: no-dispatch baseline vs dark vs traced."""
    db, session = _build_db(rows)
    traced_db, traced_session = _build_db(rows, tracing=True)
    workload = [f"SELECT v FROM t WHERE id = {i % rows}" for i in range(statements)]

    def run_baseline() -> None:
        for sql in workload:
            _plain_execute(session, sql)

    def run_dark() -> None:
        for sql in workload:
            session.execute(sql)

    def run_traced() -> None:
        for sql in workload:
            traced_session.execute(sql)

    variants: dict[str, Callable[[], None]] = {
        "baseline": run_baseline,
        "dark": run_dark,
        "traced": run_traced,
    }
    best = {name: float("inf") for name in variants}
    order = list(variants.items())
    for round_no in range(repeats):
        # rotate who goes first so monotonic drift hits all variants alike
        rotation = order[round_no % 3 :] + order[: round_no % 3]
        for name, run in rotation:
            gc.collect()
            started = time.process_time()
            run()
            best[name] = min(best[name], time.process_time() - started)

    def overhead(variant_s: float) -> float:
        return round((variant_s / best["baseline"] - 1.0) * 100.0, 2)

    return {
        "statements": statements,
        "rows": rows,
        "repeats": repeats,
        "baseline_s": round(best["baseline"], 4),
        "dark_s": round(best["dark"], 4),
        "traced_s": round(best["traced"], 4),
        "dark_overhead_pct": overhead(best["dark"]),
        "traced_overhead_pct": overhead(best["traced"]),
        "ring_entries": len(traced_db.tracer.recent()),
    }


def run_feature_probe(rows: int = 200) -> dict[str, Any]:
    """Sanity pass over the lit-up feature surface (not a timing)."""
    db, session = _build_db(rows, tracing=True)
    db.observability_options["slow_statement_s"] = 0.0  # capture everything
    session.execute("SELECT COUNT(*) FROM t WHERE v = 3")
    session.execute("SELECT name FROM t WHERE id = 7")
    analyze = session.execute("EXPLAIN ANALYZE SELECT name FROM t WHERE v = 9")
    tail = session.execute(
        "SELECT sql, duration_ms FROM system.statements "
        "ORDER BY duration_ms DESC LIMIT 1"
    )
    traces = db.tracer.recent()
    return {
        "system_statements_rows": len(
            session.execute("SELECT id FROM system.statements").rows
        ),
        "system_metrics_rows": len(
            session.execute("SELECT name FROM system.metrics").rows
        ),
        "slow_entries": len(db.tracer.slow_statements()),
        "explain_analyze_lines": len(analyze.rows),
        "slowest_sql": tail.rows[0][0] if tail.rows else None,
        "spans_last_statement": len(traces[-1].spans) if traces else 0,
        "render_text_bytes": len(db.metrics.render_text()),
    }


def experiment_observability(
    statements: int = 600, rows: int = 2_000, repeats: int = 5
) -> dict[str, Any]:
    return {
        "overhead": measure_dark_overhead(
            statements=statements, rows=rows, repeats=repeats
        ),
        "features": run_feature_probe(rows=min(rows, 500)),
    }
