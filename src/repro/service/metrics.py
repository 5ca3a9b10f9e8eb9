"""Service observability: request counters, gauges, and latency percentiles.

:class:`ServiceMetrics` keeps no state of its own: every value is an
instrument in a :class:`~repro.obs.metrics.MetricsRegistry` — the
database's, when a dispatcher builds it — named ``service_<key>``, plus
the ``service_request_latency_seconds`` histogram (fixed log-scale
buckets; quantiles read as bucket upper bounds). Every dispatcher serving
one database therefore counts into the same instruments, which export
with the engine's through ``system.metrics`` and ``render_text()``.

:meth:`ServiceMetrics.snapshot` keeps its flat, backward-compatible keys.
A few of them read instruments other components own in the same
registry: ``active_sessions`` (the session manager's gauge),
``lock_waits``/``lock_timeouts``/``deadlocks`` (the lock manager's
counters), and the engine's panic latch, which ``degraded`` ORs in — a
panicked engine means degraded read-only service even before any request
has observed the failure. Those keys are absent when the registry has no
such instrument.
"""

from __future__ import annotations

from typing import Any

from ..obs.metrics import MetricsRegistry

#: request outcomes counted as ``service_<key>``
_COUNTER_KEYS = (
    "submitted",
    "completed",
    "errors",
    "rejected",
    "retryable_errors",
    "storage_errors",
)

#: snapshot keys read from instruments owned by other components
_BORROWED = {
    "active_sessions": "service_active_sessions",
    "lock_waits": "minidb_lock_waits",
    "lock_timeouts": "minidb_lock_timeouts",
    "deadlocks": "minidb_lock_deadlocks",
}


class ServiceMetrics:
    """Thread-safe metrics surface for the multi-session service layer."""

    def __init__(self, registry: MetricsRegistry | None = None):
        #: the registry the instruments live in (a private one if none)
        self.registry = registry or MetricsRegistry()
        self._latency = self.registry.histogram(
            "service_request_latency_seconds",
            "end-to-end request latency (submit to completion)",
        )
        self._counters = self.registry.counters(
            "service_{}", _COUNTER_KEYS, "service request count"
        )
        #: set by each recording dispatcher to its own depth
        self._queue_depth = self.registry.gauge(
            "service_queue_depth", "dispatcher requests admitted, not completed"
        )
        self._max_queue_depth = self.registry.gauge(
            "service_max_queue_depth", "high-water mark of service_queue_depth"
        )
        #: latched on the first storage failure: the backing engine went
        #: fail-stop, the service is degraded to read-only
        self._degraded = self.registry.gauge(
            "service_degraded", "1 once a request hit a fail-stop engine"
        )

    # ------------------------------------------------------------ recording

    def record_submitted(self, queue_depth: int) -> None:
        self._counters["submitted"].inc()
        self._queue_depth.set(queue_depth)
        self._max_queue_depth.set_max(queue_depth)

    def record_completed(
        self, latency_s: float, queue_depth: int,
        is_error: bool = False, retryable: bool = False,
    ) -> None:
        self._counters["completed"].inc()
        if is_error:
            self._counters["errors"].inc()
        if retryable:
            self._counters["retryable_errors"].inc()
        self._queue_depth.set(queue_depth)
        self._latency.observe(latency_s)

    def record_rejected(self) -> None:
        self._counters["rejected"].inc()

    def record_storage_error(self) -> None:
        """One request hit the fail-stop engine (StorageFailedError):
        count it and latch the service as degraded."""
        self._counters["storage_errors"].inc()
        self._degraded.set(1)

    # ------------------------------------------------------------- reading

    def snapshot(self) -> dict[str, Any]:
        """One reading of every gauge/counter the service exposes."""
        data: dict[str, Any] = {
            key: int(counter.value) for key, counter in self._counters.items()
        }
        data["queue_depth"] = int(self._queue_depth.value)
        data["max_queue_depth"] = int(self._max_queue_depth.value)
        data["latency_samples"] = self._latency.count
        data["p50_latency_s"] = self._latency.quantile(0.50)
        data["p95_latency_s"] = self._latency.quantile(0.95)
        panicked = self.registry.get("minidb_engine_panicked")
        data["degraded"] = bool(self._degraded.value) or bool(
            panicked is not None and panicked.value
        )
        for key, name in _BORROWED.items():
            metric = self.registry.get(name)
            if metric is not None:
                data[key] = int(metric.value)
        return data
