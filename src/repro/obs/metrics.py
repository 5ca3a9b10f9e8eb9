"""Thread-safe metric primitives and the process-wide registry.

Three instrument kinds, deliberately minimal:

- ``Counter`` — monotonically increasing float (``inc`` only).
- ``Gauge`` — settable point-in-time value (``set``/``inc``/``dec``).
- ``Histogram`` — fixed log-scale buckets sized for statement latencies
  (100 µs … 10 s plus +Inf). Quantiles are read as the upper bound of the
  bucket where the cumulative count crosses the requested rank, which is
  the same contract Prometheus' ``histogram_quantile`` offers: cheap,
  bounded error, no sample retention.

``MetricsRegistry`` is the single place instruments live. Constructing an
instrument directly is reserved for this module and its tests — production
code must go through ``registry.counter(...)`` / ``histogram(...)`` /
``gauge(...)`` (get-or-create) or ``registry.register(...)`` so every
instrument is exported; the ``metric-registration`` staticcheck rule
enforces this.

Instruments are the only way into the export: components that keep
counters (the durable engine, lock manager, session manager, retrieval
cache and store, service metrics) create them in the registry of the
database they serve and publish a read-only ``.stats`` mapping over them
(:class:`CounterMapView`), so a value is counted once, where it changes,
and ``system.metrics`` / ``render_text()`` read it with its declared kind.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, List, Tuple

# Log-scale latency buckets: 1/2.5/5 steps per decade, 100 µs to 10 s.
# The +Inf bucket is implicit (``Histogram`` tracks the observed max for it).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _format_value(value: float) -> str:
    """Render ints without a trailing ``.0`` so counter output stays tidy."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonic counter. ``inc`` is atomic under an internal lock."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value; supports set / inc / dec."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if that is higher (a high-water mark)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with cumulative-bucket quantile reads.

    ``quantile(q)`` returns the upper bound of the first bucket whose
    cumulative count reaches ``ceil(q * count)``; observations landing in
    the +Inf bucket report the observed maximum instead of infinity so the
    value stays plottable. Empty histograms report 0.0.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted non-empty tuple")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._total = 0
        self._max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._total += 1
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._total

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            total = self._total
            if total == 0:
                return 0.0
            rank = max(1, int(q * total + 0.999999))
            cumulative = 0
            for i, bound in enumerate(self.buckets):
                cumulative += self._counts[i]
                if cumulative >= rank:
                    return bound
            return self._max

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending with +Inf."""
        with self._lock:
            pairs: List[Tuple[float, int]] = []
            cumulative = 0
            for i, bound in enumerate(self.buckets):
                cumulative += self._counts[i]
                pairs.append((bound, cumulative))
            pairs.append((float("inf"), cumulative + self._counts[-1]))
            return pairs

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.sum,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }


class CounterMapView(Mapping):
    """Read-only ``Mapping[str, int]`` over a dict of registry counters.

    The ``stats`` surface of every counting component (and
    ``db.planner_stats``) over its registry counters: ``dict(view)``,
    ``view[key]``, ``.get`` and iteration all work, mutation does not.
    """

    def __init__(self, counters: Dict[str, Counter]) -> None:
        self._counters = dict(counters)

    def __getitem__(self, key: str) -> int:
        return int(self._counters[key].value)

    def __iter__(self) -> Iterator[str]:
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterMapView({dict(self)!r})"


class MetricsRegistry:
    """Named instrument store with get-or-create factories and text export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = Histogram(name, help, buckets)
            self._metrics[name] = metric
            return metric

    def register(self, metric: object) -> object:
        """Adopt an externally constructed instrument (must have a unique name)."""
        name = getattr(metric, "name", None)
        if not name:
            raise ValueError("metric must expose a non-empty .name")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None and existing is not metric:
                raise ValueError(f"metric {name!r} already registered")
            self._metrics[name] = metric
        return metric

    def counters(
        self, pattern: str, keys: Iterable[str], help: str = ""
    ) -> Dict[str, Counter]:
        """Get-or-create one counter per key, named ``pattern.format(key)``;
        wrap the result in a :class:`CounterMapView` for a ``stats`` view."""
        return {
            key: self.counter(pattern.format(key), f"{help}: {key}")
            for key in keys
        }

    def _get_or_create(self, cls, name: str, help: str):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help)
            self._metrics[name] = metric
            return metric

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def samples(self) -> List[Tuple[str, str, float]]:
        """Flat ``(name, kind, value)`` rows for ``system.metrics``.

        Histograms expand into ``_count``/``_sum``/``_p50``/``_p95`` rows so
        the view stays a plain three-column relation.
        """
        with self._lock:
            metrics = sorted(self._metrics.items())
        rows: List[Tuple[str, str, float]] = []
        for name, metric in metrics:
            if isinstance(metric, Histogram):
                snap = metric.snapshot()
                rows.append((f"{name}_count", "histogram", snap["count"]))
                rows.append((f"{name}_sum", "histogram", snap["sum"]))
                rows.append((f"{name}_p50", "histogram", snap["p50"]))
                rows.append((f"{name}_p95", "histogram", snap["p95"]))
            else:
                rows.append((name, metric.kind, metric.value))
        return rows

    def render_text(self) -> str:
        """Prometheus text exposition (the ``# HELP`` / ``# TYPE`` format)."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                for bound, count in metric.bucket_counts():
                    le = "+Inf" if bound == float("inf") else _format_value(bound)
                    lines.append(f'{name}_bucket{{le="{le}"}} {count}')
                lines.append(f"{name}_sum {_format_value(metric.sum)}")
                lines.append(f"{name}_count {metric.count}")
            else:
                lines.append(f"{name} {_format_value(metric.value)}")
        return "\n".join(lines) + "\n"
