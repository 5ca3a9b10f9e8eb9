"""Percentiles, run-level statistics, and the provenance stamp.

The percentile rule follows the benchmark's reporting convention: a tail
percentile is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it, so a p99 needs 1,000 samples and a p90 needs 100. Percentiles
at or below the median need one sample.
"""

from __future__ import annotations

import difflib
import gc
import math
import os
import platform
import random
import sys
import time
from typing import Iterable, Iterator, Sequence

#: samples that must lie strictly beyond a reported tail percentile
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float | None:
    """The ``q``-quantile (0 < q < 1) by nearest rank, or ``None``.

    ``None`` means the sample is too small for the rule: fewer than
    :data:`MIN_BEYOND` samples would lie beyond a tail percentile.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q!r} outside (0, 1)")
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    if q > 0.5 and n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float | None:
    return percentile(values, 0.5)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process since it started or since
    the last :func:`reset_peak_rss`, in MiB (Linux ``VmHWM``)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def reset_peak_rss() -> None:
    """Lower this process's peak-RSS mark to its current RSS (Linux:
    ``5`` into its own ``clear_refs``), so memory that the benchmark's
    own checks used and freed is not counted as the program's."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


class _Node:
    __slots__ = ("key", "value", "children")

    def __init__(self, key: int, value: str):
        self.key = key
        self.value = value
        self.children: list[_Node] = []

    def walk(self) -> Iterator["_Node"]:
        yield self
        for child in self.children:
            yield from child.walk()


_RNG = random.Random(0)
_TEXT_A = "".join(_RNG.choice("abcdefgh ") for _ in range(300))
_TEXT_B = "".join(_RNG.choice("abcdefgh ") for _ in range(300))


def _probe_unit() -> float:
    """A fixed slice of interpreter work of the kinds the program does:
    a small object tree built and walked through generators, dict, list
    and string traffic, a sort, and a ``difflib`` match (pure-Python
    sequence matching over dicts and lists)."""
    root = _Node(0, "r")
    nodes = [root]
    for i in range(1, 120):
        node = _Node(i, f"v{i}")
        nodes[(i * 31) % len(nodes)].children.append(node)
        nodes.append(node)
    groups: dict[str, list[int]] = {}
    for node in root.walk():
        groups.setdefault(node.value[:2], []).append(node.key)
    rows = sorted((node.key % 7, node.value) for node in nodes)
    text = ",".join(value for _, value in rows)
    return len(text) + len(groups) + difflib.SequenceMatcher(None, _TEXT_A, _TEXT_B).ratio()


class Speedometer:
    """The machine's speed at running Python, probed between sub-windows.

    On a shared host the same fixed loop runs up to ~1.6x slower while
    neighbours are busy, and its CPU time slows with its wall time, so a
    throughput figure follows the neighbours as much as the program. Each
    probe runs :func:`_probe_unit` for a short slice on the run's pinned
    CPU while the service is idle. The speed is the probes' units per CPU
    second of the probing thread, so neither time the hypervisor takes away
    (steal) nor another thread of the program is in it; the collector is
    off during a probe (reference counting frees the probe's objects), so
    the size of the program's heap is not in it either.
    """

    def __init__(self) -> None:
        self.units = 0
        self.cpu_seconds = 0.0

    def probe(self, seconds: float) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            cpu_started = time.thread_time()
            deadline = time.perf_counter() + seconds
            units = 0
            while True:
                _probe_unit()
                units += 1
                if time.perf_counter() >= deadline:
                    break
            self.cpu_seconds += time.thread_time() - cpu_started
            self.units += units
        finally:
            if collecting:
                gc.enable()

    @property
    def speed(self) -> float:
        """Probe units per CPU second over every probe so far."""
        return self.units / self.cpu_seconds


def steal_s() -> float:
    """Seconds the hypervisor has kept this process's CPUs from running
    while they had work (the ``steal`` column of ``/proc/stat``)."""
    tags = {f"cpu{cpu} " for cpu in os.sched_getaffinity(0)}
    total = 0
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            if line[: line.find(" ") + 1] in tags:
                total += int(line.split()[8])
    return total / os.sysconf("SC_CLK_TCK")


def reference_seconds(
    wall: float, cpu: float, steal: float, speed: float, reference: float
) -> float:
    """How long ``wall`` seconds of the program would take on a machine
    running Python at ``reference`` probe units per second instead of the
    ``speed`` measured: the ``cpu`` seconds are scaled, the ``steal``
    seconds are dropped, and the rest (waits on fsync, locks, idle) is
    kept as it is."""
    waits = max(0.0, wall - cpu - steal)
    return waits + cpu * speed / reference


def git_sha(root: str) -> str:
    """HEAD's commit id read from ``.git`` without running git, if any."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable (not a git checkout)"


def provenance(root: str, **fields: object) -> dict[str, object]:
    """Environment stamp attached to every result file."""
    stamp: dict[str, object] = {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
    }
    stamp.update(fields)
    return stamp
