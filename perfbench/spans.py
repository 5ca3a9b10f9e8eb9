"""Request-scoped spans recorded around layer entry points, from outside.

The traced run patches the public entry points of each layer at runtime
(:meth:`Tracer.patch`) and wraps the tool functions of each session's
registry (:meth:`Tracer.wrap_tools`). A span is recorded only while the
calling thread carries a request id, which the benchmark's dispatcher
handler sets for the duration of one tool call; everything else (set-up,
the oracle) passes through the wrappers untraced.

Spans stay in memory as tuples ``(sid, parent, rid, name, start, end,
error, attrs)`` and are written out when the run ends. Self time is a
span's duration minus the part of it its children cover
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

SID, PARENT, RID, NAME, START, END, ERROR, ATTRS = range(8)


class Tracer:
    """Span recorder plus the runtime patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []
        self.enabled = False

    # ------------------------------------------------------------ requests

    def begin_request(self, rid: int) -> None:
        if self.enabled:
            self._local.rid = rid
            self._local.stack = []

    def end_request(self) -> None:
        self._local.rid = None

    # ---------------------------------------------------------------- spans

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        on_exit: Callable[..., dict] | None = None,
        on_enter: Callable[..., Any] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call made inside a request.

        ``name`` may be a function of the call's arguments. ``on_enter``
        runs before the call and its value is handed to ``on_exit(state,
        result, *args)``, whose dict becomes the span's attributes.
        """
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            rid = getattr(local, "rid", None)
            if rid is None:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            stack = local.stack
            sid = next(ids)
            parent = stack[-1] if stack else None
            state = on_enter(*args, **kwargs) if on_enter else None
            stack.append(sid)
            error = False
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = on_exit(state, result, *args) if on_exit else None
                spans.append((sid, parent, rid, label, start, end, error, attrs))

        return traced

    def patch(self, owner: Any, attr: str, name: Any, **hooks: Any) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper (undone by
        :meth:`unpatch_all`). ``owner`` is a class or a module."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **hooks))

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def wrap_tools(self, registry: Any, names: dict[str, str]) -> None:
        """Wrap every tool function of ``registry``'s servers.

        ``names`` maps ``server.name`` (or ``server.name/tool``) to the
        span name; unmapped tools are left alone. Tool tables are bound
        when a server is built, so this runs per session.
        """
        for server in registry.servers:
            for tool, (spec, fn) in list(server._tools.items()):
                label = names.get(f"{server.name}/{tool}") or names.get(server.name)
                if label is not None and not hasattr(fn, "__wrapped__"):
                    server._tools[tool] = (spec, self.wrap(fn, label))

    # -------------------------------------------------------------- output

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (gzip)."""
        keys = ("sid", "parent", "rid", "name", "start", "end", "error", "attrs")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# --------------------------------------------------------------------------
# arithmetic
# --------------------------------------------------------------------------


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def children_of(spans: Iterable[tuple]) -> dict[int, list[tuple]]:
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append(span)
    return children


def self_times(spans: list[tuple]) -> dict[int, float]:
    """``sid -> duration minus the part its child spans cover``."""
    children = children_of(spans)
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        kids = children.get(span[SID], ())
        out[span[SID]] = (end - start) - covered(
            start, end, ((k[START], k[END]) for k in kids)
        )
    return out


def by_request(spans: Iterable[tuple]) -> dict[int, list[tuple]]:
    grouped: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        grouped[span[RID]].append(span)
    return grouped
