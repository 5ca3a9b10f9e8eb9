"""Fingerprint-keyed catalog cache — freshness without write-path hooks.

A :class:`CatalogCache` holds one :class:`~repro.retrieval.catalog.ValueCatalog`
per cache key (for minidb: ``(table, column, scan limit)``), each stamped
with the *fingerprint* of the data it was built from. Callers pass the
current fingerprint on every lookup; a mismatch rebuilds lazily. For
minidb the fingerprint is the owning heap's ``(uid, version)`` pair —
``version`` is bumped by every row/column/index mutation including
transaction undo replays, and ``uid`` changes when a table is dropped and
recreated — so INSERT/UPDATE/DELETE/ROLLBACK and DDL can never serve
stale exemplars, and read-only workloads never pay an invalidation check
beyond an integer compare.

Persistence
-----------

When the database runs on a durable storage engine, the cache can be
given a :class:`CatalogStore` — a directory of pickled catalogs living
next to the engine's snapshot (``<db>/catalogs/``), each file named by a
hash of the cache key plus its fingerprint. Because the durable engine
restores ``(uid, version)`` change counters *exactly* across restarts, a
reopened database finds its persisted catalogs byte-for-byte fresh and
serves indexed ``get_value`` calls with **zero rebuild** for unchanged
columns; any column mutated since simply misses (stale fingerprint) and
rebuilds as before. Pickle is appropriate here: the files sit inside the
database directory, the same trust domain as the data files themselves.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from ..faults import OS_FILESYSTEM, Filesystem
from ..obs import CounterMapView, MetricsRegistry
from .catalog import ValueCatalog


class CatalogStore:
    """Directory of persisted value catalogs, one pickle per (key, fingerprint).

    Writes are atomic (temp file + rename) and write-through: a catalog is
    persisted the moment it is built, so durability never depends on a
    clean shutdown. Storing a catalog removes files persisted for the same
    key under older fingerprints (they can never be served again — version
    counters only grow).

    Fingerprints must be ``(uid, version)`` integer pairs; they are encoded
    *verbatim* in the filename (``<keyhash>.<uid>-<version>.catalog.pkl``)
    so durable-engine recovery can prune, without deserializing anything,
    every sidecar whose fingerprint no longer matches a live heap. That
    prune is what makes persisted catalogs crash-safe: a catalog built from
    *uncommitted* data (version counters run ahead of the WAL inside open
    transactions) dies at recovery instead of colliding with a future
    committed state that reuses the same counter value.
    """

    #: filename suffix shared with the durable engine's recovery prune
    SUFFIX = ".catalog.pkl"

    def __init__(
        self,
        directory: str,
        filesystem: Filesystem | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.directory = directory
        #: the same I/O seam as the owning durable engine, so fault
        #: injection covers sidecar writes too (``fs-seam`` staticcheck
        #: rule); the default passthrough costs nothing
        self.fs = filesystem or OS_FILESYSTEM
        #: observability (``minidb_retrieval_store_<key>``): tests and the
        #: storage benchmark read these
        self._counters = (registry or MetricsRegistry()).counters(
            "minidb_retrieval_store_{}",
            ("loads", "misses", "stores"),
            "persisted catalog store count",
        )
        self.stats = CounterMapView(self._counters)

    @staticmethod
    def _digest(value: Hashable) -> str:
        return hashlib.sha1(repr(value).encode("utf-8")).hexdigest()[:20]

    def _path(self, key: Hashable, fingerprint: Hashable) -> str:
        uid, version = fingerprint  # contract: (uid, version) integers
        return os.path.join(
            self.directory,
            f"{self._digest(key)}.{int(uid)}-{int(version)}{self.SUFFIX}",
        )

    def load(self, key: Hashable, fingerprint: Hashable) -> ValueCatalog | None:
        """The persisted catalog for exactly this fingerprint, or ``None``.

        Any failure to read or deserialize — missing file, torn write,
        incompatible packed format from an older build — is a cache miss,
        never an error: the caller rebuilds from the live data.
        """
        try:
            with self.fs.open(self._path(key, fingerprint), "rb") as fh:
                catalog = pickle.load(fh)
        except Exception:  # staticcheck: ignore[broad-except] — pickle.load can raise nearly anything on a torn or stale file; by contract every such failure is a cache miss, and the caller rebuilds from live data
            self._counters["misses"].inc()
            return None
        if not isinstance(catalog, ValueCatalog):
            self._counters["misses"].inc()
            return None
        self._counters["loads"].inc()
        return catalog

    def store(self, key: Hashable, fingerprint: Hashable, catalog: ValueCatalog) -> None:
        stem = self._digest(key) + "."
        tmp_path: str | None = None
        try:
            self.fs.makedirs(self.directory, exist_ok=True)
            for name in self.fs.listdir(self.directory):
                if name.startswith(stem) and name.endswith(self.SUFFIX):
                    self.fs.unlink(os.path.join(self.directory, name))
            path = self._path(key, fingerprint)
            tmp_path = path + ".tmp"
            with self.fs.open(tmp_path, "wb") as fh:
                # one write call: a torn sidecar write is one fault point
                fh.write(pickle.dumps(catalog, protocol=pickle.HIGHEST_PROTOCOL))
            self.fs.replace(tmp_path, path)
        except OSError:
            # persistence is best-effort; the in-memory copy serves — but
            # never leak the torn temp file (it would sit in the catalog
            # directory until the next recovery prune)
            if tmp_path is not None and self.fs.exists(tmp_path):
                try:
                    self.fs.unlink(tmp_path)
                except OSError:
                    pass
            return
        self._counters["stores"].inc()


class CatalogCache:
    """LRU cache of value catalogs, invalidated by data fingerprints.

    Thread-safe: the cache is shared by every session of a database, and
    concurrent ``get_value`` calls race lookups against invalidations. A
    mutex guards the LRU ``OrderedDict`` — an unguarded ``move_to_end``/
    ``popitem`` race corrupts the dict; the counters are atomic registry
    instruments. Catalog *builds* (the expensive part) deliberately run
    outside the mutex, so two sessions may build the same missing catalog
    concurrently; last writer wins, which is safe because both catalogs
    are equivalent for the fingerprint they were built under.
    """

    def __init__(
        self,
        max_entries: int = 128,
        store: CatalogStore | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.max_entries = max_entries
        self.store = store
        self._mutex = threading.Lock()
        #: guarded by self._mutex
        self._entries: OrderedDict[Hashable, tuple[Hashable, ValueCatalog]] = (
            OrderedDict()
        )
        #: lookup counters (``minidb_retrieval_cache_<key>``)
        self._counters = (registry or MetricsRegistry()).counters(
            "minidb_retrieval_cache_{}",
            ("hits", "misses", "rebuilds", "persisted_hits"),
            "catalog cache lookup count",
        )
        self.stats = CounterMapView(self._counters)

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def lookup(
        self,
        key: Hashable,
        fingerprint: Hashable,
        build: Callable[[], list[Any]],
    ) -> ValueCatalog:
        """The catalog for ``key``, rebuilt from ``build()`` when stale."""
        with self._mutex:
            cached = self._entries.get(key)
            if cached is not None and cached[0] == fingerprint:
                self._entries.move_to_end(key)
                self._counters["hits"].inc()
                return cached[1]
        if self.store is not None:
            catalog = self.store.load(key, fingerprint)
            if catalog is not None:
                self._counters["persisted_hits"].inc()
                with self._mutex:
                    self._insert(key, fingerprint, catalog)
                return catalog
        catalog = ValueCatalog(build())
        if self.store is not None:
            self.store.store(key, fingerprint, catalog)
        with self._mutex:
            self._counters["misses" if cached is None else "rebuilds"].inc()
            self._insert(key, fingerprint, catalog)
        return catalog

    #: requires self._mutex
    def _insert(
        self, key: Hashable, fingerprint: Hashable, catalog: ValueCatalog
    ) -> None:
        self._entries[key] = (fingerprint, catalog)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def cached_catalogs(self) -> list[ValueCatalog]:
        """Snapshot of the cached catalogs, LRU order (observability)."""
        with self._mutex:
            return [catalog for _, catalog in self._entries.values()]

    def invalidate(self, key: Hashable | None = None) -> None:
        """Drop one cached catalog, or all of them (memory only; persisted
        files are superseded by fingerprint, not deleted)."""
        with self._mutex:
            if key is None:
                self._entries.clear()
            else:
                self._entries.pop(key, None)
