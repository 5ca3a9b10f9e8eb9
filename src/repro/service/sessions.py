"""Agent-session lifecycle over one shared database.

The paper's BridgeScope design is one toolkit per database user; the
service layer multiplies that out to *many concurrent sessions* over one
shared :class:`~repro.minidb.Database`. A :class:`SessionManager`
authenticates users (a session is only created for a role the database
knows), hands each session its own :class:`~repro.core.server.BridgeScope`
— so per-user privileges and per-session transaction state stay exactly
as in the single-user design — and expires sessions that have been idle
past their TTL.

Creating a SessionManager installs a
:class:`~repro.service.locks.LockManager` on the database (unless one is
already present): from that point on the executor acquires table locks
per statement, which is what makes the shared heaps safe under the
threaded dispatcher. Databases never touched by a SessionManager keep
``lock_manager = None`` and pay zero locking overhead.
"""

from __future__ import annotations

import secrets
import threading
import time
from typing import Any, Callable, Iterator

from ..core.config import BridgeScopeConfig
from ..core.server import BridgeScope
from ..mcp import ToolCall, ToolResult
from ..minidb import Database
from ..obs import CounterMapView
from .locks import LockManager


class SessionError(Exception):
    """Unknown, expired, or closed service session."""


class ServiceSession:
    """One authenticated agent session: a token plus its own toolkit."""

    def __init__(
        self,
        token: str,
        user: str,
        bridge: BridgeScope,
        ttl_s: float,
        clock: Callable[[], float],
    ):
        self.token = token
        self.user = user
        self.bridge = bridge
        self.ttl_s = ttl_s
        self._clock = clock
        self.created_at = clock()
        self.last_used = self.created_at
        self.closed = False
        #: tool calls executed through this session (observability)
        self.calls = 0
        #: serializes execution against teardown: a reaper must never roll
        #: back the transaction manager or release locks while a dispatcher
        #: worker is mid-request on this session (the dispatcher's
        #: per-session FIFO means workers themselves never contend here)
        self._exec_mutex = threading.Lock()

    # ------------------------------------------------------------ lifecycle

    @property
    def minidb_session(self) -> Any:
        """The underlying minidb session (also the lock owner)."""
        return self.bridge.binding.session

    def touch(self) -> None:
        self.last_used = self._clock()

    def expired(self, now: float | None = None) -> bool:
        reference = self._clock() if now is None else now
        return (reference - self.last_used) > self.ttl_s

    def close(self, wait: bool = True) -> bool:
        """Roll back any open transaction and release every lock.

        Returns ``True`` once the session is closed. With ``wait=False``
        (the idle reaper), a session currently executing a request is
        left alone and ``False`` is returned — mid-request it is not
        idle, and tearing its transaction manager down from another
        thread would corrupt the undo log and break 2PL.
        """
        acquired = self._exec_mutex.acquire(blocking=wait)
        if not acquired:
            return False
        try:
            if self.closed:
                return True
            self.closed = True
            session = self.minidb_session
            if session.tx.in_transaction:
                session.tx.rollback()
            session.release_locks()
            return True
        finally:
            self._exec_mutex.release()

    # ------------------------------------------------------------ execution

    def call(self, call: ToolCall) -> ToolResult:
        """Execute one tool call through this session's toolkit."""
        with self._exec_mutex:
            if self.closed:
                raise SessionError(f"session {self.token!r} is closed")
            self.touch()
            self.calls += 1
            result = self.bridge.call(call)
        self.touch()  # expiry clock counts from request end, not start
        return result


class SessionManager:
    """Creates, authenticates, and expires sessions over one database."""

    def __init__(
        self,
        db: Database,
        config: BridgeScopeConfig | None = None,
        session_ttl_s: float = 1800.0,
        max_sessions: int = 1024,
        lock_timeout_s: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.db = db
        self.config = config
        self.session_ttl_s = session_ttl_s
        self.max_sessions = max_sessions
        self._clock = clock
        self._mutex = threading.Lock()
        self._sessions: dict[str, ServiceSession] = {}  #: guarded by self._mutex
        #: session lifecycle events (``service_sessions_<key>``) and the
        #: live-session gauge, in the database's registry
        self._counters = db.metrics.counters(
            "service_sessions_{}",
            ("created", "expired", "closed", "rejected"),
            "service session lifecycle count",
        )
        self.stats = CounterMapView(self._counters)
        self._active = db.metrics.gauge(
            "service_active_sessions", "open service sessions"
        )
        if db.lock_manager is None:
            db.lock_manager = LockManager(
                timeout_s=lock_timeout_s, registry=db.metrics
            )
        self.lock_manager: LockManager = db.lock_manager

    # ------------------------------------------------------------ lifecycle

    def create_session(
        self,
        user: str,
        config: BridgeScopeConfig | None = None,
        ttl_s: float | None = None,
    ) -> ServiceSession:
        """Authenticate ``user`` and open a session owning its own toolkit.

        Authentication is the database's own role check:
        ``db.connect`` (inside ``BridgeScope.for_minidb_user``) rejects
        unknown users with ``PermissionDenied``. The session token is the
        bearer credential for every subsequent request.
        """
        self.expire_idle()
        with self._mutex:
            if len(self._sessions) >= self.max_sessions:
                self._counters["rejected"].inc()
                raise SessionError(
                    f"session limit reached ({self.max_sessions}); retry later"
                )
        bridge = BridgeScope.for_minidb_user(
            self.db, user, config or self.config
        )
        session = ServiceSession(
            token=secrets.token_hex(16),
            user=user,
            bridge=bridge,
            ttl_s=ttl_s if ttl_s is not None else self.session_ttl_s,
            clock=self._clock,
        )
        with self._mutex:
            # re-check in the same critical section that inserts: N
            # concurrent creates near the limit can all pass the pre-build
            # check above, which exists only to fail fast before the
            # (comparatively expensive) bridge construction
            if len(self._sessions) >= self.max_sessions:
                self._counters["rejected"].inc()
                raise SessionError(
                    f"session limit reached ({self.max_sessions}); retry later"
                )
            self._sessions[session.token] = session
            self._active.inc()
            self._counters["created"].inc()
        return session

    def authenticate(self, token: str) -> ServiceSession:
        """The live session for ``token``; expired sessions are reaped."""
        with self._mutex:
            session = self._sessions.get(token)
        if session is None:
            raise SessionError(f"unknown session token {token!r}")
        if session.expired() and self._reap(session, reason="expired", wait=False):
            raise SessionError(f"session {token!r} expired; create a new one")
        session.touch()
        return session

    def close_session(self, token: str) -> None:
        with self._mutex:
            session = self._sessions.get(token)
        if session is not None:
            self._reap(session, reason="closed", wait=True)

    def expire_idle(self) -> int:
        """Reap every idle-past-TTL session; returns how many died.

        A session that is mid-request is *active*, not idle — it is left
        alone (and touched, so it gets a fresh TTL) rather than having
        its transaction state torn down under a running worker.
        """
        now = self._clock()
        with self._mutex:
            stale = [s for s in self._sessions.values() if s.expired(now)]
        reaped = 0
        for session in stale:
            if self._reap(session, reason="expired", wait=False):
                reaped += 1
        return reaped

    def close(self) -> None:
        """Tear down every session (service shutdown)."""
        with self._mutex:
            sessions = list(self._sessions.values())
        for session in sessions:
            self._reap(session, reason="closed", wait=True)

    def _reap(
        self, session: ServiceSession, reason: str, wait: bool
    ) -> bool:
        if not session.close(wait=wait):
            # executing right now: not idle after all — refresh its TTL
            session.touch()
            return False
        with self._mutex:
            if self._sessions.pop(session.token, None) is None:
                return True  # somebody else reaped it first
            self._active.dec()
            self._counters[reason].inc()
        return True

    # ----------------------------------------------------------- inspection

    def active_count(self) -> int:
        with self._mutex:
            return len(self._sessions)

    def sessions(self) -> Iterator[ServiceSession]:
        with self._mutex:
            return iter(list(self._sessions.values()))
