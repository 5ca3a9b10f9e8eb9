"""Object-level tool verification (paper Section 2.3, mechanism 2).

Even though BridgeScope only exposes privilege-compatible tools,
hallucinated or injected SQL can still reference forbidden objects or smuggle
a different action through a tool (e.g. a DELETE string passed to the
``select`` tool). :class:`SqlVerifier` statically analyzes every SQL string
before execution and enforces, rule-based:

1. the statement's action matches the invoking tool's action;
2. the user holds the database privilege for every (action, object, columns)
   access the statement performs;
3. every touched object and action passes the user-side security policy.

Violations raise :class:`SecurityViolation` (non-retriable) — the statement
never reaches the database.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mcp import ToolError
from .config import SecurityPolicy
from .interfaces import AccessFootprint, DatabaseBinding


class SecurityViolation(ToolError):
    """A rule-based security rejection; not retriable by rephrasing SQL."""

    def __init__(self, message: str):
        super().__init__(message, retriable=False)


@dataclass
class AuditRecord:
    """One verification decision, for the security audit trail."""

    user: str
    sql: str
    action: str
    objects: list[str]
    allowed: bool
    reason: str = ""


@dataclass
class AuditLog:
    """Append-only log of verification decisions."""

    records: list[AuditRecord] = field(default_factory=list)
    max_records: int = 10_000

    def append(self, record: AuditRecord) -> None:
        if len(self.records) >= self.max_records:
            del self.records[: self.max_records // 10]
        self.records.append(record)

    def rejections(self) -> list[AuditRecord]:
        return [r for r in self.records if not r.allowed]

    def render(self, last: int = 20) -> str:
        lines = []
        for record in self.records[-last:]:
            verdict = "ALLOW" if record.allowed else "DENY "
            detail = f" ({record.reason})" if record.reason else ""
            lines.append(
                f"{verdict} {record.user}: {record.action} on "
                f"{', '.join(record.objects) or '-'}{detail}"
            )
        return "\n".join(lines)


class SqlVerifier:
    def __init__(self, binding: DatabaseBinding, policy: SecurityPolicy):
        self.binding = binding
        self.policy = policy
        #: counters for benchmarks / audits
        self.verified = 0
        self.rejected = 0
        self.audit = AuditLog()

    def verify(self, sql: str, expected_action: str | None = None) -> AccessFootprint:
        """Verify ``sql``; returns its footprint or raises SecurityViolation.

        The statement is parsed once, here, through the binding's
        ``analyze_sql``; callers that go on to run it pass the returned
        footprint to ``binding.run_sql(sql, footprint)`` so it is not
        parsed again. A rejected statement never reaches the database.
        """
        footprint = self.binding.analyze_sql(sql)
        objects = sorted({obj for _, obj, _ in footprint.accesses})
        try:
            self._check(footprint, expected_action)
        except SecurityViolation as violation:
            self.rejected += 1
            self.audit.append(
                AuditRecord(
                    user=self.binding.user,
                    sql=sql,
                    action=footprint.action,
                    objects=objects,
                    allowed=False,
                    reason=violation.message,
                )
            )
            raise
        self.verified += 1
        self.audit.append(
            AuditRecord(
                user=self.binding.user,
                sql=sql,
                action=footprint.action,
                objects=objects,
                allowed=True,
            )
        )
        return footprint

    # ----------------------------------------------------------- internals

    def _check(self, footprint: AccessFootprint, expected_action: str | None) -> None:
        if footprint.is_transaction_control:
            if expected_action not in (None, "TRANSACTION"):
                raise SecurityViolation(
                    "transaction control statements must use the dedicated "
                    "begin/commit/rollback tools"
                )
            return
        if expected_action is not None and footprint.action != expected_action:
            raise SecurityViolation(
                f"this tool only executes {expected_action} statements, "
                f"got a {footprint.action} statement"
            )
        if not self.policy.permits_action(footprint.action):
            raise SecurityViolation(
                f"action {footprint.action} is blocked by the user's security policy"
            )
        for action, obj, columns in footprint.accesses:
            if action == "GRANT":
                raise SecurityViolation(
                    "GRANT/REVOKE are not available through BridgeScope tools"
                )
            if not self.policy.permits_action(action):
                raise SecurityViolation(
                    f"action {action} (required on {obj}) is blocked by the "
                    "user's security policy"
                )
            if not self.policy.permits_object(obj):
                raise SecurityViolation(
                    f"object {obj!r} is not accessible under the user's "
                    "security policy"
                )
            if action == "CREATE" and obj.lower() not in {
                o.lower() for o in self.binding.list_objects()
            }:
                # creating a brand-new object: database-wide CREATE privilege
                if "CREATE" not in self.binding.user_actions_on("*"):
                    raise SecurityViolation(
                        f"permission denied: CREATE (database-wide) for "
                        f"user {self.binding.user!r}"
                    )
                continue
            held = self.binding.user_actions_on(obj)
            if action not in held:
                raise SecurityViolation(
                    f"permission denied: {action} on {obj} for user "
                    f"{self.binding.user!r}"
                )
            if columns is not None:
                restrictions = self.binding.user_column_restrictions(action, obj)
                if restrictions is not None and not (
                    {c.lower() for c in columns} <= restrictions
                ):
                    missing = sorted(
                        {c.lower() for c in columns} - restrictions
                    )
                    raise SecurityViolation(
                        f"permission denied: {action} on {obj} columns "
                        f"({', '.join(missing)})"
                    )
            else:
                # whole-object access with a column-restricted grant
                restrictions = self.binding.user_column_restrictions(action, obj)
                if restrictions is not None:
                    raise SecurityViolation(
                        f"permission denied: whole-object {action} on {obj} "
                        "exceeds the column-level grant"
                    )
