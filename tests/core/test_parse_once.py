"""Each SQL tool call parses its statement exactly once.

The verifier parses the statement (through ``MinidbBinding.analyze_sql``)
and hands the AST on in the footprint; the session executes that AST
instead of parsing the text again. Parses are counted at the two names
callers resolve ``parse`` through, with tracing off and on, and the
session's bookkeeping (``statements``, ``statement_log``,
``system.statements``) must still see every executed call.
"""

import pytest

from repro.core import BridgeScope, MinidbBinding, minidb_binding
from repro.minidb import database


@pytest.fixture(params=[False, True], ids=["dark", "traced"])
def tracing(request, db):
    db.observability_options["tracing"] = request.param
    return request.param


@pytest.fixture
def binding(db, tracing):
    return MinidbBinding.for_user(db, "manager")


@pytest.fixture
def bridge(binding):
    return BridgeScope(binding)


@pytest.fixture
def parses(monkeypatch):
    """Parse calls per caller: the verifier side and the engine side."""
    counts = {"verifier": 0, "engine": 0}

    def counting(module, side):
        real = module.parse

        def parse(sql):
            counts[side] += 1
            return real(sql)

        monkeypatch.setattr(module, "parse", parse)

    counting(minidb_binding, "verifier")
    counting(database, "engine")
    return counts


def _recorded_sql(db):
    admin = db.connect("admin")
    return [row[0] for row in admin.execute("SELECT sql FROM system.statements").rows]


@pytest.mark.parametrize(
    "tool, sql",
    [
        ("select", "SELECT item_name FROM items WHERE item_id = 2"),
        ("insert", "INSERT INTO sales VALUES (13, 3, 15.0, 'North')"),
    ],
)
def test_allowed_call_parses_once(db, tracing, binding, bridge, parses, tool, sql):
    session = binding.session
    before = session.statements
    result = bridge.invoke(tool, sql=sql)
    assert not result.is_error, result.content
    assert parses == {"verifier": 1, "engine": 0}
    assert session.statements == before + 1
    assert session.statement_log[-1] == sql
    if tracing:
        assert sql in _recorded_sql(db)


def test_denied_call_parses_once_and_never_reaches_session(
    db, binding, bridge, parses, monkeypatch
):
    reached = []
    monkeypatch.setattr(
        database.Session, "execute", lambda *args, **kwargs: reached.append(args)
    )
    result = bridge.invoke("select", sql="SELECT * FROM salaries")
    assert result.is_error
    assert result.error_code == "SecurityViolation"
    assert parses == {"verifier": 1, "engine": 0}
    assert reached == []
    assert binding.session.statements == 0


def test_transaction_tools_parse_once_each(db, tracing, binding, bridge, parses):
    session = binding.session
    for tool, sql in (("begin", "BEGIN"), ("commit", "COMMIT")):
        counted = dict(parses)
        assert not bridge.invoke(tool).is_error
        assert parses["verifier"] + parses["engine"] == (
            counted["verifier"] + counted["engine"] + 1
        )
        assert session.statement_log[-1] == sql
    assert session.statements == 2
    if tracing:
        recorded = _recorded_sql(db)
        assert "BEGIN" in recorded and "COMMIT" in recorded


def test_executed_statement_is_the_verified_one(binding, bridge, monkeypatch):
    """The AST the verifier analyzed is the one the session executes."""
    handed = []
    real_execute = database.Session.execute

    def execute(self, sql, _skip_privileges=False, stmt=None):
        handed.append(stmt)
        return real_execute(self, sql, _skip_privileges, stmt)

    footprints = []
    real_analyze = binding.analyze_sql

    def analyze_sql(sql):
        footprints.append(real_analyze(sql))
        return footprints[-1]

    monkeypatch.setattr(database.Session, "execute", execute)
    monkeypatch.setattr(binding, "analyze_sql", analyze_sql)
    assert not bridge.invoke("select", sql="SELECT price FROM items").is_error
    assert len(footprints) == 1 and footprints[0].statement is not None
    assert handed == [footprints[0].statement]
