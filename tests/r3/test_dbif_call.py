"""One body under ``execute_param`` and ``execute_literal``.

The two used to be 45 lines each — breaker, round trip, deadline,
shipping, ST04, span — differing only in how the statement is obtained.
What each mode showed an observer then is kept here as captured values
(``EXPECTED``, taken from the two-body code by this very scenario): the
``dbif.call`` span, the ``dbif.*`` counters it moved, the ST04 entries
and the clock to the last bit.
"""

import pytest

from repro.engine.errors import ConnectionLostError, StatementTimeout
from repro.engine.types import SqlType
from repro.r3.appserver import R3System, R3Version
from repro.r3.dbif import BreakerState
from repro.r3.ddic import DDicField, DDicTable, TableKind
from repro.sim.faults import FaultProfile

SQL = "SELECT lifnr FROM lfa1 WHERE land1 = ?"
LITERAL = "SELECT lifnr FROM lfa1 WHERE land1 = '007' AND lifnr < 'S0010'"

#: case -> (cursor attribute, child spans, dbif.* counter deltas,
#: rows, repr(clock.now) after the call)
EXPECTED = {
    "miss": ("miss", ["db.plan", "db.query"],
             {"dbif.cursor_cache_misses": 1, "dbif.roundtrips": 1,
              "dbif.tuples_shipped": 50}, 50, "1.0401599999999918"),
    "hit": ("hit", ["db.query"],
            {"dbif.cursor_cache_hits": 1, "dbif.roundtrips": 1,
             "dbif.tuples_shipped": 50}, 50, "1.0463399999999825"),
    "bypass": ("bypass", ["db.plan", "db.query"],
               {"dbif.cursor_cache_bypassed": 1, "dbif.roundtrips": 1,
                "dbif.tuples_shipped": 50}, 50, "1.0565199999999733"),
    "literal": (None, ["db.plan", "db.query"],
                {"dbif.roundtrips": 1, "dbif.tuples_shipped": 10},
                10, "1.0641719999999677"),
}
#: sql -> (calls, repr(db_s), rows) in ST04 after the four calls
EXPECTED_ST04 = {
    SQL: (3, "0.026539999999972252", 150),
    LITERAL: (1, "0.007651999999994441", 10),
}


def _system():
    r3 = R3System(R3Version.V22)
    r3.activate_table(DDicTable("lfa1", TableKind.TRANSPARENT, [
        DDicField("lifnr", SqlType.char(10), key=True),
        DDicField("land1", SqlType.char(3)),
    ]))
    for i in range(50):
        r3.insert_logical("lfa1", (f"S{i:04d}", "007"))
    return r3


def _observe(r3, call):
    before = r3.metrics.all()
    seen = len(r3.tracer.roots)
    result = call()
    span, = r3.tracer.roots[seen:]
    assert span.name == "dbif.call"
    moved = {name: value - before.get(name, 0)
             for name, value in r3.metrics.all().items()
             if name.startswith("dbif.") and value != before.get(name, 0)}
    return result, span, moved


def test_every_mode_shows_what_its_own_body_showed():
    r3 = _system()
    r3.tracer.enable()
    r3.monitor.enable()
    calls = {
        "miss": lambda: r3.dbif.execute_param(SQL, ("007",)),
        "hit": lambda: r3.dbif.execute_param(SQL, ("007",)),
        "bypass": lambda: r3.dbif.execute_param(SQL, ("007",)),
        "literal": lambda: r3.dbif.execute_literal(LITERAL),
    }
    for case, (cursor, children, counters, rows, now) in EXPECTED.items():
        if case == "bypass":
            r3.dbif.cache_enabled = False
        result, span, moved = _observe(r3, calls[case])
        attrs = {"mode": "literal" if case == "literal" else "param",
                 "sql": LITERAL if case == "literal" else SQL}
        if cursor is not None:
            attrs["cursor"] = cursor
        attrs.update(rows=rows, roundtrips=1)
        assert list(span.attrs.items()) == list(attrs.items()), case
        assert [child.name for child in span.children] == children, case
        assert moved == counters, case
        assert len(result.rows) == rows, case
        assert repr(r3.clock.now) == now, case
    assert {sql: (entry.calls, repr(entry.db_s), entry.rows)
            for sql, entry in r3.monitor.statements.items()} == EXPECTED_ST04


@pytest.mark.parametrize("mode", ["param", "literal"])
def test_a_timeout_never_trips_the_breaker_a_lost_connection_does(mode):
    r3 = _system()
    call = {"param": lambda: r3.dbif.execute_param(SQL, ("007",)),
            "literal": lambda: r3.dbif.execute_literal(LITERAL)}[mode]
    r3.dbif.statement_timeout_s = 1e-9
    for _ in range(r3.dbif.breaker.failure_threshold + 2):
        with pytest.raises(StatementTimeout):
            call()
    assert r3.dbif.breaker.state is BreakerState.CLOSED
    assert r3.metrics.get("dbif.breaker.failures") == 0
    r3.dbif.statement_timeout_s = None
    r3.attach_faults(FaultProfile(connection_drop_every=1,
                                  connection_drop_burst=10_000))
    for _ in range(r3.dbif.breaker.failure_threshold):
        with pytest.raises(ConnectionLostError):
            call()
    assert r3.dbif.breaker.state is BreakerState.OPEN


def test_cold_start_brings_back_a_breaker_like_the_first():
    r3 = _system()
    first = r3.dbif.breaker
    first.record_failure()
    r3.dbif.cold_start()
    fresh = r3.dbif.breaker
    assert fresh is not first and fresh.state is BreakerState.CLOSED
    assert fresh.consecutive_failures == 0
    assert (fresh.failure_threshold, fresh.cooldown_s,
            fresh.halfopen_probes) == (
        first.failure_threshold, first.cooldown_s, first.halfopen_probes)
