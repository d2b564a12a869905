"""Observability that is off costs nothing on the statement path.

With neither the tracer nor the monitor on, an Open SQL call, a DBIF
call, an engine execution or DML, a table-buffer lookup and a KONV
fetch open no span, push no layer and make no ``set`` call; with the
monitor alone they push their layer tokens and nothing else (DESIGN.md
§34).  What a run produces — rows, clock, counters, raised errors,
breaker state, the trace and monitor documents — is the same in all
three states.
"""

from __future__ import annotations

import collections
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.types import SqlType
from repro.r3.appserver import R3System, R3Version
from repro.r3.ddic import DDicField, DDicTable, TableKind
from repro.reports import open22, open30
from repro.reports.common import KonvLookup, supplier_comment_map
from repro.sim.faults import FaultProfile
from repro.trace import tracer as tracer_module

from tests.conftest import SF

REPO = Path(__file__).resolve().parents[2]

#: spans the statement path opens only while traced
BOUNDARY_SPANS = {
    "opensql.select", "opensql.select_single", "opensql.parse",
    "opensql.translate", "opensql.decode", "dbif.call", "db.plan",
    "db.query", "db.dml", "buffer.lookup", "report.konv_fetch",
}
#: spans opened once per report step, whatever its statement count
REPORT_SPANS = {"abap.sort", "abap.group_aggregate",
                "report.comment_probes"}


@pytest.fixture()
def spy(monkeypatch):
    """Counts ``Tracer.span`` / ``Tracer.layer`` calls by name, no-op and
    layer ``set`` calls by calling function, and ``Span`` objects made."""
    calls: collections.Counter = collections.Counter()

    def counting(cls, attr, kind, named):
        original = getattr(cls, attr)

        def wrapper(self, *args, **kwargs):
            if named:
                key = args[0]
            else:
                code = sys._getframe(1).f_code
                key = f"{Path(code.co_filename).name}:{code.co_name}"
            calls[kind, key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, attr, wrapper)

    counting(tracer_module.Tracer, "span", "span", True)
    counting(tracer_module.Tracer, "layer", "layer", True)
    counting(tracer_module._NoopSpan, "set", "noop.set", False)
    counting(tracer_module._Layer, "set", "layer.set", False)
    counting(tracer_module.Span, "__init__", "Span", False)
    return calls


def _of(calls, kind):
    return {name: n for (k, name), n in calls.items() if k == kind}


# ---------------------------------------------------------------------------
# a small system with every statement path
# ---------------------------------------------------------------------------


def _system() -> R3System:
    r3 = R3System(R3Version.V22)
    r3.define_pool("kapol")
    r3.define_cluster("koclu",
                      [DDicField("knumv", SqlType.char(10), key=True)])
    r3.activate_table(DDicTable("mara", TableKind.TRANSPARENT, [
        DDicField("matnr", SqlType.char(18), key=True),
        DDicField("mtart", SqlType.char(25)),
        DDicField("psize", SqlType.integer()),
    ]))
    r3.activate_table(DDicTable("a004", TableKind.POOL, [
        DDicField("kschl", SqlType.char(4), key=True),
        DDicField("matnr", SqlType.char(18), key=True),
        DDicField("knumh", SqlType.char(10)),
    ], container="kapol"))
    r3.activate_table(DDicTable("konv", TableKind.CLUSTER, [
        DDicField("knumv", SqlType.char(10), key=True),
        DDicField("kposn", SqlType.char(6), key=True),
        DDicField("kschl", SqlType.char(4)),
        DDicField("kbetr", SqlType.decimal()),
    ], container="koclu", cluster_key_length=1))
    r3.activate_table(DDicTable("stxl", TableKind.TRANSPARENT, [
        DDicField("tdobject", SqlType.char(10), key=True),
        DDicField("tdname", SqlType.char(32), key=True),
        DDicField("tdline", SqlType.varchar(132)),
    ]))
    for i in range(12):
        r3.insert_logical("mara", (f"M{i:03d}", f"TYPE{i % 3}", i))
        r3.insert_logical("a004", ("PR00", f"M{i:03d}", f"H{i:03d}"))
        r3.insert_logical("stxl", ("LFA1", f"S{i:04d}", f"note {i}"))
    for doc in ("V1", "V2"):
        r3.insert_cluster("konv", (doc,), [
            (doc, f"{i:06d}", "DISC" if i % 2 else "TAX", float(i))
            for i in range(1, 6)])
    r3.db.analyze()
    r3.buffers.configure("mara", 10_000)
    return r3


def _statements(r3: R3System) -> list:
    """One call of every statement path: pushdown, pool, cluster (KONV),
    a buffer miss and hit, the comment probes, DML and literal SQL."""
    konv = KonvLookup(r3)
    single = "SELECT SINGLE mtart FROM mara WHERE matnr = :m"
    return [
        lambda: r3.open_sql.select(
            "SELECT matnr psize FROM mara WHERE mtart = :t",
            {"t": "TYPE1"}).rows,
        lambda: r3.open_sql.select(
            "SELECT matnr knumh FROM a004 WHERE kschl = :k",
            {"k": "PR00"}).rows,
        lambda: r3.open_sql.select_single(
            "SELECT SINGLE knumh FROM a004 WHERE kschl = 'PR00' "
            "AND matnr = :m", {"m": "M004"}),
        lambda: konv.conditions("V1"),
        lambda: konv.conditions("V2"),
        lambda: r3.open_sql.select_single(single, {"m": "M003"}),  # miss
        lambda: r3.open_sql.select_single(single, {"m": "M003"}),  # hit
        lambda: supplier_comment_map(r3, ["S0001", "S0002", "X"]),
        lambda: r3.dbif.execute_param(
            "UPDATE mara SET psize = ? WHERE matnr = ?",
            (99, "M005")).rows,
        lambda: r3.dbif.execute_literal(
            "DELETE FROM mara WHERE matnr = 'M011'").rows,
        lambda: r3.dbif.execute_literal(
            "SELECT matnr FROM mara WHERE psize > 8").rows,
    ]


def _errors(r3: R3System) -> list:
    """Calls that raise: unbound host variables on the pushdown, pool
    and buffer paths, a statement timeout, dropped connections that
    retry, then a storm that exhausts the retries and opens the
    breaker."""
    unbound = [
        lambda: r3.open_sql.select(
            "SELECT matnr FROM mara WHERE mtart = :t", {}).rows,
        lambda: r3.open_sql.select(
            "SELECT knumh FROM a004 WHERE matnr = :m", {}).rows,
        lambda: r3.open_sql.select_single(
            "SELECT SINGLE mtart FROM mara WHERE matnr = :m", {}),
    ]

    def timeout():
        r3.dbif.statement_timeout_s = 1e-9
        try:
            return r3.open_sql.select("SELECT matnr FROM mara").rows
        finally:
            r3.dbif.statement_timeout_s = None

    def retried():
        r3.attach_faults(FaultProfile(connection_drop_every=2))
        return [r3.open_sql.select(
            "SELECT matnr FROM mara WHERE mtart = :t", {"t": t}).rows
            for t in ("TYPE0", "TYPE1", "TYPE2")]

    def storm():
        r3.attach_faults(FaultProfile(connection_drop_every=1,
                                      connection_drop_burst=10_000))
        return r3.dbif.execute_param("SELECT matnr FROM mara").rows

    threshold = r3.dbif.breaker.failure_threshold
    return unbound + [timeout, retried] + [storm] * (threshold + 1)


def _outcome(r3: R3System, calls) -> list:
    seen = []
    for call in calls:
        try:
            seen.append(("ok", call()))
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            seen.append(("raised", type(exc).__name__, str(exc)))
        seen.append(repr(r3.clock.now))
    return seen


def _run(state: str) -> tuple:
    r3 = _system()
    if state == "monitor":
        r3.monitor.enable()
    elif state == "traced":
        r3.tracer.enable()
    seen = _outcome(r3, _statements(r3) + _errors(r3))
    breaker = r3.dbif.breaker
    return (seen, sorted(r3.metrics.all().items()),
            breaker.state, breaker.opened_count)


# ---------------------------------------------------------------------------
# off: no span, no layer, no set
# ---------------------------------------------------------------------------


class TestOffCostsNothing:
    def test_every_statement_path_makes_no_call(self, spy):
        r3 = _system()
        statements = _statements(r3)
        roundtrips = r3.metrics.get("dbif.roundtrips")
        _outcome(r3, statements)
        assert r3.metrics.get("dbif.roundtrips") - roundtrips == 12
        assert r3.metrics.get("buffer_mgr.hits") == 1
        assert _of(spy, "span") == {"report.comment_probes": 1}
        assert _of(spy, "layer") == {}
        assert _of(spy, "noop.set") == {} and _of(spy, "layer.set") == {}
        assert _of(spy, "Span") == {}

    def test_error_paths_make_no_call(self, spy):
        r3 = _system()
        seen = _outcome(r3, _errors(r3))
        raised = [entry[1] for entry in seen if entry[0] == "raised"]
        assert raised == ["OpenSqlError"] * 3 + ["StatementTimeout"] + [
            "ConnectionLostError"] * 3 + ["CircuitOpenError"]
        assert r3.metrics.get("dbif.retries") > 0
        # the breaker's transitions are spans of their own, not the call's
        assert set(_of(spy, "span")) == {"dbif.breaker"}
        assert _of(spy, "layer") == {} and _of(spy, "Span") == {}

    def test_probes_cost_the_same_for_one_statement_or_many(self, spy):
        r3 = _system()
        counts = []
        for names in (["S0001"], [f"S{i:04d}" for i in range(10)]):
            spy.clear()
            roundtrips = r3.metrics.get("dbif.roundtrips")
            supplier_comment_map(r3, names)
            counts.append((dict(spy),
                           r3.metrics.get("dbif.roundtrips") - roundtrips))
        (one, one_trips), (ten, ten_trips) = counts
        assert (one_trips, ten_trips) == (1, 10)
        assert one == ten == {("span", "report.comment_probes"): 1}

    def test_monitor_alone_pushes_layer_tokens_only(self, spy):
        r3 = _system()
        r3.monitor.enable()
        _outcome(r3, _statements(r3))
        assert _of(spy, "span") == {"report.comment_probes": 1}
        # one dbif token a call; an engine token an execution or a plan
        assert _of(spy, "layer") == {"dbif": 12, "engine": 19}
        assert _of(spy, "Span") == {} and _of(spy, "layer.set") == {}


#: report-level calls of one warm Open SQL pass, identical at SF 0.0005
#: (2 349 round trips in 2.2) and SF 0.001 (5 398): a report step's,
#: never a statement's
PASS_CALLS = {
    R3Version.V22: {("span", "abap.sort"): 22,
                    ("span", "report.comment_probes"): 20,
                    ("span", "abap.group_aggregate"): 9,
                    ("noop.set", "abap.py:group_aggregate"): 9},
    R3Version.V30: {("span", "abap.sort"): 22,
                    ("span", "abap.group_aggregate"): 11,
                    ("noop.set", "abap.py:group_aggregate"): 11},
}


@pytest.mark.parametrize("version", [R3Version.V22, R3Version.V30])
def test_a_warm_power_pass_makes_report_level_calls_only(
        version, request, spy):
    r3 = request.getfixturevalue(
        "r3_22" if version is R3Version.V22 else "r3_30")
    suite = (open22 if version is R3Version.V22 else open30).make_queries(SF)
    for number in sorted(suite):  # compile, prepare: a warm pass follows
        suite[number](r3)
    spy.clear()
    roundtrips = r3.metrics.get("dbif.roundtrips")
    for number in sorted(suite):
        suite[number](r3)
    assert r3.metrics.get("dbif.roundtrips") - roundtrips > 17
    assert dict(spy) == PASS_CALLS[version]
    assert not BOUNDARY_SPANS & set(_of(spy, "span"))
    assert set(_of(spy, "span")) <= REPORT_SPANS


# ---------------------------------------------------------------------------
# the same outcome whoever reads
# ---------------------------------------------------------------------------


def test_off_monitored_and_traced_runs_are_alike():
    off = _run("off")
    assert off[2].value == "open" and off[3] == 1
    assert _run("monitor") == off
    assert _run("traced") == off


# ---------------------------------------------------------------------------
# the documents a reader sees, to the byte
# ---------------------------------------------------------------------------

#: sha256 of each command's output, taken before the off path existed
DOCUMENTS = {
    "trace-2.2": (["trace", "power", "--release", "2.2", "--sf", "0.0005",
                   "--format=json"],
                  "4e3d97a551680ddcfc2343ab823c024a"
                  "457348a64ecd389759892c9ce7cd5619"),
    "trace-3.0": (["trace", "power", "--release", "3.0", "--sf", "0.0005",
                   "--format=json"],
                  "a8513a1c6308fdfdbb1d003856f50b8b"
                  "73109e7fea45a297bbac46cdd2da508c"),
    "monitor": (["monitor", "--format", "json", "--sf", "0.0005",
                 "--monitor-streams", "2"],
                "ba0e587e6027504f0f9b85dd97744fcad"
                "08a8e0e968554ff780f7da680100aac"),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_trace_and_monitor_bytes_are_pinned(name, tmp_path):
    argv, digest = DOCUMENTS[name]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    if argv[0] == "trace":
        out = tmp_path / "trace.json"
        subprocess.run([sys.executable, "-m", "repro", *argv,
                        "--trace-out", str(out)],
                       check=True, env=env, capture_output=True)
        data = out.read_bytes()
    else:
        data = subprocess.run([sys.executable, "-m", "repro", *argv],
                              check=True, env=env,
                              capture_output=True).stdout
    assert hashlib.sha256(data).hexdigest() == digest
