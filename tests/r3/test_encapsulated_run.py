"""Encapsulated reads charge a run, not a row (DESIGN.md §24).

A pool or cluster read decodes its records and tests the app-side
predicate with no charge between two rows, then charges the decodes and
the ABAP rows as runs: ``charge_each``, the same additions as a call a
row.  The reference kept here is the row loop it replaced, installed on
a twin system; both must leave the same ``repr(clock.now)`` and the
same counters — also when a cluster page in the middle of a result is
corrupt, when the predicate raises part of the way through, and when an
armed deadline fires inside a run.  A conversion to a transparent table
reads its pool or cluster records the same way.
"""

import types

import pytest

from repro.engine.errors import StatementTimeout
from repro.engine.index import key_getter
from repro.engine.types import SqlType
from repro.r3.appserver import R3System, R3Version
from repro.r3.ddic import DDicField, DDicTable, TableKind
from repro.r3.errors import DDicError
from repro.r3.opensql.ast import OSStar
from repro.r3.opensql.executor import OSResult, _covered
from repro.r3.pools import FIELD_SEP, ClusterContainer

# ---------------------------------------------------------------------------
# the reference: the row loops of the parent commit, verbatim but for names
# ---------------------------------------------------------------------------


def _charge_decode(r3):
    """The parent's ``R3System.charge_decode()``: one record."""
    r3.clock.charge(r3.params.pool_decode_s * 1)
    r3.metrics.count("abap.rows_decoded", 1)


def _row_pool(self, table, eq, probe_key, finish):
    r3 = self._r3
    sql = (f"SELECT vardata FROM {r3.pools[table.container].name} "
           f"WHERE tabname = ?")
    if probe_key is not None:
        sql += " AND varkey = ?"

    def run(host_vars):
        bound = eq(host_vars)
        if probe_key is None:
            params = (table.name,)
        else:
            params = (table.name, "|".join(
                [r3.client] + [str(bound[name]) for name in probe_key]))
        result = r3.dbif.execute_param(sql, params)
        rows = []
        with r3.tracer.span("opensql.decode", kind="pool",
                            table=table.name) as span:
            for (vardata,) in result.rows:
                _charge_decode(r3)
                full = table.decode_pool_row(vardata)
                if full[0] == r3.client:
                    rows.append(full[1:])
            span.set(records=len(result.rows), rows=len(rows))
        return finish(rows, host_vars)

    return run


def _row_cluster(self, table, eq, eq_fields, finish):
    r3 = self._r3
    container = r3.clusters[table.container]
    sql = f"SELECT vardata FROM {container.name} WHERE mandt = ?"
    probe_key = _covered(container.key_fields, eq_fields)
    if probe_key is not None:
        predicates = " AND ".join(f"{name} = ?" for name in probe_key)
        sql += f" AND {predicates} ORDER BY pagno"

    def run(host_vars):
        bound = eq(host_vars)
        params = (r3.client,) if probe_key is None else \
            [r3.client] + [bound[name] for name in probe_key]
        result = r3.dbif.execute_param(sql, params)
        rows = []
        with r3.tracer.span("opensql.decode", kind="cluster",
                            table=table.name) as span:
            for (vardata,) in result.rows:
                for logical in ClusterContainer.decode_page(table, vardata):
                    _charge_decode(r3)
                    rows.append(logical)
            span.set(pages=len(result.rows), rows=len(rows))
        return finish(rows, host_vars)

    return run


def _row_app_side(self, stmt, table, source):
    r3 = self._r3
    holds = None if stmt.where is None else source.function(
        "row, host_vars", source.cond(stmt.where))
    order_by = [(source.position(f), desc) for f, desc in stmt.order_by]
    fields, project = table.field_names, None
    if not isinstance(stmt.items[0], OSStar):
        fields = [item.name for item in stmt.items]
        project = key_getter([source.position(item) for item in stmt.items])
    limit = 1 if stmt.single else stmt.up_to

    def finish(rows, host_vars):
        filtered = []
        for row in rows:
            r3.charge_abap(1)
            if holds is None or holds(row, host_vars):
                filtered.append(row)
        if order_by:
            for position, descending in reversed(order_by):
                filtered.sort(key=lambda row: (row[position] is not None,
                                               row[position]),
                              reverse=descending)
            r3.charge_abap(len(filtered))
        projected = filtered if project is None \
            else list(map(project, filtered))
        if limit is not None:
            projected = projected[:limit]
        return OSResult(list(fields), projected)

    return finish


def _row_read_all(self, table):
    """``R3System._read_encapsulated_all``, what a conversion reads."""
    if table.kind is TableKind.POOL:
        container = self.pools[table.container]
        result = self.dbif.execute_param(
            f"SELECT vardata FROM {container.name} WHERE tabname = ?",
            (table.name,))
        for (vardata,) in result.rows:
            _charge_decode(self)
            yield table.decode_pool_row(vardata)
    else:
        container = self.clusters[table.container]
        result = self.dbif.execute_param(
            f"SELECT mandt, vardata FROM {container.name}", ())
        for mandt, vardata in result.rows:
            for logical in ClusterContainer.decode_page(table, vardata):
                _charge_decode(self)
                yield (mandt,) + logical


def on_row_path(r3: R3System) -> R3System:
    """Install the row loops on ``r3`` and its Open SQL executor."""
    executor = r3.open_sql
    for name, loop in (("_compile_pool", _row_pool),
                       ("_compile_cluster", _row_cluster),
                       ("_compile_app_side", _row_app_side)):
        setattr(executor, name, types.MethodType(loop, executor))
    r3._read_encapsulated_all = types.MethodType(_row_read_all, r3)
    return r3


# ---------------------------------------------------------------------------
# twin systems
# ---------------------------------------------------------------------------

#: a document's rows fill about three cluster pages
DOC_ROWS = 400


def _system() -> R3System:
    system = R3System(R3Version.V22)
    system.define_pool("kapol")
    system.define_cluster(
        "koclu", [DDicField("knumv", SqlType.char(10), key=True)])
    system.activate_table(DDicTable("a004", TableKind.POOL, [
        DDicField("kschl", SqlType.char(4), key=True),
        DDicField("matnr", SqlType.char(18), key=True),
        DDicField("knumh", SqlType.char(10)),
    ], container="kapol"))
    system.activate_table(DDicTable("konv", TableKind.CLUSTER, [
        DDicField("knumv", SqlType.char(10), key=True),
        DDicField("kposn", SqlType.char(6), key=True),
        DDicField("kschl", SqlType.char(4)),
        DDicField("kbetr", SqlType.decimal()),
    ], container="koclu", cluster_key_length=1))
    system.insert_logical_rows("a004", [
        ("PR00", f"M{i:03d}", f"H{i:03d}") for i in range(40)])
    for doc in ("V1", "V2"):
        # the first five amounts are NULL
        system.insert_cluster("konv", (doc,), [
            (doc, f"{i:06d}", "DISC" if i % 2 else "TAX",
             None if i < 5 else float(i)) for i in range(DOC_ROWS)])
    system.db.analyze()
    return system


def _ledger(r3: R3System) -> tuple:
    return repr(r3.clock.now), r3.metrics.all()


def _twins(run) -> list[tuple]:
    """``run(r3)`` on a run-charging system and on its row-loop twin:
    its outcome and the ledger it leaves, each."""
    out = []
    for reference in (False, True):
        r3 = _system()
        if reference:
            on_row_path(r3)
        try:
            got = ("ok", run(r3))
        except (DDicError, StatementTimeout, TypeError) as exc:
            got = (type(exc).__name__, str(exc))
        out.append((got, _ledger(r3)))
    return out


TEXTS = [
    ("SELECT kposn kbetr FROM konv WHERE knumv = :k AND kschl = 'TAX'",
     {"k": "V1"}),
    ("SELECT kposn FROM konv WHERE kbetr > 20 ORDER BY kbetr DESCENDING",
     {}),
    ("SELECT * FROM konv WHERE knumv = :k", {"k": "V2"}),
    ("SELECT matnr FROM a004 WHERE knumh >= 'H010' ORDER BY matnr", {}),
    ("SELECT knumh FROM a004 WHERE kschl = 'PR00' AND matnr = :m",
     {"m": "M007"}),
    ("SELECT * FROM a004", {}),
]


@pytest.mark.parametrize("text, host_vars", TEXTS)
def test_a_read_charges_what_the_row_loop_did(text, host_vars):
    (got, ledger), (expected, row_ledger) = _twins(
        lambda r3: [r3.open_sql.select(text, host_vars).rows,
                    r3.open_sql.select_single(text, host_vars)])
    assert got == expected and got[0] == "ok" and got[1][0]
    assert ledger == row_ledger


def test_a_corrupt_page_in_the_middle_of_a_result():
    def run(r3):
        pages = r3.db.execute("SELECT pagno FROM koclu WHERE knumv = 'V1'")
        assert len(pages.rows) >= 3
        r3.db.execute("UPDATE koclu SET vardata = ? WHERE knumv = ? AND "
                      "pagno = 1", (FIELD_SEP.join(["V1", "1", "TAX", "x"]),
                                    "V1"))
        return r3.open_sql.select("SELECT kposn FROM konv WHERE knumv = :k",
                                  {"k": "V1"}).rows

    (got, ledger), (expected, row_ledger) = _twins(run)
    assert got == expected and got[0] == "DDicError"
    assert ledger == row_ledger
    # the first page was decoded and charged, the second raised
    assert 0 < ledger[1]["abap.rows_decoded"] < DOC_ROWS


def test_a_corrupt_pool_record_in_the_middle_of_a_result():
    def run(r3):
        r3.db.execute("UPDATE kapol SET vardata = ? WHERE varkey = ?",
                      ("bad", f"{r3.client}|PR00|M020"))
        return r3.open_sql.select("SELECT matnr FROM a004").rows

    (got, ledger), (expected, row_ledger) = _twins(run)
    assert got == expected and got[0] == "DDicError"
    assert ledger == row_ledger
    assert 0 < ledger[1]["abap.rows_decoded"] < 40


def test_an_app_side_predicate_that_raises_part_of_the_way():
    # five NULL amounts are false; the sixth row compares 5.0 > 'x'
    (got, ledger), (expected, row_ledger) = _twins(
        lambda r3: r3.open_sql.select(
            "SELECT kposn FROM konv WHERE knumv = 'V1' AND kbetr > :b",
            {"b": "x"}).rows)
    assert got == expected and got[0] == "TypeError"
    assert ledger == row_ledger
    assert ledger[1]["abap.rows_processed"] == 6


def test_a_deadline_fires_at_the_same_unit_inside_a_run():
    text = "SELECT kposn kbetr FROM konv WHERE kbetr > :b ORDER BY kbetr"
    dry = _system()
    start = dry.clock.now
    dry.open_sql.select(text, {"b": 3.0})
    total = dry.clock.now - start
    inside = 0
    for step in range(1, 60):
        def run(r3, step=step):
            r3.clock.push_deadline(r3.clock.now + total * step / 60,
                                   lambda: StatementTimeout("timed out"))
            return r3.open_sql.select(text, {"b": 3.0}).rows

        (got, ledger), (expected, row_ledger) = _twins(run)
        assert got == expected, step
        assert ledger == row_ledger, step
        counts = ledger[1]
        inside += got[0] == "StatementTimeout" and (
            0 < counts.get("abap.rows_decoded", 0) < 2 * DOC_ROWS
            or 0 < counts.get("abap.rows_processed", 0) < 2 * DOC_ROWS)
    assert inside > 10  # most deadlines fall inside a decode or ABAP run


@pytest.mark.parametrize("table", ["a004", "konv"])
@pytest.mark.parametrize("corrupt", [False, True], ids=["ok", "corrupt"])
def test_a_conversion_reads_what_the_row_loop_did(table, corrupt):
    def run(r3):
        r3.version = R3Version.V30  # a cluster converts in 3.0 only
        if corrupt:
            r3.db.execute("UPDATE kapol SET vardata = ? WHERE varkey = ?",
                          ("bad", f"{r3.client}|PR00|M020"))
            r3.db.execute("UPDATE koclu SET vardata = ? WHERE knumv = ? "
                          "AND pagno = 1",
                          (FIELD_SEP.join(["V1", "1", "TAX", "x"]), "V1"))
        r3.convert_table(table)
        return sorted(r3.db.execute(f"SELECT * FROM {table}").rows)

    (got, ledger), (expected, row_ledger) = _twins(run)
    assert got == expected
    assert got[0] == ("DDicError" if corrupt else "ok")
    assert ledger == row_ledger
    assert ledger[1]["abap.rows_decoded"] > 0
