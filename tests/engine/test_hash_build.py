"""Draining consumers: ``Operator.materialize`` and the one hash builder.

A hash join used to pull its build side a row at a time and insert each
row with ``setdefault``; it now drains the build operator through
``materialize`` (``SeqScan`` hands over whole pages and counts a page's
tuples in one addition) and builds the table in C.  The per-row build
loop is kept here as the reference, and the row path — ``list(op.rows())``
— is the reference for every simulated number: ``pin_row_path`` puts a
twin's operators on it the way the operator profile does.
"""

import datetime
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.errors import ExecutionError, StatementTimeout
from repro.engine.exec.base import Operator
from repro.engine.exec.joins import HashJoin, build_hash_table
from repro.engine.exec.misc import Alias, RowsSource
from repro.engine.exec.scans import SeqScan
from repro.engine.expr import (
    BinOp,
    ColumnRef,
    Literal,
    OutputSchema,
    SubqueryExpr,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType
from repro.sim.params import SimParams

from tests.engine.test_compiled_plans import _python_calls

PAD = "p" * 900  # nine rows a page: a few dozen rows span several pages


def reference_hash_table(rows, key_positions):
    """``HashJoin.rows``'s build loop as it was, a row at a time."""
    buckets, build_count = {}, 0
    for row in rows:
        key = tuple(row[position] for position in key_positions)
        if None in key:
            continue
        buckets.setdefault(key, []).append(row)
        build_count += 1
    return buckets, build_count


def as_buckets(table, unique, key_positions):
    """A built table in the reference's form: tuple keys, row lists."""
    return {key if len(key_positions) > 1 else (key,):
            [rows] if unique else list(rows)
            for key, rows in table.items()}


def reference_join(probe_rows, probe_positions, buckets):
    """The probe loop's output order (probe row + build row)."""
    out = []
    for probe_row in probe_rows:
        key = tuple(probe_row[position] for position in probe_positions)
        if None not in key:
            out.extend(probe_row + build_row
                       for build_row in buckets.get(key, ()))
    return out


def pin_row_path(root: Operator) -> None:
    """Every operator under ``root`` drains through ``rows``: what each
    consumer did before ``materialize`` existed."""
    root.materialize = partial(Operator.materialize, root)
    for child in root.child_operators():
        pin_row_path(child)


def ledger(db: Database, table: str = "t") -> tuple:
    """Everything a scan moves, to the last bit."""
    return (repr(db.clock.now), db.metrics.get("buffer.hits"),
            db.metrics.get("buffer.misses"),
            db.metrics.get(f"table.{table}.tuples_scanned"),
            db.metrics.get("exec.tuples"))


# -- (a) the property ---------------------------------------------------------

#: (column type, values that are equal across representations or repeat)
FAMILIES = {
    "int": (SqlType.integer(), st.integers(-2, 2)),
    "float": (SqlType.decimal(), st.sampled_from([-1.5, 0.0, 1.0, 2.5])),
    "str": (SqlType.varchar(5), st.sampled_from(["", "A", "AB", "b"])),
    "date": (SqlType.date(),
             st.dates(datetime.date(1992, 1, 1), datetime.date(1992, 1, 4))),
}


@st.composite
def build_sides(draw):
    """A table's rows, the rows then deleted, key positions, a pushed
    predicate or none, and probe rows over the same key values."""
    family_a = draw(st.sampled_from(sorted(FAMILIES)))
    family_b = draw(st.sampled_from(sorted(FAMILIES)))
    values_a = st.one_of(st.none(), FAMILIES[family_a][1])
    values_b = st.one_of(st.none(), FAMILIES[family_b][1])
    count = draw(st.integers(0, 40))
    if draw(st.booleans()):
        # no NULL and no repeat in ``a``: the table is built in one go
        family_a = "int"
        rows = [(k, k - 2, draw(FAMILIES[family_b][1]), PAD)
                for k in range(count)]
    else:
        rows = [(k, draw(values_a), draw(values_b), PAD)
                for k in range(count)]
    # single rows, and runs long enough to empty whole pages
    dead = set(draw(st.lists(st.integers(0, 40), max_size=6)))
    first, length = draw(st.integers(0, 40)), draw(st.integers(0, 25))
    dead.update(range(first, first + length))
    positions = draw(st.sampled_from([[1], [2], [1, 2], [2, 1]]))
    threshold = draw(st.one_of(st.none(), st.integers(0, 40)))
    probes = draw(st.lists(st.tuples(values_a, values_b), max_size=12))
    return family_a, family_b, rows, dead, positions, threshold, probes


def _loaded(storage, family_a, family_b, rows, dead) -> Database:
    params = SimParams()
    params.lsm_memtable_bytes = 4096  # flushes and compactions happen
    params.lsm_l0_compaction_trigger = 2
    db = Database(params=params, storage=storage)
    db.create_table(TableSchema("t", [
        Column("k", SqlType.integer(), nullable=False),
        Column("a", FAMILIES[family_a][0]),
        Column("b", FAMILIES[family_b][0]),
        Column("pad", SqlType.char(len(PAD))),
    ], primary_key=["k"]))
    table = db.catalog.table("t")
    rowids = [table.insert(row) for row in rows]
    for k in sorted(dead):
        if k < len(rowids):
            table.delete(rowids[k])
    return db


def _scan(db: Database, threshold) -> SeqScan:
    predicate = None
    if threshold is not None:
        predicate = BinOp(">=", ColumnRef(None, "k"), Literal(threshold))
    scan = SeqScan(db.ctx, db.catalog.table("t"), predicate=predicate)
    if predicate is not None:
        predicate.bind(scan.schema)
    return scan


@pytest.mark.parametrize("storage", ["heap", "lsm"])
@settings(max_examples=120, deadline=None)
@given(case=build_sides())
def test_drained_build_equals_the_per_row_build(storage, case):
    family_a, family_b, rows, dead, positions, threshold, probes = case
    drained = _loaded(storage, family_a, family_b, rows, dead)
    by_row = _loaded(storage, family_a, family_b, rows, dead)
    assert ledger(drained) == ledger(by_row)

    # the scan alone: same rows, same simulated everything
    got = _scan(drained, threshold).materialize(())
    expected = list(_scan(by_row, threshold).rows(()))
    assert got == expected
    assert ledger(drained) == ledger(by_row)
    live = [row for row in rows if row[0] not in dead]
    assert expected == [row for row in live
                        if threshold is None or row[0] >= threshold]

    # the table: same buckets in the same order, rows in input order
    table, build_count, unique = build_hash_table(got, positions)
    reference, reference_count = reference_hash_table(expected, positions)
    assert build_count == reference_count
    buckets = as_buckets(table, unique, positions)
    assert list(buckets) == list(reference)
    assert buckets == reference

    # the join: same output order, same clock after the probe
    probe_schema = OutputSchema([(None, "pa"), (None, "pb")])
    probe_positions = [position - 1 for position in positions]
    outputs = []
    for db, pinned in ((drained, False), (by_row, True)):
        join = HashJoin(db.ctx, RowsSource(db.ctx, probe_schema, probes),
                        Alias(db.ctx, _scan(db, threshold), "bt",
                              ["k", "a", "b", "pad"]),
                        probe_positions, positions)
        if pinned:
            pin_row_path(join)
        outputs.append(list(join.rows(())))
    assert outputs[0] == outputs[1] == reference_join(
        probes, probe_positions, reference)
    assert ledger(drained) == ledger(by_row)


def test_unique_and_duplicate_keys_take_different_paths_to_one_answer():
    unique = [(1, "a"), (2, "b"), (3, "c")]
    built = build_hash_table(unique, [0])
    assert built == ({1: (1, "a"), 2: (2, "b"), 3: (3, "c")}, 3, True)
    assert as_buckets(built[0], True, [0]) == \
        reference_hash_table(unique, [0])[0]
    # 1 == 1.0 == True: one bucket, first key kept, input order inside
    mixed = [(1, "a"), (None, "n"), (1.0, "b"), (True, "c"), (2, "d")]
    table, count, is_unique = build_hash_table(mixed, [0])
    assert (count, is_unique) == (4, False)
    assert table == {1: [(1, "a"), (1.0, "b"), (True, "c")], 2: [(2, "d")]}
    assert as_buckets(table, False, [0]) == reference_hash_table(mixed, [0])[0]
    assert build_hash_table([], [0, 1]) == ({}, 0, True)
    # a NULL in any key part: neither stored nor counted, and the keys
    # of the rows kept decide whether the table is unique
    assert build_hash_table([(1, None), (2, 2)], [0, 1]) == \
        ({(2, 2): (2, 2)}, 1, True)
    assert build_hash_table([(1, None), (2, 2), (2, 2)], [0, 1]) == \
        ({(2, 2): [(2, 2), (2, 2)]}, 2, False)
    assert reference_hash_table([(1, None), (2, 2)], [0, 1]) == \
        ({(2, 2): [(2, 2)]}, 1)


# -- the profile still sees a build-side scan ---------------------------------

def joined(pad: int = 200) -> Database:
    """``t``: 1000 rows on 28 pages, two rows a value of ``a``; ``u``:
    four rows, one NULL, one repeated."""
    db = Database()
    db.create_table(TableSchema("t", [
        Column("k", SqlType.integer(), nullable=False),
        Column("a", SqlType.integer()),
        Column("b", SqlType.integer()),
        Column("pad", SqlType.char(pad)),
    ], primary_key=["k"]))
    db.bulk_load("t", [(n, n % 500, n % 10, "") for n in range(1000)])
    db.create_table(TableSchema("u", [Column("x", SqlType.integer())]))
    db.bulk_load("u", [(n,) for n in (7, 8, None, 8)])
    return db


def _operators(root: Operator):
    yield root
    for child in root.child_operators():
        yield from _operators(child)


def _build_scan(stmt, table: str) -> SeqScan:
    """The scan of ``table`` on the build side of the one hash join."""
    join, = [op for op in _operators(stmt._plan.operator)
             if isinstance(op, HashJoin)]
    scan = join.left if join.build_left else join.right
    assert isinstance(scan, SeqScan) and scan.table.name == table
    return scan


def test_profile_reports_the_build_side_scan():
    sql = "select k from t, u where a = x"
    db, twin = joined(), joined()
    stmt, twin_stmt = db.prepare(sql), twin.prepare(sql)
    scan = _build_scan(stmt, "u")
    yielded = len(list(scan.rows(())))
    assert yielded == 4  # the NULL row too: the join skips it, not the scan
    list(_build_scan(twin_stmt, "u").rows(()))
    for _ in range(2):  # before and after a detach/re-attach
        db.tracer.enable()
        assert len(stmt.execute(()).rows) == 6
        assert {"rows", "materialize"} <= set(vars(scan))
        entry = scan._profile
        assert entry.label == "SeqScan(u)"
        assert (entry.loops, entry.rows_out) == (1, yielded)
        assert entry.inclusive_s > 0
        db.tracer.disable()
        assert len(stmt.execute(()).rows) == 6  # detaches
        assert not {"rows", "materialize", "_profile"} & set(vars(scan))
    # and profiling moved no simulated number
    for _ in range(4):
        twin_stmt.execute(())
    assert ledger(twin, "u") == ledger(db, "u")
    assert ledger(twin, "t") == ledger(db, "t")


# -- exactness where the row path can stop half way ---------------------------

def test_a_raising_predicate_leaves_the_row_paths_counts():
    ledgers = []
    for pinned in (False, True):
        db = joined()
        # k = 100 is the 27th row of the third page
        stmt = db.prepare("select x from u join t on x = a "
                          "where 10 / (k - 100) > b")
        assert _build_scan(stmt, "t").predicate is not None
        if pinned:
            pin_row_path(stmt._plan.operator)
        with pytest.raises(ExecutionError, match="division by zero"):
            stmt.execute(())
        assert db.metrics.get("table.t.tuples_scanned") == 101
        ledgers.append(ledger(db))
    assert ledgers[0] == ledgers[1]


def test_a_timeout_in_the_middle_of_a_build_leaves_the_same_partial_clock():
    sql = "select x from u join t on x = a where b < 5"
    dry = joined()
    dry_stmt = dry.prepare(sql)
    start = dry.clock.now
    dry_stmt.execute(())
    budget = (dry.clock.now - start) / 2
    ledgers = []
    for pinned in (False, True):
        db = joined()
        stmt = db.prepare(sql)
        _build_scan(stmt, "t")
        if pinned:
            pin_row_path(stmt._plan.operator)
        db.clock.push_deadline(db.clock.now + budget,
                               lambda: StatementTimeout("timed out"))
        with pytest.raises(StatementTimeout):
            stmt.execute(())
        # it fired from a page access part of the way through t
        assert 0 < db.metrics.get("table.t.tuples_scanned") < 1000
        assert db.metrics.get("table.t.tuples_scanned") % 37 == 0
        ledgers.append(ledger(db))
    assert ledgers[0] == ledgers[1]


# -- (b) what a build row costs, in Python calls ------------------------------

def test_a_filtered_build_row_costs_the_predicate_call_and_no_other():
    # As in test_compiled_plans.py, in calls, not in seconds, on rows as
    # narrow as there (a page costs six calls whichever way it is read).
    # The predicate is one call of the generated page filter a page, not
    # one a row: a filtered build costs what an unfiltered one costs
    # plus one call a page.
    calls = {}
    for pad in (1, 200):  # 1000 rows on 3 pages, on 28 pages
        for sql, params in (("select x from u join t on x = a", ()),
                            ("select x from u join t on x = a "
                             "where b < ?", (9,))):
            db = joined(pad=pad)
            stmt = db.prepare(sql)
            assert (_build_scan(stmt, "t").predicate is None) == \
                (params == ())
            assert len(stmt.execute(params).rows) == 6  # compiled, warm
            rows = []
            calls[pad, bool(params)] = _python_calls(
                lambda: rows.extend(stmt.execute(params).rows))
            assert rows == [(7,), (7,), (8,), (8,), (8,), (8,)]
        pages = db.catalog.table("t").store.page_count
        assert calls[pad, True] <= calls[pad, False] + pages + 10, \
            (calls, pages)
    assert calls[1, True] <= 100, calls


def test_an_unfiltered_build_row_costs_no_python_call():
    db = joined(pad=1)
    stmt = db.prepare("select x from u join t on x = a")
    assert _build_scan(stmt, "t").predicate is None
    assert len(stmt.execute(()).rows) == 6  # compiled, pages warm
    rows = []
    calls = _python_calls(lambda: rows.extend(stmt.execute(()).rows))
    assert len(rows) == 6
    assert calls <= 100, calls


# -- (c) a subquery in the build scan's predicate keeps the row path ----------

@pytest.mark.parametrize("correlated", [False, True])
def test_a_subquery_predicate_on_the_build_scan_keeps_the_row_path(
        correlated):
    """The planner leaves subquery conjuncts above the join, so the plan
    is made by hand: EXISTS over a scan of ``u``, which charges a page
    access, and can read the clock, between two tuples of ``t``."""
    results = {}
    for path in ("as built", "row path", "pages forced"):
        db = joined()
        inner = SeqScan(db.ctx, db.catalog.table("u"))
        seen = []

        def exists(outer_row, params, db=db, inner=inner, seen=seen):
            seen.append((db.metrics.get("table.t.tuples_scanned"),
                         repr(db.clock.now)))
            wanted = outer_row[1] if correlated else 7
            return any(row[0] == wanted for row in inner.rows(params))

        subquery = SubqueryExpr(None, "exists")
        subquery.executor = exists
        predicate = BinOp("AND", BinOp("<", ColumnRef(None, "k"),
                                       Literal(120)), subquery)
        scan = SeqScan(db.ctx, db.catalog.table("t"), predicate=predicate)
        predicate.bind(scan.schema)
        probe = RowsSource(db.ctx, OutputSchema([(None, "x")]),
                           [(7,), (8,), (None,), (8,)])
        join = HashJoin(db.ctx, probe, scan, [0], [1])
        if path == "row path":
            pin_row_path(join)
        elif path == "pages forced":
            def by_pages(params, scan=scan):
                """The drain a page at a time: the page filtered in one
                call, then both counters once a page."""
                page = scan.predicate.compile_filter(scan._holds)
                counts = scan.ctx.metrics.counts
                counter = scan.table.scanned_counter
                out = []
                for _rowids, rows in scan.table.store.scan():
                    kept = page(rows, params)
                    counts[counter] += len(rows)
                    counts["exec.tuples"] += len(rows)
                    out += kept
                return out
            scan.materialize = by_pages
        rows = list(join.rows(()))
        assert [row[:2] for row in rows] == [(7, 7), (8, 8), (8, 8)]
        results[path] = (seen, ledger(db), ledger(db, "u"))
    assert results["as built"] == results["row path"]
    # every tuple is counted before its subquery runs...
    assert [scanned for scanned, _now in results["as built"][0]] == \
        list(range(1, 121))
    # ...which is what a page at a time would not do
    assert [scanned for scanned, _now in results["pages forced"][0]][:38] \
        == [0] * 37 + [37]
