"""The hash consumer against ``build_hash_table`` and the row path.

A hash join whose build side is a pipeline — a filtered scan, a
``Filter`` or ``Project`` over one, a join of its own, on either side —
fills its table in the pipeline's kernel (DESIGN.md §30): ``out[k] =
row`` for a new key, ``(k, row)`` onto ``dups`` for a key already there,
nothing for a key with a NULL part.  The table must be
``build_hash_table`` over the drained rows: the same items in the same
order, compared by ``repr`` (the first key object is kept, and ``1``,
``1.0`` and ``True``, ``0.0`` and ``-0.0`` are one key), the same count
and the same uniqueness flag.  The join over it must leave what the row
path leaves on a twin database: the rows, ``repr(clock.now)``, every
counter and the LRU order of the buffer pool.
"""

import ast

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.errors import StatementTimeout
from repro.engine.exec import joins
from repro.engine.exec.base import Operator
from repro.engine.exec.joins import HashJoin, build_hash_table
from repro.engine.exec.misc import Alias, Project
from repro.engine.exec.scans import SeqScan
from repro.engine.expr import BinOp, CaseExpr, InputRef, Literal
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType

from tests.engine.test_pipeline_kernel import (
    COLUMNS,
    ROW,
    _predicate,
    col,
    make_db,
    observed,
    outcome,
    pin_row_path,
    pipelines,
    plan,
)


def _mixed(x: int, y: int) -> CaseExpr:
    """Column ``x`` as a bool, a float, a negated float or itself, as
    column ``y`` is 0, 1, 2 or else: ``1``, ``1.0`` and ``True``, and
    ``0``, ``0.0``, ``-0.0`` and ``False``, in one column."""
    def when(value):
        return BinOp("=", InputRef(y), Literal(value))
    return CaseExpr([
        (when(0), BinOp("=", InputRef(x), Literal(1))),
        (when(1), BinOp("*", InputRef(x), Literal(1.0))),
        (when(2), BinOp("*", InputRef(x), Literal(-1.0))),
    ], InputRef(x))


def build_side(db: Database, spec: dict) -> Operator:
    """The spec's pipeline, under a projection with a mixed-type column
    when ``spec["mixed"]`` holds, under an ``Alias`` when
    ``spec["alias"]`` does."""
    top = plan(db, spec)
    if spec["mixed"] is not None:
        numeric = [i for i, (_binding, name) in enumerate(top.schema.entries)
                   if name != "pad"]
        x, y = (numeric[choice % len(numeric)] for choice in spec["mixed"])
        exprs = [*(InputRef(i) for i in numeric), _mixed(x, y)]
        top = Project(db.ctx, top, exprs, [f"m{i}" for i in range(len(exprs))])
    if spec["alias"]:
        top = Alias(db.ctx, top, "bx",
                    [name for _binding, name in top.schema.entries])
    return top


def hash_join(db: Database, spec: dict) -> HashJoin:
    """The build side joined to a scan of ``q`` on ``spec["keys"]``."""
    build = build_side(db, spec)
    width = len(build.schema)
    build_keys = [choice % width for choice in spec["keys"]]
    probe = SeqScan(db.ctx, db.catalog.table("q"))
    probe_keys = spec["probe_keys"][:len(build_keys)]
    if spec["build_left"]:
        return HashJoin(db.ctx, build, probe, build_keys, probe_keys,
                        build_left=True)
    return HashJoin(db.ctx, probe, build, probe_keys, build_keys)


def loaded(spec: dict, storage: str) -> Database:
    """``make_db`` of the spec's tables, then the rows numbered in
    ``spec["dead"]`` deleted: pages with tombstones."""
    db = make_db(spec["tables"], storage, spec["work_mem"])
    for name in spec["tables"]:
        table = db.catalog.table(name)
        doomed = [rowid for rowids, rows in table.store.scan()
                  for rowid, row in zip(rowids, rows)
                  if row[0] in spec["dead"]]
        for rowid in doomed:
            table.delete(rowid)
    return db


def items(built) -> tuple:
    """A built table as ``(repr of its items, count, unique)``."""
    table, count, unique = built
    return repr(list(table.items())), count, unique


def twins(spec: dict, storage: str = "heap"):
    """On a database and its row-path twin: the build side's table —
    the hash consumer's, and ``build_hash_table`` over the pinned
    drain — then the join's rows, each with the ledger after it."""
    results = []
    for pinned in (False, True):
        db = loaded(spec, storage)
        join = hash_join(db, spec)
        build_op, build_keys = join.build_side
        params = spec.get("params", ())
        if pinned:
            pin_row_path(join)
            table = outcome(lambda: items(build_hash_table(
                Operator.materialize(build_op, params), build_keys)))
        else:
            consumer = join._build_pipeline
            assert consumer is not None
            table = outcome(lambda: items(consumer[1].run(params)))
        ledger = observed(db)
        rows = outcome(lambda: repr(join.materialize(params)))
        results.append((table, ledger, rows, observed(db)))
    return results


@st.composite
def build_specs(draw):
    """A pipeline as the build side — never the bare unfiltered scan,
    which keeps ``build_hash_table`` — and a probe table ``q``."""
    spec = draw(pipelines())
    if spec["joins"] == [] and spec["project"] is None \
            and spec["filter"] is None and spec["scan"] is None:
        spec["scan"] = draw(_predicate([col(0, n) for n in COLUMNS]))
    spec["tables"]["q"] = draw(st.lists(ROW, max_size=12))
    spec["dead"] = set(draw(st.lists(st.integers(0, 40), max_size=8)))
    if draw(st.booleans()):  # a run long enough to empty a page
        first = draw(st.integers(0, 40))
        spec["dead"].update(range(first, first + draw(st.integers(0, 12))))
    spec["mixed"] = draw(st.none() | st.tuples(st.integers(0, 99),
                                                st.integers(0, 99)))
    spec["alias"] = draw(st.booleans())
    # one to three key columns; the mixed one is the last column
    keys = draw(st.lists(st.integers(0, 999), min_size=1, max_size=3))
    if spec["mixed"] is not None and draw(st.booleans()):
        keys[draw(st.integers(0, len(keys) - 1))] = -1
    spec["keys"] = keys
    spec["probe_keys"] = draw(st.lists(st.sampled_from([1, 2, 3]),
                                       min_size=3, max_size=3))
    spec["build_left"] = draw(st.booleans())
    return spec


@pytest.mark.parametrize("storage", ["heap", "lsm"])
@settings(max_examples=100, deadline=None)
@given(spec=build_specs())
def test_the_hash_consumer_is_build_hash_table_on_the_row_path(storage, spec):
    (table, ledger, rows, after), (expected_table, expected_ledger,
                                   expected_rows, expected_after) = \
        twins(spec, storage)
    assert table == expected_table
    assert ledger == expected_ledger
    assert rows == expected_rows
    assert after == expected_after


# -- fixed cases --------------------------------------------------------------

def _fixed(**overrides) -> dict:
    """p (40 rows on five pages, row ``k`` has ``c = k``, ``a`` repeats
    every four rows) filtered, the build side of a join to q."""
    spec = {
        "tables": {"p": [(n % 4, n % 5, n) for n in range(40)],
                   "q": [(a, a, a) for a in range(4)]},
        "joins": [], "aliased": set(), "below": None, "filter": None,
        "project": None, "work_mem": 10**9,
        "scan": ("<>", col(0, "c"), ("lit", -1)),
        "dead": set(), "mixed": None, "alias": False, "keys": [1],
        "probe_keys": [1, 2, 3], "build_left": False,
    }
    spec.update(overrides)
    return spec


def test_duplicates_keep_their_first_row_and_key_in_input_order():
    # the key is a as a bool, a float, a negated float or itself, as b
    # is 0, 1, 2 or else: False, 0, -0.0 and 0.0 meet in the first
    # row's bucket, 1.0, True and 1 in the second row's
    (table, ledger, rows, after), expected = twins(_fixed(mixed=(1, 2),
                                                          keys=[-1]))
    assert (table, ledger, rows, after) == expected
    assert table[0] == "ok" and table[1][1:] == (40, False)
    built = ast.literal_eval(table[1][0])
    assert [repr(key) for key, _rows in built] == \
        ["False", "1.0", "-2.0", "3", "2.0", "-3.0", "-1.0"]
    assert [repr(row[-1]) for row in built[0][1][:7]] == \
        ["False", "0", "0", "False", "-0.0", "False", "0.0"]
    assert [repr(row[-1]) for row in built[1][1][:3]] == \
        ["1.0", "True", "1"]


#: 1 / (c - 21): raises at the 22nd row of p, on the third page
BREAKS = ("/", ("lit", 1), ("-", col(0, "c"), ("lit", 21)))


def test_a_predicate_that_raises_mid_page_leaves_the_row_paths_counts():
    for scan, project in (((">", BREAKS, ("lit", -5)), None),
                          (None, [col(0, "a"), BREAKS])):
        spec = _fixed(scan=scan, project=project, keys=[0])
        (table, ledger, rows, after), expected = twins(spec)
        assert table == expected[0] == \
            ("ExecutionError", "division by zero")
        assert ledger == expected[1]
        assert ledger[1]["table.p.tuples_scanned"] == 22
        assert (rows, after) == expected[2:]


def test_a_missing_parameter_raises_where_the_row_path_does():
    reads = (">", col(0, "c"), ("param", 0))
    (table, *rest), expected = twins(_fixed(scan=reads))
    assert table == expected[0] == \
        ("ExecutionError", "missing value for parameter 1")
    assert rest == list(expected[1:])
    # no row reaches the predicate: no error, an empty table
    spec = _fixed(scan=reads)
    spec["tables"]["p"] = []
    (table, *rest), expected = twins(spec)
    assert table == expected[0] == ("ok", ("[]", 0, True))
    assert rest == list(expected[1:])


def test_a_spilling_build_charges_its_spill_after_the_drain():
    spec = _fixed(work_mem=200, build_left=True)
    (table, ledger, rows, after), expected = twins(spec)
    assert (table, ledger, rows, after) == expected
    assert after[1]["exec.spill_pages"] > 0


def test_a_deadline_fires_at_the_same_access_wherever_it_falls():
    spec = _fixed(joins=[{"probe": [col(0, "b")], "build": ["a"],
                          "build_left": False, "residual": None,
                          "filter": None}],
                  keys=[0, 6], build_left=True)
    spec["tables"]["u1"] = [(a, a, a) for a in range(5)] * 3
    dry = loaded(spec, "heap")
    join = hash_join(dry, spec)
    start = dry.clock.now
    assert join.materialize(())
    total = dry.clock.now - start
    fired = 0
    for step in range(1, 30):
        ledgers = []
        for pinned in (False, True):
            db = loaded(spec, "heap")
            join = hash_join(db, spec)
            if pinned:
                pin_row_path(join)
            db.clock.push_deadline(db.clock.now + total * step / 30,
                                   lambda: StatementTimeout("timed out"))
            try:
                result = ("ok", join.materialize(()))
            except StatementTimeout as exc:
                result = ("timeout", str(exc))
            ledgers.append((result, observed(db)))
        assert ledgers[0] == ledgers[1], step
        fired += ledgers[0][0][0] == "timeout"
    assert fired > 15


# -- which builds are hash consumers ------------------------------------------

@pytest.fixture()
def row_path_builds(monkeypatch):
    """The key positions of every ``build_hash_table`` call."""
    calls = []
    original = joins.build_hash_table

    def recorded(rows, key_positions):
        calls.append(list(key_positions))
        return original(rows, key_positions)
    monkeypatch.setattr(joins, "build_hash_table", recorded)
    return calls


def _joined() -> Database:
    """``t``: 1000 rows on 28 pages, two rows a value of ``a``; ``u``:
    four rows, one NULL, one repeated."""
    db = Database()
    db.create_table(TableSchema("t", [
        Column("k", SqlType.integer(), nullable=False),
        Column("a", SqlType.integer()),
        Column("b", SqlType.integer()),
        Column("pad", SqlType.char(200)),
    ], primary_key=["k"]))
    db.bulk_load("t", [(n, n % 500, n % 10, "") for n in range(1000)])
    db.create_table(TableSchema("u", [Column("x", SqlType.integer())]))
    db.bulk_load("u", [(n,) for n in (7, 8, None, 8)])
    return db


SQL = "select x from u join t on x = a where b <> 9"


def test_a_filtered_build_is_a_consumer_and_a_bare_one_is_not(
        row_path_builds):
    db = _joined()
    assert len(db.execute(SQL).rows) == 6
    assert row_path_builds == []
    assert len(db.execute("select x from u join t on x = a").rows) == 6
    assert row_path_builds == [[1]]


def test_a_traced_run_keeps_the_build_scans_profile_entry(row_path_builds):
    db, twin = _joined(), _joined()
    stmt, twin_stmt = db.prepare(SQL), twin.prepare(SQL)
    join, = [op for op in _walk(stmt._plan.operator)
             if type(op) is HashJoin]
    scan = join.right
    assert type(scan) is SeqScan and scan.predicate is not None
    assert join._build_pipeline is not None
    db.tracer.enable()
    assert len(stmt.execute(()).rows) == 6
    entry = scan._profile
    assert entry.label == "SeqScan(t (filtered))"
    assert (entry.loops, entry.rows_out) == (1, 900)
    assert entry.inclusive_s > 0
    assert row_path_builds == [[1]]  # pinned by the profile
    db.tracer.disable()
    assert len(stmt.execute(()).rows) == 6
    assert row_path_builds == [[1]]  # detached: the consumer again
    for _ in range(2):
        twin_stmt.execute(())
    # and profiling moved no simulated number
    assert ledger(twin) == ledger(db)


def ledger(db: Database) -> tuple:
    return (repr(db.clock.now), *(db.metrics.get(name) for name in (
        "buffer.hits", "buffer.misses", "table.t.tuples_scanned",
        "table.u.tuples_scanned", "exec.tuples")))


def _walk(root):
    yield root
    for child in root.child_operators():
        yield from _walk(child)
