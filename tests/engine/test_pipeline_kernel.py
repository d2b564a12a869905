"""The pipeline kernel against the row path it replaces.

A drained pipeline (a ``Project`` / ``Filter`` / ``HashJoin`` chain over
a ``SeqScan``, or the bare scan) runs one generated loop a page, the
scan predicate its first step, and keeps a row as its parts until the
projection (DESIGN.md §25).  The reference
is the same plan on a twin database with every operator pinned to the
row path (``list(op.rows())``, what the operator profile does): the same
rows in the same order, the same ``repr(clock.now)``, every counter, the
LRU order of the buffer pool and the spill pages — also when an
expression raises at row *k*, a parameter is missing or a deadline fires
part of the way through.  A ``GroupAggregate`` consumes such a loop too,
scan-only pipelines included (§26); its reference sets ``_pipeline`` to
None as well, since the aggregate runs the kernel from ``rows``.
"""

import gc
import sys
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.errors import ExecutionError, StatementTimeout
from repro.engine.exec.aggregate import GroupAggregate
from repro.engine.exec.base import Operator
from repro.engine.exec.joins import HashJoin, Pipeline
from repro.engine.exec.misc import Alias, Filter, Project
from repro.engine.exec.scans import IndexEqScan, SeqScan
from repro.engine.expr import (
    AggCall,
    BinOp,
    ColumnRef,
    IsNullExpr,
    Literal,
    ParamRef,
    SubqueryExpr,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType
from repro.sim.params import SimParams


COLUMNS = ("k", "a", "b", "c")
#: ``a`` and ``c`` are integers, ``b`` a decimal: ``1 == 1.0`` across them
TYPES = {"a": SqlType.integer(), "b": SqlType.decimal(),
         "c": SqlType.integer()}
PAD = "p" * 100  # eight rows a 1 KB page


def pin_row_path(root: Operator) -> None:
    root.materialize = partial(Operator.materialize, root)
    for child in root.child_operators():
        pin_row_path(child)


def make_db(tables, storage="heap", work_mem=10**9) -> Database:
    """``tables``: name -> rows of ``(a, b, c)``; ``k`` is the row's
    number.  1 KB pages and a six-page pool: scans span pages, and
    pages are evicted between two statements."""
    params = SimParams(page_size_bytes=1024, buffer_pool_bytes=6 * 1024)
    params.work_mem_bytes = work_mem
    params.lsm_memtable_bytes = 2048
    params.lsm_l0_compaction_trigger = 2
    db = Database(params, storage=storage)
    for name, rows in tables.items():
        db.create_table(TableSchema(name, [
            Column("k", SqlType.integer(), nullable=False),
            *(Column(column, TYPES[column]) for column in "abc"),
            Column("pad", SqlType.char(len(PAD))),
        ], primary_key=["k"]))
        db.bulk_load(name, [(k, a, None if b is None else float(b), c, PAD)
                            for k, (a, b, c) in enumerate(rows)])
    return db


def observed(db: Database) -> tuple:
    return repr(db.clock.now), db.metrics.all(), list(db.buffer_pool._pages)


def outcome(run):
    try:
        return "ok", run()
    except ExecutionError as exc:
        return type(exc).__name__, str(exc)


# -- plans from a spec --------------------------------------------------------

def col(table: int, name: str) -> tuple:
    return ("col", table, name)


def plan(db: Database, spec: dict) -> Operator:
    """Build the spec's operator tree on ``db``.  A column is named by
    ``(table number, column)``, the probe table being 0, and resolved
    through the aliases in place where an expression is bound."""
    ctx = db.ctx
    names: dict[tuple, tuple] = {}

    def scan(number: int) -> Operator:
        table = "p" if number == 0 else f"u{number}"
        op: Operator = SeqScan(ctx, db.catalog.table(table))
        for name in ("k", *"abc", "pad"):
            names[number, name] = (table, name)
        if number == 0 and spec["scan"] is not None:
            op.predicate = expr(spec["scan"]).bind(op.schema)
        if number in spec["aliased"]:
            op = Alias(ctx, op, f"x{number}", ["k", *"abc", "pad"])
            for name in ("k", *"abc", "pad"):
                names[number, name] = (f"x{number}", name)
        return op

    def expr(node):
        kind = node[0]
        if kind == "col":
            return ColumnRef(*names[node[1], node[2]])
        if kind == "lit":
            return Literal(node[1])
        if kind == "param":
            return ParamRef(node[1])
        if kind == "isnull":
            return IsNullExpr(expr(node[1]))
        return BinOp(kind, expr(node[1]), expr(node[2]))

    top = scan(0)
    if spec.get("below") is not None:  # over the probe scan, below join 1
        top = Filter(ctx, top, expr(spec["below"]).bind(top.schema))
    for level, join in enumerate(spec["joins"], 1):
        build = scan(level)
        probe_keys = [top.schema.resolve(*names[ref[1], ref[2]])
                      for ref in join["probe"]]
        build_keys = [build.schema.resolve(*names[level, column])
                      for column in join["build"]]
        if join["build_left"]:
            top = HashJoin(ctx, build, top, build_keys, probe_keys,
                           build_left=True)
        else:
            top = HashJoin(ctx, top, build, probe_keys, build_keys)
        if join["residual"] is not None:
            top.residual = expr(join["residual"]).bind(top.schema)
        if join["filter"] is not None:
            top = Filter(ctx, top, expr(join["filter"]).bind(top.schema))
    if spec["filter"] is not None:
        top = Filter(ctx, top, expr(spec["filter"]).bind(top.schema))
    if spec["project"] is not None:
        exprs = [expr(item).bind(top.schema) for item in spec["project"]]
        top = Project(ctx, top, exprs, [f"e{i}" for i in range(len(exprs))])
    return top


def twins(spec, storage="heap"):
    """The kernel's result and the row path's, each with what it left
    on its database."""
    results = []
    for pinned in (False, True):
        db = make_db(spec["tables"], storage, spec["work_mem"])
        top = plan(db, spec)
        if pinned:
            pin_row_path(top)
        else:  # an Alias hands its drain to the scan under it
            assert (top.child if type(top) is Alias else top)._pipeline \
                is not None
        got = outcome(lambda: top.materialize(spec.get("params", ())))
        results.append((got, observed(db)))
    return results


# -- the property -------------------------------------------------------------

VALUES = {"a": st.sampled_from([1, 0, 2, None]),
          "b": st.sampled_from([1, 0, None]),
          "c": st.sampled_from([1, 2, 0, None])}
ROW = st.tuples(VALUES["a"], VALUES["b"], VALUES["c"])


def _arith(refs):
    ref = st.sampled_from(refs)
    # now and then a zero divisor raises part of the way through
    return st.one_of(ref, st.builds(lambda op, x, y: (op, x, y),
                                    st.sampled_from(["+", "-", "*", "+",
                                                     "-", "*", "/"]),
                                    ref, ref))


def _predicate(refs):
    value = _arith(refs)
    comparison = st.builds(lambda op, x, y: (op, x, y),
                           st.sampled_from(["=", "<>", "<", ">="]),
                           value, st.one_of(value, st.builds(
                               lambda v: ("lit", v), st.integers(0, 3))))
    leaf = st.one_of(comparison, st.builds(lambda x: ("isnull", x),
                                           st.sampled_from(refs)))
    return st.one_of(leaf, st.builds(lambda op, x, y: (op, x, y),
                                     st.sampled_from(["AND", "OR"]),
                                     leaf, leaf))


@st.composite
def pipelines(draw):
    # no join: a bare scan, or a Filter or a Project over one
    levels = draw(st.integers(0, 3))

    def sometimes(strategy):  # a quarter of the time: most rows pass
        return draw(strategy) if draw(st.sampled_from([0, 1, 1, 1])) == 0 \
            else None

    tables = {"p": draw(st.lists(ROW, min_size=4, max_size=40))}
    joins = []
    for level in range(1, levels + 1):
        # an empty build, and a probe that is all NULL keys, happen
        tables[f"u{level}"] = draw(st.lists(ROW, min_size=1, max_size=10)) \
            if draw(st.sampled_from([1, 1, 1, 1, 1, 0])) else []
        width = draw(st.integers(1, 2))
        probe = [col(draw(st.integers(0, level - 1)),
                     draw(st.sampled_from("abc"))) for _ in range(width)]
        build = [draw(st.sampled_from("abc")) for _ in range(width)]
        refs = [col(table, name) for table in range(level + 1)
                for name in COLUMNS]
        joins.append({
            "probe": probe, "build": build,
            "build_left": draw(st.booleans()),
            "residual": sometimes(_predicate(refs)),
            "filter": sometimes(_predicate(refs)) if level < levels
            else None,
        })
    refs = [col(table, name) for table in range(levels + 1)
            for name in COLUMNS]
    return {
        "tables": tables, "joins": joins,
        "aliased": set(draw(st.lists(st.integers(0, levels), max_size=2))),
        "scan": sometimes(_predicate([col(0, n) for n in COLUMNS])),
        "below": sometimes(_predicate([col(0, n) for n in COLUMNS]))
        if levels else None,
        "filter": sometimes(_predicate(refs)),
        "project": draw(st.none() | st.lists(_arith(refs), min_size=1,
                                             max_size=4)),
        # ample, or small enough that one to three builds spill
        "work_mem": draw(st.sampled_from([10**9, 200, 700, 1500])),
    }


@pytest.mark.parametrize("storage", ["heap", "lsm"])
@settings(max_examples=150, deadline=None)
@given(spec=pipelines())
def test_the_kernel_is_the_row_path(storage, spec):
    (got, kernel_ledger), (expected, row_ledger) = twins(spec, storage)
    assert got == expected
    assert kernel_ledger == row_ledger


def test_spilling_levels_charge_their_probes_innermost_first():
    # three builds of four rows, 16 bytes a column: every build spills
    rows = [(n % 4, n % 3, n % 2) for n in range(40)]
    spec = {
        "tables": {"p": rows, "u1": rows[:4], "u2": rows[:4],
                   "u3": rows[:4]},
        "joins": [{"probe": [col(0, "a")], "build": ["a"],
                   "build_left": level == 2, "residual": None,
                   "filter": None} for level in (1, 2, 3)],
        "aliased": {1}, "scan": None, "filter": None,
        "project": [col(0, "k"), ("+", col(3, "c"), col(1, "b"))],
        "work_mem": 200,
    }
    (got, kernel_ledger), (expected, row_ledger) = twins(spec)
    assert got == expected and got[0] == "ok" and len(got[1]) == 40
    assert kernel_ledger == row_ledger
    assert kernel_ledger[1]["exec.spill_pages"] > 0


def test_a_filter_below_a_spilling_first_join_spills_the_rows_it_keeps():
    # the one build spills; of the 40 probe rows the Filter keeps 10,
    # and the probe spill is theirs, not the page's
    rows = [(n % 4, n % 3, n) for n in range(40)]
    spec = {
        "tables": {"p": rows, "u1": rows[:4]},
        "below": ("<", col(0, "c"), ("lit", 10)),
        "joins": [{"probe": [col(0, "a")], "build": ["a"],
                   "build_left": False, "residual": None, "filter": None}],
        "aliased": set(), "scan": None, "filter": None, "project": None,
        "work_mem": 200,
    }
    (got, kernel_ledger), (expected, row_ledger) = twins(spec)
    assert got == expected and got[0] == "ok" and len(got[1]) == 10
    assert kernel_ledger == row_ledger
    assert kernel_ledger[1]["exec.spill_pages"] == 4


# -- where the row path stops half way ----------------------------------------

def _chain(**overrides):
    """p (40 rows on five pages) joined to u1 and u2 by ``a``; row ``k``
    of p has ``c = k``."""
    rows = [(n % 4, n % 5, n) for n in range(40)]
    spec = {
        "tables": {"p": rows, "u1": [(a, a, a) for a in range(4)],
                   "u2": [(a, a, 0) for a in range(4)] * 2},
        "joins": [{"probe": [col(0, "a")], "build": ["a"],
                   "build_left": False, "residual": None, "filter": None},
                  {"probe": [col(1, "b")], "build": ["a"],
                   "build_left": True, "residual": None, "filter": None}],
        "aliased": set(), "scan": None, "filter": None,
        "project": [col(0, "k"), col(2, "k")],
        "work_mem": 10**9,
    }
    spec.update(overrides)
    return spec


#: 1 / (c - 21): raises at the 22nd probe row, on the third page
BREAKS = ("/", ("lit", 1), ("-", col(0, "c"), ("lit", 21)))


@pytest.mark.parametrize("where", ["scan", "residual", "filter", "project"])
def test_a_division_by_zero_at_row_k_leaves_the_row_paths_counts(where):
    raises = (">", BREAKS, ("lit", -5))
    if where == "scan":
        spec = _chain(scan=raises)
    elif where == "residual":
        spec = _chain()
        spec["joins"][1]["residual"] = raises
    elif where == "filter":
        spec = _chain(filter=raises)
    else:
        spec = _chain(project=[col(0, "k"), BREAKS])
    (got, kernel_ledger), (expected, row_ledger) = twins(spec)
    assert got == expected == ("ExecutionError", "division by zero")
    assert kernel_ledger == row_ledger
    assert kernel_ledger[1]["table.p.tuples_scanned"] == 22


def test_a_missing_parameter_raises_where_the_row_path_does():
    for where in ("residual", "project", "scan"):
        spec = _chain(params=())
        reads = (">", col(0, "c"), ("param", 0))
        if where == "residual":
            spec["joins"][0]["residual"] = reads
        elif where == "project":
            spec["project"] = [col(0, "k"), ("+", col(2, "c"),
                                             ("param", 0))]
        else:
            spec["scan"] = reads
        (got, kernel_ledger), (expected, row_ledger) = twins(spec)
        assert got == expected == \
            ("ExecutionError", "missing value for parameter 1"), where
        assert kernel_ledger == row_ledger


def _three_joins(pad: int = 200) -> Database:
    db = Database()
    for name, rows in (
            ("t", [(n, n % 50, n % 7, "") for n in range(600)]),
            ("u", [(n, n % 50, n % 3, "") for n in range(100)]),
            ("v", [(n, n % 7, n % 2, "") for n in range(14)]),
            ("w", [(n, n % 3, n, "") for n in range(6)])):
        db.create_table(TableSchema(name, [
            Column("k", SqlType.integer(), nullable=False),
            Column("x", SqlType.integer()),
            Column("y", SqlType.integer()),
            Column("pad", SqlType.char(pad)),
        ], primary_key=["k"]))
        db.bulk_load(name, rows)
    db.analyze()
    return db


THREE_JOINS = ("select t.k, u.k + v.k + w.y from t, u, v, w "
               "where t.x = u.x and t.y = v.x and u.y = w.x and w.y < 5")


def _row_path_count() -> int:
    stmt = _three_joins().prepare(THREE_JOINS)
    pin_row_path(stmt._plan.operator)
    return len(stmt.execute(()).rows)


def test_a_deadline_fires_at_the_same_access_wherever_it_falls():
    dry = _three_joins()
    stmt = dry.prepare(THREE_JOINS)
    start = dry.clock.now
    assert stmt.execute(()).rows
    total = dry.clock.now - start
    fired = 0
    for step in range(1, 40):
        ledgers = []
        for pinned in (False, True):
            db = _three_joins()
            stmt = db.prepare(THREE_JOINS)
            if pinned:
                pin_row_path(stmt._plan.operator)
            else:
                assert stmt._plan.operator._pipeline is not None
            db.clock.push_deadline(db.clock.now + total * step / 40,
                                   lambda: StatementTimeout("timed out"))
            try:
                result = ("ok", stmt.execute(()).rows)
            except StatementTimeout as exc:
                result = ("timeout", str(exc))
            ledgers.append((result, observed(db)))
        assert ledgers[0] == ledgers[1], step
        fired += ledgers[0][0][0] == "timeout"
    assert fired > 20


# -- what keeps the row path --------------------------------------------------

@pytest.fixture()
def kernel_tops(monkeypatch):
    """The operators whose pipeline ran as a kernel."""
    tops = []
    run = Pipeline.run

    def recorded(self, params):
        tops.append(self.top)
        return run(self, params)
    monkeypatch.setattr(Pipeline, "run", recorded)
    return tops


def test_a_subquery_in_the_pipeline_keeps_the_row_path(kernel_tops):
    db = _three_joins()
    stmt = db.prepare(THREE_JOINS)
    top = stmt._plan.operator
    expected = _row_path_count()
    subquery = SubqueryExpr(None, "exists")
    subquery.executor = lambda row, params: True
    top.child = Filter(db.ctx, top.child, subquery)
    assert Pipeline.of(top) is None
    assert len(stmt.execute(()).rows) == expected
    # the kernels that ran are pipelines of their own: the bare scans
    # drained by the builds, and the join that a join below the
    # subquery builds on (``w`` probing ``u``)
    inner = top.child.child.probe_op
    scans = {op.table.name: op for op in _operators(top)
             if type(op) is SeqScan}
    assert inner.build_left and \
        kernel_tops == [scans["v"], inner.left, scans["w"]]


def test_a_traced_run_keeps_the_row_path(kernel_tops):
    db = _three_joins()
    stmt = db.prepare(THREE_JOINS)
    expected = _row_path_count()
    db.tracer.enable()
    assert len(stmt.execute(()).rows) == expected
    assert stmt._plan.operator._profile.rows_out == expected
    assert kernel_tops == []


@pytest.mark.parametrize("sql", [
    "select x, count(*) from t group by x",  # the aggregate consumes it
    "select t.k from t, u where t.x = u.x limit 3",  # a lazy consumer
])
def test_other_shapes_and_lazy_consumers_keep_the_row_path(kernel_tops, sql):
    stmt = _three_joins().prepare(sql)
    assert stmt.execute(()).rows
    # a hash join's build drains its bare scan: the zero-join pipeline
    builds = [op.left if op.build_left else op.right
              for op in _operators(stmt._plan.operator)
              if type(op) is HashJoin]
    assert all(type(op) is SeqScan for op in builds)
    assert kernel_tops == [op for op in _operators(stmt._plan.operator)
                           if type(op) is GroupAggregate or op in builds]


def test_an_index_scan_probe_keeps_the_row_path():
    db = _three_joins()
    probe = IndexEqScan(db.ctx, db.catalog.table("t"), "pk_t",
                        [Literal(5)])
    join = HashJoin(db.ctx, probe, SeqScan(db.ctx, db.catalog.table("u")),
                    [1], [1])
    outer = HashJoin(db.ctx, join, SeqScan(db.ctx, db.catalog.table("v")),
                     [2], [1])
    assert Pipeline.of(join) is None and Pipeline.of(outer) is None
    assert len(outer.materialize(())) == 4


def _operators(root):
    yield root
    for child in root.child_operators():
        yield from _operators(child)


# -- what a probe row costs, in calls -----------------------------------------

def _events(run) -> int:
    """``call`` and ``c_call`` events while ``run()`` runs: a generator
    resumption is a ``call``, a method of a builtin a ``c_call``.  The
    collector is off meanwhile: a collection runs the ``gc.callbacks``
    (Hypothesis installs one), four events that are not the run's."""
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += event in ("call", "c_call")

    outer = sys.getprofile()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(outer)
        if collecting:
            gc.enable()
    return events


def _four_joins(pages: int, pinned: bool) -> tuple[Operator, int]:
    """Four unique builds every probe row matches, under a Filter that
    keeps one row in a hundred: what is left to count is the loops."""
    rows = [(n % 5, n % 4, n % 3) for n in range(8 * pages)]
    spec = {
        "tables": {"p": rows, "u1": [(a, a, a) for a in range(5)],
                   "u2": [(a, a, a) for a in range(4)],
                   "u3": [(a, a, a) for a in range(3)],
                   "u4": [(a, a, a) for a in range(5)]},
        "joins": [{"probe": [col(0, name)], "build": ["a"],
                   "build_left": False, "residual": None, "filter": None}
                  for name in "abca"],
        "aliased": set(), "scan": None,
        "filter": ("=", ("lit", 0), ("-", col(0, "k"), col(4, "k"))),
        "project": [col(0, "k"), ("+", col(1, "c"), col(2, "c"))],
        "work_mem": 10**9,
    }
    db = make_db(spec["tables"])
    assert db.catalog.table("p").store.page_count == pages
    top = plan(db, spec)
    if pinned:
        pin_row_path(top)
    assert len(top.materialize(())) == 5  # compiled, warm
    return top, _events(lambda: top.materialize(()))


def test_calls_grow_with_pages_not_with_rows_times_levels():
    kernel = {pages: _four_joins(pages, False)[1] for pages in (10, 40)}
    row_path = {pages: _four_joins(pages, True)[1] for pages in (10, 40)}
    per_page = (kernel[40] - kernel[10]) / 30
    row_per_page = (row_path[40] - row_path[10]) / 30
    # eight probe rows a page, each through four joins, a Filter and
    # (five times in all) a Project: the row path resumes a generator
    # a row and a level; the kernel makes one call a page, and what the
    # scan and the buffer make for the page
    assert row_per_page >= 8 * 5, row_per_page
    assert per_page <= 14, (per_page, row_per_page)


# -- the aggregate as the pipeline's consumer (DESIGN.md §26) ----------------

def pin_everything(root: Operator) -> None:
    """The row path everywhere: the drains, and the aggregate's fold."""
    pin_row_path(root)
    for op in _operators(root):
        op._pipeline = None


def aggregate_plan(db: Database, spec: dict) -> GroupAggregate:
    """``plan`` of the spec under a ``GroupAggregate`` of its
    ``groups`` and ``calls`` — ``(function, argument or None,
    distinct)`` — whose expressions ``plan`` binds as a projection."""
    args = [arg for _func, arg, _distinct in spec["calls"] if arg is not None]
    project = plan(db, {**spec, "project": [*spec["groups"], *args]})
    exprs = iter(project.exprs)
    groups = [next(exprs) for _ in spec["groups"]]
    return GroupAggregate(db.ctx, project.child, groups, [
        AggCall(func, None if arg is None else next(exprs), distinct)
        for func, arg, distinct in spec["calls"]])


def aggregate_twins(spec, storage="heap"):
    """As ``twins``, for the aggregate of the spec; the rows by
    ``repr``, where ``1``, ``1.0`` and ``True`` differ."""
    results = []
    for pinned in (False, True):
        db = make_db(spec["tables"], storage, spec["work_mem"])
        top = aggregate_plan(db, spec)
        if pinned:
            pin_everything(top)
        else:
            assert top._pipeline is not None
        got = outcome(lambda: repr(top.materialize(())))
        results.append((got, observed(db)))
    return results


@st.composite
def aggregates(draw):
    levels = draw(st.integers(0, 3))
    tables = {"p": draw(st.lists(ROW, max_size=40))}  # empty input too
    joins = []
    for level in range(1, levels + 1):
        tables[f"u{level}"] = draw(st.lists(ROW, max_size=10))
        width = draw(st.integers(1, 2))
        joined = [col(table, name) for table in range(level + 1)
                  for name in COLUMNS]
        joins.append({
            "probe": [col(draw(st.integers(0, level - 1)),
                          draw(st.sampled_from("abc")))
                      for _ in range(width)],
            "build": [draw(st.sampled_from("abc")) for _ in range(width)],
            "build_left": draw(st.booleans()),
            "residual": draw(st.none() | _predicate(joined)),
            "filter": draw(st.none() | _predicate(joined))
            if level < levels else None,
        })
    refs = [col(table, name) for table in range(levels + 1)
            for name in COLUMNS]
    # a, b and a predicate group 1, 1.0 and True together; NULL keys too
    value = _arith(refs)
    call = st.one_of(
        st.just(("COUNT", None, False)),
        st.tuples(st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
                  value, st.booleans()))
    calls = draw(st.lists(call, min_size=1, max_size=4))
    groups = draw(st.lists(value | _predicate(refs), max_size=3))
    # a third of the time 1 / (x - k) in a key or an argument: it raises
    # at the first row where x = k, if one arrives
    if draw(st.sampled_from([False, False, True])):
        breaks = ("/", ("lit", 1), ("-", draw(st.sampled_from(refs)),
                                      ("lit", draw(st.integers(0, 2)))))
        if draw(st.booleans()):
            groups.insert(draw(st.integers(0, len(groups))), breaks)
        else:
            calls.insert(draw(st.integers(0, len(calls))),
                         (draw(st.sampled_from(["SUM", "MAX"])), breaks,
                          draw(st.booleans())))
    return {
        "tables": tables, "joins": joins,
        "aliased": set(draw(st.lists(st.integers(0, levels), max_size=2))),
        "scan": draw(st.none() | _predicate([col(0, n) for n in COLUMNS])),
        "filter": draw(st.none() | _predicate(refs)),
        "groups": groups, "calls": calls,
        "work_mem": draw(st.sampled_from([10**9, 200, 700, 1500])),
    }


@pytest.mark.parametrize("storage", ["heap", "lsm"])
@settings(max_examples=150, deadline=None)
@given(spec=aggregates())
def test_the_aggregate_kernel_is_the_row_path(storage, spec):
    (got, kernel_ledger), (expected, row_ledger) = \
        aggregate_twins(spec, storage)
    assert got == expected
    assert kernel_ledger == row_ledger


def _sql_twins(sql, params=(), **tables):
    """The statement on twin databases of ``tables`` (default: p of
    ``_chain``), the row path pinned on the second."""
    tables = tables or {"p": [(n % 4, n % 5, n) for n in range(40)]}
    results = []
    for pinned in (False, True):
        db = make_db(tables)
        stmt = db.prepare(sql)
        aggregate, = [op for op in _operators(stmt._plan.operator)
                      if type(op) is GroupAggregate]
        if pinned:
            pin_everything(stmt._plan.operator)
        else:
            assert aggregate._pipeline is not None
        got = outcome(lambda: repr(stmt.execute(params).rows))
        results.append((got, observed(db)))
    return results


@pytest.mark.parametrize("sql", [
    "select a, count(*) from p where 1 / (c - 21) > -5 group by a",
    "select 1 / (c - 21), count(*) from p group by 1 / (c - 21)",
    "select a, sum(1 / (c - 21)) from p group by a",
    "select p.a, max(u1.k) from p, u1 where p.a = u1.a "
    "group by p.a having sum(1 / (p.c - 21)) > 0",
])
def test_a_division_by_zero_at_row_k_in_the_aggregate(sql):
    (got, kernel_ledger), (expected, row_ledger) = _sql_twins(
        sql, p=[(n % 4, n % 5, n) for n in range(40)],
        u1=[(a, a, a) for a in range(4)])
    assert got == expected == ("ExecutionError", "division by zero")
    assert kernel_ledger == row_ledger
    assert kernel_ledger[1]["table.p.tuples_scanned"] == 22


@pytest.mark.parametrize("sql, error", [
    ("select sum(pad) from p", "cannot evaluate 0.0 + 'ppp"),
    ("select min(case when k = 5 then a else pad end) from p",
     "cannot compare 5 < 'ppp"),
    # a replay of the page would find row 3's value seen, and go on
    ("select sum(distinct case when k = 3 then pad else a end) from p",
     "cannot evaluate 3.0 + 'ppp"),
    ("select max(case when k = 5 then pad else b end) from p",
     "cannot compare 'ppp"),
])
def test_values_that_do_not_add_or_compare_raise_a_typed_error(sql, error):
    (got, kernel_ledger), (expected, row_ledger) = _sql_twins(
        sql, p=[(n, n % 3, n) for n in range(40)])
    assert got == expected and got[0] == "ExecutionError"
    assert got[1].startswith(error), got
    assert kernel_ledger == row_ledger


@pytest.mark.parametrize("sql", [
    "select a, sum(c + ?) from p group by a",
    "select count(*), max(c) from p group by a + ?",
    "select a, count(*) from p where c > ? group by a",
])
def test_a_missing_parameter_in_the_aggregate(sql):
    (got, kernel_ledger), (expected, row_ledger) = _sql_twins(sql)
    assert got == expected == \
        ("ExecutionError", "missing value for parameter 1")
    assert kernel_ledger == row_ledger


GROUPED = ("select u.y, count(*), sum(t.k + v.k), min(w.y), avg(v.y) "
           "from t, u, v, w where t.x = u.x and t.y = v.x and u.y = w.x "
           "and w.y < 5 group by u.y")


def test_a_deadline_fires_at_the_same_access_in_an_aggregate():
    dry = _three_joins()
    start = dry.clock.now
    assert dry.prepare(GROUPED).execute(()).rows
    total = dry.clock.now - start
    fired = 0
    for step in range(1, 40):
        ledgers = []
        for pinned in (False, True):
            db = _three_joins()
            stmt = db.prepare(GROUPED)
            if pinned:
                pin_everything(stmt._plan.operator)
            db.clock.push_deadline(db.clock.now + total * step / 40,
                                   lambda: StatementTimeout("timed out"))
            try:
                result = ("ok", stmt.execute(()).rows)
            except StatementTimeout as exc:
                result = ("timeout", str(exc))
            ledgers.append((result, observed(db)))
        assert ledgers[0] == ledgers[1], step
        fired += ledgers[0][0][0] == "timeout"
    assert fired > 20


def test_a_traced_aggregate_keeps_the_row_path(kernel_tops):
    db = _three_joins()
    stmt = db.prepare(GROUPED)
    expected = stmt.execute(()).rows
    assert GroupAggregate in [type(top) for top in kernel_tops]
    kernel_tops.clear()
    db.tracer.enable()
    assert stmt.execute(()).rows == expected
    aggregate, = [op for op in _operators(stmt._plan.operator)
                  if type(op) is GroupAggregate]
    assert aggregate._profile.rows_out == len(expected)
    assert aggregate.child._profile.rows_out > 0
    assert kernel_tops == []


def test_a_partial_aggregate_lane_keeps_the_row_path(kernel_tops):
    rows = [(n % 4, n % 5, n) for n in range(200)]
    sql = "select a, count(*), sum(c), max(b) from p group by a"
    answers = []
    for degree in (4, 1):
        params = SimParams(page_size_bytes=1024)
        params.parallel_min_rows_per_lane = 10
        db = Database(params)
        db.set_degree(degree)
        db.create_table(TableSchema("p", [
            Column("k", SqlType.integer(), nullable=False),
            *(Column(column, SqlType.integer()) for column in "abc"),
        ], primary_key=["k"]))
        db.bulk_load("p", [(k, *row) for k, row in enumerate(rows)])
        db.analyze()
        answers.append(sorted(db.execute(sql).rows))
        if degree == 4:
            assert "PartialAggregate" in db.explain(sql)
            assert kernel_tops == []
    assert answers[0] == answers[1]
    assert [type(top) for top in kernel_tops] == [GroupAggregate]


def _grouped_scan(pages: int, pinned: bool) -> int:
    rows = [(n % 5, n % 4, n % 3) for n in range(8 * pages)]
    db = make_db({"p": rows})
    assert db.catalog.table("p").store.page_count == pages
    top = aggregate_plan(db, {
        "tables": {"p": rows}, "joins": [], "aliased": set(), "scan": None,
        "filter": None, "work_mem": 10**9,
        "groups": [col(0, "a")],
        "calls": [("COUNT", None, False), ("SUM", ("+", col(0, "b"),
                                                   col(0, "c")), False),
                  ("MIN", col(0, "k"), False), ("AVG", col(0, "b"), False)],
    })
    if pinned:
        pin_everything(top)
    assert len(top.materialize(())) == 5  # compiled, warm
    return _events(lambda: top.materialize(()))


def test_an_aggregate_makes_calls_a_page_not_a_row():
    kernel = {pages: _grouped_scan(pages, False) for pages in (10, 40)}
    row_path = {pages: _grouped_scan(pages, True) for pages in (10, 40)}
    per_page = (kernel[40] - kernel[10]) / 30
    row_per_page = (row_path[40] - row_path[10]) / 30
    # eight rows a page, each a generator resumption, a key, the
    # arguments and four ``add``s on the row path; the kernel makes one
    # call a page, and what the scan and the buffer make for the page
    assert row_per_page >= 8 * 6, row_per_page
    assert per_page <= 14, (per_page, row_per_page)


# -- a join view: its projection is a stage (DESIGN.md §25) ------------------

def _view(db: Database, work_mem: int, broken: bool) -> Alias:
    """The view ``v(k, q, r, a)`` over ``_chain``'s two joins: p's
    ``k``, ``1 / (c - 21)`` when ``broken`` — it raises at the 22nd
    probe row — else ``c - 21``, u2's ``k`` and p's ``a``."""
    q = BREAKS if broken else ("-", col(0, "c"), ("lit", 21))
    inner = plan(db, _chain(work_mem=work_mem, project=[
        col(0, "k"), q, col(2, "k"), col(0, "a")]))
    return Alias(db.ctx, inner, "v", ["k", "q", "r", "a"])


def _over_view(db: Database, shape: str, broken: bool) -> Operator:
    """``shape`` of plan over the view: a projection of a filter
    (``top``), an aggregate, or the probe side of a further join to u2,
    whose builds all spill in ``spilling``."""
    ctx = db.ctx
    view = _view(db, 200 if shape == "spilling" else 10**9, broken)

    def ref(name, schema=view.schema):
        return ColumnRef("v", name).bind(schema)

    if shape == "top":
        kept = Filter(ctx, view, BinOp("<", ref("r"), Literal(6))
                      .bind(view.schema))
        return Project(ctx, kept, [ref("k"), BinOp("+", ref("q"), ref("r"))
                                   .bind(view.schema)], ["k", "e"])
    if shape == "aggregate":
        return GroupAggregate(ctx, view, [ref("a")], [
            AggCall("COUNT", None, False), AggCall("SUM", ref("q"), False),
            AggCall("MAX", ref("r"), False)])
    build = SeqScan(ctx, db.catalog.table("u2"))
    join = HashJoin(ctx, view, build, [view.schema.resolve("v", "a")],
                    [build.schema.resolve("u2", "a")])
    return Project(ctx, join, [ref("k", join.schema),
                               ColumnRef("u2", "k").bind(join.schema)],
                   ["k", "u"])


@pytest.mark.parametrize("broken", [False, True], ids=["ok", "raises"])
@pytest.mark.parametrize("shape", ["top", "aggregate", "probe", "spilling"])
def test_a_view_is_a_stage_of_the_kernel(shape, broken):
    ledgers = []
    for pinned in (False, True):
        db = make_db(_chain()["tables"], work_mem=200 if shape == "spilling"
                     else 10**9)
        top = _over_view(db, shape, broken)
        if pinned:
            pin_everything(top)
        else:  # the view's projection is a stage, not the top
            view, = [op for op in _operators(top) if type(op) is Alias]
            assert view.child in top._pipeline.stages
            assert view.child is not top._pipeline.top
        got = outcome(lambda: repr(top.materialize(())))
        ledgers.append((got, observed(db)))
    assert ledgers[0] == ledgers[1]
    (got, (_clock, counts, _resident)), _row_path = ledgers
    if broken:
        assert got == ("ExecutionError", "division by zero")
        assert counts["table.p.tuples_scanned"] == 22
    else:
        assert got[0] == "ok" and got[1] != "[]"
    assert (counts.get("exec.spill_pages", 0) > 0) == (shape == "spilling")


def test_a_subquery_in_a_views_projection_keeps_the_row_path():
    db = make_db(_chain()["tables"])
    top = _over_view(db, "top", False)
    assert Pipeline.of(top) is not None
    view, = [op for op in _operators(top) if type(op) is Alias]
    subquery = SubqueryExpr(None, "exists")
    subquery.executor = lambda row, params: True
    view.child.exprs = [*view.child.exprs[:-1], subquery]
    assert Pipeline.of(top) is None


def test_the_join_view_reads_of_an_open22_pass_run_as_kernels(
        r3_22, kernel_tops, monkeypatch):
    """Each read of ``wvbapep`` (VBAP ⋈ VBEP) in an Open SQL 2.2 pass —
    eight, at this scale and at SF 0.002 — is one kernel, the view's
    projection a stage in it."""
    from repro.reports import open22
    from tests.conftest import SF

    stmt = r3_22.db.prepare("SELECT vbeln FROM wvbapep WHERE posnr > ?")
    top = stmt._plan.operator
    assert [type(op).__name__ for op in _operators(top)][:5] == [
        "Project", "Filter", "Alias", "Project", "HashJoin"]
    assert Pipeline.of(top) is not None
    reads = []
    execute_param = r3_22.dbif.execute_param

    def spied(sql, params):
        reads.append("wvbapep" in sql)
        return execute_param(sql, params)
    monkeypatch.setattr(r3_22.dbif, "execute_param", spied)
    suite = open22.make_queries(SF)
    for number in sorted(suite):
        suite[number](r3_22)

    def tables(pipeline):
        builds = [join.left if join.build_left else join.right
                  for join in pipeline.joins]
        return {pipeline.scan.table.name,
                *(op.table.name for op in builds if type(op) is SeqScan)}

    views = [top._pipeline for top in kernel_tops
             if any(type(stage) is Project and stage is not top
                    for stage in top._pipeline.stages)]
    assert [tables(view) for view in views].count({"vbap", "vbep"}) == \
        reads.count(True) >= 8
