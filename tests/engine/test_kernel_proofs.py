"""What a kernel does not test, against the row path that tests it all.

A pipeline kernel (DESIGN.md §25, §26, §30) emits fewer tests a row
where it can prove them moot (§33): a conjunct of a required root AND
after which every conjunct is total (``_total``: it cannot raise) ends
the row at NULL as at FALSE, in one test; an atom of a ``NOT NULL``
column — or held or computed from one — gets no NULL test; and for
``=`` one operand that cannot be NULL makes both tests moot.  The
proofs hold for plain values: a parameter of another type sends the
run to the row path.

The reference is the same plan on a twin database with every operator
on the row path.  Over random AND/OR predicates on a table with NOT NULL
and nullable columns of four types, with NULL, mistyped, missing and
exotic parameters and conjuncts that raise after ones that can be NULL,
a drained scan, a join, an aggregate and a hash build's consumer must
leave the same rows, or the same error type and text, and the same
``repr(clock.now)``, counters — ``exec.tuples`` and the scanned rows
at the row that raised — and LRU order.
"""

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import expr as expr_module
from repro.engine.database import Database
from repro.engine.exec.aggregate import GroupAggregate
from repro.engine.exec.joins import HashJoin, Pipeline
from repro.engine.exec.scans import SeqScan
from repro.engine.expr import (
    AggCall,
    BinOp,
    ColumnRef,
    InListExpr,
    IsNullExpr,
    LikeExpr,
    Literal,
    ParamRef,
    _total,
    conjoin,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType
from repro.sim.params import SimParams

from tests.engine.test_pipeline_kernel import observed, pin_everything

D1, D2 = datetime.date(1995, 1, 1), datetime.date(1996, 6, 1)
PAD = "p" * 100  # eight rows a 1 KB page

#: name -> (type, nullable): each type NOT NULL and nullable
COLUMNS = {
    "k": (SqlType.integer(), False),
    "n": (SqlType.integer(), False),
    "s": (SqlType.char(2), False),
    "d": (SqlType.date(), False),
    "a": (SqlType.integer(), True),
    "t": (SqlType.varchar(2), True),
    "e": (SqlType.date(), True),
}
VALUES = {
    "n": st.sampled_from([0, 1, 2]),
    "s": st.sampled_from(["a", "b", "ab"]),
    "d": st.sampled_from([D1, D2]),
    "a": st.sampled_from([0, 1, 2, None]),
    "t": st.sampled_from(["a", "b", None]),
    "e": st.sampled_from([D1, None]),
}
ROW = st.tuples(*(VALUES[name] for name in "nsdate"))


class Touchy(str):
    """A parameter of a type the kernel's proofs do not cover: its
    equality raises, where a plain value's never does."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        raise TypeError("touchy")

    __ne__ = __eq__


LITERALS = st.sampled_from([0, 1, 2, "a", "b", D1, None])
PARAMS = st.sampled_from([0, 1, 2, "a", "b", "a%", D1, None, None,
                          Touchy("a")])


def make_db(tables: dict) -> Database:
    """``tables``: name -> rows of ``(n, s, d, a, t, e)``; ``k`` is the
    row's number.  1 KB pages and a six-page pool."""
    db = Database(SimParams(page_size_bytes=1024,
                            buffer_pool_bytes=6 * 1024))
    for name, rows in tables.items():
        db.create_table(TableSchema(name, [
            *(Column(column, sql_type, nullable=nullable)
              for column, (sql_type, nullable) in COLUMNS.items()),
            Column("pad", SqlType.char(len(PAD))),
        ], primary_key=["k"]))
        db.bulk_load(name, [(k, *row, PAD) for k, row in enumerate(rows)])
    return db


def outcome(run):
    """The result by ``repr``, or the error's type and text: a bare
    ``TypeError`` where the row path raises ``ExecutionError`` differs."""
    try:
        return "ok", repr(run())
    except Exception as exc:  # the type is the outcome
        return type(exc).__name__, str(exc)


# -- predicates ---------------------------------------------------------------

def _leaf(refs):
    ref = st.sampled_from(refs)
    operand = st.one_of(ref, st.builds(lambda v: ("lit", v), LITERALS),
                        st.builds(lambda i: ("param", i), st.integers(0, 2)))
    return st.one_of(
        st.builds(lambda op, x, y: ("cmp", op, x, y),
                  st.sampled_from(["=", "=", "<>", "!=", "<", ">="]),
                  ref, operand),
        st.builds(lambda x, negated: ("isnull", x, negated),
                  ref, st.booleans()),
        st.builds(lambda x, items: ("in", x, items),
                  ref, st.lists(LITERALS, min_size=1, max_size=3)),
        st.builds(lambda x, p: ("like", x, p), ref,
                  st.sampled_from([("lit", "a%"), ("param", 0)])),
        # raises at a row where the column is 1 (a division by zero),
        # or for a string or a date (a typed error)
        st.builds(lambda x: ("div", x), ref),
    )


def _conjunct(refs):
    leaf = _leaf(refs)
    return st.one_of(leaf, leaf, st.builds(
        lambda op, x, y: (op, x, y), st.sampled_from(["AND", "OR"]),
        leaf, leaf))


def predicates(refs):
    """A root AND of one to four conjuncts."""
    return st.lists(_conjunct(refs), min_size=1, max_size=4)


def build(node, ref_of):
    """The ``Expr`` of a predicate spec; ``ref_of(ref)`` makes a column."""
    kind = node[0]
    if kind == "lit":
        return Literal(node[1])
    if kind == "param":
        return ParamRef(node[1])
    if kind == "col":
        return ref_of(node)
    if kind == "cmp":
        return BinOp(node[1], build(node[2], ref_of), build(node[3], ref_of))
    if kind == "isnull":
        return IsNullExpr(build(node[1], ref_of), node[2])
    if kind == "in":
        return InListExpr(build(node[1], ref_of),
                          [Literal(v) for v in node[2]])
    if kind == "like":
        return LikeExpr(build(node[1], ref_of), build(node[2], ref_of))
    if kind == "div":
        return BinOp(">", BinOp("/", Literal(10), BinOp(
            "-", build(node[1], ref_of), Literal(1))), Literal(0))
    return BinOp(kind, build(node[1], ref_of), build(node[2], ref_of))


def where(conjuncts, ref_of):
    return conjoin([build(node, ref_of) for node in conjuncts])


def refs(*tables):
    return [("col", table, name) for table in tables for name in COLUMNS]


def column(node):
    return ColumnRef(node[1], node[2])


# -- the four consumers -------------------------------------------------------

def scan_plan(db, spec):
    scan = SeqScan(db.ctx, db.catalog.table("p"))
    scan.predicate = where(spec["where"], column).bind(scan.schema)
    return scan


def join_plan(db, spec):
    """p probes u on ``keys``; the predicate is the join's residual."""
    probe = SeqScan(db.ctx, db.catalog.table("p"))
    build_op = SeqScan(db.ctx, db.catalog.table("u"))
    left = [probe.schema.resolve("p", name) for name in spec["keys"]]
    right = [build_op.schema.resolve("u", name) for name in spec["keys"]]
    join = HashJoin(db.ctx, probe, build_op, left, right)
    join.residual = where(spec["where"], column).bind(join.schema)
    return join


def aggregate_plan(db, spec):
    scan = scan_plan(db, spec)

    def arg(name):
        return ColumnRef("p", name).bind(scan.schema)
    return GroupAggregate(db.ctx, scan, [arg("s")], [
        AggCall("COUNT", None), AggCall("SUM", arg("n")),
        AggCall("SUM", arg("a")), AggCall("MAX", arg("d")),
        AggCall("MIN", arg("t"))])


def build_plan(db, spec):
    """The filtered scan of p is the build side of a join to u: its
    kernel fills the hash table on ``keys``."""
    probe = SeqScan(db.ctx, db.catalog.table("u"))
    build_op = scan_plan(db, spec)
    left = [probe.schema.resolve("u", name) for name in spec["keys"]]
    right = [build_op.schema.resolve("p", name) for name in spec["keys"]]
    join = HashJoin(db.ctx, probe, build_op, left, right)
    assert join._build_pipeline is not None
    return join


PLANS = {"scan": scan_plan, "join": join_plan, "aggregate": aggregate_plan,
         "build": build_plan}


def twins(shape, spec):
    """The kernel's outcome and ledger, then the row path's."""
    results = []
    for pinned in (False, True):
        db = make_db(spec["tables"])
        top = PLANS[shape](db, spec)
        if pinned:
            pin_everything(top)
        else:
            assert top._pipeline is not None
        got = outcome(lambda: top.materialize(spec["params"]))
        results.append((got, observed(db)))
    return results


@st.composite
def specs(draw, shape):
    tables = {"p": draw(st.lists(ROW, min_size=1, max_size=30)),
              "u": draw(st.lists(ROW, max_size=8))}
    joined = shape == "join"
    return {
        "tables": tables,
        "where": draw(predicates(refs("p", "u") if joined else refs("p"))),
        # NOT NULL, nullable and composite keys
        "keys": draw(st.sampled_from([["n"], ["a"], ["s", "t"], ["n", "d"]])),
        # now and then one short: a missing parameter
        "params": tuple(draw(st.lists(PARAMS, min_size=2, max_size=3))),
    }


@pytest.mark.parametrize("shape", sorted(PLANS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_kernel_is_the_row_path(shape, data):
    spec = data.draw(specs(shape))
    (got, ledger), (expected, expected_ledger) = twins(shape, spec)
    assert got == expected
    assert ledger == expected_ledger


# -- fixed cases ----------------------------------------------------------------

#: a NULL in ``a`` at rows 1 and 3; ``s`` is a string
ROWS = [(n % 3, "ab", D1, None if n % 2 else n, "a", None)
        for n in range(24)]


def _fixed(conjuncts, params=(1,), shape="scan"):
    return twins(shape, {"tables": {"p": ROWS, "u": ROWS[:4]},
                         "where": conjuncts, "keys": ["n"],
                         "params": params})


@pytest.mark.parametrize("shape", sorted(PLANS))
def test_a_raising_conjunct_after_a_null_one_raises_at_its_row(shape):
    # row 1: a IS NULL makes the first conjunct NULL, and the row path
    # goes on to ``s < 1``, which raises there
    conjuncts = [("cmp", "=", ("col", "p", "a"), ("param", 0)),
                 ("cmp", "<", ("col", "p", "s"), ("lit", 1))]
    (got, ledger), (expected, expected_ledger) = \
        _fixed(conjuncts, (7,), shape)
    assert got == expected == (
        "ExecutionError", "cannot compare 'ab' < 1")
    assert ledger == expected_ledger


@pytest.mark.parametrize("shape", sorted(PLANS))
def test_a_null_parameter_under_equality_passes_nothing(shape):
    for conjuncts in (
            [("cmp", "=", ("col", "p", "n"), ("param", 0))],
            [("cmp", "=", ("col", "p", "a"), ("param", 0))],
            [("cmp", "=", ("col", "p", "a"), ("col", "p", "e"))],
            [("cmp", "<>", ("col", "p", "a"), ("param", 0))],
            [("cmp", "=", ("col", "p", "n"), ("param", 0)),
             ("cmp", "<>", ("col", "p", "a"), ("lit", 7))]):
        (got, ledger), (expected, expected_ledger) = \
            _fixed(conjuncts, (None,), shape)
        assert got == expected == ("ok", "[]")
        assert ledger == expected_ledger


@pytest.mark.parametrize("shape", sorted(PLANS))
def test_an_exotic_parameter_takes_the_row_path(shape):
    conjuncts = [("cmp", "=", ("col", "p", "a"), ("lit", 0)),
                 ("cmp", "=", ("col", "p", "s"), ("param", 0))]
    (got, ledger), (expected, expected_ledger) = \
        _fixed(conjuncts, (Touchy("ab"),), shape)
    assert got == expected
    assert got[0] == "ExecutionError"
    assert ledger == expected_ledger


def test_totality():
    db = make_db({"p": []})
    schema = SeqScan(db.ctx, db.catalog.table("p")).schema

    def total(node):
        return _total(build(node, column).bind(schema))
    a, s = ("col", "p", "a"), ("col", "p", "s")
    assert total(("cmp", "=", a, ("param", 0)))
    assert total(("cmp", "<>", a, ("lit", "x")))
    assert total(("isnull", a, True))
    assert total(("in", a, [1, None]))
    assert total(("OR", ("cmp", "=", a, s), ("isnull", s, False)))
    assert not total(("cmp", "<", a, ("param", 0)))
    assert not total(("like", s, ("lit", "a%")))
    assert not total(("div", a))
    assert not total(("AND", ("cmp", "=", a, s), ("cmp", ">=", a, s)))
    assert not _total(BinOp("=", ColumnRef("p", "a"), Literal(1)))  # unbound
    assert not _total(BinOp("=", Literal(object()), Literal(1)))


# -- the generated source -------------------------------------------------------

@pytest.fixture()
def sources(monkeypatch):
    """The text of every kernel generated while the test runs, with the
    table its pipeline scans."""
    seen = []
    factory = expr_module._factory
    compile_kernel = Pipeline._compile

    def spy(source, home="repro/engine/expr.py"):
        seen.append((current[-1] if current else None, source))
        return factory(source, home)

    current: list[str] = []

    def compiling(self, flags):
        current.append(self.scan.table.name)
        try:
            return compile_kernel(self, flags)
        finally:
            current.pop()
    monkeypatch.setattr(expr_module, "_factory", spy)
    monkeypatch.setattr(Pipeline, "_compile", compiling)
    return seen


def _kernel_lines(sources, table):
    return [line.strip() for name, source in sources if name == table
            for line in source.splitlines()]


def test_a_not_null_column_is_never_tested_for_null(sources):
    db = make_db({"p": ROWS})
    spec = {"where": [("cmp", "=", ("col", "p", "n"), ("param", 0)),
                      ("cmp", "=", ("col", "p", "s"), ("col", "p", "d"))]}
    scan_plan(db, spec).materialize((1,))
    lines = _kernel_lines(sources, "p")
    assert "if not r0[1] == p0:" in lines
    assert "if not r0[2] == r0[3]:" in lines
    assert not any("is None" in line for line in lines)


def test_a_later_non_total_conjunct_keeps_the_deferred_null(sources):
    db = make_db({"p": ROWS})
    spec = {"where": [("cmp", "=", ("col", "p", "a"), ("param", 0)),
                      ("cmp", "<", ("col", "p", "n"), ("param", 0))]}
    scan_plan(db, spec).materialize((1,))
    lines = _kernel_lines(sources, "p")
    # the first conjunct carries its NULL on; the last one is one test
    assert "t1 = None" in lines
    assert "if t1 is not True:" in lines
    assert "if p0 is None or not r0[1] < p0:" in lines


def test_open30_q1_tests_konv_mandt_without_a_null_test(sources, r3_30):
    from repro.reports import open30
    from tests.conftest import SF

    runs = []
    run = Pipeline.run

    def recorded(self, params):
        runs.append(self)
        return run(self, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Pipeline, "run", recorded)
        open30.make_queries(SF)[1](r3_30)
    konv = [p for p in runs if p.scan.table.name == "konv"
            and p.keys is not None and not p.joins]
    assert konv
    del sources[:]
    for pipeline in konv:  # compiled afresh: the plan may be cached
        pipeline._compile(())
    mandt = r3_30.db.catalog.table("konv").schema.column_index("mandt")
    tests = [line for line in _kernel_lines(sources, "konv")
             if f"r0[{mandt}] ==" in line]
    assert tests and all(line.startswith("if not r0[") for line in tests)
    assert not any("is None" in line for line in tests)


@pytest.mark.parametrize("seeded", [True, False])
def test_the_scan_schema_is_the_table_schema(seeded):
    db = make_db({"p": ROWS})
    scan = scan_plan(db, {"where": [
        ("cmp", "=", ("col", "p", "n"), ("lit", 1))]})
    if not seeded:  # a scan whose rows were narrower than its table's
        scan.schema.entries.pop()
        with pytest.raises(AssertionError):
            scan._pipeline._compile(())
    else:
        assert len(scan.materialize(())) == 8

