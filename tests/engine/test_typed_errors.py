"""``BETWEEN``, ``LIKE`` and unary minus raise typed errors.

A value of a type the operator does not take used to escape as a bare
``TypeError`` from these three, where a comparison raises
``ExecutionError("cannot compare …")``.  The emitters serve the row
function, the pipeline kernels and the page filter alike, so each case
is checked on all three: the row path (every operator pinned), a drained
scan's kernel and ``compile_filter``.  A NULL operand still gives NULL
without the pattern or the bounds being looked at.
"""

import datetime
from functools import partial

import pytest

from repro.engine.database import Database
from repro.engine.errors import ExecutionError
from repro.engine.exec.base import Operator
from repro.engine.expr import OutputSchema
from repro.engine.plan.binder import bind_expr
from repro.engine.schema import Column, TableSchema
from repro.engine.sql.parser import parse_sql
from repro.engine.types import SqlType

D95, D96 = datetime.date(1995, 1, 1), datetime.date(1996, 1, 1)
ROWS = [(1, D95, "abc", 5), (2, D96, "abd", 6), (3, None, None, None)]


def make_db(rows=ROWS) -> Database:
    db = Database()
    db.create_table(TableSchema("t", [
        Column("k", SqlType.integer(), nullable=False),
        Column("d", SqlType.date()),
        Column("s", SqlType.varchar(10)),
        Column("q", SqlType.integer()),
    ], primary_key=["k"]))
    db.bulk_load("t", rows)
    return db


CASES = [
    ("SELECT k FROM t WHERE d BETWEEN 1 AND 2", (),
     "cannot compare 1 <= datetime.date(1995, 1, 1)"),
    ("SELECT k FROM t WHERE d NOT BETWEEN 1 AND 2", (),
     "cannot compare 1 <= datetime.date(1995, 1, 1)"),
    ("SELECT k FROM t WHERE s BETWEEN 1 AND 2", (),
     "cannot compare 1 <= 'abc'"),
    # the low bound compares, the high one does not
    ("SELECT k FROM t WHERE s BETWEEN 'a' AND 2", (),
     "cannot compare 'abc' <= 2"),
    ("SELECT k FROM t WHERE q LIKE '5%'", (), "cannot compare 5 LIKE '5%'"),
    ("SELECT k FROM t WHERE q NOT LIKE 'a%'", (),
     "cannot compare 5 NOT LIKE 'a%'"),
    ("SELECT k FROM t WHERE s LIKE ?", (5,), "cannot compare 'abc' LIKE 5"),
    ("SELECT k FROM t WHERE s LIKE 5", (), "cannot compare 'abc' LIKE 5"),
    ("SELECT -s FROM t", (), "cannot evaluate -'abc'"),
    ("SELECT k FROM t WHERE -s = 1", (), "cannot evaluate -'abc'"),
    # what the others now match
    ("SELECT k FROM t WHERE d < 'x'", (),
     "cannot compare datetime.date(1995, 1, 1) < 'x'"),
]


def _run(sql, params, pinned, rows=ROWS):
    db = make_db(rows)
    if pinned:  # every drain the row path's
        plan = db._plan(parse_sql(sql), sql)

        def pin(op):
            op.materialize = partial(Operator.materialize, op)
            for child in op.child_operators():
                pin(child)
        pin(plan.operator)
        return list(plan.operator.rows(params))
    return db.execute(sql, params).rows


@pytest.mark.parametrize("pinned", [False, True], ids=["kernel", "row"])
@pytest.mark.parametrize("sql, params, message", CASES)
def test_a_value_of_the_wrong_type_raises_a_typed_error(
        sql, params, message, pinned):
    with pytest.raises(ExecutionError) as raised:
        _run(sql, params, pinned)
    assert str(raised.value) == message


@pytest.mark.parametrize("sql, params, message",
                         [case for case in CASES if " WHERE " in case[0]])
def test_the_page_filter_raises_it_too(sql, params, message):
    where = parse_sql(sql).where
    bind_expr(where, OutputSchema([("t", name) for name in "kdsq"]))
    page = where.compile_filter(where.compile())
    with pytest.raises(ExecutionError) as raised:
        page(ROWS, params)
    assert str(raised.value) == message
    # the NULL row alone: NULL, not an error, and not looked at further
    assert page(ROWS[2:], params) == []


@pytest.mark.parametrize("pinned", [False, True], ids=["kernel", "row"])
@pytest.mark.parametrize("sql, params", [
    ("SELECT k, s LIKE ?, -q, d BETWEEN 1 AND 2 FROM t", (5,)),
    ("SELECT k FROM t WHERE s LIKE ? OR q NOT BETWEEN 'a' AND 2", (None,)),
])
def test_null_operands_still_give_null(sql, params, pinned):
    expected = [(3, None, None, None)] if "-q" in sql else []
    assert _run(sql, params, pinned, ROWS[2:]) == expected
