"""The generated page filter against the row function it is emitted beside.

``Expr.compile_filter(fn)`` is the body of ``fn``, ``Expr.compile()``'s
function, inside one loop: ``page(rows, params)`` must keep exactly
``[row for row in rows if fn(row, params) is True]``, in order, and
raise what the first raising row raises — the reference is that
comprehension, over the predicates ``test_expr.py`` generates (NULLs,
AND/OR/NOT roots, LIKE over a parameter, CASE, dates).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.errors import ExecutionError
from repro.engine.expr import (
    BinOp,
    ColumnRef,
    InputRef,
    Literal,
    NotExpr,
    ParamRef,
)

from tests.engine.test_expr import (
    BAD_NODES,
    LAZY_SHAPES,
    PROPERTY_SCHEMA,
    SCHEMA,
    _bool_tree,
    _date_spec,
    _int_spec,
    _params,
    _rows,
    build_expr,
)


def reference_filter(fn, rows, params):
    """A row at a time, as ``SeqScan.rows`` and the DML row path do."""
    return [row for row in rows if fn(row, params) is True]


def outcome(run):
    try:
        return "ok", run()
    except Exception as exc:  # the type and the text are the answer
        return type(exc).__name__, str(exc)


def bound(spec):
    expr = build_expr(spec)
    for node in expr.walk():
        if isinstance(node, ColumnRef):
            node.bind(PROPERTY_SCHEMA)
    return expr


@settings(max_examples=400, deadline=None)
@given(st.one_of(_bool_tree, _int_spec, _date_spec),
       st.lists(_rows, max_size=12), _params, st.integers(0, 3))
def test_page_keeps_what_the_row_function_holds_for(spec, rows, params,
                                                    given_params):
    expr = bound(spec)
    fn = expr.compile()
    page = expr.compile_filter(fn)
    # all three parameters, or fewer: a missing one raises at the row
    # that first reads it, or never when no row does
    params = params[:given_params]
    expected = outcome(lambda: reference_filter(fn, rows, params))
    got = outcome(lambda: page(rows, params))
    assert got == expected
    if got[0] == "ok":
        # the same row objects, not equal copies
        assert all(a is b for a, b in zip(got[1], expected[1]))


@pytest.mark.parametrize("root", ["and", "or", "not", "comparison"])
def test_each_root_connective_decides_rows_the_row_function_decides(root):
    a, b = InputRef(0), InputRef(1)
    is_one = BinOp("=", a, Literal(1))
    below = BinOp("<", b, ParamRef(0))
    expr = {"and": BinOp("AND", is_one, below),
            "or": BinOp("OR", is_one, below),
            "not": NotExpr(BinOp("AND", is_one, below)),
            "comparison": below}[root]
    rows = [(x, y) for x in (0, 1, None) for y in (0, 5, None)]
    fn = expr.compile()
    for params in ((3,), (None,)):
        assert expr.compile_filter(fn)(rows, params) == \
            reference_filter(fn, rows, params)


@pytest.mark.parametrize("bad", sorted(BAD_NODES))
@pytest.mark.parametrize("shape", sorted(LAZY_SHAPES))
def test_a_raising_row_raises_from_the_page_as_from_the_row(shape, bad):
    build, unreached_row, value, reached_row = LAZY_SHAPES[shape]
    make_bad, message = BAD_NODES[bad]
    expr = build(make_bad()).bind(SCHEMA)
    page = expr.compile_filter(expr.compile())
    kept = [unreached_row] if value is True else []
    assert page([unreached_row] * 3, ()) == kept * 3
    with pytest.raises(ExecutionError) as caught:
        page([unreached_row, reached_row, unreached_row], ())
    assert str(caught.value) == message


class CountingParams(tuple):
    """Parameters that count how often they are read."""

    reads = 0

    def __getitem__(self, index):
        CountingParams.reads += 1
        return tuple.__getitem__(self, index)


def test_parameters_are_read_once_a_call_and_the_row_function_per_row():
    expr = BinOp("AND", BinOp(">", InputRef(0), ParamRef(0)),
                 BinOp("<", InputRef(0), ParamRef(1)))
    rows = [(n,) for n in range(100)]
    params = CountingParams((10, 20))
    CountingParams.reads = 0
    assert expr.compile_filter(expr.compile())(rows, params) == rows[11:20]
    assert CountingParams.reads == 2
    CountingParams.reads = 0
    assert reference_filter(expr.compile(), rows, params) == rows[11:20]
    # the first for every row, the second where the first held
    assert CountingParams.reads == 100 + 89


def test_one_text_one_factory_entry():
    # expressions of one shape share the generated page source
    first, second = (expr.compile_filter(expr.compile()) for expr in (
        BinOp("=", InputRef(0), Literal(1)),
        BinOp("=", InputRef(0), Literal(2))))
    assert first.__code__ is second.__code__
    assert first([(1,), (2,)], ()) == [(1,)]
    assert second([(1,), (2,)], ()) == [(2,)]
