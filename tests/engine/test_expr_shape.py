"""An expression node's declared shape against the code it replaced.

Each ``Expr`` class declares ``parts``, ``tag`` and ``attrs``; the base
class derives ``children``, ``walk``, ``bind``, ``map_parts`` and
``fingerprint`` from them (DESIGN.md §27).  The per-class ``children``,
the ``isinstance`` chain that computed plan fingerprints and the one
that rewrote trees for aggregation are kept below as references, and
compared with the derived ones over ``test_expr.py``'s trees, wrapped in
the node kinds those trees lack.  The SQL-level tests pin the two
defects the copies had drifted into: an ambiguous column that bound to
the outer query (or read as unknown), and literals of one value and
different types that counted as one.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Column, Database, SqlType, TableSchema
from repro.engine.errors import PlanError
from repro.engine.expr import (
    AggCall,
    BetweenExpr,
    BinOp,
    CaseExpr,
    ColumnRef,
    CorrelationCell,
    DateArithExpr,
    Expr,
    ExtractExpr,
    FuncCall,
    InListExpr,
    InputRef,
    IntervalLiteral,
    IsNullExpr,
    LikeExpr,
    Literal,
    NegExpr,
    NotExpr,
    ParamRef,
    SubqueryExpr,
)
from repro.engine.plan.rewrite import rewrite

from tests.engine.test_expr import (
    PROPERTY_SCHEMA,
    _bool_tree,
    _date_spec,
    _int_spec,
    build_expr,
)


# -- the references: the per-class code the declarations replaced ----------


def reference_children(expr):
    """The per-class ``children`` methods, one branch each."""
    if isinstance(expr, BinOp):
        return [expr.left, expr.right]
    if isinstance(expr, (NotExpr, NegExpr, IsNullExpr, ExtractExpr)):
        return [expr.operand]
    if isinstance(expr, BetweenExpr):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, InListExpr):
        return [expr.operand, *expr.items]
    if isinstance(expr, LikeExpr):
        return [expr.operand, expr.pattern]
    if isinstance(expr, CaseExpr):
        out = []
        for cond, value in expr.branches:
            out.extend((cond, value))
        if expr.default is not None:
            out.append(expr.default)
        return out
    if isinstance(expr, DateArithExpr):
        return [expr.date_expr]
    if isinstance(expr, FuncCall):
        return list(expr.args)
    if isinstance(expr, AggCall):
        return [expr.arg] if expr.arg is not None else []
    if isinstance(expr, SubqueryExpr):
        return [expr.operand] if expr.operand is not None else []
    return []


def reference_walk(expr):
    yield expr
    for child in reference_children(expr):
        yield from reference_walk(child)


def reference_fingerprint(expr):
    """The ``isinstance`` chain of the deleted ``plan/fingerprint.py``."""
    fp = reference_fingerprint
    if isinstance(expr, ColumnRef):
        if expr._outer_cell is not None:
            return ("outercol", expr._outer_position)
        return ("col", expr._position)
    if isinstance(expr, InputRef):
        return ("col", expr.position)
    if isinstance(expr, Literal):
        return ("lit", expr.value)
    if isinstance(expr, ParamRef):
        return ("param", expr.index)
    if isinstance(expr, BinOp):
        return ("bin", expr.op, fp(expr.left), fp(expr.right))
    if isinstance(expr, NotExpr):
        return ("not", fp(expr.operand))
    if isinstance(expr, NegExpr):
        return ("neg", fp(expr.operand))
    if isinstance(expr, IsNullExpr):
        return ("isnull", expr.negated, fp(expr.operand))
    if isinstance(expr, BetweenExpr):
        return ("between", expr.negated, fp(expr.operand), fp(expr.low),
                fp(expr.high))
    if isinstance(expr, InListExpr):
        return ("inlist", expr.negated, fp(expr.operand),
                tuple(fp(i) for i in expr.items))
    if isinstance(expr, LikeExpr):
        return ("like", expr.negated, fp(expr.operand), fp(expr.pattern))
    if isinstance(expr, CaseExpr):
        branches = tuple((fp(c), fp(v)) for c, v in expr.branches)
        default = fp(expr.default) if expr.default else None
        return ("case", branches, default)
    if isinstance(expr, ExtractExpr):
        return ("extract", expr.field, fp(expr.operand))
    if isinstance(expr, IntervalLiteral):
        return ("interval", expr.amount, expr.unit)
    if isinstance(expr, DateArithExpr):
        return ("datearith", expr.sign, fp(expr.date_expr),
                fp(IntervalLiteral(expr.interval.amount,
                                   expr.interval.unit)))
    if isinstance(expr, FuncCall):
        return ("fn", expr.name, tuple(fp(a) for a in expr.args))
    if isinstance(expr, AggCall):
        arg = fp(expr.arg) if expr.arg is not None else None
        return ("agg", expr.func, expr.distinct, arg)
    if isinstance(expr, SubqueryExpr):
        return ("subq", id(expr))
    raise PlanError(f"cannot fingerprint {type(expr).__name__}")


def reference_rewrite(expr, mapper):
    """The ``isinstance`` chain of ``plan/rewrite.py``'s ``rewrite``."""
    replacement = mapper(expr)
    if replacement is not None:
        return replacement
    if isinstance(expr, BinOp):
        expr.left = reference_rewrite(expr.left, mapper)
        expr.right = reference_rewrite(expr.right, mapper)
    elif isinstance(expr, (NotExpr, NegExpr, IsNullExpr, ExtractExpr)):
        expr.operand = reference_rewrite(expr.operand, mapper)
    elif isinstance(expr, BetweenExpr):
        expr.operand = reference_rewrite(expr.operand, mapper)
        expr.low = reference_rewrite(expr.low, mapper)
        expr.high = reference_rewrite(expr.high, mapper)
    elif isinstance(expr, InListExpr):
        expr.operand = reference_rewrite(expr.operand, mapper)
        expr.items = [reference_rewrite(item, mapper) for item in expr.items]
    elif isinstance(expr, LikeExpr):
        expr.operand = reference_rewrite(expr.operand, mapper)
        expr.pattern = reference_rewrite(expr.pattern, mapper)
    elif isinstance(expr, CaseExpr):
        expr.branches = [
            (reference_rewrite(cond, mapper), reference_rewrite(value, mapper))
            for cond, value in expr.branches
        ]
        if expr.default is not None:
            expr.default = reference_rewrite(expr.default, mapper)
    elif isinstance(expr, DateArithExpr):
        expr.date_expr = reference_rewrite(expr.date_expr, mapper)
    elif isinstance(expr, FuncCall):
        expr.args = [reference_rewrite(arg, mapper) for arg in expr.args]
    elif isinstance(expr, SubqueryExpr):
        if expr.operand is not None:
            expr.operand = reference_rewrite(expr.operand, mapper)
    return expr


# -- trees: test_expr.py's, bound, wrapped in the kinds they lack ----------


@st.composite
def trees(draw):
    """A bound tree of every node kind: a ``test_expr.py`` tree, some of
    its columns pinned to an outer row, under zero to three wrappers."""
    tree = build_expr(draw(st.one_of(_bool_tree, _int_spec, _date_spec)))
    for node in tree.walk():
        if isinstance(node, ColumnRef):
            node.bind(PROPERTY_SCHEMA)
            if draw(st.booleans()):
                node._outer_cell = CorrelationCell()
                node._outer_position = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ("agg", "count", "fn", "extract", "in", "exists", "case")))
        flag = draw(st.booleans())
        if kind == "agg":
            tree = AggCall(draw(st.sampled_from(AggCall.FUNCTIONS)), tree,
                           distinct=flag)
        elif kind == "count":
            tree = FuncCall("CONCAT", [AggCall("COUNT", None), tree])
        elif kind == "fn":
            tree = FuncCall(draw(st.sampled_from(("ABS", "ROUND"))),
                            [tree, InputRef(draw(st.integers(0, 5)))])
        elif kind == "extract":
            tree = ExtractExpr(draw(st.sampled_from(ExtractExpr.FIELDS)),
                               tree)
        elif kind == "in":
            tree = SubqueryExpr(None, "in", tree, negated=flag)
        elif kind == "exists":
            tree = BinOp("OR", SubqueryExpr(None, "exists", negated=flag),
                         tree)
        else:
            tree = CaseExpr([(tree, Literal(1))],
                            IntervalLiteral(2, "MONTH") if flag else None)
    return tree


def untyped(key):
    """A fingerprint with each literal's ``kind`` taken out."""
    if not isinstance(key, tuple):
        return key
    if len(key) == 3 and key[0] == "lit":
        return key[:2]
    return tuple(untyped(part) for part in key)


def dump(node):
    """A tree as nested plain values: its class and every attribute."""
    if isinstance(node, Expr):
        return (type(node).__name__,
                tuple(sorted((name, dump(value))
                             for name, value in vars(node).items())))
    if isinstance(node, (list, tuple)):
        return type(node)(dump(item) for item in node)
    if isinstance(node, CorrelationCell):
        return "cell"
    return node


# -- the derived methods against the references -----------------------------


@settings(max_examples=300, deadline=None)
@given(trees())
def test_fingerprint_is_the_chains_up_to_the_literal_kind(tree):
    for node in tree.walk():
        assert untyped(node.fingerprint()) == reference_fingerprint(node)


@settings(max_examples=300, deadline=None)
@given(trees())
def test_children_are_the_per_class_ones_and_the_interval(tree):
    for node in tree.walk():
        expected = reference_children(node)
        if isinstance(node, DateArithExpr):
            expected.append(node.interval)
        assert [id(child) for child in node.children()] == \
            [id(child) for child in expected]


@settings(max_examples=300, deadline=None)
@given(trees(), st.data())
def test_rewrite_yields_the_chains_tree(tree, data):
    twin = copy.deepcopy(tree)
    order = list(reference_walk(tree))
    chosen = data.draw(st.sets(st.integers(0, len(order) - 1), max_size=3))

    def mapper_of(root):
        # as the aggregation rewrite's mapper, it replaces every aggregate:
        # the chain never looked inside one
        replaced = {id(node): InputRef(100 + index)
                    for index, node in enumerate(reference_walk(root))
                    if index in chosen or isinstance(node, AggCall)}
        return lambda node: replaced.get(id(node))

    expected = reference_rewrite(twin, mapper_of(twin))
    assert dump(rewrite(tree, mapper_of(tree))) == dump(expected)


def test_literal_kinds_are_three_keys():
    keys = {Literal(value).fingerprint() for value in (1, 1.0, True)}
    assert len(keys) == 3


# -- one resolver, literal kinds: at the SQL level ---------------------------


@pytest.fixture(scope="module")
def db():
    database = Database()
    for name, columns in (("t", "ab"), ("u", "ac"), ("v", "ad")):
        database.create_table(TableSchema(name, [
            Column(column, SqlType.integer()) for column in columns]))
    database.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    database.execute("INSERT INTO u VALUES (3, 10)")
    database.execute("INSERT INTO v VALUES (4, 5)")
    return database


@pytest.mark.parametrize("sql", [
    "SELECT a FROM t, u",
    "SELECT b FROM t WHERE EXISTS (SELECT c FROM u, v WHERE a = 1)",
])
def test_an_ambiguous_column_is_an_error(db, sql):
    with pytest.raises(PlanError, match="ambiguous column a"):
        db.execute(sql)


def test_an_unknown_column_is_still_unknown(db):
    with pytest.raises(PlanError, match="unknown column zz"):
        db.execute("SELECT zz FROM t")


def test_a_correlated_column_still_binds_to_the_outer_query(db):
    assert db.execute("SELECT b FROM t WHERE EXISTS "
                      "(SELECT c FROM u, v WHERE c = b)").rows == [(10,)]


@pytest.mark.parametrize("literal", ["1.0", "1.5"])
def test_a_group_key_matches_a_literal_of_its_own_type_only(db, literal):
    assert db.execute("SELECT a + 1 FROM t GROUP BY a + 1 "
                      "ORDER BY 1").rows == [(2,), (3,)]
    with pytest.raises(PlanError, match="must appear in GROUP BY"):
        db.execute(f"SELECT a + {literal} FROM t GROUP BY a + 1")
