import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.errors import ExecutionError, PlanError
from repro.engine.expr import (
    AggCall,
    BetweenExpr,
    BinOp,
    CaseExpr,
    ColumnRef,
    DateArithExpr,
    ExtractExpr,
    FuncCall,
    InListExpr,
    IntervalLiteral,
    IsNullExpr,
    LikeExpr,
    Literal,
    NegExpr,
    NotExpr,
    OutputSchema,
    ParamRef,
    SubqueryExpr,
    compile_row,
    conjoin,
    like_to_regex,
    split_conjuncts,
)

SCHEMA = OutputSchema([("t", "a"), ("t", "b"), (None, "c")])


def ev(expr, row=(1, 2, 3), params=()):
    return expr.bind(SCHEMA).eval(row, params)


class TestColumnResolution:
    def test_qualified(self):
        assert ev(ColumnRef("t", "b")) == 2

    def test_unqualified(self):
        assert ev(ColumnRef(None, "c")) == 3

    def test_case_insensitive(self):
        assert ev(ColumnRef("T", "A")) == 1

    def test_unknown_column(self):
        with pytest.raises(PlanError):
            ColumnRef("t", "zzz").bind(SCHEMA)

    def test_ambiguous_column(self):
        schema = OutputSchema([("x", "k"), ("y", "k")])
        with pytest.raises(PlanError, match="ambiguous column k"):
            ColumnRef(None, "k").bind(schema)

    def test_qualified_disambiguates(self):
        schema = OutputSchema([("x", "k"), ("y", "k")])
        assert schema.resolve("y", "k") == 1


class TestArithmeticAndComparison:
    def test_arithmetic(self):
        expr = BinOp("+", ColumnRef("t", "a"), Literal(10))
        assert ev(expr) == 11

    def test_division_by_zero(self):
        expr = BinOp("/", Literal(1), Literal(0))
        with pytest.raises(ExecutionError):
            ev(expr)

    def test_comparisons(self):
        assert ev(BinOp("<", ColumnRef("t", "a"), Literal(5))) is True
        assert ev(BinOp(">=", ColumnRef("t", "b"), Literal(2))) is True
        assert ev(BinOp("<>", Literal(1), Literal(1))) is False

    def test_negation(self):
        assert ev(NegExpr(ColumnRef("t", "a"))) == -1


class TestThreeValuedLogic:
    def test_comparison_with_null_is_null(self):
        assert ev(BinOp("=", Literal(None), Literal(1))) is None

    def test_and_false_dominates_null(self):
        expr = BinOp("AND", Literal(None), Literal(False))
        assert ev(expr) is False

    def test_and_null(self):
        assert ev(BinOp("AND", Literal(True), Literal(None))) is None

    def test_or_true_dominates_null(self):
        assert ev(BinOp("OR", Literal(None), Literal(True))) is True

    def test_or_null(self):
        assert ev(BinOp("OR", Literal(False), Literal(None))) is None

    def test_not_null(self):
        assert ev(NotExpr(Literal(None))) is None

    def test_is_null(self):
        assert ev(IsNullExpr(Literal(None))) is True
        assert ev(IsNullExpr(Literal(1))) is False
        assert ev(IsNullExpr(Literal(None), negated=True)) is False

    def test_in_list_with_null_candidate(self):
        expr = InListExpr(Literal(5), [Literal(None), Literal(3)])
        assert ev(expr) is None

    def test_in_list_hit_beats_null(self):
        expr = InListExpr(Literal(3), [Literal(None), Literal(3)])
        assert ev(expr) is True

    def test_not_in_with_null_is_null(self):
        expr = InListExpr(Literal(5), [Literal(None)], negated=True)
        assert ev(expr) is None

    def test_between_null_bound(self):
        expr = BetweenExpr(Literal(5), Literal(None), Literal(10))
        assert ev(expr) is None


class TestBetweenAndIn:
    def test_between_inclusive(self):
        assert ev(BetweenExpr(Literal(5), Literal(5), Literal(10))) is True
        assert ev(BetweenExpr(Literal(10), Literal(5), Literal(10))) is True
        assert ev(BetweenExpr(Literal(11), Literal(5), Literal(10))) is False

    def test_not_between(self):
        expr = BetweenExpr(Literal(11), Literal(5), Literal(10),
                           negated=True)
        assert ev(expr) is True

    def test_in_list(self):
        expr = InListExpr(ColumnRef("t", "a"),
                          [Literal(1), Literal(9)])
        assert ev(expr) is True

    def test_not_in_list(self):
        expr = InListExpr(Literal(7), [Literal(1)], negated=True)
        assert ev(expr) is True


class TestLike:
    @pytest.mark.parametrize("pattern,text,expected", [
        ("%BRASS", "SMALL BRASS", True),
        ("%BRASS", "BRASS PLATED", False),
        ("PROMO%", "PROMO TIN", True),
        ("%green%", "dark green ivory", True),
        ("a_c", "abc", True),
        ("a_c", "abbc", False),
        ("%Customer%Complaints%", "x Customer yy Complaints", True),
        ("", "", True),
        ("%", "anything", True),
    ])
    def test_patterns(self, pattern, text, expected):
        expr = LikeExpr(Literal(text), Literal(pattern))
        assert ev(expr) is expected

    def test_not_like(self):
        expr = LikeExpr(Literal("abc"), Literal("z%"), negated=True)
        assert ev(expr) is True

    def test_null_operand(self):
        assert ev(LikeExpr(Literal(None), Literal("%"))) is None

    def test_regex_special_chars_escaped(self):
        assert ev(LikeExpr(Literal("a.c"), Literal("a.c"))) is True
        assert ev(LikeExpr(Literal("abc"), Literal("a.c"))) is False

    @given(st.text(alphabet="ab%_", max_size=8),
           st.text(alphabet="ab", max_size=8))
    def test_like_never_crashes(self, pattern, text):
        like_to_regex(pattern).match(text)


class TestCase:
    def test_first_matching_branch_wins(self):
        expr = CaseExpr(
            [(Literal(True), Literal("x")), (Literal(True), Literal("y"))],
            Literal("z"),
        )
        assert ev(expr) == "x"

    def test_else(self):
        expr = CaseExpr([(Literal(False), Literal("x"))], Literal("z"))
        assert ev(expr) == "z"

    def test_no_else_yields_null(self):
        expr = CaseExpr([(Literal(False), Literal("x"))], None)
        assert ev(expr) is None

    def test_null_condition_skipped(self):
        expr = CaseExpr([(Literal(None), Literal("x"))], Literal("y"))
        assert ev(expr) == "y"


class TestDates:
    def test_extract(self):
        d = Literal(datetime.date(1994, 3, 17))
        assert ev(ExtractExpr("YEAR", d)) == 1994
        assert ev(ExtractExpr("MONTH", d)) == 3
        assert ev(ExtractExpr("DAY", d)) == 17

    def test_extract_from_non_date(self):
        with pytest.raises(ExecutionError):
            ev(ExtractExpr("YEAR", Literal(5)))

    def test_interval_day(self):
        d = Literal(datetime.date(1998, 12, 1))
        expr = DateArithExpr(d, IntervalLiteral(90, "DAY"), -1)
        assert ev(expr) == datetime.date(1998, 9, 2)

    def test_interval_month(self):
        d = Literal(datetime.date(1993, 7, 1))
        expr = DateArithExpr(d, IntervalLiteral(3, "MONTH"), 1)
        assert ev(expr) == datetime.date(1993, 10, 1)

    def test_interval_month_clamps_day(self):
        d = Literal(datetime.date(1993, 1, 31))
        expr = DateArithExpr(d, IntervalLiteral(1, "MONTH"), 1)
        assert ev(expr) == datetime.date(1993, 2, 28)

    def test_interval_year(self):
        d = Literal(datetime.date(1994, 1, 1))
        expr = DateArithExpr(d, IntervalLiteral(1, "YEAR"), 1)
        assert ev(expr) == datetime.date(1995, 1, 1)

    def test_interval_year_leap_day(self):
        d = Literal(datetime.date(1996, 2, 29))
        expr = DateArithExpr(d, IntervalLiteral(1, "YEAR"), 1)
        assert ev(expr) == datetime.date(1997, 2, 28)

    def test_bad_interval_unit(self):
        with pytest.raises(PlanError):
            IntervalLiteral(1, "FORTNIGHT")


class TestFunctions:
    def test_substring(self):
        expr = FuncCall("SUBSTRING", [Literal("hello"), Literal(2),
                                      Literal(3)])
        assert ev(expr) == "ell"

    def test_upper_lower(self):
        assert ev(FuncCall("UPPER", [Literal("abc")])) == "ABC"
        assert ev(FuncCall("LOWER", [Literal("ABC")])) == "abc"

    def test_abs_round(self):
        assert ev(FuncCall("ABS", [Literal(-4)])) == 4
        assert ev(FuncCall("ROUND", [Literal(3.14159), Literal(2)])) == 3.14

    def test_null_propagates(self):
        assert ev(FuncCall("UPPER", [Literal(None)])) is None

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            ev(FuncCall("FROBNICATE", [Literal(1)]))


class TestParams:
    def test_param_lookup(self):
        assert ev(ParamRef(1), params=("a", "b")) == "b"

    def test_missing_param(self):
        with pytest.raises(ExecutionError):
            ev(ParamRef(3), params=())


class TestConjunctHelpers:
    def test_split_flattens_nested_ands(self):
        expr = BinOp("AND", BinOp("AND", Literal(1), Literal(2)),
                     Literal(3))
        assert len(split_conjuncts(expr)) == 3

    def test_split_none(self):
        assert split_conjuncts(None) == []

    def test_or_not_split(self):
        expr = BinOp("OR", Literal(1), Literal(2))
        assert len(split_conjuncts(expr)) == 1

    def test_conjoin_roundtrip(self):
        parts = [Literal(True), Literal(True), Literal(False)]
        rebuilt = conjoin(parts)
        assert ev(rebuilt) is False

    def test_conjoin_empty(self):
        assert conjoin([]) is None


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_comparison_matches_python(a, b):
    for op, fn in [("<", a < b), ("<=", a <= b), (">", a > b),
                   (">=", a >= b), ("=", a == b), ("<>", a != b)]:
        expr = BinOp(op, Literal(a), Literal(b)).bind(SCHEMA)
        assert expr.eval((), ()) is fn


@given(st.integers(-100, 100), st.integers(-100, 100),
       st.integers(-100, 100))
def test_between_matches_python(x, lo, hi):
    expr = BetweenExpr(Literal(x), Literal(lo), Literal(hi)).bind(SCHEMA)
    assert expr.eval((), ()) is (lo <= x <= hi)


# ---------------------------------------------------------------------------
# the compiled evaluator against a reference interpreter written here
# ---------------------------------------------------------------------------

#: row layout of the property: two ints, two strings, two dates
PROPERTY_SCHEMA = OutputSchema(
    [("r", name) for name in ("i0", "i1", "s0", "s1", "d0", "d1")]
)
_INT_COLS, _STR_COLS, _DATE_COLS = (0, 1), (2, 3), (4, 5)

_ints = st.one_of(st.none(), st.integers(-5, 5))
_strs = st.one_of(st.none(), st.text(alphabet="ab%_.", max_size=4))
_dates = st.one_of(
    st.none(),
    st.dates(datetime.date(1995, 1, 1), datetime.date(1995, 3, 1)),
)
_rows = st.tuples(_ints, _ints, _strs, _strs, _dates, _dates)
#: params: two ints, one LIKE pattern
_params = st.tuples(_ints, _ints, st.text(alphabet="ab%_", max_size=4))

_CMP = {"=": lambda a, b: a == b, "<>": lambda a, b: a != b,
        "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}
_ARITH = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b}


def _leaf(cols, literals, params=()):
    options = [st.tuples(st.just("col"), st.sampled_from(cols)),
               st.tuples(st.just("lit"), literals)]
    if params:
        options.append(st.tuples(st.just("param"), st.sampled_from(params)))
    return st.one_of(options)


_bool_spec = st.deferred(lambda: _bool_tree)

_int_spec = st.recursive(
    _leaf(_INT_COLS, _ints, params=(0, 1)),
    lambda inner: st.one_of(
        st.tuples(st.just("arith"), st.sampled_from(sorted(_ARITH)),
                  inner, inner),
        st.tuples(st.just("neg"), inner),
        st.tuples(st.just("case"),
                  st.lists(st.tuples(_bool_spec, inner), min_size=1,
                           max_size=2),
                  st.one_of(st.none(), inner)),
    ),
    max_leaves=4,
)
_str_spec = _leaf(_STR_COLS, _strs)
_date_spec = st.one_of(
    _leaf(_DATE_COLS, _dates),
    st.tuples(st.just("shift"), _leaf(_DATE_COLS, _dates),
              st.integers(0, 40), st.sampled_from((1, -1))),
)


def _typed(build):
    """``build(operand strategy)`` for each of the three value types."""
    return st.one_of(build(_int_spec), build(_str_spec), build(_date_spec))


_bool_leaf = st.one_of(
    _typed(lambda v: st.tuples(st.just("cmp"), st.sampled_from(sorted(_CMP)),
                               v, v)),
    _typed(lambda v: st.tuples(st.just("isnull"), v, st.booleans())),
    _typed(lambda v: st.tuples(st.just("between"), v, v, v, st.booleans())),
    _typed(lambda v: st.tuples(st.just("in"), v, st.lists(v, max_size=3),
                               st.booleans())),
    st.tuples(st.just("in"), _int_spec,
              st.lists(st.tuples(st.just("lit"), _ints), max_size=4),
              st.booleans()),
    st.tuples(st.just("like"), _str_spec,
              st.one_of(st.tuples(st.just("lit"), _strs),
                        st.just(("param", 2))),
              st.booleans()),
)
_bool_tree = st.recursive(
    _bool_leaf,
    lambda inner: st.one_of(
        st.tuples(st.just("and"), inner, inner),
        st.tuples(st.just("or"), inner, inner),
        st.tuples(st.just("not"), inner),
    ),
    max_leaves=5,
)


def build_expr(spec):
    """The ``Expr`` tree a spec stands for."""
    kind = spec[0]
    if kind == "col":
        return ColumnRef("r", PROPERTY_SCHEMA.names[spec[1]])
    if kind == "lit":
        return Literal(spec[1])
    if kind == "param":
        return ParamRef(spec[1])
    if kind in ("cmp", "arith"):
        return BinOp(spec[1], build_expr(spec[2]), build_expr(spec[3]))
    if kind in ("and", "or"):
        return BinOp(kind, build_expr(spec[1]), build_expr(spec[2]))
    if kind == "not":
        return NotExpr(build_expr(spec[1]))
    if kind == "neg":
        return NegExpr(build_expr(spec[1]))
    if kind == "isnull":
        return IsNullExpr(build_expr(spec[1]), negated=spec[2])
    if kind == "between":
        return BetweenExpr(build_expr(spec[1]), build_expr(spec[2]),
                           build_expr(spec[3]), negated=spec[4])
    if kind == "in":
        return InListExpr(build_expr(spec[1]),
                          [build_expr(item) for item in spec[2]],
                          negated=spec[3])
    if kind == "like":
        return LikeExpr(build_expr(spec[1]), build_expr(spec[2]),
                        negated=spec[3])
    if kind == "case":
        return CaseExpr(
            [(build_expr(c), build_expr(v)) for c, v in spec[1]],
            None if spec[2] is None else build_expr(spec[2]),
        )
    if kind == "shift":
        return DateArithExpr(build_expr(spec[1]),
                             IntervalLiteral(spec[2], "DAY"), spec[3])
    raise AssertionError(kind)


def _like(pattern, text):
    """SQL LIKE by recursion on the pattern; no regex involved."""
    if not pattern:
        return not text
    head, rest = pattern[0], pattern[1:]
    if head == "%":
        return any(_like(rest, text[i:]) for i in range(len(text) + 1))
    return bool(text) and (head == "_" or head == text[0]) \
        and _like(rest, text[1:])


def _negate(value, negated):
    return value if value is None or not negated else not value


def reference(spec, row, params):
    """Kleene-logic interpreter over specs: the oracle of the property."""
    kind = spec[0]
    if kind == "col":
        return row[spec[1]]
    if kind == "lit":
        return spec[1]
    if kind == "param":
        return params[spec[1]]
    if kind in ("cmp", "arith"):
        a = reference(spec[2], row, params)
        b = reference(spec[3], row, params)
        if a is None or b is None:
            return None
        return (_CMP if kind == "cmp" else _ARITH)[spec[1]](a, b)
    if kind in ("and", "or"):
        a = reference(spec[1], row, params)
        b = reference(spec[2], row, params)
        dominant = kind == "or"
        if a is dominant or b is dominant:
            return dominant
        return None if a is None or b is None else not dominant
    if kind == "not":
        return _negate(reference(spec[1], row, params), True)
    if kind == "neg":
        value = reference(spec[1], row, params)
        return None if value is None else -value
    if kind == "isnull":
        return (reference(spec[1], row, params) is None) != spec[2]
    if kind == "between":
        value, low, high = (reference(s, row, params) for s in spec[1:4])
        if value is None or low is None or high is None:
            return None
        return _negate(low <= value <= high, spec[4])
    if kind == "in":
        value = reference(spec[1], row, params)
        if value is None:
            return None
        items = [reference(item, row, params) for item in spec[2]]
        if value in [item for item in items if item is not None]:
            return _negate(True, spec[3])
        return None if None in items else _negate(False, spec[3])
    if kind == "like":
        value = reference(spec[1], row, params)
        pattern = reference(spec[2], row, params)
        if value is None or pattern is None:
            return None
        return _negate(_like(pattern, value), spec[3])
    if kind == "case":
        for cond, value in spec[1]:
            if reference(cond, row, params) is True:
                return reference(value, row, params)
        return None if spec[2] is None else reference(spec[2], row, params)
    if kind == "shift":
        value = reference(spec[1], row, params)
        if value is None:
            return None
        return value + datetime.timedelta(days=spec[2] * spec[3])
    raise AssertionError(kind)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_bool_tree, _int_spec, _date_spec), _rows, _params)
def test_compiled_tree_agrees_with_reference(spec, row, params):
    expr = build_expr(spec)
    bind = [node for node in expr.walk() if isinstance(node, ColumnRef)]
    for node in bind:
        node.bind(PROPERTY_SCHEMA)
    compiled = expr.compile()
    expected = reference(spec, row, params)
    assert compiled(row, params) == expected
    assert type(compiled(row, params)) is type(expected)
    # the cold-path convenience is the same closure, called once
    assert expr.eval(row, params) == expected


class TestCompiledErrors:
    """Error typing survives compilation, texts unchanged."""

    @pytest.mark.parametrize("expr,message", [
        (BinOp("<", Literal(1), Literal("a")), "cannot compare 1 < 'a'"),
        (BinOp("+", Literal(1), Literal("a")), "cannot evaluate 1 + 'a'"),
        (BinOp("/", Literal(1), Literal(0)), "division by zero"),
        (BinOp("/", ColumnRef("t", "a"), BinOp("-", Literal(1), Literal(1))),
         "division by zero"),
        (ParamRef(3), "missing value for parameter 4"),
        (ExtractExpr("YEAR", Literal(5)), "EXTRACT from non-date 5"),
        (DateArithExpr(Literal(5), IntervalLiteral(1, "DAY"), 1),
         "interval arithmetic on non-date 5"),
        (FuncCall("FROBNICATE", [Literal(1)]), "unknown function FROBNICATE"),
        (AggCall("SUM", Literal(1)),
         "aggregate SUM evaluated outside aggregation"),
        (SubqueryExpr(object(), "scalar"),
         "subquery was never compiled by the planner"),
    ])
    def test_message(self, expr, message):
        with pytest.raises(ExecutionError) as caught:
            ev(expr)
        assert str(caught.value) == message

    def test_unbound_column(self):
        with pytest.raises(ExecutionError) as caught:
            ColumnRef("t", "a").eval((1,), ())
        assert str(caught.value) == "unbound column t.a"

    def test_constant_error_waits_for_a_row(self):
        # Folding must not move an error from run time to compile time:
        # ``WHERE 1/0 = 1`` over an empty table never raised.
        compiled = BinOp("=", BinOp("/", Literal(1), Literal(0)),
                         Literal(1)).compile()
        with pytest.raises(ExecutionError, match="division by zero"):
            compiled((), ())

    def test_null_argument_hides_unknown_function(self):
        assert ev(FuncCall("FROBNICATE", [Literal(None)])) is None


def _a_is(value, negated=False):
    return BinOp("<>" if negated else "=", ColumnRef("t", "a"),
                 Literal(value))


#: shape -> (tree around the ``bad`` node, a row that does not reach
#: ``bad``, the value there, a row that does)
LAZY_SHAPES = {
    "and_arm": (
        lambda bad: BinOp("AND", _a_is(1, negated=True), bad),
        (1, 2, 3), False, (0, 2, 3)),
    "or_arm": (
        lambda bad: BinOp("OR", _a_is(1), bad),
        (1, 2, 3), True, (0, 2, 3)),
    "third_arm_of_a_chain": (
        lambda bad: conjoin([_a_is(9, negated=True),
                             _a_is(1, negated=True), bad]),
        (1, 2, 3), False, (0, 2, 3)),
    "nested_and_arm": (
        lambda bad: NotExpr(BinOp("AND", _a_is(1, negated=True), bad)),
        (1, 2, 3), True, (0, 2, 3)),
    "nested_or_arm": (
        lambda bad: BinOp("AND", BinOp("OR", _a_is(1), bad), _a_is(1)),
        (1, 2, 3), True, (0, 2, 3)),
    "case_value": (
        lambda bad: CaseExpr([(_a_is(1, negated=True), bad)], Literal(7)),
        (1, 2, 3), 7, (0, 2, 3)),
    "case_default": (
        lambda bad: CaseExpr([(_a_is(1), Literal(7))], bad),
        (1, 2, 3), 7, (0, 2, 3)),
    "case_condition_after_a_taken_branch": (
        lambda bad: CaseExpr([(_a_is(1), Literal(7)), (bad, Literal(8))],
                             None),
        (1, 2, 3), 7, (0, 2, 3)),
    "in_list_item_after_a_match": (
        lambda bad: InListExpr(Literal(1), [ColumnRef("t", "a"), bad]),
        (1, 2, 3), True, (0, 2, 3)),
    "in_list_under_a_null_operand": (
        lambda bad: InListExpr(ColumnRef("t", "b"), [bad]),
        (1, None, 3), None, (1, 2, 3)),
    "like_pattern_under_a_null_operand": (
        lambda bad: LikeExpr(ColumnRef("t", "b"), bad),
        (1, None, 3), None, (1, "x", 3)),
}

#: a node that raises when a row reaches it -> the text it raises
BAD_NODES = {
    "missing_param": (lambda: ParamRef(9),
                      "missing value for parameter 10"),
    "one_over_zero": (lambda: BinOp("/", Literal(1), Literal(0)),
                      "division by zero"),
}


@pytest.mark.parametrize("bad", sorted(BAD_NODES))
@pytest.mark.parametrize("shape", sorted(LAZY_SHAPES))
def test_unreached_node_does_not_raise_and_reached_one_does(shape, bad):
    build, unreached_row, value, reached_row = LAZY_SHAPES[shape]
    make_bad, message = BAD_NODES[bad]
    compiled = build(make_bad()).bind(SCHEMA).compile()
    assert compiled(unreached_row, ()) is value
    with pytest.raises(ExecutionError) as caught:
        compiled(reached_row, ())
    assert str(caught.value) == message


class TestCompileTimeWork:
    """What compilation does once so that no row has to."""

    def test_literal_subtree_is_folded(self, monkeypatch):
        calls = []
        original = IntervalLiteral.add_to
        monkeypatch.setattr(
            IntervalLiteral, "add_to",
            lambda self, date, sign: calls.append(date)
            or original(self, date, sign))
        cutoff = DateArithExpr(Literal(datetime.date(1998, 12, 1)),
                               IntervalLiteral(90, "DAY"), -1)
        compiled = BinOp("<=", ColumnRef(None, "c"), cutoff) \
            .bind(SCHEMA).compile()
        assert len(calls) == 1
        for day in range(1, 20):
            assert compiled((0, 0, datetime.date(1998, 9, day)), ()) \
                is (day <= 2)
        assert len(calls) == 1

    def test_literal_in_list_probes_a_set(self):
        class Loud(int):
            """An int that counts how often it is compared."""
            compared = 0
            __hash__ = int.__hash__

            def __eq__(self, other):
                Loud.compared += 1
                return int(self) == other

        items = [Literal(Loud(n)) for n in range(50)]
        compiled = InListExpr(ColumnRef("t", "a"), items) \
            .bind(SCHEMA).compile()
        assert compiled((49, 0, 0), ()) is True
        assert compiled((77, 0, 0), ()) is False
        assert Loud.compared <= 2  # not 50 + 50

    def test_parameterised_like_compiles_one_regex(self, monkeypatch):
        like_to_regex.cache_clear()
        compiled = LikeExpr(ColumnRef("t", "a"), ParamRef(0)) \
            .bind(SCHEMA).compile()
        rows = [(f"PROMO {n}", 0, 0) for n in range(200)]
        assert all(compiled(row, ("PROMO%",)) for row in rows)
        info = like_to_regex.cache_info()
        assert (info.misses, info.hits) == (1, 199)

    @pytest.mark.parametrize("pattern,text,expected", [
        ("a.c", "abc", False), ("a.c", "a.c", True),
        ("(x)%", "(x)y", True), ("[ab]_", "[ab]c", True),
        ("[ab]_", "ac", False), ("50%", "50 percent", True),
        ("a_c", "a\nc", True), ("^$", "^$", True),
    ])
    def test_parameterised_like_metacharacters(self, pattern, text, expected):
        assert ev(LikeExpr(Literal(text), ParamRef(0)),
                  params=(pattern,)) is expected

    def test_and_chain_is_one_closure_and_stops_at_false(self):
        seen = []

        def probe(value):
            # a scalar subquery: the one node whose value is a call out
            node = SubqueryExpr(object(), "scalar")
            node.executor = lambda row, params: seen.append(value) or value
            return node

        chain = conjoin([probe(True), probe(None), probe(False), probe(True)])
        assert chain.compile()((), ()) is False
        assert seen == [True, None, False]


# ---------------------------------------------------------------------------
# compile_row: several expressions, one function
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_bool_tree, _int_spec, _date_spec), max_size=4),
       _rows, _params)
def test_compile_row_agrees_with_one_compile_each(specs, row, params):
    exprs = [build_expr(spec) for spec in specs]
    for expr in exprs:
        for node in expr.walk():
            if isinstance(node, ColumnRef):
                node.bind(PROPERTY_SCHEMA)
    expected = tuple(expr.compile()(row, params) for expr in exprs)
    got = compile_row(exprs)(row, params)
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


class TestCompileRow:
    def test_no_expressions(self):
        assert compile_row([])((1, 2, 3), ()) == ()

    @pytest.mark.parametrize("row,expected", [
        ((1, 2, 3), (True, 3, True)),
        ((0, 2, 3), (False, 3, True)),     # AND decided by its first operand
        ((1, 0, 3), (False, 3, True)),     # OR decided by its first operand
        ((None, 2, 3), (None, 3, True)),
        ((0, None, 3), (False, 3, None)),
    ])
    def test_connective_among_other_columns(self, row, expected):
        # The root of a predicate returns at the first dominant value; in
        # a row of expressions that would drop the other columns.
        b_is_2 = BinOp("=", ColumnRef("t", "b"), Literal(2))
        exprs = [BinOp("AND", _a_is(1), b_is_2).bind(SCHEMA),
                 ColumnRef(None, "c").bind(SCHEMA),
                 BinOp("OR", _a_is(1), b_is_2).bind(SCHEMA)]
        assert compile_row(exprs)(row, ()) == expected
        assert expected == tuple(e.compile()(row, ()) for e in exprs)

    def test_error_belongs_to_the_row_that_provokes_it(self):
        project = compile_row([
            ColumnRef("t", "a").bind(SCHEMA),
            BinOp("/", Literal(1), ColumnRef("t", "b")).bind(SCHEMA)])
        with pytest.raises(ExecutionError, match="division by zero"):
            project((1, 0, 3), ())
        assert project((1, 2, 3), ()) == (1, 0.5)

    def test_left_to_right(self):
        seen = []

        def probe(value):
            node = SubqueryExpr(object(), "scalar")
            node.executor = lambda row, params: seen.append(value) or value
            return node

        fused = compile_row([probe(1), conjoin([probe(False), probe(2)]),
                             probe(3)])
        assert fused((), ()) == (1, False, 3)
        assert seen == [1, False, 3]
