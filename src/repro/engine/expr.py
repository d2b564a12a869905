"""Expression AST and compiler.

Expressions are produced by the SQL parser (or constructed directly by
the R/3 layers), *bound* against an :class:`OutputSchema` that maps
qualified column names to tuple positions, and then *compiled*: every
node's :meth:`Expr.compile` returns a closure ``fn(row, params)`` that
carries the node's whole semantics.  Compilation picks the operator
from a table, captures column positions, correlation cells and
subquery executors, and folds subtrees made of literals only, so the
per-row work is the closure calls and nothing else.  Operators compile
once per plan (see :class:`repro.engine.exec.base.Operator`);
:meth:`Expr.eval` compiles and calls in one step for the cold paths.

NULL is represented as Python ``None`` with SQL three-valued logic:
comparisons involving NULL yield NULL, AND/OR follow Kleene logic, and
filter predicates treat NULL as not-satisfied (operators test the
compiled predicate with ``is True``).
"""

from __future__ import annotations

import datetime
import functools
import operator
import re
from typing import Callable, Iterable, Sequence

from repro.engine.errors import ExecutionError, PlanError


class OutputSchema:
    """Names (optionally qualified) of an operator's output columns.

    ``entries`` is a list of ``(qualifier, name)`` pairs; qualifier may
    be None.  Resolution is case-insensitive.  An unqualified lookup
    that matches several entries is ambiguous unless all matches refer
    to the same position.
    """

    def __init__(self, entries: Sequence[tuple[str | None, str]]) -> None:
        self.entries = [
            (q.lower() if q else None, n.lower()) for q, n in entries
        ]

    def __len__(self) -> int:
        return len(self.entries)

    def resolve(self, qualifier: str | None, name: str) -> int:
        """Return the tuple position of a column reference."""
        name = name.lower()
        qualifier = qualifier.lower() if qualifier else None
        matches = [
            i
            for i, (q, n) in enumerate(self.entries)
            if n == name and (qualifier is None or q == qualifier)
        ]
        if not matches:
            ref = f"{qualifier}.{name}" if qualifier else name
            raise PlanError(f"unknown column {ref}")
        if len(matches) > 1:
            ref = f"{qualifier}.{name}" if qualifier else name
            raise PlanError(f"ambiguous column {ref}")
        return matches[0]

    def try_resolve(self, qualifier: str | None, name: str) -> int | None:
        try:
            return self.resolve(qualifier, name)
        except PlanError:
            return None

    def concat(self, other: "OutputSchema") -> "OutputSchema":
        return OutputSchema(self.entries + other.entries)

    @property
    def names(self) -> list[str]:
        return [n for _, n in self.entries]


#: a compiled expression: ``fn(row, params) -> value``
Compiled = Callable[[tuple, Sequence[object]], object]


def _constant(value: object) -> Compiled:
    """A closure that returns ``value``.

    The ``value`` attribute marks it as foldable: a parent whose parts
    are all marked is evaluated once, at compile time (:func:`_fold`).
    """
    def constant(row: tuple, params: Sequence[object]) -> object:
        return value

    constant.value = value  # type: ignore[attr-defined]
    return constant


def _is_constant(fn: Compiled) -> bool:
    return hasattr(fn, "value")


def _fold(fn: Compiled, *parts: Compiled) -> Compiled:
    """``fn`` itself, or its value when every closure it calls is constant.

    A constant subtree that fails to evaluate stays unfolded: the error
    belongs to run time, where it is raised per row and only if a row
    arrives (``WHERE 1/0 = 1`` over an empty table is not an error).
    """
    if not all(_is_constant(part) for part in parts):
        return fn
    try:
        return _constant(fn((), ()))
    except Exception:  # re-raised by ``fn`` itself when a row is evaluated
        return fn


def _raiser(message: str) -> Compiled:
    """A closure that raises :class:`ExecutionError` when a row reaches it."""
    def fail(row: tuple, params: Sequence[object]) -> object:
        raise ExecutionError(message)

    return fail


class Expr:
    """Base class for expression nodes."""

    def bind(self, schema: OutputSchema) -> "Expr":
        """Resolve column references; returns self for chaining."""
        raise NotImplementedError

    def compile(self) -> Compiled:
        """Closure ``fn(row, params)`` evaluating this (bound) node.

        Binding state is captured, so compile after the last bind.
        """
        raise NotImplementedError

    def eval(self, row: tuple, params: Sequence[object]) -> object:
        """Compile and evaluate once (plan-time folding, INSERT values)."""
        return self.compile()(row, params)

    def children(self) -> list["Expr"]:
        return []

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


class Literal(Expr):
    def __init__(self, value: object) -> None:
        self.value = value

    def bind(self, schema: OutputSchema) -> "Literal":
        return self

    def compile(self) -> Compiled:
        return _constant(self.value)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class ParamRef(Expr):
    """A ``?`` parameter marker; ``index`` is its 0-based position."""

    def __init__(self, index: int) -> None:
        self.index = index

    def bind(self, schema: OutputSchema) -> "ParamRef":
        return self

    def compile(self) -> Compiled:
        index = self.index

        def param(row: tuple, params: Sequence[object]) -> object:
            try:
                return params[index]
            except IndexError:
                raise ExecutionError(
                    f"missing value for parameter {index + 1}"
                ) from None

        return param

    def __repr__(self) -> str:
        return f"ParamRef({self.index})"


class CorrelationCell:
    """Mutable slot carrying the current outer row into a subplan."""

    __slots__ = ("row",)

    def __init__(self) -> None:
        self.row: tuple = ()


class ColumnRef(Expr):
    def __init__(self, qualifier: str | None, name: str) -> None:
        self.qualifier = qualifier
        self.name = name
        self._position: int | None = None
        self._outer_cell: CorrelationCell | None = None
        self._outer_position: int | None = None

    def bind(self, schema: OutputSchema) -> "ColumnRef":
        self._position = schema.resolve(self.qualifier, self.name)
        self._outer_cell = None
        return self

    def bind_or_outer(
        self,
        schema: OutputSchema,
        outer_schema: "OutputSchema | None",
        cell: "CorrelationCell | None",
    ) -> bool:
        """Bind against ``schema``; fall back to the outer query's schema.

        Returns True when the reference turned out to be correlated.
        A reference already pinned to an outer row (by the planner's
        correlated-sarg extraction) stays pinned.
        """
        if self._outer_cell is not None:
            return True
        position = schema.try_resolve(self.qualifier, self.name)
        if position is not None:
            self._position = position
            self._outer_cell = None
            return False
        if outer_schema is not None and cell is not None:
            outer_position = outer_schema.try_resolve(self.qualifier, self.name)
            if outer_position is not None:
                self._outer_cell = cell
                self._outer_position = outer_position
                return True
        raise PlanError(f"unknown column {self.display_name}")

    def compile(self) -> Compiled:
        if self._outer_cell is not None:
            cell, outer_position = self._outer_cell, self._outer_position
            return lambda row, params: cell.row[outer_position]
        position = self._position
        if position is None:
            return _raiser(f"unbound column {self.display_name}")
        return lambda row, params: row[position]

    @property
    def display_name(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def __repr__(self) -> str:
        return f"ColumnRef({self.display_name})"


class InputRef(Expr):
    """Direct positional reference (used after planner rewrites)."""

    def __init__(self, position: int) -> None:
        self.position = position

    def bind(self, schema: OutputSchema) -> "InputRef":
        return self

    def compile(self) -> Compiled:
        position = self.position
        return lambda row, params: row[position]

    def __repr__(self) -> str:
        return f"InputRef({self.position})"


def _divide(left: object, right: object) -> object:
    if right == 0:
        raise ExecutionError("division by zero")
    return left / right


#: operator symbol -> (function, verb of the TypeError message)
_BINARY_OPERATORS: dict[str, tuple[Callable[[object, object], object], str]] = {
    "=": (operator.eq, "compare"),
    "<>": (operator.ne, "compare"),
    "!=": (operator.ne, "compare"),
    "<": (operator.lt, "compare"),
    "<=": (operator.le, "compare"),
    ">": (operator.gt, "compare"),
    ">=": (operator.ge, "compare"),
    "+": (operator.add, "evaluate"),
    "-": (operator.sub, "evaluate"),
    "*": (operator.mul, "evaluate"),
    "/": (_divide, "evaluate"),
}


def _connective(parts: list[Compiled], dominant: bool) -> Compiled:
    """Kleene AND (``dominant`` False) / OR (True) over ``parts``.

    Parts run left to right and stop at the first dominant value, as
    the nested two-operand form does.
    """
    neutral = not dominant

    def connective(row: tuple, params: Sequence[object]) -> object:
        result: object = neutral
        for part in parts:
            value = part(row, params)
            if value is dominant:
                return dominant
            if value is None:
                result = None
        return result

    return connective


class BinOp(Expr):
    """Binary operator: comparison, arithmetic, AND/OR."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op = op.upper() if op.upper() in ("AND", "OR") else op
        self.left = left
        self.right = right

    def bind(self, schema: OutputSchema) -> "BinOp":
        self.left = self.left.bind(schema)
        self.right = self.right.bind(schema)
        return self

    def children(self) -> list[Expr]:
        return [self.left, self.right]

    def compile(self) -> Compiled:
        op = self.op
        if op in ("AND", "OR"):
            parts = [part.compile() for part in _operands(self, op)]
            return _fold(_connective(parts, dominant=(op == "OR")), *parts)
        if op not in _BINARY_OPERATORS:
            raise AssertionError(f"unknown operator {op}")
        apply, verb = _BINARY_OPERATORS[op]
        left, right = self.left.compile(), self.right.compile()

        def binary(row: tuple, params: Sequence[object]) -> object:
            a = left(row, params)
            b = right(row, params)
            if a is None or b is None:
                return None
            try:
                return apply(a, b)
            except TypeError as exc:
                raise ExecutionError(
                    f"cannot {verb} {a!r} {op} {b!r}"
                ) from exc

        return _fold(binary, left, right)

    def __repr__(self) -> str:
        return f"BinOp({self.left!r} {self.op} {self.right!r})"


def _operands(expr: Expr, op: str) -> list[Expr]:
    """Flatten a nest of one connective into its operands, in order."""
    if isinstance(expr, BinOp) and expr.op == op:
        return _operands(expr.left, op) + _operands(expr.right, op)
    return [expr]


class NotExpr(Expr):
    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def bind(self, schema: OutputSchema) -> "NotExpr":
        self.operand = self.operand.bind(schema)
        return self

    def children(self) -> list[Expr]:
        return [self.operand]

    def compile(self) -> Compiled:
        operand = self.operand.compile()

        def negate(row: tuple, params: Sequence[object]) -> object:
            value = operand(row, params)
            if value is None:
                return None
            return not value

        return _fold(negate, operand)


class NegExpr(Expr):
    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def bind(self, schema: OutputSchema) -> "NegExpr":
        self.operand = self.operand.bind(schema)
        return self

    def children(self) -> list[Expr]:
        return [self.operand]

    def compile(self) -> Compiled:
        operand = self.operand.compile()

        def minus(row: tuple, params: Sequence[object]) -> object:
            value = operand(row, params)
            if value is None:
                return None
            return -value

        return _fold(minus, operand)


class IsNullExpr(Expr):
    def __init__(self, operand: Expr, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def bind(self, schema: OutputSchema) -> "IsNullExpr":
        self.operand = self.operand.bind(schema)
        return self

    def children(self) -> list[Expr]:
        return [self.operand]

    def compile(self) -> Compiled:
        operand = self.operand.compile()
        negated = self.negated

        def is_null(row: tuple, params: Sequence[object]) -> object:
            return (operand(row, params) is None) is not negated

        return _fold(is_null, operand)


class BetweenExpr(Expr):
    def __init__(self, operand: Expr, low: Expr, high: Expr,
                 negated: bool = False) -> None:
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def bind(self, schema: OutputSchema) -> "BetweenExpr":
        self.operand = self.operand.bind(schema)
        self.low = self.low.bind(schema)
        self.high = self.high.bind(schema)
        return self

    def children(self) -> list[Expr]:
        return [self.operand, self.low, self.high]

    def compile(self) -> Compiled:
        operand = self.operand.compile()
        low, high = self.low.compile(), self.high.compile()
        negated = self.negated

        def between(row: tuple, params: Sequence[object]) -> object:
            value = operand(row, params)
            lo = low(row, params)
            hi = high(row, params)
            if value is None or lo is None or hi is None:
                return None
            return (lo <= value <= hi) is not negated

        return _fold(between, operand, low, high)


def _membership(value: object, candidates: Iterable[object],
                negated: bool) -> object:
    """``value [NOT] IN candidates`` for a non-NULL ``value``."""
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif candidate == value:
            return not negated
    return None if saw_null else negated


class InListExpr(Expr):
    def __init__(self, operand: Expr, items: list[Expr],
                 negated: bool = False) -> None:
        self.operand = operand
        self.items = items
        self.negated = negated

    def bind(self, schema: OutputSchema) -> "InListExpr":
        self.operand = self.operand.bind(schema)
        self.items = [item.bind(schema) for item in self.items]
        return self

    def children(self) -> list[Expr]:
        return [self.operand, *self.items]

    def compile(self) -> Compiled:
        operand = self.operand.compile()
        items = [item.compile() for item in self.items]
        negated = self.negated
        if all(_is_constant(item) for item in items):
            # Literal list: one set probe.  ``in`` on a set is hash plus
            # ``==``, the comparison the candidate loop makes.
            values = [item.value for item in items]
            members = frozenset(v for v in values if v is not None)
            hit = not negated
            miss = None if any(v is None for v in values) else negated

            def in_set(row: tuple, params: Sequence[object]) -> object:
                value = operand(row, params)
                if value is None:
                    return None
                return hit if value in members else miss

            return _fold(in_set, operand)

        def in_list(row: tuple, params: Sequence[object]) -> object:
            value = operand(row, params)
            if value is None:
                return None
            return _membership(
                value, (item(row, params) for item in items), negated
            )

        return in_list


@functools.lru_cache(maxsize=512)
def like_to_regex(pattern: str) -> re.Pattern[str]:
    """Compile a SQL LIKE pattern (``%``, ``_``) to an anchored regex.

    Memoised: a parameterised ``LIKE ?`` asks for the same pattern once
    per row.
    """
    out = ["^"]
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    out.append("$")
    return re.compile("".join(out), re.DOTALL)


class LikeExpr(Expr):
    def __init__(self, operand: Expr, pattern: Expr,
                 negated: bool = False) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def bind(self, schema: OutputSchema) -> "LikeExpr":
        self.operand = self.operand.bind(schema)
        self.pattern = self.pattern.bind(schema)
        return self

    def children(self) -> list[Expr]:
        return [self.operand, self.pattern]

    def compile(self) -> Compiled:
        operand = self.operand.compile()
        pattern = self.pattern.compile()
        negated = self.negated
        if _is_constant(pattern) and isinstance(pattern.value, str):
            match = like_to_regex(pattern.value).match

            def like_literal(row: tuple, params: Sequence[object]) -> object:
                value = operand(row, params)
                if value is None:
                    return None
                return (match(value) is not None) is not negated

            return _fold(like_literal, operand)

        def like(row: tuple, params: Sequence[object]) -> object:
            value = operand(row, params)
            if value is None:
                return None
            text = pattern(row, params)
            if text is None:
                return None
            return (like_to_regex(text).match(value) is not None) \
                is not negated

        return _fold(like, operand, pattern)


class CaseExpr(Expr):
    """Searched CASE: WHEN cond THEN value ... [ELSE value] END."""

    def __init__(self, branches: list[tuple[Expr, Expr]],
                 default: Expr | None) -> None:
        self.branches = branches
        self.default = default

    def bind(self, schema: OutputSchema) -> "CaseExpr":
        self.branches = [
            (cond.bind(schema), value.bind(schema))
            for cond, value in self.branches
        ]
        if self.default is not None:
            self.default = self.default.bind(schema)
        return self

    def children(self) -> list[Expr]:
        out: list[Expr] = []
        for cond, value in self.branches:
            out.extend((cond, value))
        if self.default is not None:
            out.append(self.default)
        return out

    def compile(self) -> Compiled:
        branches = [
            (cond.compile(), value.compile())
            for cond, value in self.branches
        ]
        default = (_constant(None) if self.default is None
                   else self.default.compile())

        def case(row: tuple, params: Sequence[object]) -> object:
            for cond, value in branches:
                if cond(row, params) is True:
                    return value(row, params)
            return default(row, params)

        return _fold(case, default, *(fn for pair in branches for fn in pair))


class ExtractExpr(Expr):
    """EXTRACT(YEAR|MONTH|DAY FROM date_expr)."""

    FIELDS = ("YEAR", "MONTH", "DAY")

    def __init__(self, field: str, operand: Expr) -> None:
        field = field.upper()
        if field not in self.FIELDS:
            raise PlanError(f"unsupported EXTRACT field {field}")
        self.field = field
        self.operand = operand

    def bind(self, schema: OutputSchema) -> "ExtractExpr":
        self.operand = self.operand.bind(schema)
        return self

    def children(self) -> list[Expr]:
        return [self.operand]

    def compile(self) -> Compiled:
        operand = self.operand.compile()
        part = operator.attrgetter(self.field.lower())

        def extract(row: tuple, params: Sequence[object]) -> object:
            value = operand(row, params)
            if value is None:
                return None
            if not isinstance(value, datetime.date):
                raise ExecutionError(f"EXTRACT from non-date {value!r}")
            return part(value)

        return _fold(extract, operand)


class IntervalLiteral(Expr):
    """INTERVAL 'n' DAY|MONTH|YEAR — only usable with +/- on dates."""

    UNITS = ("DAY", "MONTH", "YEAR")

    def __init__(self, amount: int, unit: str) -> None:
        unit = unit.upper().rstrip("S")
        if unit not in self.UNITS:
            raise PlanError(f"unsupported interval unit {unit}")
        self.amount = amount
        self.unit = unit

    def bind(self, schema: OutputSchema) -> "IntervalLiteral":
        return self

    def compile(self) -> Compiled:
        return _constant(self)

    def add_to(self, date: datetime.date, sign: int) -> datetime.date:
        amount = self.amount * sign
        if self.unit == "DAY":
            return date + datetime.timedelta(days=amount)
        if self.unit == "MONTH":
            month0 = date.month - 1 + amount
            year = date.year + month0 // 12
            month = month0 % 12 + 1
            day = min(date.day, _days_in_month(year, month))
            return datetime.date(year, month, day)
        year = date.year + amount
        day = min(date.day, _days_in_month(year, date.month))
        return datetime.date(year, date.month, day)


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    first_next = datetime.date(year + (month == 12), month % 12 + 1, 1)
    return (first_next - datetime.timedelta(days=1)).day


class DateArithExpr(Expr):
    """date ± interval (produced by the parser for +/- with intervals)."""

    def __init__(self, date_expr: Expr, interval: IntervalLiteral,
                 sign: int) -> None:
        self.date_expr = date_expr
        self.interval = interval
        self.sign = sign

    def bind(self, schema: OutputSchema) -> "DateArithExpr":
        self.date_expr = self.date_expr.bind(schema)
        return self

    def children(self) -> list[Expr]:
        return [self.date_expr]

    def compile(self) -> Compiled:
        date_expr = self.date_expr.compile()
        add_to, sign = self.interval.add_to, self.sign

        def shift(row: tuple, params: Sequence[object]) -> object:
            value = date_expr(row, params)
            if value is None:
                return None
            if not isinstance(value, datetime.date):
                raise ExecutionError(
                    f"interval arithmetic on non-date {value!r}"
                )
            return add_to(value, sign)

        return _fold(shift, date_expr)


def _substring(values: list) -> object:
    text, begin = values[0], int(values[1]) - 1
    if len(values) > 2:
        return text[begin:begin + int(values[2])]
    return text[begin:]


#: scalar function name -> implementation over the (non-NULL) arguments
_FUNCTIONS: dict[str, Callable[[list], object]] = {
    "SUBSTRING": _substring,
    "UPPER": lambda values: values[0].upper(),
    "LOWER": lambda values: values[0].lower(),
    "ABS": lambda values: abs(values[0]),
    "ROUND": lambda values: round(
        values[0], int(values[1]) if len(values) > 1 else 0),
    "CONCAT": lambda values: "".join(str(v) for v in values),
}


class FuncCall(Expr):
    """Scalar function call (SUBSTRING, UPPER, LOWER, ABS, ROUND, CONCAT)."""

    def __init__(self, name: str, args: list[Expr]) -> None:
        self.name = name.upper()
        self.args = args

    def bind(self, schema: OutputSchema) -> "FuncCall":
        self.args = [arg.bind(schema) for arg in self.args]
        return self

    def children(self) -> list[Expr]:
        return list(self.args)

    def compile(self) -> Compiled:
        args = [arg.compile() for arg in self.args]
        name = self.name
        function = _FUNCTIONS.get(name)

        def call(row: tuple, params: Sequence[object]) -> object:
            values = [arg(row, params) for arg in args]
            for value in values:
                if value is None:
                    return None
            if function is None:
                raise ExecutionError(f"unknown function {name}")
            return function(values)

        return _fold(call, *args)


class AggCall(Expr):
    """Aggregate function reference inside a SELECT/HAVING expression.

    The planner extracts these, computes them in the aggregation
    operator, and replaces them with :class:`InputRef`s; evaluating an
    unrewritten AggCall is a planner bug.
    """

    FUNCTIONS = ("SUM", "AVG", "COUNT", "MIN", "MAX")

    def __init__(self, func: str, arg: Expr | None,
                 distinct: bool = False) -> None:
        func = func.upper()
        if func not in self.FUNCTIONS:
            raise PlanError(f"unknown aggregate {func}")
        self.func = func
        self.arg = arg  # None means COUNT(*)
        self.distinct = distinct

    def bind(self, schema: OutputSchema) -> "AggCall":
        if self.arg is not None:
            self.arg = self.arg.bind(schema)
        return self

    def children(self) -> list[Expr]:
        return [self.arg] if self.arg is not None else []

    def compile(self) -> Compiled:
        return _raiser(f"aggregate {self.func} evaluated outside aggregation")

    def __repr__(self) -> str:
        inner = "*" if self.arg is None else repr(self.arg)
        prefix = "DISTINCT " if self.distinct else ""
        return f"AggCall({self.func}({prefix}{inner}))"


class SubqueryExpr(Expr):
    """Scalar / EXISTS / IN subquery.

    The parser stores the raw subquery AST in ``query``; the planner
    compiles it and installs ``executor``: a callable
    ``(outer_row, params) -> value`` (scalar/exists) or an iterable of
    values (IN).  ``mode`` is one of ``scalar``, ``exists``, ``in``.
    """

    MODES = ("scalar", "exists", "in")

    def __init__(self, query: object, mode: str,
                 operand: Expr | None = None, negated: bool = False) -> None:
        if mode not in self.MODES:
            raise PlanError(f"bad subquery mode {mode}")
        self.query = query
        self.mode = mode
        self.operand = operand
        self.negated = negated
        self.executor: Callable[[tuple, Sequence[object]], object] | None = None

    def bind(self, schema: OutputSchema) -> "SubqueryExpr":
        if self.operand is not None:
            self.operand = self.operand.bind(schema)
        return self

    def children(self) -> list[Expr]:
        return [self.operand] if self.operand is not None else []

    def compile(self) -> Compiled:
        executor = self.executor
        if executor is None:
            return _raiser("subquery was never compiled by the planner")
        if self.mode == "scalar":
            return executor
        negated = self.negated
        if self.mode == "exists":
            return lambda row, params: \
                bool(executor(row, params)) is not negated
        operand = (_constant(None) if self.operand is None
                   else self.operand.compile())

        def in_subquery(row: tuple, params: Sequence[object]) -> object:
            value = operand(row, params)
            if value is None:
                return None
            return _membership(value, executor(row, params), negated)

        return in_subquery


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    return [] if expr is None else _operands(expr, "AND")


def conjoin(conjuncts: Sequence[Expr]) -> Expr | None:
    """Rebuild a single predicate from conjuncts (None when empty)."""
    result: Expr | None = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinOp("AND", result, conjunct)
    return result
