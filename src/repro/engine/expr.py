"""Expression AST and compiler.

Expressions are produced by the SQL parser (or constructed directly by
the R/3 layers), *bound* against an :class:`OutputSchema` that maps
qualified column names to tuple positions, and then *compiled*:
:meth:`Expr.compile` asks the tree to emit the Python source of one
function ``fn(row, params)`` (every node class has one small
:meth:`Expr.emit`), so that evaluating a predicate is one call however
many nodes it has.  Columns and parameters become subscripts,
comparisons and arithmetic become NULL-guarded operators, AND/OR become
straight-line code that stops at the first dominant value, and subtrees
made of literals only are evaluated once, at compile time.  The source
is ``exec``-ed once per distinct text (:func:`_factory`); what differs
between two expressions of one shape — literal values, correlation
cells, subquery executors — enters as arguments.  Operators compile
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
import itertools
import re
from contextlib import nullcontext
from typing import Callable, Iterable, NoReturn, Sequence

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


#: numbers the generated sources.  Each reports a file name of its own
#: (``pstats`` keeps one entry per file, line and function name) that
#: ends in this module's path (``perf/layers.py`` attributes profiled
#: time to modules by that ending).
_serial = itertools.count(1)

#: :meth:`_Source.fold` of a subtree that depends on the row or the
#: parameters
_VARIES = object()


@functools.lru_cache(maxsize=1024)
def _factory(source: str) -> Callable[..., Compiled]:
    """``exec`` a generated ``make(c0, c1, ...)`` once per source text.

    ``make`` returns ``fn(row, params)`` closed over its arguments, the
    bound constants of one expression.  Expressions of one shape share
    the text, hence the code object; the cold paths that compile per
    execution (:meth:`Expr.eval`, prepared DML) pay this lookup, not an
    ``exec``.  The code runs in this module's namespace: that is where
    it finds ``ExecutionError`` and the helpers below.
    """
    scope: dict[str, Callable[..., Compiled]] = {}
    filename = f"<generated {next(_serial)}>/repro/engine/expr.py"
    exec(compile(source, filename, "exec"), globals(), scope)
    return scope["make"]


def _fail(message: str) -> NoReturn:
    """Raise when a row reaches a node that cannot be evaluated."""
    raise ExecutionError(message)


class _Source:
    """The source of one expression's function, while it is emitted.

    A node's :meth:`Expr.emit` appends statements and returns an
    *atom*, a side-effect-free Python expression for its value: the
    name of a temporary (``t3``), of a bound constant (``c0``), a
    subscript of the row, or ``None`` — a literal NULL is never bound,
    so that its guards can be decided while emitting.
    """

    def __init__(self, root: "Expr | None") -> None:
        self.root = root
        self.constants: dict[str, object] = {}
        self._lines: list[str] = []
        self._indent = "  "
        self._temps = 0

    def line(self, text: str) -> None:
        self._lines.append(f"{self._indent}{text}\n")

    def block(self, header: str) -> "_Source":
        """``with src.block("else:"):`` indents what its body emits."""
        self.line(header)
        return self

    def guard(self, test: str | None) -> "_Source | nullcontext[None]":
        """A block under ``if test:``; no block without a test."""
        return self.block(f"if {test}:") if test else nullcontext()

    def __enter__(self) -> None:
        self._indent += " "

    def __exit__(self, *exc_info: object) -> None:
        self._indent = self._indent[:-1]

    def temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def constant(self, value: object) -> str:
        """The atom of a value known now: an argument of ``make``."""
        if value is None:
            return "None"
        name = f"c{len(self.constants)}"
        self.constants[name] = value
        return name

    def hold(self, atom: str) -> str:
        """A name for ``atom``, which the caller mentions more than once."""
        if atom.isidentifier():
            return atom
        name = self.temp()
        self.line(f"{name} = {atom}")
        return name

    def fold(self, node: "Expr") -> object:
        """The value of a subtree of literals only, else ``_VARIES``.

        A subtree that fails to evaluate varies: the error belongs to
        run time, where it is raised per row and only if a row arrives
        (``WHERE 1/0 = 1`` over an empty table is not an error).
        """
        if isinstance(node, Literal):
            return node.value
        if isinstance(node, IntervalLiteral):
            return node
        if not _is_literal(node):
            return _VARIES
        try:
            return node.compile()((), ())
        except Exception:  # raised again by the emitted code, per row
            return _VARIES

    def value(self, node: "Expr") -> str:
        """The atom of ``node``: its folded value or its emitted code."""
        folded = self.fold(node)
        return node.emit(self) if folded is _VARIES else self.constant(folded)

    def name(self, node: "Expr") -> str:
        """A name that holds the value of ``node``."""
        return self.hold(self.value(node))

    def failure(self, message: str) -> str:
        """An expression that raises ``message`` if a row evaluates it."""
        return f"_fail({self.constant(message)})"

    def unless_null(self, operands: Sequence[str], expression: str) -> str:
        """The atom of ``expression``, NULL when an operand is NULL."""
        if "None" in operands:
            return "None"
        tests = [f"{atom} is None" for atom in operands
                 if atom not in self.constants]
        if tests:
            expression = f"None if {' or '.join(tests)} else {expression}"
        return self.hold(expression)

    def function(self, result: str) -> Compiled:
        source = (f"def make({', '.join(self.constants)}):\n"
                  f" def fn(row, params):\n{''.join(self._lines)}"
                  f"  return {result}\n return fn\n")
        return _factory(source)(*self.constants.values())


class Expr:
    """Base class for expression nodes."""

    def bind(self, schema: OutputSchema) -> "Expr":
        """Resolve column references; returns self for chaining."""
        raise NotImplementedError

    def compile(self) -> Compiled:
        """Function ``fn(row, params)`` evaluating this (bound) tree.

        Binding state is captured, so compile after the last bind.
        """
        src = _Source(self)
        return src.function(self.emit(src))

    def emit(self, src: _Source) -> str:
        """Append the statements computing this node; return its atom."""
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

    def emit(self, src: _Source) -> str:
        return src.constant(self.value)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class ParamRef(Expr):
    """A ``?`` parameter marker; ``index`` is its 0-based position."""

    def __init__(self, index: int) -> None:
        self.index = index

    def bind(self, schema: OutputSchema) -> "ParamRef":
        return self

    def emit(self, src: _Source) -> str:
        result = src.temp()
        with src.block("try:"):
            src.line(f"{result} = params[{self.index:d}]")
        with src.block("except IndexError:"):
            src.line(f"raise ExecutionError('missing value for parameter "
                     f"{self.index + 1}') from None")
        return result

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

    def emit(self, src: _Source) -> str:
        if self._outer_cell is not None:
            cell = src.constant(self._outer_cell)
            return f"{cell}.row[{self._outer_position:d}]"
        if self._position is None:
            return src.hold(
                src.failure(f"unbound column {self.display_name}"))
        return f"row[{self._position:d}]"

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

    def emit(self, src: _Source) -> str:
        return f"row[{self.position:d}]"

    def __repr__(self) -> str:
        return f"InputRef({self.position})"


def _divide(left: object, right: object) -> object:
    if right == 0:
        raise ExecutionError("division by zero")
    return left / right


#: operator symbol -> (Python expression over the two operand atoms,
#: verb of the TypeError message)
_BINARY_OPERATORS: dict[str, tuple[str, str]] = {
    "=": ("{} == {}", "compare"),
    "<>": ("{} != {}", "compare"),
    "!=": ("{} != {}", "compare"),
    "<": ("{} < {}", "compare"),
    "<=": ("{} <= {}", "compare"),
    ">": ("{} > {}", "compare"),
    ">=": ("{} >= {}", "compare"),
    "+": ("{} + {}", "evaluate"),
    "-": ("{} - {}", "evaluate"),
    "*": ("{} * {}", "evaluate"),
    "/": ("_divide({}, {})", "evaluate"),
}


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

    def emit(self, src: _Source) -> str:
        op = self.op
        if op in ("AND", "OR"):
            return self._emit_connective(src, dominant=(op == "OR"))
        if op not in _BINARY_OPERATORS:
            raise AssertionError(f"unknown operator {op}")
        apply, verb = _BINARY_OPERATORS[op]
        a, b = src.name(self.left), src.name(self.right)
        if "None" in (a, b):
            return "None"
        with src.block("try:"):
            result = src.unless_null((a, b), apply.format(a, b))
        with src.block("except TypeError as exc:"):
            src.line(f"raise ExecutionError(f'cannot {verb} {{{a}!r}} {op} "
                     f"{{{b}!r}}') from exc")
        return result

    def _emit_connective(self, src: _Source, dominant: bool) -> str:
        """Kleene AND (``dominant`` False) / OR (True) over the operands.

        They run left to right and stop at the first dominant value, as
        the nested two-operand form does: the root of a predicate
        returns there, a nested connective skips what is left (and in
        :func:`compile_row` none is the root: its value is one of many).
        """
        returns = src.root is self
        result = src.temp()
        src.line(f"{result} = {not dominant}")
        for index, part in enumerate(_operands(self, self.op)):
            with src.guard(f"{result} is not {dominant}"
                           if index and not returns else None):
                value = src.name(part)
                with src.block(f"if {value} is {dominant}:"):
                    src.line(f"return {dominant}" if returns
                             else f"{result} = {dominant}")
                with src.block(f"elif {value} is None:"):
                    src.line(f"{result} = None")
        return result

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

    def emit(self, src: _Source) -> str:
        value = src.name(self.operand)
        return src.unless_null([value], f"not {value}")


class NegExpr(Expr):
    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def bind(self, schema: OutputSchema) -> "NegExpr":
        self.operand = self.operand.bind(schema)
        return self

    def children(self) -> list[Expr]:
        return [self.operand]

    def emit(self, src: _Source) -> str:
        value = src.name(self.operand)
        return src.unless_null([value], f"-{value}")


class IsNullExpr(Expr):
    def __init__(self, operand: Expr, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def bind(self, schema: OutputSchema) -> "IsNullExpr":
        self.operand = self.operand.bind(schema)
        return self

    def children(self) -> list[Expr]:
        return [self.operand]

    def emit(self, src: _Source) -> str:
        test = "is not" if self.negated else "is"
        return src.hold(f"{src.value(self.operand)} {test} None")


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

    def emit(self, src: _Source) -> str:
        value, low, high = [src.name(part) for part in self.children()]
        test = f"{low} <= {value} <= {high}"
        return src.unless_null((value, low, high),
                               f"not {test}" if self.negated else test)


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

    def emit(self, src: _Source) -> str:
        value = src.name(self.operand)
        hit, miss = not self.negated, bool(self.negated)
        values = [src.fold(item) for item in self.items]
        if not any(v is _VARIES for v in values):
            # Literal list: one set probe.  ``in`` on a set is hash plus
            # ``==``, the comparison the candidate code makes.
            members = src.constant(
                frozenset(v for v in values if v is not None))
            if any(v is None for v in values):
                miss = None
            return src.unless_null(
                [value], f"{hit} if {value} in {members} else {miss}")
        # candidates run in order and stop at the first match
        result = src.temp()
        src.line(f"{result} = None")
        with src.block(f"if {value} is not None:"):
            src.line(f"{result} = {miss}")
            for index, item in enumerate(self.items):
                with src.guard(f"{result} is not {hit}" if index else None):
                    candidate = src.name(item)
                    with src.block(f"if {candidate} is None:"):
                        src.line(f"{result} = None")
                    with src.block(f"elif {candidate} == {value}:"):
                        src.line(f"{result} = {hit}")
        return result


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

    def emit(self, src: _Source) -> str:
        value = src.name(self.operand)
        test = "is" if self.negated else "is not"
        pattern = src.fold(self.pattern)
        if isinstance(pattern, str):
            match = src.constant(like_to_regex(pattern).match)
            return src.unless_null([value], f"{match}({value}) {test} None")
        # the pattern is not looked at under a NULL operand
        result = src.temp()
        src.line(f"{result} = None")
        with src.block(f"if {value} is not None:"):
            text = src.name(self.pattern)
            with src.block(f"if {text} is not None:"):
                src.line(f"{result} = like_to_regex({text}).match({value}) "
                         f"{test} None")
        return result


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

    def emit(self, src: _Source) -> str:
        result, undecided = src.temp(), src.temp()
        src.line(f"{undecided} = True")
        for index, (cond, value) in enumerate(self.branches):
            with src.guard(undecided if index else None):
                test = src.value(cond)
                with src.block(f"if {test} is True:"):
                    taken = src.value(value)
                    src.line(f"{result} = {taken}")
                    src.line(f"{undecided} = False")
        with src.guard(undecided):
            default = "None" if self.default is None \
                else src.value(self.default)
            src.line(f"{result} = {default}")
        return result


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

    def emit(self, src: _Source) -> str:
        value = src.name(self.operand)
        return src.unless_null(
            [value], f"_extract({value}, {self.field.lower()!r})")


def _extract(value: object, field: str) -> int:
    if not isinstance(value, datetime.date):
        raise ExecutionError(f"EXTRACT from non-date {value!r}")
    return getattr(value, field)


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

    def emit(self, src: _Source) -> str:
        return src.constant(self)

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

    def emit(self, src: _Source) -> str:
        value = src.name(self.date_expr)
        interval = src.constant(self.interval)
        return src.unless_null(
            [value], f"_shift({value}, {interval}, {self.sign:d})")


def _shift(value: object, interval: IntervalLiteral, sign: int) -> object:
    if not isinstance(value, datetime.date):
        raise ExecutionError(f"interval arithmetic on non-date {value!r}")
    return interval.add_to(value, sign)


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

    def emit(self, src: _Source) -> str:
        args = [src.name(arg) for arg in self.args]
        function = _FUNCTIONS.get(self.name)
        if function is None:
            call = src.failure(f"unknown function {self.name}")
        else:
            call = f"{src.constant(function)}([{', '.join(args)}])"
        return src.unless_null(args, call)


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

    def emit(self, src: _Source) -> str:
        return src.hold(src.failure(
            f"aggregate {self.func} evaluated outside aggregation"))

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

    def emit(self, src: _Source) -> str:
        if self.executor is None:
            return src.hold(src.failure(
                "subquery was never compiled by the planner"))
        run = f"{src.constant(self.executor)}(row, params)"
        if self.mode == "scalar":
            return src.hold(run)
        if self.mode == "exists":
            return src.hold(f"not {run}" if self.negated else f"bool({run})")
        value = "None" if self.operand is None else src.name(self.operand)
        return src.unless_null(
            [value], f"_membership({value}, {run}, {bool(self.negated)})")


def _is_literal(node: Expr) -> bool:
    """True for a subtree whose leaves are all literals: it folds."""
    if isinstance(node, (Literal, IntervalLiteral)):
        return True
    parts = node.children()
    return bool(parts) and not isinstance(node, SubqueryExpr) \
        and all(_is_literal(part) for part in parts)


def compile_row(exprs: Sequence[Expr]) -> Compiled:
    """One function ``fn(row, params) -> tuple`` of all ``exprs``,
    evaluated left to right; an error belongs to the row it is raised by."""
    src = _Source(None)
    atoms = [src.value(expr) for expr in exprs]
    return src.function(f"({''.join(atom + ', ' for atom in atoms)})")


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    return [] if expr is None else _operands(expr, "AND")


def conjoin(conjuncts: Sequence[Expr]) -> Expr | None:
    """Rebuild a single predicate from conjuncts (None when empty)."""
    result: Expr | None = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinOp("AND", result, conjunct)
    return result
