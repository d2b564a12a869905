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

    def positions(self, qualifier: str | None, name: str) -> list[int]:
        """Every tuple position a column reference matches."""
        name = name.lower()
        qualifier = qualifier.lower() if qualifier else None
        return [
            i
            for i, (q, n) in enumerate(self.entries)
            if n == name and (qualifier is None or q == qualifier)
        ]

    def resolve(self, qualifier: str | None, name: str) -> int:
        """Return the tuple position of a column reference."""
        matches = self.positions(qualifier, name)
        if len(matches) != 1:
            problem = "ambiguous" if matches else "unknown"
            ref = f"{qualifier}.{name}" if qualifier else name
            raise PlanError(f"{problem} column {ref.lower()}")
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

#: a compiled filter: ``page(rows, params) -> the rows it holds for``
PageFilter = Callable[[Sequence[tuple], Sequence[object]], list[tuple]]


#: numbers the generated sources.  Each reports a file name of its own
#: (``pstats`` keeps one entry per file, line and function name) that
#: ends in this module's path (``perf/layers.py`` attributes profiled
#: time to modules by that ending).
_serial = itertools.count(1)

#: :meth:`_Source.fold` of a subtree that depends on the row or the
#: parameters
_VARIES = object()

#: the value types a kernel's proofs (:func:`_total`) hold for: a
#: parameter of any other type sends its statement to the row path
PLAIN_TYPES = frozenset({type(None), bool, int, float, str, datetime.date})


def plain(values: Iterable[object]) -> bool:
    """True when every value has one of the :data:`PLAIN_TYPES`."""
    return PLAIN_TYPES.issuperset(map(type, values))


@functools.lru_cache(maxsize=1024)
def _factory(source: str,
             home: str = "repro/engine/expr.py") -> Callable[..., Compiled]:
    """``exec`` a generated ``make(c0, c1, ...)`` once per source text.

    ``make`` returns ``fn(row, params)`` (or a kernel,
    :class:`KernelSource`) closed over its arguments, the bound
    constants of one expression.  Expressions of one shape share
    the text, hence the code object; the cold paths that compile per
    execution (:meth:`Expr.eval`, prepared DML) pay this lookup, not an
    ``exec``.  The code runs in this module's namespace: that is where
    it finds ``ExecutionError`` and the helpers below; its file name
    ends in ``home``, the module it does the work of.
    """
    scope: dict[str, Callable[..., Compiled]] = {}
    filename = f"<generated {next(_serial)}>/{home}"
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
    so that its guards can be decided while emitting.  An atom that
    cannot be NULL (:meth:`nullable`) gets no NULL test.
    """

    def __init__(self, root: "Expr | None") -> None:
        self.root = root
        self.constants: dict[str, object] = {}
        self._lines: list[str] = []
        self._indent = "  "
        self._temps = 0
        #: column position -> its atom, for a row kept as its parts
        #: (:class:`KernelSource`); None: a subscript of ``row``
        self.columns: Sequence[str] | None = None
        #: atoms besides the constants that cannot be NULL: the columns
        #: of a ``NOT NULL`` column (seeded by the kernel's author) and
        #: what :meth:`hold` and :meth:`unless_null` derive from them
        self.not_null: set[str] = set()

    def nullable(self, atom: str) -> bool:
        """False for an atom that cannot be NULL: no test for it."""
        return atom not in self.constants and atom not in self.not_null

    def column(self, position: int) -> str:
        """The atom of the input row's column ``position``."""
        if self.columns is None:
            return f"row[{position:d}]"
        return self.columns[position]

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
        if atom in self.not_null:
            self.not_null.add(name)
        return name

    def fold(self, node: "Expr") -> object:
        """The value of a subtree of literals only, else ``_VARIES``.

        A subtree that fails to evaluate varies: the error belongs to
        run time, where it is raised per row and only if a row arrives
        (``WHERE 1/0 = 1`` over an empty table is not an error).  The
        value is kept on the node, ``(value,)`` or ``()``: one plan
        emits the row function and the kernel of one tree.
        """
        if isinstance(node, Literal):
            return node.value
        if isinstance(node, IntervalLiteral):
            return node
        if not _is_literal(node):
            return _VARIES
        memo = getattr(node, "_folded", None)
        if memo is None:
            try:
                memo = (node.compile()((), ()),)
            except Exception:  # raised again by the emitted code, per row
                memo = ()
            node._folded = memo  # type: ignore[attr-defined]
        return memo[0] if memo else _VARIES

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

    def unless_null(self, operands: Sequence[str], expression: str,
                    strict: bool = False) -> str:
        """The atom of ``expression``, NULL when an operand is NULL.
        ``strict``: ``expression`` is never ``None`` (arithmetic, a
        comparison), so neither is the atom when no operand can be."""
        if "None" in operands:
            return "None"
        tests = [f"{atom} is None" for atom in operands
                 if self.nullable(atom)]
        if tests:
            expression = f"None if {' or '.join(tests)} else {expression}"
        result = self.hold(expression)
        if strict and not tests:
            self.not_null.add(result)
        return result

    def param(self, index: int) -> str:
        """The atom of parameter ``index``, read where the row needs it;
        a missing one raises then."""
        result = self.temp()
        with self.block("try:"):
            self.line(f"{result} = params[{index:d}]")
        with self.block("except IndexError:"):
            self.line(f"raise ExecutionError('missing value for parameter "
                      f"{index + 1}') from None")
        return result

    def decided(self, dominant: bool) -> None:
        """The root connective found its value: ``fn`` returns it."""
        self.line(f"return {dominant}")

    def fused_from(self, parts: Sequence["Expr"]) -> int:
        """The first part of the root connective that may end the row
        without its NULL being carried to the end: none here, where the
        root returns its value."""
        return len(parts)

    def function(self, result: str) -> Compiled:
        source = (f"def make({', '.join(self.constants)}):\n"
                  f" def fn(row, params):\n{''.join(self._lines)}"
                  f"  return {result}\n return fn\n")
        return _factory(source)(*self.constants.values())


class Expr:
    """Base class for expression nodes.

    A node class declares its shape once (DESIGN.md §27): ``parts``
    names the attributes that hold its subexpressions, in order — each
    an ``Expr``, a list of them, a list of ``(Expr, Expr)`` pairs or
    ``None`` —, ``tag`` and ``attrs`` what tells two nodes with equal
    parts apart.  :meth:`children`, :meth:`walk`, :meth:`bind`,
    :meth:`map_parts` and :meth:`fingerprint` follow from it.
    """

    tag = ""
    attrs: tuple[str, ...] = ()
    parts: tuple[str, ...] = ()

    def children(self) -> list["Expr"]:
        """The subexpressions, in the order of ``parts``."""
        out: list[Expr] = []
        for name in self.parts:
            part = getattr(self, name)
            if isinstance(part, Expr):
                out.append(part)
            elif part is not None:
                for item in part:
                    if isinstance(item, tuple):
                        out.extend(item)
                    else:
                        out.append(item)
        return out

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def bind(self, schema: OutputSchema) -> "Expr":
        """Resolve every column reference against ``schema``, as a
        statement binds (:meth:`ColumnRef.bind_or_outer`, with no outer
        query); returns self for chaining."""
        for node in self.walk():
            if isinstance(node, ColumnRef):
                node.bind_or_outer(schema, None, None)
        return self

    def map_parts(self, fn: Callable[["Expr"], "Expr"]) -> None:
        """Replace each subexpression ``part`` by ``fn(part)``, in place."""
        for name in self.parts:
            part = getattr(self, name)
            if isinstance(part, Expr):
                setattr(self, name, fn(part))
            elif part is not None:
                setattr(self, name, [
                    tuple(map(fn, item)) if isinstance(item, tuple)
                    else fn(item) for item in part])

    def fingerprint(self) -> tuple:
        """Hashable structural key of a bound tree: ``(tag, *attrs,
        *parts)``, a subexpression keyed by its fingerprint, a list or
        a pair by a tuple of theirs.  A SELECT term that is a GROUP BY
        key or a repeated aggregate has the key of its twin; two report
        sites with one key share a cursor-cache plan (rule R004)."""
        return (self.tag, *(getattr(self, name) for name in self.attrs),
                *(_part_key(getattr(self, name)) for name in self.parts))

    def compile(self) -> Compiled:
        """Function ``fn(row, params)`` evaluating this (bound) tree.

        Binding state is captured, so compile after the last bind.
        """
        src = _Source(self)
        return src.function(self.emit(src))

    def compile_filter(self, fn: Compiled) -> PageFilter:
        """``page(rows, params)``: the rows of a page for which ``fn``,
        what :meth:`compile` returned for this tree, returns ``True``,
        in order, from one call — a kernel that requires this tree in
        one loop, the parameters read once (DESIGN.md §24).  A missing
        parameter hands the page to ``fn``, which raises at the row
        that first reads it, as a row at a time would; so does one that
        is not :func:`plain`, for which the kernel's proofs do not hold."""
        src = KernelSource()
        src.line("kept = []")
        src.line("keep = kept.append")
        with src.block("for row in rows:"):
            src.require(self, None)
            src.line("keep(row)")
        src.line("return kept")
        return src.kernel("rows, params", "repro/engine/expr.py", missing=(
            f"[row for row in rows if {src.constant(fn)}(row, params)"
            f" is True]"))

    def emit(self, src: _Source) -> str:
        """Append the statements computing this node; return its atom."""
        raise NotImplementedError

    def eval(self, row: tuple, params: Sequence[object]) -> object:
        """Compile and evaluate once (plan-time folding, INSERT values)."""
        return self.compile()(row, params)


def _part_key(part: object) -> object:
    """The :meth:`Expr.fingerprint` of one declared part."""
    if part is None:
        return None
    if isinstance(part, Expr):
        return part.fingerprint()
    return tuple(_part_key(item) for item in part)


class Literal(Expr):
    tag, attrs = "lit", ("value", "kind")

    def __init__(self, value: object) -> None:
        self.value = value

    @property
    def kind(self) -> type:
        """The value's type: ``1``, ``1.0`` and ``TRUE`` are equal in
        Python, not in SQL, so they are three fingerprints."""
        return type(self.value)

    def emit(self, src: _Source) -> str:
        return src.constant(self.value)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class ParamRef(Expr):
    """A ``?`` parameter marker; ``index`` is its 0-based position."""

    tag, attrs = "param", ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def emit(self, src: _Source) -> str:
        return src.param(self.index)

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

    def bind_or_outer(
        self,
        schema: OutputSchema,
        outer_schema: "OutputSchema | None",
        cell: "CorrelationCell | None",
    ) -> bool:
        """Bind against ``schema``; fall back to the outer query's schema.

        The one column resolver.  Returns True when the reference turned
        out to be correlated.  A name that matches several columns of
        ``schema`` is ambiguous, never an outer reference; so is one that
        matches none there and several in the outer query.  A reference
        already pinned to an outer row (by the planner's correlated-sarg
        extraction) stays pinned.
        """
        if self._outer_cell is not None:
            return True
        matches = schema.positions(self.qualifier, self.name)
        if len(matches) > 1:
            raise PlanError(f"ambiguous column {self.display_name}")
        if matches:
            self._position = matches[0]
            return False
        if outer_schema is not None and cell is not None:
            outer = outer_schema.positions(self.qualifier, self.name)
            if len(outer) > 1:
                raise PlanError(f"ambiguous column {self.display_name}")
            if outer:
                self._outer_cell = cell
                self._outer_position = outer[0]
                return True
        raise PlanError(f"unknown column {self.display_name}")

    def fingerprint(self) -> tuple:
        if self._outer_cell is not None:
            return ("outercol", self._outer_position)
        return ("col", self._position)

    def emit(self, src: _Source) -> str:
        if self._outer_cell is not None:
            cell = src.constant(self._outer_cell)
            return f"{cell}.row[{self._outer_position:d}]"
        if self._position is None:
            return src.hold(
                src.failure(f"unbound column {self.display_name}"))
        return src.column(self._position)

    @property
    def display_name(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def __repr__(self) -> str:
        return f"ColumnRef({self.display_name})"


class InputRef(Expr):
    """Direct positional reference (used after planner rewrites)."""

    tag, attrs = "col", ("position",)

    def __init__(self, position: int) -> None:
        self.position = position

    def emit(self, src: _Source) -> str:
        return src.column(self.position)

    def __repr__(self) -> str:
        return f"InputRef({self.position})"


def _divide(left: object, right: object) -> object:
    if right == 0:
        raise ExecutionError("division by zero")
    return left / right


#: the comparisons that cannot raise over plain values
_EQUALITIES = ("=", "<>", "!=")
#: every comparison
_COMPARISONS = (*_EQUALITIES, "<", "<=", ">", ">=")

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

    tag, attrs, parts = "bin", ("op",), ("left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op = op.upper() if op.upper() in ("AND", "OR") else op
        self.left = left
        self.right = right

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
            result = src.unless_null((a, b), apply.format(a, b), strict=True)
        with src.block("except TypeError as exc:"):
            src.line(f"raise ExecutionError(f'cannot {verb} {{{a}!r}} {op} "
                     f"{{{b}!r}}') from exc")
        return result

    def emit_skip(self, src: "KernelSource") -> None:
        """``continue`` unless this comparison is TRUE, in one test: the
        NULL tests of the operands that can be NULL, then the operator.
        For ``=`` one operand that cannot be NULL makes the NULL tests
        moot — a plain value never equals ``None`` — and one test does
        for two.  Only an ordering operator can raise ``TypeError``."""
        a, b = src.value(self.left), src.value(self.right)
        if "None" in (a, b):
            src.line("continue")
            return
        nullable = [atom for atom in (a, b) if src.nullable(atom)]
        if self.op == "=":
            nullable = nullable[:len(nullable) - 1]
        test = " or ".join([*(f"{atom} is None" for atom in nullable),
                            f"not {_BINARY_OPERATORS[self.op][0].format(a, b)}"])
        if self.op in _EQUALITIES:
            with src.block(f"if {test}:"):
                src.line("continue")
            return
        with src.block("try:"):
            with src.block(f"if {test}:"):
                src.line("continue")
        with src.block("except TypeError as exc:"):
            src.line(f"raise ExecutionError(f'cannot compare {{{a}!r}} "
                     f"{self.op} {{{b}!r}}') from exc")

    def _emit_connective(self, src: _Source, dominant: bool) -> str:
        """Kleene AND (``dominant`` False) / OR (True) over the operands.

        They run left to right and stop at the first dominant value, as
        the nested two-operand form does: the root of a predicate is
        decided there (:meth:`_Source.decided`), a nested connective
        skips what is left (and in :func:`compile_row` none is the root:
        its value is one of many).  A kernel's root AND ends the row at
        a part that is not TRUE, NULL included, from the part
        :meth:`KernelSource.fused_from` names on: nothing after it can
        raise, so nothing after it can change what the row path does.
        """
        returns = src.root is self
        parts = _operands(self, self.op)
        fused = src.fused_from(parts) if returns else len(parts)
        # with every part one test, the AND is TRUE after them
        result = src.temp() if fused else "True"
        if fused:
            src.line(f"{result} = {not dominant}")
        for index, part in enumerate(parts):
            if index >= fused:
                src.skip_unless(part)
                continue
            with src.guard(f"{result} is not {dominant}"
                           if index and not returns else None):
                value = src.name(part)
                with src.block(f"if {value} is {dominant}:"):
                    if returns:
                        src.decided(dominant)
                    else:
                        src.line(f"{result} = {dominant}")
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
    tag, parts = "not", ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def emit(self, src: _Source) -> str:
        value = src.name(self.operand)
        return src.unless_null([value], f"not {value}", strict=True)


class NegExpr(Expr):
    tag, parts = "neg", ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def emit(self, src: _Source) -> str:
        value = src.name(self.operand)
        if value == "None":
            return "None"
        with src.block("try:"):
            result = src.unless_null([value], f"-{value}", strict=True)
        with src.block("except TypeError as exc:"):
            src.line(f"raise ExecutionError(f'cannot evaluate -{{{value}!r}}')"
                     f" from exc")
        return result


class IsNullExpr(Expr):
    tag, attrs, parts = "isnull", ("negated",), ("operand",)

    def __init__(self, operand: Expr, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def emit(self, src: _Source) -> str:
        test = "is not" if self.negated else "is"
        result = src.hold(f"{src.value(self.operand)} {test} None")
        src.not_null.add(result)
        return result


class BetweenExpr(Expr):
    tag, attrs = "between", ("negated",)
    parts = ("operand", "low", "high")

    def __init__(self, operand: Expr, low: Expr, high: Expr,
                 negated: bool = False) -> None:
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def emit(self, src: _Source) -> str:
        value, low, high = [src.name(part) for part in self.children()]
        if "None" in (value, low, high):
            return "None"
        test = f"{low} <= {value} <= {high}"
        with src.block("try:"):
            result = src.unless_null(
                (value, low, high), f"not {test}" if self.negated else test,
                strict=True)
        with src.block("except TypeError as exc:"):
            src.line(f"raise ExecutionError(_refuse_between({value}, {low}, "
                     f"{high})) from exc")
        return result


def _refuse_between(value: object, low: object, high: object) -> str:
    """What ``low <= value <= high`` raises: ``BinOp``'s message for the
    one of its two comparisons that fails."""
    try:
        low <= value  # type: ignore[operator]
    except TypeError:
        return f"cannot compare {low!r} <= {value!r}"
    return f"cannot compare {value!r} <= {high!r}"


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
    tag, attrs, parts = "inlist", ("negated",), ("operand", "items")

    def __init__(self, operand: Expr, items: list[Expr],
                 negated: bool = False) -> None:
        self.operand = operand
        self.items = items
        self.negated = negated

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

    Anchored at the very end (``\\Z``): ``$`` would also match before
    a trailing newline, so that ``'ab\\n' LIKE 'ab'`` held.  Memoised: a
    parameterised ``LIKE ?`` asks for the same pattern once per row.
    """
    out = ["^"]
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    out.append(r"\Z")
    return re.compile("".join(out), re.DOTALL)


class LikeExpr(Expr):
    tag, attrs, parts = "like", ("negated",), ("operand", "pattern")

    def __init__(self, operand: Expr, pattern: Expr,
                 negated: bool = False) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def emit(self, src: _Source) -> str:
        value = src.name(self.operand)
        test = "is" if self.negated else "is not"
        pattern = src.fold(self.pattern)
        if value == "None":
            return "None"
        if isinstance(pattern, str):
            match = src.constant(like_to_regex(pattern).match)
            with src.block("try:"):
                result = src.unless_null(
                    [value], f"{match}({value}) {test} None", strict=True)
            self._refuse(src, value, src.constant(pattern))
            return result
        # the pattern is not looked at under a NULL operand
        result = src.temp()
        src.line(f"{result} = None")
        with src.guard(f"{value} is not None" if src.nullable(value)
                       else None):
            text = src.name(self.pattern)
            with src.block(f"if {text} is not None:"):
                with src.block("try:"):
                    src.line(f"{result} = like_to_regex({text})"
                             f".match({value}) {test} None")
                self._refuse(src, value, text)
        return result

    def _refuse(self, src: _Source, value: str, pattern: str) -> None:
        """The ``except`` of a match: a value or a pattern that is not a
        string raises as a comparison does."""
        like = "NOT LIKE" if self.negated else "LIKE"
        with src.block("except TypeError as exc:"):
            src.line(f"raise ExecutionError(f'cannot compare {{{value}!r}} "
                     f"{like} {{{pattern}!r}}') from exc")


class CaseExpr(Expr):
    """Searched CASE: WHEN cond THEN value ... [ELSE value] END."""

    tag, parts = "case", ("branches", "default")

    def __init__(self, branches: list[tuple[Expr, Expr]],
                 default: Expr | None) -> None:
        self.branches = branches
        self.default = default

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
    tag, attrs, parts = "extract", ("field",), ("operand",)

    def __init__(self, field: str, operand: Expr) -> None:
        field = field.upper()
        if field not in self.FIELDS:
            raise PlanError(f"unsupported EXTRACT field {field}")
        self.field = field
        self.operand = operand

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
    tag, attrs = "interval", ("amount", "unit")

    def __init__(self, amount: int, unit: str) -> None:
        unit = unit.upper().rstrip("S")
        if unit not in self.UNITS:
            raise PlanError(f"unsupported interval unit {unit}")
        self.amount = amount
        self.unit = unit

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

    tag, attrs, parts = "datearith", ("sign",), ("date_expr", "interval")

    def __init__(self, date_expr: Expr, interval: IntervalLiteral,
                 sign: int) -> None:
        self.date_expr = date_expr
        self.interval = interval
        self.sign = sign

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
    """The characters at positions ``max(start, 1)`` to ``start +
    length - 1`` (counting from 1), or to the end without a length."""
    text, start = values[0], int(values[1])
    if len(values) == 2:
        return text[max(start, 1) - 1:]
    length = int(values[2])
    if length < 0:
        raise ExecutionError(f"negative substring length {length}")
    return text[max(start, 1) - 1:max(start + length - 1, 0)]


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

    tag, attrs, parts = "fn", ("name",), ("args",)

    def __init__(self, name: str, args: list[Expr]) -> None:
        self.name = name.upper()
        self.args = args

    def emit(self, src: _Source) -> str:
        args = [src.name(arg) for arg in self.args]
        function = _FUNCTIONS.get(self.name)
        if function is None:
            return src.unless_null(
                args, src.failure(f"unknown function {self.name}"))
        if "None" in args:
            return "None"
        with src.block("try:"):
            result = src.unless_null(
                args, f"{src.constant(function)}([{', '.join(args)}])")
        # a value of a type the function does not take
        with src.block("except (AttributeError, TypeError, ValueError) "
                       "as exc:"):
            shown = ", ".join(f"{{{arg}!r}}" for arg in args)
            src.line(f"raise ExecutionError(f'cannot evaluate "
                     f"{self.name}({shown})') from exc")
        return result


class AggCall(Expr):
    """Aggregate function reference inside a SELECT/HAVING expression.

    The planner extracts these, computes them in the aggregation
    operator, and replaces them with :class:`InputRef`s; evaluating an
    unrewritten AggCall is a planner bug.
    """

    FUNCTIONS = ("SUM", "AVG", "COUNT", "MIN", "MAX")
    tag, attrs, parts = "agg", ("func", "distinct"), ("arg",)

    def __init__(self, func: str, arg: Expr | None,
                 distinct: bool = False) -> None:
        func = func.upper()
        if func not in self.FUNCTIONS:
            raise PlanError(f"unknown aggregate {func}")
        self.func = func
        self.arg = arg  # None means COUNT(*)
        self.distinct = distinct

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
    parts = ("operand",)

    def __init__(self, query: object, mode: str,
                 operand: Expr | None = None, negated: bool = False) -> None:
        if mode not in self.MODES:
            raise PlanError(f"bad subquery mode {mode}")
        self.query = query
        self.mode = mode
        self.operand = operand
        self.negated = negated
        self.executor: Callable[[tuple, Sequence[object]], object] | None = None

    def fingerprint(self) -> tuple:
        # by identity: two textual twins are distinct (a missed dedup)
        return ("subq", id(self))

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


def _total(node: Expr) -> bool:
    """True when evaluating ``node`` in a kernel cannot raise: a plain
    literal, a parameter (a kernel runs only with plain ones), a bound
    column, and ``=`` / ``<>``, ``IS [NOT] NULL``, a literal ``IN`` list
    and ``AND`` / ``OR`` over such nodes.  Ordering, arithmetic,
    ``BETWEEN``, ``LIKE``, functions, ``CASE`` and subqueries can."""
    if isinstance(node, Literal):
        return type(node.value) in PLAIN_TYPES
    if isinstance(node, (ParamRef, InputRef)):
        return True
    if isinstance(node, ColumnRef):
        return node._position is not None and node._outer_cell is None
    if isinstance(node, BinOp):
        return node.op in (*_EQUALITIES, "AND", "OR") \
            and _total(node.left) and _total(node.right)
    if isinstance(node, IsNullExpr):
        return _total(node.operand)
    if isinstance(node, InListExpr):
        return _total(node.operand) and all(
            isinstance(item, Literal) and _total(item) for item in node.items)
    return False


def compile_row(exprs: Sequence[Expr]) -> Compiled:
    """One function ``fn(row, params) -> tuple`` of all ``exprs``,
    evaluated left to right; an error belongs to the row it is raised by."""
    src = _Source(None)
    atoms = [src.value(expr) for expr in exprs]
    return src.function(f"({''.join(atom + ', ' for atom in atoms)})")


class KernelSource(_Source):
    """The source of a kernel (DESIGN.md §25): loops that its caller
    writes with :meth:`line` and :meth:`block`, and in them the code of
    expressions over a row kept as its parts, each column the atom
    :attr:`columns` names (``b3[5]``, not ``row[117]``), or over
    ``row``.  The parameters are read once, before the loops."""

    def __init__(self) -> None:
        super().__init__(None)
        #: parameter index -> the name the kernel reads it into
        self._params: dict[int, str] = {}

    def param(self, index: int) -> str:
        return self._params.setdefault(index, f"p{index:d}")

    def decided(self, dominant: bool) -> None:
        """The root AND of :meth:`require` is FALSE: the next row."""
        self.line("continue")

    def fused_from(self, parts: Sequence[Expr]) -> int:
        """The first conjunct of the root AND after which every one is
        total (:func:`_total`): from it on, a conjunct that is not TRUE
        is the next row (:meth:`skip_unless`).  Before it a NULL is
        carried to the end, as the row function does: a conjunct after
        it could still raise."""
        return max((index for index, part in enumerate(parts)
                    if not _total(part)), default=0)

    def skip_unless(self, node: Expr) -> None:
        """``continue`` unless ``node`` is TRUE; a comparison that does
        not fold in one test (:meth:`BinOp.emit_skip`)."""
        if isinstance(node, BinOp) and node.op in _COMPARISONS \
                and self.fold(node) is _VARIES:
            node.emit_skip(self)
            return
        value = self.value(node)
        if value != "True":
            with self.block(f"if {value} is not True:"):
                self.line("continue")

    def require(self, predicate: Expr,
                columns: Sequence[str] | None) -> None:
        """Go on only where ``predicate`` is TRUE, else ``continue``; a
        root AND stops at its first FALSE, where its row function
        returns, and at a NULL after which nothing can raise."""
        self.columns = columns
        self.root = predicate if isinstance(predicate, BinOp) \
            and predicate.op == "AND" else None
        self.skip_unless(predicate)

    def values(self, exprs: Sequence[Expr],
               columns: Sequence[str]) -> list[str]:
        """The atoms of ``exprs``, evaluated left to right."""
        self.columns, self.root = columns, None
        return [self.value(expr) for expr in exprs]

    def kernel(self, signature: str, home: str,
               missing: str | None = None) -> Callable[..., object]:
        """``kernel(signature)``, its code under a file name ending in
        ``home``.  Without ``missing`` the caller runs it only with
        every parameter it reads present and plain (:func:`plain`);
        with it, a missing one or one of another type makes the kernel
        return ``missing`` instead."""
        pad = "  " if missing is None else "   "
        reads = "".join(f"{pad}{name} = params[{index:d}]\n"
                        for index, name in self._params.items())
        if reads and missing is not None:
            names = "".join(f"{name}, " for name in self._params.values())
            reads = (f"  try:\n{reads}"
                     f"  except IndexError:\n   return {missing}\n"
                     f"  if not plain(({names})):\n   return {missing}\n")
        source = (f"def make({', '.join(self.constants)}):\n"
                  f" def kernel({signature}):\n{reads}{''.join(self._lines)}"
                  f" return kernel\n")
        return _factory(source, home)(*self.constants.values())


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    return [] if expr is None else _operands(expr, "AND")


def conjoin(conjuncts: Sequence[Expr]) -> Expr | None:
    """Rebuild a single predicate from conjuncts (None when empty)."""
    result: Expr | None = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinOp("AND", result, conjunct)
    return result
