"""The rewrite rules: Python-AST surgery keyed to Inspector rule IDs.

A :class:`FunctionTransformer` owns one top-level report function and
applies, in dependency order:

1. ``join_merge`` (R001) — a ``SELECT SINGLE`` probe executed per row
   of an enclosing SELECT loop is fused into the outer statement as an
   INNER JOIN; the loop unpacks the joined columns instead of probing.
2. ``hoist`` (R001) — a loop-invariant SELECT moves in front of the
   outermost loop it does not depend on.
3. ``group_pushdown`` (R005) — a ``group_aggregate`` fold of pushable
   aggregates becomes GROUP BY in the feeding SELECT.
4. ``order_pushdown`` (R010) — ``sorted()`` over fetched rows becomes
   ORDER BY (chained after a group pushdown, or standalone).
5. ``full_key`` (R007) — a partial-key ``SELECT SINGLE`` whose missing
   key columns carry installation-wide constants is completed to the
   full key and the table is activated for buffering.

Every precondition failure is recorded as a :class:`Refusal` with the
reason — unsafe sites stay flagged, never rewritten.  The transformer
only ever *narrows* statements it fully parsed; rendered SQL is parsed
back as a self-check before it replaces the original text.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.costmodel import SchemaInfo
from repro.analysis.extractor import _resolve_str
from repro.analysis.rewrite.render import render_select
from repro.errors import ReproError
from repro.r3.ddic import TableKind
from repro.r3.errors import OpenSqlError
from repro.r3.opensql.ast import (
    OSAgg,
    OSBetween,
    OSBool,
    OSComp,
    OSCond,
    OSField,
    OSHost,
    OSIn,
    OSLike,
    OSLiteral,
    OSJoin,
    OSNot,
    OSSelect,
)
from repro.r3.opensql.parser import parse_open_sql
from repro.sapschema.mapping import LANGUAGE

#: key columns whose value is fixed by the installation itself — the
#: SAP mapping writes every EINE row for purchasing org 1000 / info
#: category 0 / plant 0001, and every STXL text under text id 0001 in
#: the login language with a single line (SRTF2 = 0).  Completing a
#: partial key with these constants selects the same row the partial
#: probe found, but through the table buffer.
INSTALLATION_KEY_CONSTANTS: dict[str, dict[str, object]] = {
    "eine": {"ekorg": "1000", "esokz": "0", "werks": "0001"},
    "stxl": {"tdid": "0001", "tdspras": LANGUAGE, "srtf2": 0},
}

#: bytes granted to a table buffer activated by a full_key rewrite
BUFFER_BYTES = 1 << 22

_CHARGE_METHODS = {"charge_abap"}


@dataclass
class Applied:
    """One rewrite that went through."""

    rule: str
    kind: str
    func: str
    line: int
    table: str
    detail: str

    def as_dict(self) -> dict:
        return {
            "rule": self.rule, "kind": self.kind, "func": self.func,
            "line": self.line, "table": self.table, "detail": self.detail,
        }


@dataclass
class Refusal:
    """A flagged site the planner declined to touch, with the reason."""

    rule: str
    kind: str
    func: str
    line: int
    reason: str

    def as_dict(self) -> dict:
        return {
            "rule": self.rule, "kind": self.kind, "func": self.func,
            "line": self.line, "reason": self.reason,
        }


class RewriteError(ReproError):
    """An invariant the transformer relies on failed mid-apply."""


# -- small AST helpers ------------------------------------------------------


def _is_open_sql_call(call: ast.Call) -> str | None:
    """'select' / 'select_single' for ``<x>.open_sql.<method>(...)``."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr not in ("select", "select_single"):
        return None
    base = func.value
    if isinstance(base, ast.Attribute) and base.attr == "open_sql":
        return func.attr
    return None


def _system_name(call: ast.Call) -> str | None:
    """The R3System variable of ``r3.open_sql.select...`` (or None)."""
    func = call.func
    if isinstance(func, ast.Attribute) and \
            isinstance(func.value, ast.Attribute) and \
            isinstance(func.value.value, ast.Name):
        return func.value.value.id
    return None


def _is_pure(node: ast.expr) -> bool:
    """No calls/awaits/comprehensions — safe to keep before a merge."""
    return not any(
        isinstance(sub, (ast.Call, ast.Await, ast.Yield, ast.YieldFrom,
                         ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp, ast.NamedExpr))
        for sub in ast.walk(node)
    )


def _stored_names(node: ast.AST) -> set[str]:
    """Every name assigned anywhere under ``node`` (incl. loop targets)."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
    return out


def _loaded_names(node: ast.AST) -> set[str]:
    return {
        sub.id for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def _target_names(target: ast.expr) -> list[str] | None:
    """Loop-target names, or None if the target is not plain names."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Tuple) and all(
        isinstance(elt, ast.Name) for elt in target.elts
    ):
        return [elt.id for elt in target.elts]  # type: ignore[union-attr]
    return None


def _qualify_cond(cond: OSCond, alias: str) -> OSCond:
    """Give every unqualified field in a condition tree an alias."""
    def qf(f: OSField) -> OSField:
        return f if f.alias else OSField(alias, f.name)

    if isinstance(cond, OSComp):
        right = cond.right
        if isinstance(right, OSField):
            right = qf(right)
        return OSComp(qf(cond.left), cond.op, right)
    if isinstance(cond, OSLike):
        return OSLike(qf(cond.left), cond.pattern, cond.negated)
    if isinstance(cond, OSIn):
        return OSIn(qf(cond.left), list(cond.items), cond.negated)
    if isinstance(cond, OSBetween):
        return OSBetween(qf(cond.left), cond.low, cond.high, cond.negated)
    if isinstance(cond, OSBool):
        return OSBool(cond.op, _qualify_cond(cond.left, alias),
                      _qualify_cond(cond.right, alias))
    if isinstance(cond, OSNot):
        return OSNot(_qualify_cond(cond.operand, alias))
    raise RewriteError(f"unknown condition node {cond!r}")


def _qualify_select(stmt: OSSelect, alias: str) -> None:
    """Qualify a join-free statement's fields in place (items, WHERE,
    GROUP BY, ORDER BY) so a join can be attached unambiguously."""
    stmt.alias = stmt.alias or alias
    own = stmt.alias
    stmt.items = [
        OSField(own, item.name)
        if isinstance(item, OSField) and not item.alias else item
        for item in stmt.items
    ]
    if stmt.where is not None:
        stmt.where = _qualify_cond(stmt.where, own)
    stmt.group_by = [
        OSField(own, f.name) if not f.alias else f for f in stmt.group_by
    ]
    stmt.order_by = [
        (OSField(own, f.name) if not f.alias else f, desc)
        for f, desc in stmt.order_by
    ]


# -- per-function transformer ----------------------------------------------


@dataclass
class _LoopCtx:
    """One enclosing loop during the scan."""

    node: ast.For | ast.While
    parent_body: list[ast.stmt]
    targets: list[str] | None  # None: not plain names / while loop
    select_call: ast.Call | None  # the SELECT the loop iterates, if any
    select_stmt: OSSelect | None


class FunctionTransformer:
    """Discover and apply every rewrite within one report function."""

    def __init__(self, fn: ast.FunctionDef, env: dict[str, str],
                 schema: SchemaInfo) -> None:
        self.fn = fn
        self.env = env
        self.schema = schema
        self.applied: list[Applied] = []
        self.refusals: list[Refusal] = []
        self._names = {
            n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
        } | {a.arg for a in fn.args.args}
        self._parents: dict[int, ast.AST] = {}
        self._consumed: set[int] = set()       # probe calls merged away
        self._merge_targets: set[int] = set()  # outer selects extended
        self._pending: list[tuple[Refusal, int]] = []
        self._buffered: set[str] = set()       # tables given a buffer

    # -- entry point --------------------------------------------------------

    def run(self) -> None:
        self._index_parents()
        self._scan_loops(self.fn.body, [])
        # Multi-row refusals for selects that ended up as the *target*
        # of a merge describe statements that no longer exist; drop.
        self.refusals.extend(
            r for r, call_id in self._pending
            if call_id not in self._merge_targets
        )
        self._pending = []
        self._push_group_aggregates()
        self._push_orders()
        self._complete_partial_keys()
        ast.fix_missing_locations(self.fn)

    # -- shared plumbing ----------------------------------------------------

    def _index_parents(self) -> None:
        self._parents = {
            id(child): parent
            for parent in ast.walk(self.fn)
            for child in ast.iter_child_nodes(parent)
        }

    def _swap_expr(self, old: ast.expr, new: ast.expr) -> None:
        parent = self._parents.get(id(old))
        if parent is None:
            raise RewriteError("lost track of a node's parent")
        for name, value in ast.iter_fields(parent):
            if value is old:
                setattr(parent, name, new)
                self._parents[id(new)] = parent
                return
            if isinstance(value, list):
                for index, item in enumerate(value):
                    if item is old:
                        value[index] = new
                        self._parents[id(new)] = parent
                        return
        raise RewriteError("node not found under its parent")

    def _sql_of(self, call: ast.Call) -> tuple[str | None, OSSelect | None]:
        if not call.args:
            return None, None
        text, dynamic = _resolve_str(call.args[0], self.env)
        if text is None or dynamic:
            return None, None
        try:
            return text, parse_open_sql(text)
        except OpenSqlError:
            return text, None

    def _set_sql(self, call: ast.Call, stmt: OSSelect) -> str:
        text = render_select(stmt)
        parse_open_sql(text)  # self-check: generated SQL must re-parse
        call.args[0] = ast.Constant(text)
        return text

    def _fresh(self, base: str) -> str:
        name = base
        serial = 2
        while name in self._names:
            name = f"{base}_{serial}"
            serial += 1
        self._names.add(name)
        return name

    def _name_count(self, name: str) -> int:
        return sum(
            1 for n in ast.walk(self.fn)
            if isinstance(n, ast.Name) and n.id == name
        )

    # ======================================================================
    # R001: join merge + hoisting over SELECT loops
    # ======================================================================

    def _scan_loops(self, body: list[ast.stmt],
                    loops: list[_LoopCtx]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.For):
                ctx = self._loop_ctx(stmt, body)
                self._visit_loop_body(stmt, ctx, loops + [ctx])
            elif isinstance(stmt, ast.While):
                ctx = _LoopCtx(stmt, body, None, None, None)
                self._scan_loops(stmt.body, loops + [ctx])
            elif isinstance(stmt, (ast.If,)):
                self._scan_loops(stmt.body, loops)
                self._scan_loops(stmt.orelse, loops)
            elif isinstance(stmt, (ast.With, ast.Try)):
                for field_name in ("body", "orelse", "finalbody"):
                    self._scan_loops(getattr(stmt, field_name, []), loops)
                for handler in getattr(stmt, "handlers", []):
                    self._scan_loops(handler.body, loops)

    def _loop_ctx(self, node: ast.For,
                  parent_body: list[ast.stmt]) -> _LoopCtx:
        call = self._iter_select_call(node.iter)
        stmt = None
        if call is not None:
            _text, stmt = self._sql_of(call)
            if stmt is None:
                call = None
        return _LoopCtx(node, parent_body, _target_names(node.target),
                        call, stmt)

    def _iter_select_call(self, iter_expr: ast.expr) -> ast.Call | None:
        """The ``open_sql.select`` call a ``for ... in X.rows`` reads."""
        if not (isinstance(iter_expr, ast.Attribute)
                and iter_expr.attr == "rows"):
            return None
        base = iter_expr.value
        if isinstance(base, ast.Call) and _is_open_sql_call(base) == "select":
            return base
        if isinstance(base, ast.Name):
            assign = self._single_select_assign(base.id)
            if assign is not None and self._name_count(base.id) == 2:
                return assign.value  # type: ignore[return-value]
        return None

    def _single_select_assign(self, name: str) -> ast.Assign | None:
        """The unique ``name = open_sql.select(...)`` assign, if any."""
        found: ast.Assign | None = None
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and node.targets[0].id == name:
                if found is not None:
                    return None
                if isinstance(node.value, ast.Call) and \
                        _is_open_sql_call(node.value) == "select":
                    found = node
                else:
                    return None
        return found

    def _visit_loop_body(self, for_node: ast.For, ctx: _LoopCtx,
                         loops: list[_LoopCtx]) -> None:
        for stmt in list(for_node.body):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.Call) \
                    and _is_open_sql_call(stmt.value) is not None:
                self._consider_probe(stmt, stmt.value, for_node, ctx, loops)
        # Deeper statements: conditional/memoised probes only get a
        # refusal (they are not executed once per loop row by design).
        self._scan_nested(for_node.body, loops, direct_parent=for_node)

    def _scan_nested(self, body: list[ast.stmt], loops: list[_LoopCtx],
                     direct_parent: ast.For) -> None:
        for stmt in body:
            if isinstance(stmt, ast.For):
                ctx = self._loop_ctx(stmt, body)
                self._visit_loop_body(stmt, ctx, loops + [ctx])
            elif isinstance(stmt, ast.While):
                ctx = _LoopCtx(stmt, body, None, None, None)
                self._scan_loops(stmt.body, loops + [ctx])
            elif isinstance(stmt, ast.If):
                self._refuse_conditional_probes(stmt, loops)
                for sub in (stmt.body, stmt.orelse):
                    self._scan_nested(sub, loops, direct_parent)
            elif isinstance(stmt, (ast.With, ast.Try)):
                for field_name in ("body", "orelse", "finalbody"):
                    self._scan_nested(getattr(stmt, field_name, []),
                                      loops, direct_parent)
                for handler in getattr(stmt, "handlers", []):
                    self._scan_nested(handler.body, loops, direct_parent)

    def _refuse_conditional_probes(self, if_stmt: ast.If,
                                   loops: list[_LoopCtx]) -> None:
        memo_guard = any(
            isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.NotIn, ast.NotEq)) for op in node.ops
            )
            for node in ast.walk(if_stmt.test)
        )
        for sub in if_stmt.body:
            if isinstance(sub, ast.If):
                continue  # handled by recursion in _scan_nested
            for node in ast.walk(sub):
                if isinstance(node, ast.Call) and \
                        _is_open_sql_call(node) is not None and \
                        not isinstance(node.func, ast.Name):
                    reason = (
                        "memo-amortised probe (the cursor cache already "
                        "pays most of the cost; a join would re-fetch "
                        "per row)" if memo_guard else
                        "probe is conditionally executed inside the "
                        "loop body — a join would change when it runs"
                    )
                    self.refusals.append(Refusal(
                        "R001", "join_merge", self.fn.name, node.lineno,
                        reason,
                    ))

    def _consider_probe(self, assign: ast.Assign, call: ast.Call,
                        for_node: ast.For, ctx: _LoopCtx,
                        loops: list[_LoopCtx]) -> None:
        api = _is_open_sql_call(call)
        line = call.lineno
        var = assign.targets[0].id  # type: ignore[union-attr]

        def refuse(reason: str) -> None:
            self.refusals.append(Refusal(
                "R001", "join_merge", self.fn.name, line, reason))

        if api == "select":
            if not self._try_hoist(assign, call, for_node, loops):
                self._pending.append((Refusal(
                    "R001", "join_merge", self.fn.name, line,
                    "inner SELECT returns multiple rows per outer row "
                    "(loop fusion into a join is not supported)",
                ), id(call)))
            return

        text, probe = self._sql_of(call)
        if probe is None:
            refuse("statement text is not statically resolvable"
                   if text is None else
                   f"embedded Open SQL fails to parse: {text[:60]}...")
            return
        if probe.joins or probe.has_aggregates or probe.group_by:
            refuse("probe already uses joins or aggregates")
            return
        if ctx.select_call is None or ctx.select_stmt is None:
            if not self._try_hoist(assign, call, for_node, loops):
                refuse("enclosing loop does not iterate a SELECT result")
            return
        if len(loops) > 1:
            # The iterated SELECT itself runs once per enclosing-loop
            # row; a join rebuilt on every execution costs more than
            # the handful of probes each execution would save.
            refuse("outer SELECT executes inside an enclosing loop — "
                   "the per-execution join build would outweigh the "
                   "probes saved")
            return
        if ctx.targets is None:
            refuse("loop target is not a plain tuple of names")
            return
        if len(ctx.targets) == 1 and not isinstance(for_node.target,
                                                    ast.Tuple):
            refuse("loop variable binds the whole row, not columns")
            return

        outer_call = ctx.select_call
        _outer_text, outer = self._sql_of(outer_call)
        if outer is None:
            refuse("outer SELECT text is not statically resolvable")
            return
        if outer.has_aggregates or outer.group_by:
            refuse("outer SELECT aggregates — join would change groups")
            return
        if outer.single or outer.up_to is not None:
            refuse("outer SELECT limits rows — join would change which")
            return
        if outer.order_by:
            refuse("outer SELECT has ORDER BY — the join need not "
                   "preserve it")
            return
        outer_items = outer.items
        if not all(isinstance(i, OSField) for i in outer_items):
            refuse("outer SELECT list is not plain columns")
            return
        if len(outer_items) != len(ctx.targets):
            refuse("loop unpacking does not match the outer select list")
            return

        # Decompose the probe's WHERE into join/residual conjuncts.
        host_map = self._host_name_map(call)
        if host_map is None:
            refuse("probe host variables are not simple names")
            return
        conjuncts = ([] if probe.where is None
                     else _flatten_and_cond(probe.where))
        if conjuncts is None:
            refuse("probe WHERE clause is disjunctive (OR/NOT)")
            return
        target_pos = {name: idx for idx, name in enumerate(ctx.targets)}
        on_pairs: list[tuple[str, str, str]] = []  # (col, op, outer col)
        literal_on: list[OSComp] = []
        residual: list[OSCond] = []
        eq_cols: set[str] = set()
        for conj in conjuncts:
            if isinstance(conj, OSComp) and isinstance(conj.right, OSHost):
                bound = host_map.get(conj.right.name)
                if bound is None or bound not in target_pos:
                    refuse(f"host variable :{conj.right.name} does not "
                           f"come from the loop row")
                    return
                outer_col = outer_items[target_pos[bound]]
                assert isinstance(outer_col, OSField)
                on_pairs.append((conj.left.name, conj.op, outer_col.name))
                if conj.op == "=":
                    eq_cols.add(conj.left.name)
            elif isinstance(conj, OSComp) and \
                    isinstance(conj.right, OSLiteral):
                literal_on.append(conj)
                if conj.op == "=":
                    eq_cols.add(conj.left.name)
            elif isinstance(conj, (OSLike, OSIn, OSBetween)) and \
                    _literal_only(conj):
                residual.append(conj)
            else:
                refuse("probe predicate mixes fields or non-loop hosts")
                return
        if not any(op == "=" for _c, op, _o in on_pairs):
            refuse("no equality link between probe and loop row")
            return

        unique, why = self._probe_unique(probe.table, eq_cols)
        if not unique:
            refuse(f"probe may match several {probe.table} rows ({why})")
            return
        discipline = self._none_discipline(var, for_node, assign)
        if discipline == "handled":
            refuse(f"result {var!r} is None-tested — the inner join "
                   f"would drop rows the report handles explicitly")
            return
        shadowed = self._unsafe_preamble(for_node, assign,
                                         set(target_pos))
        if shadowed is not None:
            refuse(shadowed)
            return

        self._apply_merge(assign, call, probe, for_node, ctx, outer_call,
                          outer, on_pairs, literal_on, residual, var,
                          why, line)

    def _host_name_map(self, call: ast.Call) -> dict[str, str] | None:
        """host var -> report variable name, for a dict-literal binding."""
        if len(call.args) < 2:
            return {}
        bind = call.args[1]
        if not isinstance(bind, ast.Dict):
            return None
        out: dict[str, str] = {}
        for key, value in zip(bind.keys, bind.values):
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, ast.Name)):
                return None
            out[key.value.lower()] = value.id
        return out

    def _probe_unique(self, table: str,
                      eq_cols: set[str]) -> tuple[bool, str]:
        info = self.schema.lookup(table)
        if info is None or not info.key_fields:
            return False, "table unknown to the DDIC snapshot"
        key = list(info.key_fields)
        if set(key) <= eq_cols:
            return True, "full key bound"
        prefix: list[str] = []
        for column in key:
            if column in eq_cols:
                prefix.append(column)
            else:
                break
        if prefix:
            for other in self.schema.tables.values():
                if other.is_view or other.name == table:
                    continue
                if list(other.key_fields) == prefix and \
                        other.rows == info.rows:
                    return True, (
                        f"key prefix ({', '.join(prefix)}) is 1:1 — "
                        f"{table} has exactly one row per {other.name} key"
                    )
        return False, "bound columns do not determine a unique row"

    def _none_discipline(self, var: str, for_node: ast.For,
                         assign: ast.Assign) -> str:
        """How the report treats a None probe result.

        - ``"unused"``: never None-tested — the subscripting report
          assumes a match; the join encodes that assumption.
        - ``"filter"``: None only ever *skips* the row (an immediate
          ``if var is None: continue`` or a single trailing
          ``if var is not None [and ...]:`` guard with no else) — the
          inner join dropping matchless rows is behaviour-identical.
        - ``"handled"``: anything else; the merge must refuse.
        """
        if not self._none_tested(var):
            return "unused"
        index = for_node.body.index(assign)
        rest = for_node.body[index + 1:]
        in_rest = {id(n) for stmt in rest for n in ast.walk(stmt)}
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Name) and node.id == var and \
                    id(node) not in in_rest and \
                    node is not assign.targets[0]:
                return "handled"
        if rest and self._is_none_skip(rest[0], var):
            return "filter"
        if len(rest) == 1 and isinstance(rest[0], ast.If) and \
                not rest[0].orelse and \
                self._guards_not_none(rest[0].test, var):
            return "filter"
        return "handled"

    @staticmethod
    def _is_none_skip(stmt: ast.stmt, var: str) -> bool:
        """``if var is None: continue`` with no else."""
        return (isinstance(stmt, ast.If) and not stmt.orelse
                and len(stmt.body) == 1
                and isinstance(stmt.body[0], ast.Continue)
                and isinstance(stmt.test, ast.Compare)
                and isinstance(stmt.test.left, ast.Name)
                and stmt.test.left.id == var
                and len(stmt.test.ops) == 1
                and isinstance(stmt.test.ops[0], ast.Is)
                and isinstance(stmt.test.comparators[0], ast.Constant)
                and stmt.test.comparators[0].value is None)

    @staticmethod
    def _guards_not_none(test: ast.expr, var: str) -> bool:
        """``var is not None`` alone or as the first AND conjunct
        (short-circuit keeps later conjuncts off the None path)."""
        def is_not_none(node: ast.expr) -> bool:
            return (isinstance(node, ast.Compare)
                    and isinstance(node.left, ast.Name)
                    and node.left.id == var
                    and len(node.ops) == 1
                    and isinstance(node.ops[0], ast.IsNot)
                    and isinstance(node.comparators[0], ast.Constant)
                    and node.comparators[0].value is None)

        if is_not_none(test):
            return True
        return (isinstance(test, ast.BoolOp)
                and isinstance(test.op, ast.And)
                and bool(test.values)
                and is_not_none(test.values[0])
                and all(_is_pure(v) for v in test.values[1:]))

    def _none_tested(self, var: str) -> bool:
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                names = {
                    o.id for o in operands if isinstance(o, ast.Name)
                }
                if var in names and any(
                    isinstance(o, ast.Constant) and o.value is None
                    for o in operands
                ):
                    return True
            test = getattr(node, "test", None)
            if isinstance(test, ast.Name) and test.id == var:
                return True
            if isinstance(node, ast.BoolOp) and any(
                isinstance(v, ast.Name) and v.id == var
                for v in node.values
            ):
                return True
        return False

    def _unsafe_preamble(self, for_node: ast.For, probe: ast.Assign,
                         needed: set[str]) -> str | None:
        """Check loop-body statements before the probe; None = safe."""
        for stmt in for_node.body:
            if stmt is probe:
                return None
            if isinstance(stmt, ast.Expr) and \
                    isinstance(stmt.value, ast.Call) and \
                    isinstance(stmt.value.func, ast.Attribute) and \
                    stmt.value.func.attr in _CHARGE_METHODS:
                continue
            if isinstance(stmt, ast.Assign):
                if not _is_pure(stmt.value):
                    return ("side effects in the loop body before the "
                            "probe (call in an assignment)")
                if _stored_names(stmt) & needed:
                    return ("a loop-body assignment shadows a column "
                            "the probe binds")
                continue
            if isinstance(stmt, ast.If):
                if not _is_pure(stmt.test) or stmt.orelse:
                    return ("side effects or else-branch in a guard "
                            "before the probe")
                ok = all(
                    isinstance(s, (ast.Continue, ast.Pass)) or (
                        isinstance(s, ast.Assign) and _is_pure(s.value)
                        and not (_stored_names(s) & needed)
                    )
                    for s in stmt.body
                )
                if ok:
                    continue
                return "guard before the probe does more than skip rows"
            return ("statement with side effects precedes the probe "
                    "in the loop body")
        return "probe is not in the loop body"  # pragma: no cover

    def _apply_merge(self, assign: ast.Assign, call: ast.Call,
                     probe: OSSelect, for_node: ast.For, ctx: _LoopCtx,
                     outer_call: ast.Call, outer: OSSelect,
                     on_pairs: list[tuple[str, str, str]],
                     literal_on: list[OSComp], residual: list[OSCond],
                     var: str, why: str, line: int) -> None:
        if not outer.joins:
            _qualify_select(outer, self._fresh("t0"))
        own = outer.alias
        assert own is not None
        join_alias = self._fresh(f"t{len(outer.joins) + 1}")
        on: list[OSComp] = [
            OSComp(OSField(join_alias, col), op, OSField(own, outer_col))
            for col, op, outer_col in on_pairs
        ]
        on.extend(
            OSComp(OSField(join_alias, c.left.name), c.op, c.right)
            for c in literal_on
        )
        outer.joins.append(OSJoin(probe.table, join_alias, on))
        for cond in residual:
            extra = _qualify_cond(cond, join_alias)
            outer.where = (extra if outer.where is None
                           else OSBool("AND", outer.where, extra))
        fresh_names: list[str] = []
        for item in probe.items:
            assert isinstance(item, OSField)
            outer.items.append(OSField(join_alias, item.name))
            fresh_names.append(self._fresh(f"{var}_{item.name}"))
        self._set_sql(outer_call, outer)

        # Extend the loop unpacking and replace the probe with a tuple
        # rebind so every later use of ``var[i]`` still works.
        target = for_node.target
        if isinstance(target, ast.Name):
            target = ast.Tuple(elts=[target], ctx=ast.Store())
            for_node.target = target
        assert isinstance(target, ast.Tuple)
        target.elts.extend(
            ast.Name(id=name, ctx=ast.Store()) for name in fresh_names
        )
        replacement = ast.Assign(
            targets=[ast.Name(id=var, ctx=ast.Store())],
            value=ast.Tuple(
                elts=[ast.Name(id=n, ctx=ast.Load())
                      for n in fresh_names],
                ctx=ast.Load(),
            ),
        )
        for_node.body[for_node.body.index(assign)] = replacement
        self._consumed.add(id(call))
        self._merge_targets.add(id(outer_call))
        self._index_parents()
        self.applied.append(Applied(
            "R001", "join_merge", self.fn.name, line, probe.table,
            f"SELECT SINGLE {probe.table} per {outer.table} row merged "
            f"into one INNER JOIN ({why})",
        ))

    # -- hoisting -----------------------------------------------------------

    def _try_hoist(self, assign: ast.Assign, call: ast.Call,
                   for_node: ast.For, loops: list[_LoopCtx]) -> bool:
        var = assign.targets[0].id  # type: ignore[union-attr]
        if self._assign_count(var) != 1:
            return False
        text, _stmt = self._sql_of(call)
        if text is None:
            return False  # dynamic SQL may read loop state invisibly
        # Walk outward while the statement depends on nothing the loop
        # writes, and nothing before it in the loop has side effects
        # that could feed it.
        reads = _loaded_names(assign.value)
        hoist_past: _LoopCtx | None = None
        for ctx in reversed(loops):
            written = _stored_names(ctx.node) - {var}
            if reads & written:
                break
            if not self._preamble_effect_free(ctx.node, assign):
                break
            hoist_past = ctx
        if hoist_past is None:
            return False
        body = self._body_holding(hoist_past.node, assign)
        if body is None:
            return False  # only hoist statements sitting directly in a body
        body.remove(assign)
        if not body:
            body.append(ast.Pass())
        index = hoist_past.parent_body.index(hoist_past.node)
        hoist_past.parent_body.insert(index, assign)
        self._consumed.add(id(call))
        self._index_parents()
        self.applied.append(Applied(
            "R001", "hoist", self.fn.name, call.lineno,
            _stmt.table if _stmt else "?",
            "loop-invariant SELECT hoisted before the loop",
        ))
        return True

    def _assign_count(self, name: str) -> int:
        return sum(
            1 for n in ast.walk(self.fn)
            if isinstance(n, ast.Name) and n.id == name
            and isinstance(n.ctx, ast.Store)
        )

    def _preamble_effect_free(self, loop: ast.For | ast.While,
                              upto: ast.stmt) -> bool:
        """No call other than SELECTs/charges may precede the hoisted
        statement inside the loop (reports are read-only, but a helper
        call could still feed it through module state)."""
        for stmt in loop.body:
            if stmt is upto or any(s is upto for s in ast.walk(stmt)):
                return True
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    if _is_open_sql_call(node) is not None:
                        continue
                    if isinstance(node.func, ast.Attribute) and \
                            node.func.attr in _CHARGE_METHODS:
                        continue
                    return False
        return True

    def _body_holding(self, loop: ast.For | ast.While,
                      stmt: ast.stmt) -> list[ast.stmt] | None:
        for sub in ast.walk(loop):
            for field_name in ("body", "orelse", "finalbody"):
                body = getattr(sub, field_name, None)
                if isinstance(body, list) and any(
                    s is stmt for s in body
                ):
                    return body
        return None

    # ======================================================================
    # R005: GROUP BY pushdown (+ chained R010)
    # ======================================================================

    def _push_group_aggregates(self) -> None:
        for node in list(ast.walk(self.fn)):
            if isinstance(node, ast.Call) and self._is_ga_call(node):
                self._consider_group_pushdown(node)

    def _is_ga_call(self, call: ast.Call) -> bool:
        func = call.func
        return (isinstance(func, ast.Name)
                and func.id == "group_aggregate") or (
            isinstance(func, ast.Attribute)
            and func.attr == "group_aggregate")

    def _consider_group_pushdown(self, call: ast.Call) -> None:
        line = call.lineno

        def refuse(reason: str) -> None:
            self.refusals.append(Refusal(
                "R005", "group_pushdown", self.fn.name, line, reason))

        if len(call.args) < 4:
            return
        src = call.args[1]
        if not (isinstance(src, ast.Attribute) and src.attr == "rows"):
            return  # fed by ABAP-built records, not a raw SELECT: no-op
        base = src.value
        sel_call: ast.Call | None = None
        if isinstance(base, ast.Call) and \
                _is_open_sql_call(base) == "select":
            sel_call = base
        elif isinstance(base, ast.Name):
            assign = self._single_select_assign(base.id)
            if assign is not None:
                if self._name_count(base.id) != 2:
                    refuse(f"SELECT result {base.id!r} is used elsewhere "
                           f"— cannot replace it with group rows")
                    return
                sel_call = assign.value  # type: ignore[assignment]
        if sel_call is None:
            return
        if id(sel_call) in self._consumed:
            refuse("feeding SELECT was already rewritten")
            return
        text, stmt = self._sql_of(sel_call)
        if stmt is None:
            refuse("feeding SELECT is not statically resolvable")
            return
        if stmt.has_aggregates or stmt.group_by or stmt.order_by or \
                stmt.single or stmt.up_to is not None:
            refuse("feeding SELECT already aggregates, orders or limits")
            return
        if not all(isinstance(i, OSField) for i in stmt.items):
            refuse("feeding SELECT list is not plain columns")
            return
        if self.schema.kind_in_release(stmt.table, "3.0") is not \
                TableKind.TRANSPARENT:
            refuse(f"{stmt.table} is encapsulated — the engine cannot "
                   f"group it")
            return
        key_idxs = self._key_indices(call.args[2], len(stmt.items))
        if key_idxs is None:
            refuse("group key is not a tuple of plain row columns")
            return
        aggs = self._fold_aggregates(call.args[3], len(stmt.items))
        if aggs is None:
            refuse("fold is not a simple pushable aggregate "
                   "(len/sum/min/max/avg of one column)")
            return

        items = list(stmt.items)
        key_fields = [items[i] for i in key_idxs]
        new_items: list[OSField | OSAgg] = list(key_fields)
        for func_name, idx in aggs:
            if idx is None:
                new_items.append(OSAgg("COUNT", None))
            else:
                field = items[idx]
                assert isinstance(field, OSField)
                new_items.append(OSAgg(func_name, field))
        stmt.items = list(new_items)
        stmt.group_by = [f for f in key_fields
                         if isinstance(f, OSField)]
        stmt.order_by = [(f, False) for f in stmt.group_by]
        self._set_sql(sel_call, stmt)
        self._consumed.add(id(sel_call))

        # group_aggregate(...) -> list(<rows expr>): the engine now
        # returns exactly the grouped rows, key-ordered.
        replacement = ast.Call(
            func=ast.Name(id="list", ctx=ast.Load()), args=[src],
            keywords=[],
        )
        parent = self._parents.get(id(call))
        self._swap_expr(call, replacement)
        self.applied.append(Applied(
            "R005", "group_pushdown", self.fn.name, line, stmt.table,
            f"group_aggregate fold pushed into GROUP BY "
            f"{' '.join(f.display() for f in stmt.group_by)}",
        ))
        # Chained R010: a sorted() directly around the grouping is
        # subsumed by ORDER BY over the (unique) group keys.
        if isinstance(parent, ast.Call) and \
                isinstance(parent.func, ast.Name) and \
                parent.func.id == "sorted" and not parent.keywords and \
                len(parent.args) == 1:
            self._swap_expr(parent, replacement)
            self.applied.append(Applied(
                "R010", "order_pushdown", self.fn.name, parent.lineno,
                stmt.table,
                "sorted() over grouped rows replaced by ORDER BY over "
                "the unique group key",
            ))
        self._index_parents()

    def _key_indices(self, keyfn: ast.expr,
                     width: int) -> list[int] | None:
        if not isinstance(keyfn, ast.Lambda) or \
                len(keyfn.args.args) != 1:
            return None
        row = keyfn.args.args[0].arg
        body = keyfn.body
        if not isinstance(body, ast.Tuple):
            return None
        out: list[int] = []
        for elt in body.elts:
            idx = _subscript_index(elt, row)
            if idx is None or not 0 <= idx < width or idx in out:
                return None
            out.append(idx)
        return out

    def _fold_aggregates(
        self, foldfn: ast.expr, width: int,
    ) -> list[tuple[str, int | None]] | None:
        """[(AGG func, column index | None for COUNT(*))], or None."""
        if isinstance(foldfn, ast.Lambda):
            if len(foldfn.args.args) != 2:
                return None
            key_name = foldfn.args.args[0].arg
            group_name = foldfn.args.args[1].arg
            body = foldfn.body
        elif isinstance(foldfn, ast.Name):
            local = self._local_function(foldfn.id)
            if local is None or len(local.args.args) != 2 or \
                    len(local.body) != 1 or \
                    not isinstance(local.body[0], ast.Return) or \
                    local.body[0].value is None:
                return None
            key_name = local.args.args[0].arg
            group_name = local.args.args[1].arg
            body = local.body[0].value
        else:
            return None
        if not (isinstance(body, ast.BinOp)
                and isinstance(body.op, ast.Add)
                and isinstance(body.left, ast.Name)
                and body.left.id == key_name
                and isinstance(body.right, ast.Tuple)):
            return None
        out: list[tuple[str, int | None]] = []
        for elt in body.right.elts:
            agg = _aggregate_of(elt, group_name, width)
            if agg is None:
                return None
            out.append(agg)
        return out or None

    def _local_function(self, name: str) -> ast.FunctionDef | None:
        for node in ast.walk(self.fn):
            if isinstance(node, ast.FunctionDef) and node.name == name \
                    and node is not self.fn:
                return node
        return None

    # ======================================================================
    # R010: standalone ORDER BY pushdown
    # ======================================================================

    def _push_orders(self) -> None:
        for node in list(ast.walk(self.fn)):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "sorted" and len(node.args) == 1 and \
                    not node.keywords:
                self._consider_order_pushdown(node)

    def _consider_order_pushdown(self, call: ast.Call) -> None:
        src = call.args[0]
        if not (isinstance(src, ast.Attribute) and src.attr == "rows"
                and isinstance(src.value, ast.Name)):
            return
        line = call.lineno

        def refuse(reason: str) -> None:
            self.refusals.append(Refusal(
                "R010", "order_pushdown", self.fn.name, line, reason))

        var = src.value.id
        assign = self._single_select_assign(var)
        if assign is None:
            return
        if self._name_count(var) != 2:
            refuse(f"SELECT result {var!r} is used elsewhere — pushing "
                   f"ORDER BY would reorder those uses too")
            return
        sel_call = assign.value
        assert isinstance(sel_call, ast.Call)
        if id(sel_call) in self._consumed:
            return
        _text, stmt = self._sql_of(sel_call)
        if stmt is None:
            refuse("feeding SELECT is not statically resolvable")
            return
        if stmt.order_by:
            return  # already ordered; sorted() is merely redundant
        if stmt.up_to is not None:
            refuse("UP TO n ROWS would pick different rows under "
                   "ORDER BY")
            return
        if stmt.has_aggregates or stmt.group_by or stmt.single:
            refuse("feeding SELECT shape is not a plain row stream")
            return
        if not all(isinstance(i, OSField) for i in stmt.items):
            refuse("feeding SELECT list is not plain columns")
            return
        # sorted(rows) orders by the whole tuple: ORDER BY every select
        # item in list position is exactly that comparison, pushed down.
        stmt.order_by = [(item, False) for item in stmt.items
                         if isinstance(item, OSField)]
        self._set_sql(sel_call, stmt)
        self._consumed.add(id(sel_call))
        self._swap_expr(call, ast.Call(
            func=ast.Name(id="list", ctx=ast.Load()), args=[src],
            keywords=[],
        ))
        self._index_parents()
        self.applied.append(Applied(
            "R010", "order_pushdown", self.fn.name, line, stmt.table,
            f"sorted() over {stmt.table} rows pushed down as ORDER BY "
            f"{' '.join(f.display() for f, _d in stmt.order_by)}",
        ))

    # ======================================================================
    # R007: full-key completion via installation constants
    # ======================================================================

    def _complete_partial_keys(self) -> None:
        for node in list(ast.walk(self.fn)):
            if isinstance(node, ast.Call) and \
                    _is_open_sql_call(node) == "select_single" and \
                    id(node) not in self._consumed:
                self._consider_full_key(node)

    def _consider_full_key(self, call: ast.Call) -> None:
        line = call.lineno

        def refuse(reason: str) -> None:
            self.refusals.append(Refusal(
                "R007", "full_key", self.fn.name, line, reason))

        _text, stmt = self._sql_of(call)
        if stmt is None or stmt.joins:
            return  # R008/R001 territory; nothing to complete
        info = self.schema.lookup(stmt.table)
        if info is None or info.is_view or not info.key_fields:
            return
        conjuncts = ([] if stmt.where is None
                     else _flatten_and_cond(stmt.where))
        if conjuncts is None:
            refuse("WHERE clause is disjunctive (OR/NOT)")
            return
        bound = {
            c.left.name for c in conjuncts
            if isinstance(c, OSComp) and c.op == "="
            and isinstance(c.right, (OSHost, OSLiteral))
            and not c.left.alias
        }
        missing = [k for k in info.key_fields if k not in bound]
        if not missing:
            return  # already full-key: the buffer path is open
        constants = INSTALLATION_KEY_CONSTANTS.get(stmt.table, {})
        unresolved = [k for k in missing if k not in constants]
        if unresolved:
            refuse(f"missing key column(s) {unresolved} are "
                   f"row-specific — no installation constant completes "
                   f"the key")
            return
        system = _system_name(call)
        if system is None:
            refuse("cannot locate the system handle for buffer "
                   "activation")
            return

        extra: list[OSCond] = [
            OSComp(OSField(None, col), "=", OSLiteral(constants[col]))
            for col in missing
        ]
        where = stmt.where
        for comp in extra:
            where = comp if where is None else OSBool("AND", where, comp)
        stmt.where = where
        self._set_sql(call, stmt)
        self._consumed.add(id(call))
        self._activate_buffer(system, stmt.table)
        self.applied.append(Applied(
            "R007", "full_key", self.fn.name, line, stmt.table,
            f"key completed with installation constants "
            f"{{{', '.join(f'{k}={constants[k]!r}' for k in missing)}}}; "
            f"{stmt.table} activated in the table buffer",
        ))

    def _activate_buffer(self, system: str, table: str) -> None:
        if table in self._buffered:
            return
        self._buffered.add(table)
        guard = ast.parse(
            f"if {system}.buffers.active_for('{table}') is None:\n"
            f"    {system}.buffers.configure('{table}', {BUFFER_BYTES})\n"
        ).body[0]
        body = self.fn.body
        at = 0
        if body and isinstance(body[0], ast.Expr) and \
                isinstance(body[0].value, ast.Constant) and \
                isinstance(body[0].value.value, str):
            at = 1  # keep the docstring first
        body.insert(at, guard)
        self._index_parents()


# -- shared condition/fold helpers -----------------------------------------


def _flatten_and_cond(cond: OSCond) -> list[OSCond] | None:
    """Top-level AND conjuncts; None if OR/NOT appears on the spine."""
    if isinstance(cond, OSNot):
        return None
    if isinstance(cond, OSBool):
        if cond.op != "AND":
            return None
        left = _flatten_and_cond(cond.left)
        right = _flatten_and_cond(cond.right)
        if left is None or right is None:
            return None
        return left + right
    return [cond]


def _literal_only(cond: OSCond) -> bool:
    if isinstance(cond, OSLike):
        return isinstance(cond.pattern, OSLiteral)
    if isinstance(cond, OSIn):
        return all(isinstance(i, OSLiteral) for i in cond.items)
    if isinstance(cond, OSBetween):
        return (isinstance(cond.low, OSLiteral)
                and isinstance(cond.high, OSLiteral))
    return False


def _subscript_index(node: ast.expr, row_name: str) -> int | None:
    if isinstance(node, ast.Subscript) and \
            isinstance(node.value, ast.Name) and \
            node.value.id == row_name and \
            isinstance(node.slice, ast.Constant) and \
            isinstance(node.slice.value, int):
        return node.slice.value
    return None


def _aggregate_of(node: ast.expr, group_name: str,
                  width: int) -> tuple[str, int | None] | None:
    """Map one fold-tuple element to (AGG, column index)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "len" and len(node.args) == 1 and \
                isinstance(node.args[0], ast.Name) and \
                node.args[0].id == group_name:
            return ("COUNT", None)
        if node.func.id in ("sum", "min", "max") and len(node.args) == 1:
            idx = _gen_column(node.args[0], group_name, width)
            if idx is not None:
                return (node.func.id.upper(), idx)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        top = _aggregate_of(node.left, group_name, width)
        bottom = _aggregate_of(node.right, group_name, width)
        if top is not None and top[0] == "SUM" and \
                bottom == ("COUNT", None):
            return ("AVG", top[1])
    return None


def _gen_column(node: ast.expr, group_name: str,
                width: int) -> int | None:
    """Column index of ``<agg>(g[i] for g in group)``."""
    if not isinstance(node, ast.GeneratorExp):
        return None
    if len(node.generators) != 1:
        return None
    gen = node.generators[0]
    if gen.ifs or gen.is_async or not isinstance(gen.target, ast.Name) \
            or not (isinstance(gen.iter, ast.Name)
                    and gen.iter.id == group_name):
        return None
    idx = _subscript_index(node.elt, gen.target.id)
    if idx is None or not 0 <= idx < width:
        return None
    return idx


__all__ = [
    "Applied",
    "BUFFER_BYTES",
    "FunctionTransformer",
    "INSTALLATION_KEY_CONSTANTS",
    "Refusal",
    "RewriteError",
]
