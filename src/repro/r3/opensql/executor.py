"""Open SQL execution.

Transparent tables (and views) take the *pushdown* path: the statement
is translated to parameterized SQL and shipped over the database
interface — in Release 3.0 including joins and simple aggregates.

Pool and cluster tables take the *encapsulated* path: the app server
fetches encoded physical records, decodes them with the dictionary,
and evaluates the predicate itself.  Joins, grouping and aggregation
are never available on encapsulated tables — the reports must do that
work in ABAP, which is precisely the overhead the paper measures.

A text is *compiled* once (:class:`_Statement`, DESIGN.md §19); a call
binds host variables and charges the simulated clock row by row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.engine.expr import like_to_regex
from repro.engine.index import key_getter
from repro.r3.ddic import DDicTable, TableKind
from repro.r3.errors import OpenSqlError
from repro.r3.opensql.ast import (
    OSBetween,
    OSBool,
    OSComp,
    OSCond,
    OSField,
    OSHost,
    OSIn,
    OSLike,
    OSLiteral,
    OSNot,
    OSOperand,
    OSSelect,
    OSStar,
)
from repro.r3.opensql.parser import parse_open_sql
from repro.r3.opensql.translate import translate
from repro.r3.pools import ClusterContainer

#: compiled statements an application server keeps, oldest out first
MAX_STATEMENTS = 256


@dataclass
class OSResult:
    fields: list[str]
    rows: list[tuple]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def first(self) -> tuple | None:
        return self.rows[0] if self.rows else None


@dataclass
class _Statement:
    """One Open SQL text (read as SINGLE or not) compiled against the
    dictionary: all that host variables, client and data do not decide."""

    #: the table as written: span attribute and table-buffer name
    table: str
    #: valid while these hold (:meth:`OpenSql._fresh`): the release and,
    #: per referenced name, its dictionary table (None: a view) and kind
    version: object
    refs: list[tuple[str, DDicTable | None, TableKind]]
    #: "pushdown", "pool" or "cluster", and its ``run(host_vars)``
    path: str
    run: Callable[[dict], OSResult]
    #: host_vars -> {field: value} of the top-level AND-ed equalities;
    #: the logical key's names if it binds them all (table-buffer key)
    eq: Callable[[dict], dict[str, object]]
    buffer_key: list[str] | None


class OpenSql:
    def __init__(self, r3) -> None:
        self._r3 = r3
        self._statements: dict[tuple[str, bool], _Statement] = {}

    # -- public API -------------------------------------------------------

    def select(self, text: str, host_vars: dict[str, object] | None = None
               ) -> OSResult:
        """SELECT ... ENDSELECT: run the statement, return all rows."""
        with self._r3.tracer.span("opensql.select", statement=text) as span:
            with self._r3.tracer.span("opensql.parse"):
                stmt = self._statement(text, single=False)
            span.set(path=stmt.path, table=stmt.table)
            result = stmt.run(host_vars or {})
            span.set(rows=len(result.rows))
            return result

    def select_single(self, text: str,
                      host_vars: dict[str, object] | None = None
                      ) -> tuple | None:
        """SELECT SINGLE: at most one row, table buffer aware."""
        r3 = self._r3
        with r3.tracer.span("opensql.select_single",
                            statement=text) as span:
            with r3.tracer.span("opensql.parse"):
                stmt = self._statement(text, single=True)
            host_vars = host_vars or {}
            key = None
            if stmt.buffer_key is not None and \
                    r3.buffers.active_for(stmt.table) is not None:
                eq = stmt.eq(host_vars)
                key = (r3.client, *[eq[name] for name in stmt.buffer_key])
                _active, hit, row = r3.buffers.lookup(stmt.table, key)
                if hit:
                    span.set(path="buffer", rows=1 if row else 0)
                    return row
            span.set(path=stmt.path, table=stmt.table)
            row = stmt.run(host_vars).first()
            if key is not None:
                r3.buffers.store(stmt.table, key, row)
            span.set(rows=1 if row else 0)
            return row

    def flush_statements(self) -> None:
        """Forget every compiled statement (an app-server restart)."""
        self._statements.clear()

    # -- compiled statements --------------------------------------------------

    def _statement(self, text: str, single: bool) -> _Statement:
        """The kept compiled form while what it was compiled from still
        holds, else a new one.  A compile that raises keeps nothing."""
        key = (text, single)
        stmt = self._statements.get(key)
        if stmt is None or not self._fresh(stmt):
            stmt = self._compile(text, single)
            if len(self._statements) >= MAX_STATEMENTS:
                del self._statements[next(iter(self._statements))]
            self._statements[key] = stmt
        return stmt

    def _fresh(self, stmt: _Statement) -> bool:
        """Is what ``stmt`` was gated and routed by still the case?"""
        r3 = self._r3
        tables = r3.ddic.tables
        for name, table, kind in stmt.refs:
            if tables.get(name) is not table or not (
                    r3.db.catalog.has_view(name) if table is None
                    else table.kind is kind):
                return False
        return stmt.version is r3.version

    def _compile(self, text: str, single: bool) -> _Statement:
        """Parse, gate and route, in this one place.  A ``_compile_*``
        does once what text and dictionary decide and returns the
        function that does the rest per call."""
        r3 = self._r3
        stmt = parse_open_sql(text)
        if single:
            stmt.single = True
        refs = []
        for name in [stmt.table] + [j.table for j in stmt.joins]:
            table = r3.ddic.tables.get(name.lower())
            if table is None and not r3.db.catalog.has_view(name):
                raise OpenSqlError(f"unknown table or view {name}")
            refs.append((name.lower(), table,
                         table.kind if table else TableKind.TRANSPARENT))
        self._check_gates(stmt, [kind for _name, _table, kind in refs])
        _name, table, kind = refs[0]
        source = _Source(table)
        eq_fields, eq = source.equalities(stmt.where)
        buffer_key = _covered(
            table.key_fields if table and not stmt.joins else (), eq_fields)
        if kind is TableKind.TRANSPARENT:
            path, run = "pushdown", self._compile_pushdown(stmt)
        else:
            finish = self._compile_app_side(stmt, table, source)
            if kind is TableKind.POOL:
                path, run = "pool", self._compile_pool(
                    table, eq, buffer_key, finish)
            else:
                path, run = "cluster", self._compile_cluster(
                    table, eq, eq_fields, finish)
        return _Statement(stmt.table, r3.version, refs, path, run, eq,
                          buffer_key)

    # -- feature gates -------------------------------------------------------

    def _check_gates(self, stmt: OSSelect, kinds: list[TableKind]) -> None:
        version = self._r3.version
        if stmt.has_joins and not version.open_sql_joins:
            raise OpenSqlError(
                "joins in Open SQL require Release 3.0 "
                "(use nested SELECT loops or a join view in 2.2)"
            )
        if (stmt.has_aggregates or stmt.group_by) and \
                not version.open_sql_aggregates:
            raise OpenSqlError(
                "aggregates/GROUP BY in Open SQL require Release 3.0"
            )
        encapsulated = any(k is not TableKind.TRANSPARENT for k in kinds)
        if encapsulated:
            if stmt.has_joins:
                raise OpenSqlError(
                    "encapsulated tables cannot participate in joins"
                )
            if stmt.has_aggregates or stmt.group_by:
                raise OpenSqlError(
                    "aggregates can only be applied to transparent tables"
                )

    # -- pushdown path --------------------------------------------------------

    def _field_names_of(self, table_name: str) -> list[str]:
        r3 = self._r3
        if r3.ddic.has(table_name):
            return r3.ddic.lookup(table_name).field_names
        raise OpenSqlError(f"SELECT * is not supported on view {table_name}")

    def _compile_pushdown(self, stmt: OSSelect) -> Callable[[dict], OSResult]:
        r3 = self._r3
        # Every reference is a dictionary table or a join view: both
        # carry MANDT, the client predicate goes on all of them.
        translation = translate(stmt, self._field_names_of, lambda name: True)

        def run(host_vars: dict[str, object]) -> OSResult:
            with r3.tracer.span("opensql.translate"):
                params = translation.bind(r3.client, host_vars)
            result = r3.dbif.execute_param(translation.sql, params)
            r3.charge_abap(len(result.rows))
            return OSResult(result.columns, result.rows)

        return run

    # -- encapsulated paths ---------------------------------------------------------

    def _compile_pool(self, table: DDicTable, eq, probe_key, finish
                      ) -> Callable[[dict], OSResult]:
        r3 = self._r3
        sql = (f"SELECT vardata FROM {r3.pools[table.container].name} "
               f"WHERE tabname = ?")
        if probe_key is not None:  # exact logical key: probe by VARKEY
            sql += " AND varkey = ?"

        def run(host_vars: dict[str, object]) -> OSResult:
            bound = eq(host_vars)
            if probe_key is None:
                params = (table.name,)
            else:
                varkey = "|".join(
                    [r3.client] + [str(bound[name]) for name in probe_key])
                params = (table.name, varkey)
            result = r3.dbif.execute_param(sql, params)
            rows = []
            with r3.tracer.span("opensql.decode", kind="pool",
                                table=table.name) as span:
                client, decode = r3.client, table.decode_pool_row
                charge_decode = r3.charge_decode
                for (vardata,) in result.rows:
                    charge_decode()
                    full = decode(vardata)
                    if full[0] == client:
                        rows.append(full[1:])  # strip MANDT
                span.set(records=len(result.rows), rows=len(rows))
            return finish(rows, host_vars)

        return run

    def _compile_cluster(self, table: DDicTable, eq, eq_fields, finish
                         ) -> Callable[[dict], OSResult]:
        r3 = self._r3
        container = r3.clusters[table.container]
        sql = f"SELECT vardata FROM {container.name} WHERE mandt = ?"
        probe_key = _covered(container.key_fields, eq_fields)
        if probe_key is not None:
            predicates = " AND ".join(f"{name} = ?" for name in probe_key)
            sql += f" AND {predicates} ORDER BY pagno"

        def run(host_vars: dict[str, object]) -> OSResult:
            bound = eq(host_vars)
            if probe_key is None:
                params = (r3.client,)
            else:
                params = [r3.client] + [bound[name] for name in probe_key]
            result = r3.dbif.execute_param(sql, params)
            rows = []
            with r3.tracer.span("opensql.decode", kind="cluster",
                                table=table.name) as span:
                decode_page, charge_decode = \
                    ClusterContainer.decode_page, r3.charge_decode
                for (vardata,) in result.rows:
                    for logical in decode_page(table, vardata):
                        charge_decode()
                        rows.append(logical)
                span.set(pages=len(result.rows), rows=len(rows))
            return finish(rows, host_vars)

        return run

    def _compile_app_side(self, stmt: OSSelect, table: DDicTable,
                          source: "_Source") -> Callable[..., OSResult]:
        """Residual filter, sort, projection in the app server."""
        r3 = self._r3
        holds = None if stmt.where is None else source.function(
            "row, host_vars", source.cond(stmt.where))
        order_by = [(source.position(f), desc) for f, desc in stmt.order_by]
        fields, project = table.field_names, None
        if not isinstance(stmt.items[0], OSStar):
            fields = [item.name for item in stmt.items]
            project = key_getter(
                [source.position(item) for item in stmt.items])
        limit = 1 if stmt.single else stmt.up_to

        def finish(rows: list[tuple], host_vars: dict) -> OSResult:
            charge_abap = r3.charge_abap
            filtered = []
            for row in rows:
                charge_abap(1)
                if holds is None or holds(row, host_vars):
                    filtered.append(row)
            if order_by:
                # The engine's rule (exec/sort.py), so a text sorts alike on
                # both paths: NULL first ascending, last descending; stable.
                for position, descending in reversed(order_by):
                    filtered.sort(
                        key=lambda row: (row[position] is not None,
                                         row[position]),
                        reverse=descending)
                charge_abap(len(filtered))
            projected = filtered if project is None \
                else list(map(project, filtered))
            if limit is not None:
                projected = projected[:limit]
            return OSResult(list(fields), projected)

        return finish


def _covered(key_fields, bound: list[str]) -> list[str] | None:
    """The key's field names if ``bound`` has all of them (and any)."""
    names = [f.name.lower() for f in key_fields]
    return names if names and all(n in bound for n in names) else None


#: Open SQL comparison -> Python operator
_COMPARISONS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">",
                ">=": ">="}


class _Source:
    """Python source over ``row`` and ``host_vars``, one expression per
    function.  The app-side predicate is two-valued, unlike the engine's:
    a comparison, LIKE or BETWEEN with a NULL operand is false (so its
    NOT is true), IN compares as Python does.  A host variable is read
    where a test's operands are, before the row is looked at."""

    def __init__(self, table: DDicTable | None) -> None:
        self._table = table
        self._names: dict[str, object] = {
            "OpenSqlError": OpenSqlError, "like_to_regex": like_to_regex}
        self._temps = itertools.count()

    def position(self, field: OSField) -> int:
        try:
            return self._table.positions[field.name.lower()]
        except KeyError:
            raise OpenSqlError(
                f"no field {field.name} in {self._table.name}") from None

    def operand(self, operand: OSOperand) -> str:
        if isinstance(operand, OSLiteral):
            name = f"c{next(self._temps)}"
            self._names[name] = operand.value
            return name
        if isinstance(operand, OSHost):
            return f"host_vars[{operand.name!r}]"
        if isinstance(operand, OSField):
            return f"row[{self.position(operand)}]"
        raise OpenSqlError(f"bad operand {operand!r}")

    def _unless_null(self, operands: list[OSOperand], test: str) -> str:
        """``test`` over the operands' values ({0}, {1}, ...); False if one
        is NULL.  ``&`` does not short-circuit: all host variables are read."""
        hosts, others, atoms = [], [], []
        for operand in operands:
            if isinstance(operand, OSLiteral):
                atoms.append(self.operand(operand))
                if operand.value is None:
                    others.append("False")
                continue
            atoms.append(f"t{next(self._temps)}")
            guard = f"(({atoms[-1]} := {self.operand(operand)}) is not None)"
            (hosts if isinstance(operand, OSHost) else others).append(guard)
        parts = [" & ".join(hosts)] if hosts else []
        return f"({' and '.join(parts + others + [test.format(*atoms)])})"

    def cond(self, node: OSCond) -> str:
        if isinstance(node, OSBool):
            word = "and" if node.op == "AND" else "or"
            return f"({self.cond(node.left)} {word} {self.cond(node.right)})"
        if isinstance(node, OSNot):
            return f"(not {self.cond(node.operand)})"
        if isinstance(node, OSComp) and node.op in _COMPARISONS:
            return self._unless_null(
                [node.left, node.right], f"{{}} {_COMPARISONS[node.op]} {{}}")
        if isinstance(node, OSLike):
            return self._unless_null(
                [node.left, node.pattern],
                f"like_to_regex({{1}}).match({{0}}) "
                f"{'is' if node.negated else 'is not'} None")
        if isinstance(node, OSIn):
            items = "".join(self.operand(item) + ", " for item in node.items)
            return (f"({self.operand(node.left)} "
                    f"{'not in' if node.negated else 'in'} ({items}))")
        if isinstance(node, OSBetween):
            return self._unless_null(
                [node.left, node.low, node.high],
                f"{'not ' if node.negated else ''}({{1}} <= {{0}} <= {{2}})")
        raise OpenSqlError(f"bad condition node {node!r}")

    def equalities(self, cond: OSCond | None) -> tuple[list[str], Callable]:
        """Fields of the top-level AND-ed equality tests against a literal
        or a host variable, and ``eq(host_vars) -> {field: value}``."""
        fields, entries = [], []

        def visit(node: OSCond | None) -> None:
            if isinstance(node, OSBool) and node.op == "AND":
                visit(node.left)
                visit(node.right)
            elif isinstance(node, OSComp) and node.op == "=" \
                    and not isinstance(node.right, OSField):
                fields.append(node.left.name.lower())
                entries.append(f"{fields[-1]!r}: {self.operand(node.right)}, ")

        visit(cond)
        return fields, self.function("host_vars", f"{{{''.join(entries)}}}")

    def function(self, parameters: str, result: str) -> Callable:
        """``fn(parameters)`` returning ``result``; a host variable that
        is not bound raises the typed error, per call."""
        source = (f"def fn({parameters}):\n"
                  f" try:\n"
                  f"  return {result}\n"
                  f" except KeyError as exc:\n"
                  f"  raise OpenSqlError(\n"
                  f"   f'unbound host variable :{{exc.args[0]}}') from None\n")
        exec(compile(source, "<generated>/repro/r3/opensql/executor.py",
                     "exec"), self._names)
        return self._names.pop("fn")
