"""Native SQL: the EXEC SQL ... ENDEXEC passthrough.

Native SQL ships literal SQL text straight to the RDBMS: the optimizer
sees real values (good plans), vendor-specific features are available,
and no dictionary mediation happens — which also means encapsulated
(pool/cluster) tables are invisible, the MANDT client predicate must
be written by hand, and the report is neither safe nor portable
(paper Section 2.3).
"""

from __future__ import annotations

from repro.engine.database import Result
from repro.engine.expr import SubqueryExpr
from repro.engine.sql.ast import (
    DeleteStmt,
    InsertStmt,
    JoinRef,
    SelectStmt,
    TableRef,
    UpdateStmt,
)
from repro.engine.sql.parser import parse_sql
from repro.r3.ddic import TableKind
from repro.r3.errors import NativeSqlError


def _referenced_tables(stmt) -> set[str]:
    """All base-table names a parsed statement touches."""
    names: set[str] = set()

    def visit_from_item(item) -> None:
        if isinstance(item, TableRef):
            names.add(item.name.lower())
        elif isinstance(item, JoinRef):
            visit_from_item(item.left)
            visit_from_item(item.right)

    def visit_select(select: SelectStmt) -> None:
        for item in select.from_items:
            visit_from_item(item)
        exprs = []
        for sel_item in select.items:
            expr = getattr(sel_item, "expr", None)
            if expr is not None:
                exprs.append(expr)
        if select.where is not None:
            exprs.append(select.where)
        if select.having is not None:
            exprs.append(select.having)
        exprs.extend(select.group_by)
        exprs.extend(o.expr for o in select.order_by)
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, SubqueryExpr):
                    visit_select(node.query)

    if isinstance(stmt, SelectStmt):
        visit_select(stmt)
    elif isinstance(stmt, (InsertStmt, DeleteStmt, UpdateStmt)):
        names.add(stmt.table.lower())
    return names


class NativeSql:
    def __init__(self, r3) -> None:
        self._r3 = r3

    def exec_sql(self, sql: str) -> Result:
        """EXEC SQL: run literal SQL directly against the back end.

        Raises :class:`NativeSqlError` if the statement references an
        encapsulated table — those only exist inside pool/cluster
        containers and cannot be reached without the dictionary.
        """
        r3 = self._r3
        stmt = parse_sql(sql)
        for name in _referenced_tables(stmt):
            if r3.ddic.has(name):
                table = r3.ddic.lookup(name)
                if table.kind is not TableKind.TRANSPARENT:
                    raise NativeSqlError(
                        f"{name.upper()} is a {table.kind.value} table; "
                        f"EXEC SQL cannot access encapsulated tables"
                    )
        r3.metrics.count("nativesql.statements")
        result = r3.dbif.execute_literal(sql)
        # The EXEC SQL PERFORMING loop still processes rows in ABAP.
        r3.charge_abap(len(result.rows))
        return result
