"""The query planner / cost-based optimizer.

Planning pipeline:

1. resolve FROM items (base tables, views, explicit JOIN trees),
2. classify WHERE conjuncts (single-table filters, equi-join edges,
   multi-table residuals, correlated/subquery predicates),
3. choose access paths per base table (:mod:`repro.engine.plan.access`),
4. order joins greedily by estimated cardinality and pick join methods
   by cost (index nested loop vs hash),
5. aggregate / project / sort / distinct / limit.

Two deliberate, documented 1990s-realism behaviours matter for the
paper reproduction:

* explicit SQL-92 ``JOIN ... ON`` trees are executed in the written
  order (no reordering) — the path Open SQL's generated joins take;
* ``IN``/``EXISTS`` subqueries are re-executed per outer row (no
  decorrelation or caching), which is the "RDBMS handled nested
  queries poorly" effect behind Q2/Q11/Q16.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.catalog import Catalog
from repro.engine.errors import PlanError
from repro.engine.exec.aggregate import GroupAggregate
from repro.engine.exec.base import ExecContext, Operator
from repro.engine.exec.joins import HashJoin, IndexNestedLoopJoin, NestedLoopJoin
from repro.engine.exec.misc import Alias, Distinct, Filter, Limit, Project
from repro.engine.exec.sort import Sort
from repro.engine.expr import (
    AggCall,
    BinOp,
    ColumnRef,
    CorrelationCell,
    Expr,
    InputRef,
    OutputSchema,
    SubqueryExpr,
    conjoin,
    split_conjuncts,
)
from repro.engine.plan.access import choose_access_path
from repro.engine.plan.binder import bind_expr, referenced_bindings
from repro.engine.plan.rewrite import (
    AggRegistry,
    contains_aggregate,
    rewrite_for_aggregation,
)
from repro.engine.sql.ast import (
    JoinRef,
    OrderItem,
    SelectItem,
    SelectStmt,
    Star,
    TableRef,
)
from repro.engine.stats import TableStats


@dataclass
class PlannedQuery:
    operator: Operator
    column_names: list[str]
    correlated: bool = False


@dataclass
class _Unit:
    """One FROM unit: a base table, a view, or an ANSI join tree."""

    bindings: list[str]
    leaf_schemas: dict[str, OutputSchema]
    operator: Operator | None = None
    # Base-table-only fields (for access path / INL decisions):
    table: object = None
    alias: str | None = None
    filters: list[Expr] = field(default_factory=list)
    estimated_rows: float = 1.0
    # ANSI join trees are materialized lazily so single-table WHERE
    # conjuncts can be pushed into their leaf scans first.
    jointree: JoinRef | None = None
    # binding -> base Table for every base-table leaf (all unit kinds)
    leaf_tables: dict[str, object] = field(default_factory=dict)


class _PlanContext:
    """Per-plan_select state: outer correlation + tracking flag."""

    def __init__(self, outer_schema: OutputSchema | None,
                 cell: CorrelationCell | None) -> None:
        self.outer_schema = outer_schema
        self.cell = cell
        self.correlated = False
        # pre-planned operators for view leaves inside ANSI join trees
        self.join_leaf_plans: dict[str, Operator] = {}


class Planner:
    def __init__(
        self,
        catalog: Catalog,
        stats_store: dict[str, TableStats],
        ctx: ExecContext,
    ) -> None:
        self.catalog = catalog
        self.stats = stats_store
        self.ctx = ctx
        #: a ParallelPolicy when the database runs at degree > 1; the
        #: finished *top-level* plan is handed to it for fragment
        #: rewriting (views/subqueries recurse through plan_select and
        #: must stay serial — fragments never nest inside lanes)
        self.parallel = None
        self._depth = 0

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def plan_select(
        self,
        stmt: SelectStmt,
        outer_schema: OutputSchema | None = None,
        cell: CorrelationCell | None = None,
    ) -> PlannedQuery:
        self._depth += 1
        try:
            planned = self._plan_select_serial(stmt, outer_schema, cell)
        finally:
            self._depth -= 1
        if (self._depth == 0 and self.parallel is not None
                and not planned.correlated):
            planned.operator = self.parallel.parallelize(planned.operator)
        return planned

    def _plan_select_serial(
        self,
        stmt: SelectStmt,
        outer_schema: OutputSchema | None = None,
        cell: CorrelationCell | None = None,
    ) -> PlannedQuery:
        pctx = _PlanContext(outer_schema, cell)
        units, binding_schemas = self._resolve_from(stmt, pctx)

        single, edges, residuals, deferred = self._classify_where(
            stmt.where, units, binding_schemas, pctx
        )

        for unit in units:
            self._materialize_unit(unit, single, pctx)

        top = self._order_joins(units, edges, residuals, pctx)

        if deferred:
            predicate = conjoin(deferred)
            self._bind(predicate, top.schema, pctx)
            top = Filter(self.ctx, top, predicate)

        return self._finish(stmt, top, pctx)

    # ------------------------------------------------------------------
    # FROM resolution
    # ------------------------------------------------------------------

    def _resolve_from(
        self, stmt: SelectStmt, pctx: _PlanContext
    ) -> tuple[list[_Unit], dict[str, OutputSchema]]:
        if not stmt.from_items:
            raise PlanError("SELECT without FROM is not supported")
        units: list[_Unit] = []
        binding_schemas: dict[str, OutputSchema] = {}
        for item in stmt.from_items:
            unit = self._resolve_from_item(item, pctx)
            for binding in unit.bindings:
                if binding in binding_schemas:
                    raise PlanError(f"duplicate FROM binding {binding}")
                binding_schemas[binding] = unit.leaf_schemas[binding]
            units.append(unit)
        return units, binding_schemas

    def _resolve_from_item(self, item, pctx: _PlanContext) -> _Unit:
        if isinstance(item, TableRef):
            return self._resolve_table_ref(item, pctx)
        if isinstance(item, JoinRef):
            leaf_schemas: dict[str, OutputSchema] = {}
            leaf_tables: dict[str, object] = {}
            self._collect_join_leaves(item, leaf_schemas, leaf_tables, pctx)
            estimate = max(
                (t.row_count for t in leaf_tables.values() if t is not None),
                default=1,
            )
            return _Unit(
                bindings=list(leaf_schemas),
                leaf_schemas=leaf_schemas,
                jointree=item,
                leaf_tables=leaf_tables,
                estimated_rows=max(float(estimate), 1.0),
            )
        raise PlanError(f"unsupported FROM item {item!r}")

    def _collect_join_leaves(
        self,
        item,
        leaf_schemas: dict[str, OutputSchema],
        leaf_tables: dict[str, object],
        pctx: _PlanContext,
    ) -> None:
        if isinstance(item, JoinRef):
            self._collect_join_leaves(item.left, leaf_schemas, leaf_tables,
                                      pctx)
            self._collect_join_leaves(item.right, leaf_schemas, leaf_tables,
                                      pctx)
            return
        if not isinstance(item, TableRef):
            raise PlanError(f"unsupported join operand {item!r}")
        binding = item.binding_name
        if binding in leaf_schemas:
            raise PlanError(f"duplicate FROM binding {binding}")
        if self.catalog.has_view(item.name):
            # Views inside join trees are planned eagerly (no pushdown).
            unit = self._resolve_table_ref(item, pctx)
            leaf_schemas[binding] = unit.leaf_schemas[binding]
            leaf_tables[binding] = None
            pctx.join_leaf_plans[binding] = unit.operator
            return
        table = self.catalog.table(item.name)
        leaf_schemas[binding] = OutputSchema(
            [(binding, c.name) for c in table.schema.columns]
        )
        leaf_tables[binding] = table

    def _resolve_table_ref(self, ref: TableRef, pctx: _PlanContext) -> _Unit:
        binding = ref.binding_name
        if self.catalog.has_view(ref.name):
            # Deep-copy: planning mutates expression nodes (binding), and
            # the stored view AST must stay pristine for the next use.
            import copy

            view_ast = copy.deepcopy(self.catalog.view(ref.name))
            sub = self.plan_select(view_ast, pctx.outer_schema, pctx.cell)
            if sub.correlated:
                pctx.correlated = True
            aliased = Alias(self.ctx, sub.operator, binding, sub.column_names)
            return _Unit(
                bindings=[binding],
                leaf_schemas={binding: aliased.schema},
                operator=aliased,
                estimated_rows=max(aliased.estimated_rows, 1.0),
            )
        table = self.catalog.table(ref.name)
        schema = OutputSchema(
            [(binding, c.name) for c in table.schema.columns]
        )
        return _Unit(
            bindings=[binding],
            leaf_schemas={binding: schema},
            table=table,
            alias=ref.alias or None,
            estimated_rows=max(table.row_count, 1.0),
        )

    def _plan_join_tree(
        self,
        join: JoinRef,
        single: dict[str, list[Expr]],
        pctx: _PlanContext,
    ) -> tuple[Operator, dict[str, OutputSchema]]:
        """Plan an explicit JOIN ... ON tree in the written order.

        Single-table WHERE conjuncts from ``single`` are pushed into
        the leaf scans; only the join *order* stays as written (the
        engine does not reorder ANSI joins — see module docstring).
        """
        left_op, left_schemas = self._plan_join_side(join.left, single, pctx)
        right_op, right_schemas = self._plan_join_side(join.right, single,
                                                       pctx)
        schemas = {**left_schemas, **right_schemas}
        combined = left_op.schema.concat(right_op.schema)

        conjuncts = split_conjuncts(join.condition)
        equi_pairs: list[tuple[int, int]] = []
        residual: list[Expr] = []
        left_width = len(left_op.schema)
        for conjunct in conjuncts:
            pair = self._equi_positions(conjunct, combined, left_width)
            if pair is not None and not join.outer:
                equi_pairs.append(pair)
            else:
                residual.append(conjunct)

        residual_expr = conjoin(residual)
        if residual_expr is not None:
            self._bind(residual_expr, combined, pctx)

        if equi_pairs and not join.outer:
            operator: Operator = HashJoin(
                self.ctx, left_op, right_op,
                [l for l, _ in equi_pairs],
                [r - left_width for _, r in equi_pairs],
                residual=residual_expr,
            )
        else:
            operator = NestedLoopJoin(
                self.ctx, left_op, right_op, residual_expr, outer=join.outer
            )
        operator.estimated_rows = max(
            left_op.estimated_rows, right_op.estimated_rows, 1.0
        )
        return operator, schemas

    def _plan_join_side(
        self,
        item,
        single: dict[str, list[Expr]],
        pctx: _PlanContext,
    ) -> tuple[Operator, dict[str, OutputSchema]]:
        if isinstance(item, JoinRef):
            return self._plan_join_tree(item, single, pctx)
        if not isinstance(item, TableRef):
            raise PlanError(f"unsupported join operand {item!r}")
        binding = item.binding_name
        if binding in pctx.join_leaf_plans:
            operator = pctx.join_leaf_plans[binding]
            return operator, {binding: operator.schema}
        table = self.catalog.table(item.name)
        stats = self.stats.get(table.name, TableStats())
        choice = choose_access_path(
            self.ctx, table,
            binding if binding != table.name else None,
            single.get(binding, []), stats,
        )
        choice.operator.estimated_rows = max(choice.estimated_rows, 0.01)
        return choice.operator, {binding: choice.operator.schema}

    def _equi_positions(
        self, conjunct: Expr, combined: OutputSchema, left_width: int
    ) -> tuple[int, int] | None:
        if not (isinstance(conjunct, BinOp) and conjunct.op == "="):
            return None
        left, right = conjunct.left, conjunct.right
        if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
            return None
        left_pos = combined.try_resolve(left.qualifier, left.name)
        right_pos = combined.try_resolve(right.qualifier, right.name)
        if left_pos is None or right_pos is None:
            return None
        if left_pos < left_width <= right_pos:
            return (left_pos, right_pos)
        if right_pos < left_width <= left_pos:
            return (right_pos, left_pos)
        return None

    # ------------------------------------------------------------------
    # WHERE classification
    # ------------------------------------------------------------------

    def _classify_where(
        self,
        where: Expr | None,
        units: list[_Unit],
        binding_schemas: dict[str, OutputSchema],
        pctx: _PlanContext,
    ) -> tuple[
        dict[str, list[Expr]],
        list[tuple[str, ColumnRef, str, ColumnRef]],
        list[tuple[frozenset[str], Expr]],
        list[Expr],
    ]:
        single: dict[str, list[Expr]] = {}
        edges: list[tuple[str, ColumnRef, str, ColumnRef]] = []
        residuals: list[tuple[frozenset[str], Expr]] = []
        deferred: list[Expr] = []
        unit_of = {
            binding: unit for unit in units for binding in unit.bindings
        }
        for conjunct in split_conjuncts(where):
            refs = referenced_bindings(conjunct, binding_schemas)
            if "?" in refs:
                # A correlated predicate like `inner.col = outer.col`
                # can still drive an index: pin the outer references to
                # the correlation cell and treat the conjunct as a
                # single-table (runtime-parameter) filter — the classic
                # correlated-predicate pushdown every tuple-at-a-time
                # subquery executor performs.
                pinned = self._try_pin_correlated(
                    conjunct, binding_schemas, unit_of, pctx
                )
                if pinned is not None:
                    single.setdefault(pinned, []).append(conjunct)
                else:
                    deferred.append(conjunct)
                continue
            touched_units = {id(unit_of[b]) for b in refs} if refs else set()
            if len(touched_units) <= 1:
                if not refs:
                    deferred.append(conjunct)
                    continue
                binding = next(iter(refs))
                unit = unit_of[binding]
                if len(refs) > 1:
                    # Touches several leaves of one join-tree unit.
                    residuals.append((frozenset(refs), conjunct))
                    continue
                if unit.table is not None:
                    single.setdefault(binding, []).append(conjunct)
                elif unit.leaf_tables.get(binding) is not None:
                    # Base-table leaf of an ANSI join tree: push the
                    # filter into that leaf's scan.
                    single.setdefault(binding, []).append(conjunct)
                else:
                    # Filter over a view/derived unit: classify as
                    # residual so it is applied once the unit enters
                    # the join tree.
                    residuals.append((frozenset(unit.bindings), conjunct))
                continue
            edge = self._as_join_edge(conjunct, binding_schemas, unit_of)
            if edge is not None:
                edges.append(edge)
            else:
                residuals.append((frozenset(refs), conjunct))
        return single, edges, residuals, deferred

    def _try_pin_correlated(
        self,
        conjunct: Expr,
        binding_schemas: dict[str, OutputSchema],
        unit_of: dict[str, _Unit],
        pctx: _PlanContext,
    ) -> str | None:
        """Pin outer references in a correlated conjunct, if possible.

        Succeeds when the conjunct touches exactly one inner base-table
        binding, contains no subqueries, and every other column
        reference resolves in the outer query's schema.  Returns the
        inner binding the conjunct now filters.
        """
        if pctx.outer_schema is None or pctx.cell is None:
            return None
        inner_binding: str | None = None
        outer_refs: list[ColumnRef] = []
        for node in conjunct.walk():
            if isinstance(node, SubqueryExpr):
                return None
            if not isinstance(node, ColumnRef):
                continue
            binding = self._binding_of(node, binding_schemas)
            if binding is not None:
                if inner_binding is not None and binding != inner_binding:
                    return None
                inner_binding = binding
            else:
                resolved = pctx.outer_schema.try_resolve(
                    node.qualifier, node.name
                )
                if resolved is None:
                    return None
                outer_refs.append(node)
        if inner_binding is None or not outer_refs:
            return None
        if unit_of[inner_binding].table is None:
            return None
        empty = OutputSchema([])
        for node in outer_refs:
            node.bind_or_outer(empty, pctx.outer_schema, pctx.cell)
        pctx.correlated = True
        return inner_binding

    def _as_join_edge(
        self,
        conjunct: Expr,
        binding_schemas: dict[str, OutputSchema],
        unit_of: dict[str, _Unit],
    ) -> tuple[str, ColumnRef, str, ColumnRef] | None:
        if not (isinstance(conjunct, BinOp) and conjunct.op == "="):
            return None
        left, right = conjunct.left, conjunct.right
        if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
            return None
        left_binding = self._binding_of(left, binding_schemas)
        right_binding = self._binding_of(right, binding_schemas)
        if left_binding is None or right_binding is None:
            return None
        if unit_of[left_binding] is unit_of[right_binding]:
            return None
        return (left_binding, left, right_binding, right)

    def _binding_of(
        self, ref: ColumnRef, binding_schemas: dict[str, OutputSchema]
    ) -> str | None:
        found = None
        for binding, schema in binding_schemas.items():
            if ref.qualifier is not None and ref.qualifier.lower() != binding:
                continue
            if schema.try_resolve(None, ref.name) is not None:
                if found is not None:
                    return None
                found = binding
        return found

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------

    def _materialize_unit(
        self,
        unit: _Unit,
        single: dict[str, list[Expr]],
        pctx: _PlanContext,
    ) -> None:
        if unit.operator is not None:
            return
        if unit.jointree is not None:
            operator, _schemas = self._plan_join_tree(unit.jointree, single,
                                                      pctx)
            unit.operator = operator
            unit.estimated_rows = max(operator.estimated_rows, 1.0)
            return
        binding = unit.bindings[0]
        conjuncts = single.get(binding, [])
        unit.filters = conjuncts
        stats = self.stats.get(unit.table.name, TableStats())
        choice = choose_access_path(
            self.ctx, unit.table, binding if binding != unit.table.name
            else None, conjuncts, stats
        )
        unit.operator = choice.operator
        unit.estimated_rows = max(choice.estimated_rows, 0.01)

    # ------------------------------------------------------------------
    # join ordering
    # ------------------------------------------------------------------

    def _order_joins(
        self,
        units: list[_Unit],
        edges: list[tuple[str, ColumnRef, str, ColumnRef]],
        residuals: list[tuple[frozenset[str], Expr]],
        pctx: _PlanContext,
    ) -> Operator:
        remaining = list(units)
        remaining.sort(key=lambda u: u.estimated_rows)
        current = remaining.pop(0)
        assert current.operator is not None
        top: Operator = current.operator
        joined_bindings: set[str] = set(current.bindings)
        top_estimate = current.estimated_rows
        pending_residuals = list(residuals)

        def applicable_edges(unit: _Unit) -> list[tuple[ColumnRef, ColumnRef]]:
            """Edges connecting the joined set to ``unit``.

            Returns (outer_ref, inner_ref) pairs.
            """
            out = []
            for left_b, left_ref, right_b, right_ref in edges:
                if left_b in joined_bindings and right_b in unit.bindings:
                    out.append((left_ref, right_ref))
                elif right_b in joined_bindings and left_b in unit.bindings:
                    out.append((right_ref, left_ref))
            return out

        while remaining:
            # Prefer connected units; among them the smallest estimate.
            candidates = [
                unit for unit in remaining if applicable_edges(unit)
            ]
            pool = candidates or remaining
            unit = min(pool, key=lambda u: u.estimated_rows)
            remaining.remove(unit)
            pairs = applicable_edges(unit)
            top, top_estimate = self._join_unit(
                top, top_estimate, unit, pairs, pctx
            )
            joined_bindings.update(unit.bindings)
            # Apply residual predicates that are now fully covered.
            ready = [
                (refs, expr) for refs, expr in pending_residuals
                if refs <= joined_bindings
            ]
            if ready:
                pending_residuals = [
                    entry for entry in pending_residuals if entry not in ready
                ]
                predicate = conjoin([expr for _refs, expr in ready])
                self._bind(predicate, top.schema, pctx)
                top = Filter(self.ctx, top, predicate)
                top.estimated_rows = top_estimate * 0.5
        if pending_residuals:
            predicate = conjoin([e for _r, e in pending_residuals])
            self._bind(predicate, top.schema, pctx)
            top = Filter(self.ctx, top, predicate)
        return top

    def _join_unit(
        self,
        top: Operator,
        top_estimate: float,
        unit: _Unit,
        pairs: list[tuple[ColumnRef, ColumnRef]],
        pctx: _PlanContext,
    ) -> tuple[Operator, float]:
        params = self.ctx.params
        assert unit.operator is not None
        inner_rows = max(unit.estimated_rows, 1.0)
        result_estimate = max(top_estimate, inner_rows)

        if not pairs:
            join: Operator = NestedLoopJoin(
                self.ctx, top, unit.operator, condition=None
            )
            join.estimated_rows = top_estimate * inner_rows
            return join, join.estimated_rows

        # Option A: index nested loop into a base table, composing the
        # probe key from equality filters (const) and join pairs (outer)
        # along an index's key-column prefix.
        inl_cost = float("inf")
        inl_setup = None
        if unit.table is not None:
            stats = self.stats.get(unit.table.name, TableStats())
            eq_by_col = self._eq_filter_map(unit.filters)
            pair_by_col: dict[str, tuple[ColumnRef, ColumnRef]] = {}
            for outer_ref, inner_ref in pairs:
                pair_by_col.setdefault(inner_ref.name.lower(),
                                       (outer_ref, inner_ref))
            for index in unit.table.indexes.values():
                key_plan: list[tuple[str, object]] = []
                used_cols: list[str] = []
                used_conjuncts: list[Expr] = []
                join_cols: list[str] = []
                for column in index.column_names:
                    if column in eq_by_col:
                        conjunct, value_expr = eq_by_col[column]
                        key_plan.append(("const", value_expr))
                        used_conjuncts.append(conjunct)
                        used_cols.append(column)
                    elif column in pair_by_col:
                        key_plan.append(("pair", pair_by_col[column]))
                        join_cols.append(column)
                        used_cols.append(column)
                    else:
                        break
                if not join_cols:
                    continue
                ndv = 1.0
                for column in join_cols:
                    col_stats = stats.columns.get(column)
                    if col_stats is not None and col_stats.n_distinct:
                        ndv = max(ndv, float(col_stats.n_distinct))
                matches = max(unit.table.row_count / ndv, 1.0)
                per_probe = (
                    params.index_traverse_s
                    + matches * (params.random_read_s * 0.3
                                 + params.tuple_cpu_s)
                )
                cost = top_estimate * per_probe
                if cost < inl_cost:
                    inl_cost = cost
                    inl_setup = (index, key_plan, used_conjuncts, join_cols)

        # Option B: hash join (reads the inner input once).
        inner_pages = 1.0
        if unit.table is not None:
            inner_pages = max(unit.table.store.page_count, 1)
        hash_cost = (
            inner_pages * params.seq_read_s
            + inner_rows * params.tuple_cpu_s * 2
            + top_estimate * params.tuple_cpu_s
        )

        if inl_setup is not None and inl_cost < hash_cost:
            index, key_plan, used_conjuncts, join_cols = inl_setup
            used_pairs: list[tuple[ColumnRef, ColumnRef]] = []
            key_sources: list[tuple[str, object]] = []
            for kind, payload in key_plan:
                if kind == "const":
                    key_sources.append(("const", payload))
                    continue
                outer_ref, inner_ref = payload
                key_sources.append(("outer", top.schema.resolve(
                    outer_ref.qualifier, outer_ref.name)))
                used_pairs.append(payload)
            used_ids = {id(c) for c in used_conjuncts}
            inner_filter = conjoin(
                [c for c in unit.filters if id(c) not in used_ids]
            )
            inner_binding = unit.bindings[0]
            inner_schema = unit.leaf_schemas[inner_binding]
            if inner_filter is not None:
                self._bind(inner_filter, inner_schema, pctx)
            residual_pairs = [
                pair for pair in pairs if pair not in used_pairs
            ]
            residual = self._pairs_to_predicate(residual_pairs)
            join = IndexNestedLoopJoin(
                self.ctx,
                top,
                unit.table,
                inner_binding if inner_binding != unit.table.name else None,
                index.name,
                key_sources,
                residual=residual,
                inner_filter=inner_filter,
            )
            if residual is not None:
                self._bind(residual, join.schema, pctx)
            join.estimated_rows = result_estimate
            return join, result_estimate

        left_positions = []
        right_positions = []
        for outer_ref, inner_ref in pairs:
            left_positions.append(
                top.schema.resolve(outer_ref.qualifier, outer_ref.name)
            )
            right_positions.append(
                unit.operator.schema.resolve(inner_ref.qualifier,
                                             inner_ref.name)
            )
        join = HashJoin(
            self.ctx, top, unit.operator, left_positions, right_positions,
            build_left=top_estimate < inner_rows,
        )
        join.estimated_rows = result_estimate
        return join, result_estimate

    def _eq_filter_map(
        self, conjuncts: list[Expr]
    ) -> dict[str, tuple[Expr, Expr]]:
        """column -> (conjunct, value expr) for equality filters."""
        from repro.engine.plan.access import eq_sarg_value

        out: dict[str, tuple[Expr, Expr]] = {}
        for conjunct in conjuncts:
            entry = eq_sarg_value(conjunct)
            if entry is not None and entry[0] not in out:
                out[entry[0]] = (conjunct, entry[1])
        return out

    def _pairs_to_predicate(
        self, pairs: list[tuple[ColumnRef, ColumnRef]]
    ) -> Expr | None:
        conjuncts: list[Expr] = []
        for outer_ref, inner_ref in pairs:
            conjuncts.append(
                BinOp(
                    "=",
                    ColumnRef(outer_ref.qualifier, outer_ref.name),
                    ColumnRef(inner_ref.qualifier, inner_ref.name),
                )
            )
        return conjoin(conjuncts)

    # ------------------------------------------------------------------
    # binding + subqueries
    # ------------------------------------------------------------------

    def _bind(self, expr: Expr, schema: OutputSchema,
              pctx: _PlanContext) -> None:
        correlated = bind_expr(
            expr,
            schema,
            compile_subquery=lambda node, s: self._compile_subquery(
                node, s, pctx
            ),
            outer_schema=pctx.outer_schema,
            cell=pctx.cell,
        )
        if correlated:
            pctx.correlated = True

    def _compile_subquery(
        self, node: SubqueryExpr, schema: OutputSchema, pctx: _PlanContext
    ) -> None:
        cell = CorrelationCell()
        sub = self.plan_select(node.query, outer_schema=schema, cell=cell)
        correlated = sub.correlated
        operator = sub.operator
        metrics = self.ctx.metrics

        if node.mode == "scalar" and not correlated:
            cache: dict[tuple, object] = {}

            def run_cached(outer_row: tuple, params: Sequence[object]):
                key = tuple(params)
                if key not in cache:
                    metrics.count("plan.subquery_executions")
                    rows_iter = operator.rows(params)
                    first = next(rows_iter, None)
                    cache[key] = first[0] if first is not None else None
                return cache[key]

            node.executor = run_cached
            return

        if node.mode == "scalar":
            def run_scalar(outer_row: tuple, params: Sequence[object]):
                cell.row = outer_row
                metrics.count("plan.subquery_executions")
                first = next(operator.rows(params), None)
                return first[0] if first is not None else None

            node.executor = run_scalar
            return

        if node.mode == "exists":
            def run_exists(outer_row: tuple, params: Sequence[object]):
                cell.row = outer_row
                metrics.count("plan.subquery_executions")
                return next(operator.rows(params), None) is not None

            node.executor = run_exists
            return

        # IN subqueries: naive per-outer-row re-execution, the engine's
        # documented 1990s weakness (see module docstring).
        def run_in(outer_row: tuple, params: Sequence[object]):
            cell.row = outer_row
            metrics.count("plan.subquery_executions")
            return [row[0] for row in operator.rows(params)]

        node.executor = run_in

    # ------------------------------------------------------------------
    # projection / aggregation / ordering
    # ------------------------------------------------------------------

    def _finish(self, stmt: SelectStmt, top: Operator,
                pctx: _PlanContext) -> PlannedQuery:
        items = self._expand_stars(stmt, top.schema)

        grouped = bool(stmt.group_by) or any(
            contains_aggregate(item.expr) for item in items
        ) or (stmt.having is not None and contains_aggregate(stmt.having))

        if grouped:
            top, item_exprs, order_exprs, having_expr = self._plan_aggregate(
                stmt, items, top, pctx
            )
            if having_expr is not None:
                top = Filter(self.ctx, top, having_expr)
        else:
            if stmt.having is not None:
                raise PlanError("HAVING without aggregation")
            for item in items:
                self._bind(item.expr, top.schema, pctx)
            item_exprs = [item.expr for item in items]
            order_exprs = []
            for order in stmt.order_by:
                order_exprs.append(
                    self._resolve_order_expr(order, items, top.schema, pctx)
                )

        names = self._output_names(items)

        # Build extended projection: visible items + hidden sort keys.
        item_fps = [e.fingerprint() for e in item_exprs]
        sort_spec: list[tuple[int, bool]] = []
        hidden: list[Expr] = []
        for order, expr in zip(stmt.order_by, order_exprs):
            fp = expr.fingerprint()
            if fp in item_fps:
                sort_spec.append((item_fps.index(fp), order.descending))
            else:
                sort_spec.append((len(item_exprs) + len(hidden),
                                  order.descending))
                hidden.append(expr)

        all_exprs = item_exprs + hidden
        all_names = names + [f"_s{i}" for i in range(len(hidden))]
        top = Project(self.ctx, top, all_exprs, all_names)

        if sort_spec:
            top = Sort(self.ctx, top, sort_spec)
        if hidden:
            strip = [InputRef(i) for i in range(len(names))]
            top = Project(self.ctx, top, strip, names)
        if stmt.distinct:
            top = Distinct(self.ctx, top)
        if stmt.limit is not None:
            top = Limit(self.ctx, top, stmt.limit)
        return PlannedQuery(top, names, correlated=pctx.correlated)

    def _plan_aggregate(
        self,
        stmt: SelectStmt,
        items: list[SelectItem],
        top: Operator,
        pctx: _PlanContext,
    ) -> tuple[Operator, list[Expr], list[Expr], Expr | None]:
        group_exprs = list(stmt.group_by)
        for expr in group_exprs:
            self._bind(expr, top.schema, pctx)
        group_positions = {
            expr.fingerprint(): i for i, expr in enumerate(group_exprs)
        }
        registry = AggRegistry(len(group_exprs))

        item_exprs: list[Expr] = []
        for item in items:
            self._bind(item.expr, top.schema, pctx)
            item_exprs.append(
                rewrite_for_aggregation(
                    item.expr, group_positions, registry, "SELECT"
                )
            )
        having_expr: Expr | None = None
        if stmt.having is not None:
            self._bind(stmt.having, top.schema, pctx)
            having_expr = rewrite_for_aggregation(
                stmt.having, group_positions, registry, "HAVING"
            )
        order_exprs: list[Expr] = []
        for order in stmt.order_by:
            expr = self._maybe_alias_expr(order, items, item_exprs)
            if expr is not None:
                order_exprs.append(expr)
                continue
            self._bind(order.expr, top.schema, pctx)
            order_exprs.append(
                rewrite_for_aggregation(
                    order.expr, group_positions, registry, "ORDER BY"
                )
            )
        aggregate = GroupAggregate(
            self.ctx, top, group_exprs, registry.calls
        )
        return aggregate, item_exprs, order_exprs, having_expr

    def _maybe_alias_expr(
        self,
        order: OrderItem,
        items: list[SelectItem],
        item_exprs: list[Expr],
    ) -> Expr | None:
        """ORDER BY <alias> resolves to the matching select item."""
        if not isinstance(order.expr, ColumnRef) or order.expr.qualifier:
            return None
        name = order.expr.name.lower()
        for item, expr in zip(items, item_exprs):
            if item.alias is not None and item.alias.lower() == name:
                return expr
        return None

    def _resolve_order_expr(
        self,
        order: OrderItem,
        items: list[SelectItem],
        schema: OutputSchema,
        pctx: _PlanContext,
    ) -> Expr:
        alias_expr = self._maybe_alias_expr(
            order, items, [item.expr for item in items]
        )
        if alias_expr is not None:
            return alias_expr
        self._bind(order.expr, schema, pctx)
        return order.expr

    def _expand_stars(
        self, stmt: SelectStmt, schema: OutputSchema
    ) -> list[SelectItem]:
        items: list[SelectItem] = []
        for item in stmt.items:
            if isinstance(item, Star):
                qualifier = item.qualifier.lower() if item.qualifier else None
                matched = False
                for q, name in schema.entries:
                    if qualifier is None or q == qualifier:
                        items.append(SelectItem(ColumnRef(q, name), name))
                        matched = True
                if not matched:
                    raise PlanError(f"no columns match {item.qualifier}.*")
            else:
                items.append(item)
        return items

    def _output_names(self, items: list[SelectItem]) -> list[str]:
        names: list[str] = []
        for i, item in enumerate(items):
            if item.alias:
                names.append(item.alias.lower())
            elif isinstance(item.expr, ColumnRef):
                names.append(item.expr.name.lower())
            elif isinstance(item.expr, AggCall):
                names.append(item.expr.func.lower())
            else:
                names.append(f"col{i}")
        # De-duplicate (schema requires resolvable names only on use).
        seen: dict[str, int] = {}
        unique: list[str] = []
        for name in names:
            if name in seen:
                seen[name] += 1
                unique.append(f"{name}_{seen[name]}")
            else:
                seen[name] = 0
                unique.append(name)
        return unique
