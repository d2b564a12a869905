"""Public engine facade.

A :class:`Database` bundles clock, metrics, disk model, buffer pool,
catalog, statistics and planner behind a DB-API-flavoured interface:

>>> db = Database()
>>> db.create_table(TableSchema("t", [Column("a", SqlType.integer())]))
>>> db.execute("INSERT INTO t VALUES (1)")
>>> db.execute("SELECT a FROM t").rows
[(1,)]

``prepare()`` returns a reusable parameterized statement planned
*once*, with parameter-blind selectivity estimates — the engine-level
hook SAP's cursor caching uses (and the mechanism behind the paper's
Table 6 optimizer trap).  ``execute()`` keeps the plan of a SELECT
text too, but only while what the planner read is unchanged, and
charges it as planned fresh (DESIGN.md §29).
"""

from __future__ import annotations

import copy
import hashlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.engine.catalog import Catalog
from repro.engine.buffer import BufferPool
from repro.engine.errors import ExecutionError, PlanError
from repro.engine.exec.base import ExecContext
from repro.engine.expr import (
    ColumnRef,
    Compiled,
    Expr,
    LikeExpr,
    Literal,
    OutputSchema,
    ParamRef,
    _total,
    plain,
    split_conjuncts,
)
from repro.engine.parallel import ParallelPolicy, PartitionManager
from repro.engine.plan.binder import bind_expr
from repro.engine.plan.planner import PlannedQuery, Planner
from repro.engine.schema import TableSchema
from repro.engine.sql.ast import (
    DeleteStmt,
    InsertStmt,
    SelectStmt,
    UpdateStmt,
)
from repro.engine.sql.parser import parse_select, parse_sql
from repro.engine.stats import TableStats, analyze
from repro.engine.wal import (
    CheckpointImage,
    DurableStore,
    WriteAheadLog,
    schema_from_payload,
    schema_to_payload,
)
from repro.monitor.core import WorkloadMonitor
from repro.sim.clock import SimulatedClock
from repro.sim.disk import DiskModel
from repro.sim.metrics import MetricsCollector
from repro.sim.params import SimParams
from repro.trace.tracer import Tracer


@dataclass
class Result:
    """Query result: column names and materialized rows."""

    columns: list[str]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> object:
        """First column of the first row (None on empty results)."""
        if not self.rows:
            return None
        return self.rows[0][0]


@dataclass
class _CachedPlan:
    """A SELECT text's plan, the names of the tables and views planning
    it resolved, and what the planner read of them then."""

    plan: PlannedQuery
    tables: tuple[str, ...]
    views: tuple[str, ...]
    inputs: tuple


class PreparedStatement:
    """A statement planned once and executable many times.

    Parameter markers are opaque at plan time, so access paths are
    chosen with default selectivities — exactly what a parameterized
    cursor in a 1990s RDBMS did.
    """

    def __init__(self, database: "Database", sql: str) -> None:
        self._database = database
        self.sql = sql
        self._plan: PlannedQuery | None = None
        stmt = parse_sql(sql)
        if isinstance(stmt, SelectStmt):
            self._plan = database._plan(stmt, sql=sql)
            self._stmt = None
        else:
            self._stmt = stmt
        self.executions = 0

    def execute(self, params: Sequence[object] = ()) -> Result:
        self.executions += 1
        if self._plan is not None:
            return self._database._run_plan(self._plan, params, sql=self.sql,
                                            cursor=True)
        assert self._stmt is not None
        return self._database._execute_dml(copy.deepcopy(self._stmt), params,
                                           sql=self.sql)

    def explain(self) -> str:
        if self._plan is None:
            return f"DML({self.sql})"
        return self._plan.operator.explain()


def _like_window(table, index, width: int, where: Expr,
                 params: Sequence[object]) -> str | None:
    """The text every entry WHERE can hold for starts its key column
    ``width`` with — the one after the equality prefix —, or None.

    A conjunct ``col LIKE p`` on that column, a string column, with a
    string ``p`` that starts with a text before its first ``%`` or
    ``_``: an entry whose ``col`` does not start with it makes the
    conjunct FALSE or NULL, and when every other conjunct is total
    (:func:`_total`, with every parameter present and plain) nothing
    else about it can make WHERE TRUE or raise (DESIGN.md §33)."""
    if width >= len(index.column_names) or not plain(params) or any(
            type(node) is ParamRef and node.index >= len(params)
            for node in where.walk()):  # a missing one raises
        return None
    position = index.column_positions[width]
    if table.schema.columns[position].sql_type.exact_type is not str:
        return None
    conjuncts = split_conjuncts(where)
    for like in conjuncts:
        if type(like) is not LikeExpr or like.negated \
                or type(like.operand) is not ColumnRef \
                or like.operand.fingerprint() != ("col", position):
            continue
        pattern = like.pattern
        if type(pattern) is Literal:
            text = pattern.value
        elif type(pattern) is ParamRef:
            text = params[pattern.index]
        else:
            continue
        if not isinstance(text, str):
            continue
        text = text.split("%", 1)[0].split("_", 1)[0]
        if text and all(_total(other) for other in conjuncts
                        if other is not like):
            return text
    return None


class Database:
    """An isolated engine instance with its own simulated clock.

    ``durability`` selects the storage contract: ``"off"`` (default)
    keeps the historical volatile behaviour with zero WAL touchpoints —
    the tick-for-tick identical pre-durability path — while ``"wal"``
    write-ahead-logs every mutation into a :class:`DurableStore` that
    survives a simulated crash.  A crashed store is reopened with
    :meth:`Database.open`, which runs ARIES-style recovery before
    handing the database back.
    """

    def __init__(self, params: SimParams | None = None,
                 name: str = "db", degree: int = 1,
                 durability: str = "off",
                 store: DurableStore | None = None,
                 storage: str = "heap") -> None:
        self.name = name
        self.params = params or SimParams()
        self.clock = SimulatedClock()
        self.metrics = MetricsCollector()
        if storage not in ("heap", "lsm"):
            raise PlanError(f"unknown storage backend {storage!r}")
        self.storage = storage
        self.disk = DiskModel(
            self.clock, self.metrics,
            seq_read_s=self.params.seq_read_s,
            random_read_s=self.params.random_read_s,
            write_s=self.params.write_s,
            retry_penalty_s=self.params.disk_retry_penalty_s,
            max_retries=self.params.disk_max_retries,
            fsync_s=self.params.wal_fsync_s,
            seq_write_s=self.params.seq_write_s,
        )
        capacity = max(
            1, self.params.buffer_pool_bytes // self.params.page_size_bytes
        )
        self.buffer_pool = BufferPool(
            capacity, self.disk, self.clock, self.metrics,
            hit_cpu_s=self.params.buffer_hit_s,
        )
        self.catalog = Catalog(self.buffer_pool, self.clock, self.metrics,
                               self.params, storage=storage, disk=self.disk)
        self.stats: dict[str, TableStats] = {}
        #: hierarchical span tracer (disabled by default, zero-overhead)
        self.tracer = Tracer(self.clock, self.metrics)
        self.ctx = ExecContext(self.clock, self.metrics, self.params,
                               self.buffer_pool, self.tracer)
        self._planner = Planner(self.catalog, self.stats, self.ctx)
        #: plan roots instrumented while tracing; detached by the first
        #: untraced run so tracing costs nothing once it is switched off
        self._profiled_roots: list = []
        #: always-on workload monitor (disabled by default, zero-tick)
        self.monitor = WorkloadMonitor(self.clock, self.metrics,
                                       tracer=self.tracer)
        #: version-checked partition overlays for parallel scans
        self.partitions = PartitionManager(self.ctx)
        self._partition_choices: dict[str, tuple[str, str]] = {}
        #: view name -> CREATE VIEW select text (for checkpoint images)
        self._view_sql: dict[str, str] = {}
        #: SELECT text -> its plan, which ``execute`` reuses while what
        #: the planner read is unchanged: one entry a distinct text
        self._plan_cache: dict[str, _CachedPlan] = {}
        #: executions that reused a cached plan (not a metrics counter:
        #: a hit charges and counts what planning afresh does)
        self.plan_cache_hits = 0
        if durability not in ("off", "wal"):
            raise PlanError(f"unknown durability mode {durability!r}")
        #: the write-ahead log, or None with durability off
        self.wal: WriteAheadLog | None = None
        if durability == "wal":
            wal_store = store if store is not None else DurableStore(
                self.params)
            #: remembered so Database.open reopens with the same backend
            wal_store.storage = storage
            self.wal = WriteAheadLog(wal_store, self.clock, self.metrics,
                                     self.disk, self.params, self.tracer)
            self.wal.snapshot_provider = self._snapshot_for_checkpoint
        if storage == "lsm":
            # Monitor gauge: pending L0 segments across all tables.
            # Only attached for LSM databases, so heap-only runs stay
            # structurally silent (no gauge, no alert-rule streaks).
            self.monitor.attach_source(
                "compaction_backlog", self._compaction_backlog
            )
        self.degree = 1
        if degree != 1:  # set_degree rejects anything below 1
            self.set_degree(degree)

    # -- parallelism --------------------------------------------------------

    def set_degree(self, degree: int) -> None:
        """Set the requested degree of parallelism for SELECT plans.

        ``degree=1`` uninstalls the parallel policy entirely, so the
        serial executor runs unchanged — the zero-regression path.
        Already-prepared statements keep the plan they were compiled
        with (cursor caching semantics).
        """
        degree = int(degree)
        if degree < 1:
            raise PlanError(f"degree must be >= 1, got {degree}")
        self.degree = degree
        if degree == 1:
            self._planner.parallel = None
        else:
            self._planner.parallel = ParallelPolicy(
                self.ctx, self.stats, self.partitions, degree,
                partition_choices=self._partition_choices,
            )

    def set_partition_column(self, table_name: str, column: str,
                             kind: str = "hash") -> None:
        """Override the partition key for a table (e.g. to force skew)."""
        table = self.catalog.table(table_name)
        column = column.lower()
        table.schema.column_index(column)  # raises on unknown column
        if kind not in ("hash", "range"):
            raise PlanError(f"unknown partition kind {kind!r}")
        self._partition_choices[table.name] = (column, kind)
        self.partitions.invalidate(table.name)

    def prepartition(self, *table_names: str) -> dict[str, int]:
        """Eagerly build partition overlays (all tables by default).

        Returns table -> degree actually used (tables too small to
        parallelize are skipped).  Without this the first parallel
        query pays the partition-build cost inline.
        """
        policy = self._planner.parallel
        if policy is None:
            return {}
        built: dict[str, int] = {}
        for name in table_names or self.catalog.table_names:
            table = self.catalog.table(name)
            degree = policy.degree_for(table)
            if not degree:
                continue
            spec = policy.spec_for(table, degree)
            if spec is None:
                continue
            self.partitions.get(table, spec)
            built[table.name] = degree
        return built

    # -- DDL ----------------------------------------------------------------

    def create_table(self, schema: TableSchema):
        table = self.catalog.create_table(schema)
        table.wal = self.wal
        if self.wal is not None:
            # A backend's own durable boundaries (LSM flush/compaction)
            # are checkpoint-like: expose them as crash-fuzz kill points.
            table.store.boundary = self.wal._boundary
            self.wal.log_ddl(("create_table", schema_to_payload(schema)))
        return table

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)
        self.stats.pop(name.lower(), None)
        if self.wal is not None:
            self.wal.log_ddl(("drop_table", name.lower()))

    def create_index(self, index_name: str, table_name: str,
                     column_names: list[str], unique: bool = False):
        index = self.catalog.create_index(index_name, table_name,
                                          column_names, unique=unique)
        if self.wal is not None:
            self.wal.log_ddl(("create_index", {
                "name": index.name, "table": table_name.lower(),
                "columns": list(index.column_names), "unique": unique,
                "kind": "btree",
            }))
        return index

    def drop_index(self, index_name: str) -> None:
        self.catalog.drop_index(index_name)
        if self.wal is not None:
            self.wal.log_ddl(("drop_index", index_name.lower()))

    def create_view(self, name: str, select_sql: str) -> None:
        self.catalog.create_view(name, parse_select(select_sql))
        self._view_sql[name.lower()] = select_sql
        if self.wal is not None:
            self.wal.log_ddl(("create_view", name.lower(), select_sql))

    def drop_view(self, name: str) -> None:
        self.catalog.drop_view(name)
        self._view_sql.pop(name.lower(), None)
        if self.wal is not None:
            self.wal.log_ddl(("drop_view", name.lower()))

    # -- statistics -----------------------------------------------------------

    def analyze(self, table_name: str | None = None) -> None:
        """Collect optimizer statistics (full pass, charges a scan).

        The deferred entries of a bulk load are merged into each index
        here, so that a query's first index read does not pay for it."""
        names = (
            [table_name.lower()] if table_name else self.catalog.table_names
        )
        for name in names:
            table = self.catalog.table(name)
            # ANALYZE reads the whole table once.
            for rowids, _rows in table.store.scan():
                self.metrics.counts[table.scanned_counter] += len(rowids)
            for index in table.indexes.values():
                index.merge()
            self.stats[name] = analyze(table)

    # -- query execution ---------------------------------------------------

    def execute(self, sql: str, params: Sequence[object] = ()) -> Result:
        """Run one statement with literals visible to the optimizer.

        A SELECT text is parsed and planned once: executed again while
        every table, index, statistic, view text, cost constant and
        parallel setting the planner read is unchanged, it reuses its
        plan, else it is planned anew.  Either way it counts in
        ``db.plans`` and is charged ``plan_cpu_s``, as if planned fresh
        (DESIGN.md §29).  DML is parsed at every execution.
        """
        cached = self._plan_cache.get(sql)
        if cached is not None and cached.inputs == self._plan_inputs(
                cached.tables, cached.views):
            self.plan_cache_hits += 1
            with self._planning(sql):
                plan = cached.plan
        else:
            stmt = parse_sql(sql)
            if not isinstance(stmt, SelectStmt):
                return self._execute_dml(stmt, params, sql=sql)
            plan = self._plan(stmt, sql=sql)
            tables = tuple(self._planner.tables_read)
            views = tuple(self._planner.views_read)
            self._plan_cache[sql] = _CachedPlan(
                plan, tables, views, self._plan_inputs(tables, views))
        return self._run_plan(plan, params, sql=sql)

    def prepare(self, sql: str) -> PreparedStatement:
        return PreparedStatement(self, sql)

    def explain(self, sql: str) -> str:
        stmt = parse_sql(sql)
        if not isinstance(stmt, SelectStmt):
            return f"DML({sql.strip().split()[0].upper()})"
        return self._plan(stmt).operator.explain()

    def _plan(self, stmt: SelectStmt, sql: str | None = None) -> PlannedQuery:
        with self._planning(sql):
            return self._planner.plan_select(stmt)

    @contextmanager
    def _planning(self, sql: str | None):
        """What planning a statement costs, in a ``db.plan`` span while
        traced, in the engine layer while only monitored (DESIGN.md §34)."""
        self.metrics.count("db.plans")
        tracer = self.tracer
        if tracer.enabled:
            scope = tracer.span("db.plan", layer="engine", sql=sql)
        elif tracer.monitored:
            scope = tracer.layer("engine")
        else:
            scope = nullcontext()
        with scope:
            self.clock.charge(self.params.plan_cpu_s)
            yield

    def _plan_inputs(self, tables: tuple[str, ...],
                     views: tuple[str, ...]) -> tuple:
        """What the planner reads to plan a statement that resolves
        ``tables`` and ``views``: each table, its row and page counts,
        its indexes with their leaf pages and its statistics; each
        view's text; the cost constants and the parallel setting.  A
        table or view gone reads as ``None``."""
        catalog, stats = self.catalog, self.stats
        inputs: list = [tuple(vars(self.params).values()),
                        self._planner.parallel,
                        tuple(self._partition_choices.items())]
        for name in tables:
            if not catalog.has_table(name):
                inputs.append(None)
                continue
            table = catalog.table(name)
            inputs.append((
                table, table.row_count, table.store.page_count,
                tuple((index, index.leaf_page_count)
                      for index in table.indexes.values()),
                stats.get(name)))
        inputs.extend(self._view_sql.get(name) for name in views)
        return tuple(inputs)

    def _run_plan(self, plan: PlannedQuery, params: Sequence[object],
                  sql: str | None = None, cursor: bool = False) -> Result:
        """Execute ``plan``.  What it keeps for one execution (a scalar
        subquery's value, the operator profile) is the execution's own;
        a prepared statement's (``cursor``) profile accumulates."""
        self.metrics.count("db.queries")
        self.ctx.execution += 1
        tracer = self.tracer
        if not tracer.enabled:
            if self._profiled_roots:
                from repro.engine.exec.profile import detach_profile

                for root in self._profiled_roots:
                    detach_profile(root)
                self._profiled_roots.clear()
            if not tracer.monitored:
                return Result(plan.column_names,
                              plan.operator.materialize(params))
            with tracer.layer("engine"):
                rows = plan.operator.materialize(params)
            return Result(plan.column_names, rows)
        # EXPLAIN ANALYZE mode: instrument the plan, afresh unless it
        # is a cursor's, whose profile accumulates across executions.
        from repro.engine.exec.profile import attach_profile, detach_profile

        if getattr(plan.operator, "_profile", None) is None:
            self._profiled_roots.append(plan.operator)
        elif not cursor:
            detach_profile(plan.operator)
        profile = attach_profile(plan.operator, self.clock, self.metrics)
        with tracer.span("db.query", layer="engine", sql=sql) as span:
            rows = list(plan.operator.rows(params))
            span.set(rows=len(rows), profile=profile)
        return Result(plan.column_names, rows)

    # -- DML -------------------------------------------------------------------

    def _execute_dml(self, stmt, params: Sequence[object],
                     sql: str | None = None) -> Result:
        """Run a DML statement, in a ``db.dml`` span while traced, in the
        engine layer while only monitored (DESIGN.md §34)."""
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("db.dml", layer="engine", sql=sql,
                             kind=type(stmt).__name__) as span:
                result = self._statement_txn(stmt, params)
                span.set(rows=result.scalar())
                return result
        if tracer.monitored:
            with tracer.layer("engine"):
                return self._statement_txn(stmt, params)
        return self._statement_txn(stmt, params)

    def _statement_txn(self, stmt, params: Sequence[object]) -> Result:
        wal = self.wal
        if wal is not None and not wal.in_txn and not wal.dead \
                and not wal.recovering:
            # Statement-level transaction: a multi-row UPDATE or
            # DELETE group-commits once instead of forcing the log
            # per mutated row.  Committed even if the statement
            # errors mid-way — the log must mirror whatever partial
            # effects stayed in memory (there is no statement undo).
            wal.begin()
            try:
                return self._dispatch_dml(stmt, params)
            finally:
                wal.commit()
        return self._dispatch_dml(stmt, params)

    def _dispatch_dml(self, stmt, params: Sequence[object]) -> Result:
        if isinstance(stmt, InsertStmt):
            return self._run_insert(stmt, params)
        if isinstance(stmt, DeleteStmt):
            return self._run_delete(stmt, params)
        if isinstance(stmt, UpdateStmt):
            return self._run_update(stmt, params)
        raise PlanError(f"unsupported statement {type(stmt).__name__}")

    def _run_insert(self, stmt: InsertStmt, params: Sequence[object]) -> Result:
        table = self.catalog.table(stmt.table)
        schema = table.schema
        count = 0
        for value_row in stmt.rows:
            values = [expr.eval((), params) for expr in value_row]
            if stmt.columns is None:
                if len(values) != len(schema.columns):
                    raise PlanError(
                        f"INSERT width mismatch for {stmt.table}"
                    )
                row = tuple(values)
            else:
                if len(values) != len(stmt.columns):
                    raise PlanError("INSERT column/value count mismatch")
                by_name = {
                    c.lower(): v for c, v in zip(stmt.columns, values)
                }
                row = tuple(
                    by_name.get(col.name.lower()) for col in schema.columns
                )
            table.insert(row)
            count += 1
        return Result(["inserted"], [(count,)])

    def _matching_rowids(self, table, where: Expr | None,
                         params: Sequence[object]) -> list[int]:
        """Rowids matching WHERE, using an index for simple eq predicates."""
        if where is None:
            return [rowid for rowid, _row in table.store.rows()]
        schema = OutputSchema(
            [(table.name, c.name) for c in table.schema.columns]
        )
        bind_expr(where, schema)
        # Index-assisted path: cover a prefix of some index with the
        # equality conjuncts, then re-check the full predicate.
        from repro.engine.plan.access import eq_sarg_value

        eq_values: dict[str, object] = {}
        for conjunct in split_conjuncts(where):
            entry = eq_sarg_value(conjunct)
            if entry is not None and entry[0] not in eq_values:
                eq_values[entry[0]] = entry[1]
        best_index = None
        best_prefix = 0
        for index in table.indexes.values():
            prefix = 0
            for column in index.column_names:
                if column in eq_values:
                    prefix += 1
                else:
                    break
            if prefix > best_prefix:
                best_prefix = prefix
                best_index = index
        # Compiled per statement: prepared DML deep-copies its AST for
        # every execution, so there is no plan to keep the function on.
        holds = where.compile()
        if best_index is not None:
            key = tuple(
                eq_values[column].eval((), params)
                for column in best_index.column_names[:best_prefix]
            )
            matches = self._fetch_run(table, best_index, key, where, holds,
                                      params)
            if matches is not None:
                return matches
            matches = []
            for _key, rowid in best_index.search_prefix(key):
                row = table.fetch_row(rowid)
                if holds(row, params) is True:
                    matches.append(rowid)
            return matches
        matches = []
        counts, counter = self.metrics.counts, table.scanned_counter
        for rowids, rows in table.store.scan():
            for rowid, row in zip(rowids, rows):
                # per row, not per page: a predicate that raises at a
                # row has counted every row up to it
                counts[counter] += 1
                counts["exec.tuples"] += 1
                if holds(row, params) is True:
                    matches.append(rowid)
        return matches

    def _fetch_run(self, table, index, key: tuple, where: Expr,
                   holds: Compiled, params: Sequence[object]) \
            -> list[int] | None:
        """What the row path — ``fetch_row`` and ``holds`` (``where``
        compiled) per entry of ``index.search_prefix(key)`` — matches
        and charges, by the run, or ``None`` where only the row path can
        tell (DESIGN.md §24).

        A pure phase finds the entries with two bisects, reads their
        rows through the probe surface and filters them with one call;
        it touches no clock, counter or buffer page, so the row path can
        still be taken: for a store whose read is not one buffer access,
        an armed deadline (it fires between two charges), a dead rowid
        (its read raises once charged) or a predicate that raises (at
        the row the row path reaches it).  The charge phase then pays
        the row path's accesses in its order: a leaf page when it
        changes, a heap page per entry — as a certain hit on the page
        just touched, when it is that page (:meth:`BufferPool.hit_again`).
        Where WHERE holds only for entries whose next key column starts
        with a known text (:func:`_like_window`), the filter sees those
        alone; the dead-rowid check and the charges cover the whole run
        (DESIGN.md §33).
        """
        store = table.store
        heap_file = store.read_file
        if heap_file is None or self.clock.deadline_armed:
            return None
        lo, rowids = index.prefix_run(key)
        rows = store.get_many(rowids)
        if None in rows:
            return None
        candidates, window = rowids, rows
        text = _like_window(table, index, len(key), where, params)
        if text is not None:
            start, stop = index.starting_with(lo, lo + len(rowids), len(key),
                                              text)
            candidates = rowids[start - lo:stop - lo]
            window = rows[start - lo:stop - lo]
        try:
            kept = where.compile_filter(holds)(window, params)
        except Exception:
            return None
        matches = []
        if kept:
            wanted = iter(kept)
            want = next(wanted)
            for rowid, row in zip(candidates, window):
                if row is want:
                    matches.append(rowid)
                    want = next(wanted, None)
        index.charge_prefix_scan()
        counts, fetched = self.metrics.counts, table.fetched_counter
        access, hit_again = self.buffer_pool.access, self.buffer_pool.hit_again
        leaf_file, per_leaf = index._file_name, index.entries_per_page
        per_page = store.rows_per_page
        leaf = page = -1
        again = 0
        for position, rowid in enumerate(rowids, lo):
            if position // per_leaf == leaf and rowid // per_page == page:
                again += 1
                continue
            if again:
                counts[fetched] += again
                hit_again(again)
                again = 0
            if position // per_leaf != leaf:
                leaf = position // per_leaf
                access(leaf_file, leaf, sequential=True)
            page = rowid // per_page
            counts[fetched] += 1
            access(heap_file, page, sequential=False)
        if again:
            counts[fetched] += again
            hit_again(again)
        return matches

    def _run_delete(self, stmt: DeleteStmt, params: Sequence[object]) -> Result:
        table = self.catalog.table(stmt.table)
        rowids = self._matching_rowids(table, stmt.where, params)
        for rowid in rowids:
            table.delete(rowid)
        return Result(["deleted"], [(len(rowids),)])

    def _run_update(self, stmt: UpdateStmt, params: Sequence[object]) -> Result:
        table = self.catalog.table(stmt.table)
        schema = OutputSchema(
            [(table.name, c.name) for c in table.schema.columns]
        )
        rowids = self._matching_rowids(table, stmt.where, params)
        assignments = []
        for assignment in stmt.assignments:
            pos = table.schema.column_index(assignment.column)
            bind_expr(assignment.value, schema)
            assignments.append((pos, assignment.value.compile()))
        for rowid in rowids:
            old = table.store.fetch(rowid)
            row = list(old)
            for pos, value in assignments:
                row[pos] = value(old, params)
            table.update(rowid, tuple(row))
        return Result(["updated"], [(len(rowids),)])

    # -- bulk loading ------------------------------------------------------------

    def bulk_load(self, table_name: str, rows: Iterable[tuple]) -> int:
        """Bulk-load rows (page-at-a-time writes, the fast path SAP's
        batch input never uses)."""
        table = self.catalog.table(table_name)
        wal = self.wal
        own_txn = wal is not None and not wal.in_txn and not wal.dead \
            and not wal.recovering
        if own_txn:
            assert wal is not None
            wal.begin()
        try:
            count = len(table.insert_rows(rows, bulk=True))
        finally:
            if own_txn:
                assert wal is not None
                wal.commit()
        self.metrics.count(f"db.bulk_loaded.{table.name}", count)
        return count

    def direct_path_load(self, table_name: str,
                         rows: Iterable[tuple]) -> int:
        """Direct-path load: pre-sorted ingest below the buffer pool.

        The fast path SAP's batch input forgoes: rows are validated,
        appended in storage order with *sequential* page writes that
        bypass the buffer pool, index maintenance is deferred to one
        bulk build at the end, and the WAL is bypassed entirely — a
        sealing checkpoint afterwards makes the loaded extent durable
        in one fuzzy-checkpoint image instead of millions of log
        records.  Crash *before* the seal: nothing of the load is
        durable, and the caller's journal (still showing the phase
        unfinished) re-runs it idempotently.
        """
        table = self.catalog.table(table_name)
        validated = [table.schema.validate_row(row) for row in rows]
        table.check_keys(validated)
        wal = self.wal
        bypassed = False
        if wal is not None and not wal.dead and not wal.recovering:
            wal.bypass = True
            bypassed = True
        try:
            rowids = table.store.ingest_sorted(validated)
            if validated:
                self.metrics.count(table.inserts_counter, len(validated))
            # deferred index build: one bulk pass per index
            for index in table.indexes.values():
                for row, rowid in zip(validated, rowids):
                    index.insert(row, rowid, bulk=True)
        finally:
            if bypassed:
                wal.bypass = False
        if bypassed:
            # the sealing checkpoint: first durable point of the load
            wal.checkpoint()
        self.metrics.count(f"db.direct_loaded.{table.name}",
                           len(validated))
        return len(validated)

    # -- storage accounting (the paper's Table 2) ---------------------------------

    def storage_report(self) -> dict[str, dict[str, int]]:
        """Per-table data and index bytes."""
        report: dict[str, dict[str, int]] = {}
        for name in self.catalog.table_names:
            table = self.catalog.table(name)
            report[name] = {
                "rows": table.row_count,
                "data_bytes": table.data_bytes,
                "index_bytes": table.index_bytes,
            }
        return report

    # -- durability ---------------------------------------------------------------

    def begin(self) -> None:
        """Open an explicit transaction (no-op with durability off)."""
        if self.wal is not None:
            self.wal.begin()

    def commit(self, journal: bytes | None = None) -> None:
        """Group-commit the open transaction (no-op with durability off).

        ``journal`` is an opaque application payload made durable
        atomically with the commit record (batch input's restart
        journal rides here).
        """
        if self.wal is not None:
            self.wal.commit(journal)

    def checkpoint(self) -> None:
        """Write a fuzzy checkpoint (no-op with durability off)."""
        if self.wal is not None:
            self.wal.checkpoint()

    def crash(self) -> DurableStore:
        """Kill this engine instance, keeping only durable state.

        Returns the frozen :class:`DurableStore`; the caller discards
        this instance and reopens the store via :meth:`Database.open`.
        """
        if self.wal is None:
            raise ExecutionError("crash() requires durability='wal'")
        self.wal.die()
        return self.wal.store

    @classmethod
    def open(cls, store: DurableStore, params: SimParams | None = None,
             name: str = "db", degree: int = 1,
             storage: str | None = None):
        """Reopen a durable store, running crash recovery first.

        Returns ``(database, recovery_report)``.  This is the only
        supported way to attach an engine to a store that already
        carries log frames or a checkpoint image.  The storage backend
        defaults to whatever the store was written with.
        """
        from repro.engine.recovery import RecoveryManager

        store.thaw()
        if storage is None:
            storage = getattr(store, "storage", "heap")
        db = cls(params=params or store.params, name=name, degree=degree,
                 durability="wal", store=store, storage=storage)
        report = RecoveryManager(db).run()
        return db, report

    def content_digest(self) -> str:
        """SHA-256 over the logical database content.

        Covers every table's schema, sorted live rows, and index names,
        plus the view names — the comparator the crash-point fuzzer
        uses for "recovered ≡ reference".  Deliberately *logical*:
        tombstone layout may differ between a reference run and a
        crashed-undone-redone run without any observable difference.
        Charges nothing to the clock (a harness probe, not a query).
        """
        digest = hashlib.sha256()
        for table_name in self.catalog.table_names:
            table = self.catalog.table(table_name)
            digest.update(b"T")
            digest.update(table_name.encode())
            digest.update(repr(schema_to_payload(table.schema)).encode())
            for row_repr in sorted(
                repr(row) for _rowid, row in table.store.rows()
            ):
                digest.update(row_repr.encode())
            digest.update(repr(sorted(table.indexes)).encode())
        for view_name in self.catalog.view_names:
            digest.update(b"V")
            digest.update(view_name.encode())
        return digest.hexdigest()

    # -- recovery plumbing (driven by repro.engine.recovery) -----------------------

    def _snapshot_for_checkpoint(self):
        """(catalog payload, slot arrays) for a checkpoint image.

        Slot copies are free on the simulated clock; the checkpoint's
        I/O is charged separately from the dirty-page table, mirroring
        an incremental fuzzy checkpoint that only writes what changed.
        """
        indexes = []
        for table_name in self.catalog.table_names:
            table = self.catalog.table(table_name)
            for index in table.indexes.values():
                if index is table.primary_index:
                    continue
                indexes.append({
                    "name": index.name, "table": table.name,
                    "columns": list(index.column_names),
                    "unique": index.unique,
                    "kind": "btree",
                })
        catalog_payload = {
            "tables": [
                schema_to_payload(self.catalog.table(n).schema)
                for n in self.catalog.table_names
            ],
            "indexes": indexes,
            "views": dict(self._view_sql),
        }
        slots = {
            n: self.catalog.table(n).store.snapshot_slots()
            for n in self.catalog.table_names
        }
        return catalog_payload, slots

    def _restore_from_image(self, image: CheckpointImage) -> None:
        """Rebuild catalog + heaps from a checkpoint image (recovery).

        Charges one sequential read per restored heap page.  The WAL's
        ``recovering`` flag must be set by the caller so none of this
        re-logs.
        """
        for table_payload in image.catalog["tables"]:
            schema = schema_from_payload(table_payload)
            table = self.catalog.create_table(schema, attach_pk=False)
            table.wal = self.wal
            if self.wal is not None:
                table.store.boundary = self.wal._boundary
            table.store.load_slots(image.tables.get(table.name, []))
            for _ in range(table.store.page_count):
                self.disk.read_page(sequential=True)
            if schema.primary_key:
                self.catalog.attach_primary(table)
        for index_spec in image.catalog["indexes"]:
            self.catalog.create_index(
                index_spec["name"], index_spec["table"],
                list(index_spec["columns"]), unique=index_spec["unique"],
            )
        for view_name, view_sql in sorted(image.catalog["views"].items()):
            self.create_view(view_name, view_sql)

    def _apply_ddl(self, op: tuple) -> None:
        """Redo one logged DDL operation."""
        verb = op[0]
        if verb == "create_table":
            self.create_table(schema_from_payload(op[1]))
        elif verb == "drop_table":
            self.drop_table(op[1])
        elif verb == "create_index":
            spec = op[1]
            self.catalog.create_index(
                spec["name"], spec["table"], list(spec["columns"]),
                unique=spec["unique"],
            )
        elif verb == "drop_index":
            self.drop_index(op[1])
        elif verb == "create_view":
            self.create_view(op[1], op[2])
        elif verb == "drop_view":
            self.drop_view(op[1])
        else:
            raise ExecutionError(f"unknown DDL verb in WAL: {verb!r}")

    def _undo_ddl(self, op: tuple) -> None:
        """Reverse a loser transaction's DDL.

        Creations reverse cleanly (drop the object).  Drops cannot be
        reversed — the dropped data is gone — which is why the engine
        only ever logs drops in autocommit transactions (they commit
        before anything else can fail around them).
        """
        verb = op[0]
        if verb == "create_table":
            self.drop_table(op[1]["name"])
        elif verb == "create_index":
            self.drop_index(op[1]["name"])
        elif verb == "create_view":
            self.drop_view(op[1])
        else:
            raise ExecutionError(
                f"cannot undo DDL {verb!r} of a loser transaction"
            )

    # -- misc ----------------------------------------------------------------------

    def _compaction_backlog(self) -> int:
        """Pending L0 segments across all tables (monitor gauge)."""
        return sum(self.catalog.table(name).store.compaction_backlog
                   for name in self.catalog.table_names)

    @property
    def now(self) -> float:
        """Simulated seconds elapsed on this database's clock."""
        return self.clock.now
