"""Degree-of-parallelism selection and serial-to-parallel plan rewrite.

The planner produces its serial physical plan first; when a
:class:`ParallelPolicy` is active (``Database(degree=N)`` with N > 1)
the finished top-level plan is handed to :meth:`ParallelPolicy.
parallelize`, which pattern-matches parallelizable shapes and splices
in fragments:

* ``GroupAggregate`` over a partitionable scan chain becomes two-phase
  aggregation: per-lane :class:`PartialAggregate` trees under a
  :class:`Gather`, merged by a :class:`FinalAggregate` (DISTINCT
  aggregates stay serial — their states do not merge);
* ``HashJoin`` whose *probe* side is a partitionable scan chain becomes
  a :class:`ParallelHashJoin`; the build side stays serial at the
  coordinator, and ``engine.stats`` cardinalities choose **broadcast**
  (small build: every lane gets the whole table) vs. **repartition**
  (large build: both sides shuffled by join-key hash);
* any remaining partitionable scan chain becomes a plain
  :class:`Gather` over per-lane :class:`PartitionScan` trees.

The degree for each fragment comes from table statistics: the
requested degree, capped by ``parallel_max_degree`` and by the number
of lanes the table can feed with ``parallel_min_rows_per_lane`` rows
each.  Tables too small to feed two lanes stay serial.  The partition
key defaults to the first primary-key column with enough distinct
values to spread rows (skipping degenerate leading columns like SAP's
single-valued MANDT); ``Database.set_partition_column`` overrides the
choice, which is also how the deliberately-skewed experiments pick a
low-cardinality key.

Only top-level plans are rewritten — views and subqueries plan through
the same code path recursively, and nesting fragments inside lanes is
never profitable in this cost model (and is guarded against at
runtime).  At ``degree=1`` no policy is installed at all, so the
serial executor runs byte-for-byte unchanged — the zero-regression
invariant.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.exec.base import ExecContext, Operator
from repro.engine.exec.aggregate import GroupAggregate
from repro.engine.exec.joins import (
    HashJoin,
    IndexNestedLoopJoin,
    NestedLoopJoin,
)
from repro.engine.exec.misc import Alias, Distinct, Filter, Limit, Project
from repro.engine.exec.parallel import (
    FinalAggregate,
    Gather,
    ParallelHashJoin,
    PartialAggregate,
    PartitionScan,
)
from repro.engine.exec.scans import SeqScan
from repro.engine.exec.sort import Sort
from repro.engine.parallel.partition import PartitionManager, PartitionSpec
from repro.engine.stats import TableStats
from repro.engine.table import Table

#: a lane source: builds one lane's operator tree, plus the fragment degree
LaneBuilder = Callable[[int], Operator]


class ParallelPolicy:
    """Chooses degrees and rewrites serial plans into parallel ones."""

    def __init__(
        self,
        ctx: ExecContext,
        stats_store: dict[str, TableStats],
        manager: PartitionManager,
        requested_degree: int,
        partition_choices: dict[str, str] | None = None,
    ) -> None:
        self.ctx = ctx
        self.stats = stats_store
        self.manager = manager
        self.requested = max(1, int(requested_degree))
        #: table -> column overrides from set_partition_column
        self.partition_choices = partition_choices \
            if partition_choices is not None else {}

    # -- degree & key selection ------------------------------------------

    def degree_for(self, table: Table) -> int:
        """Lanes this table can feed (0 when not worth parallelizing)."""
        stats = self.stats.get(table.name)
        rows = stats.row_count if stats is not None and stats.analyzed \
            else table.row_count
        params = self.ctx.params
        degree = min(
            self.requested,
            params.parallel_max_degree,
            rows // max(1, params.parallel_min_rows_per_lane),
        )
        return degree if degree >= 2 else 0

    def partition_choice(self, table: Table, degree: int) -> str | None:
        """The column to partition ``table`` by, or None."""
        override = self.partition_choices.get(table.name)
        if override is not None:
            return override
        candidates = [c.lower() for c in table.schema.primary_key]
        if not candidates:
            if not table.schema.columns:
                return None
            candidates = [table.schema.columns[0].name.lower()]
        stats = self.stats.get(table.name)
        if stats is not None and stats.analyzed:
            # Skip degenerate leading key columns (e.g. MANDT, a single
            # client value in every row): they would hash every row
            # into one partition.
            for column in candidates:
                col_stats = stats.columns.get(column)
                if col_stats is not None \
                        and col_stats.n_distinct >= degree * 4:
                    return column
        return candidates[0]

    def spec_for(self, table: Table, degree: int) -> PartitionSpec | None:
        column = self.partition_choice(table, degree)
        if column is None:
            return None
        return PartitionSpec(column=column, degree=degree,
                             seed=self.ctx.params.parallel_hash_seed)

    # -- scan-chain matching ---------------------------------------------

    def _lane_sources(
        self, op: Operator
    ) -> tuple[LaneBuilder, int] | None:
        """Match a Filter*/SeqScan chain; return a per-lane tree builder.

        Each lane gets a *distinct* operator tree (profiling attaches
        per lane); the bound predicate expressions are shared — they
        are evaluated read-only.
        """
        filters: list = []
        node = op
        while isinstance(node, Filter):
            filters.append(node.predicate)
            node = node.child
        if not isinstance(node, SeqScan):
            return None
        table = node.table
        degree = self.degree_for(table)
        if not degree:
            return None
        spec = self.spec_for(table, degree)
        if spec is None:
            return None
        scan = node
        per_lane_rows = max(scan.estimated_rows / degree, 0.01)

        def build(lane: int) -> Operator:
            out: Operator = PartitionScan(
                self.ctx, self.manager, table, spec, lane,
                alias=scan.alias, predicate=scan.predicate,
            )
            out.estimated_rows = per_lane_rows
            for predicate in reversed(filters):
                out = Filter(self.ctx, out, predicate)
                out.estimated_rows = per_lane_rows
            return out

        return build, degree

    # -- plan rewrite -----------------------------------------------------

    def parallelize(self, op: Operator) -> Operator:
        """Rewrite a finished serial plan; returns the (new) root."""
        return self._rewrite(op)

    def _rewrite(self, op: Operator) -> Operator:
        if isinstance(op, GroupAggregate):
            return self._rewrite_aggregate(op)
        if isinstance(op, HashJoin):
            return self._rewrite_hash_join(op)
        if isinstance(op, (SeqScan, Filter)):
            source = self._lane_sources(op)
            if source is not None:
                build, degree = source
                gather = Gather(self.ctx,
                                [build(lane) for lane in range(degree)])
                gather.estimated_rows = op.estimated_rows
                return gather
            if isinstance(op, Filter):
                op.child = self._rewrite(op.child)
            return op
        if isinstance(op, (Project, Distinct, Limit, Alias, Sort)):
            op.child = self._rewrite(op.child)
            return op
        if isinstance(op, NestedLoopJoin):
            op.left = self._rewrite(op.left)
            op.right = self._rewrite(op.right)
            return op
        if isinstance(op, IndexNestedLoopJoin):
            op.left = self._rewrite(op.left)
            return op
        return op

    def _rewrite_aggregate(self, op: GroupAggregate) -> Operator:
        if not any(call.distinct for call in op.agg_calls):
            source = self._lane_sources(op.child)
            if source is not None:
                build, degree = source
                partials = []
                for lane in range(degree):
                    partial = PartialAggregate(
                        self.ctx, build(lane), op.group_exprs, op.agg_calls
                    )
                    partial.estimated_rows = max(
                        op.estimated_rows / degree, 1.0)
                    partials.append(partial)
                gather = Gather(self.ctx, partials)
                gather.estimated_rows = max(op.estimated_rows, 1.0) * degree
                final = FinalAggregate(self.ctx, gather,
                                       len(op.group_exprs), op.agg_calls)
                final.estimated_rows = op.estimated_rows
                return final
        op.child = self._rewrite(op.child)
        return op

    def _rewrite_hash_join(self, op: HashJoin) -> Operator:
        if op.build_left:
            build_side, probe_side = op.left, op.right
            build_keys, probe_keys = (op.left_key_positions,
                                      op.right_key_positions)
        else:
            build_side, probe_side = op.right, op.left
            build_keys, probe_keys = (op.right_key_positions,
                                      op.left_key_positions)
        source = self._lane_sources(probe_side)
        if source is None:
            op.left = self._rewrite(op.left)
            op.right = self._rewrite(op.right)
            return op
        build, degree = source
        # The build side stays serial but may itself contain a deeper
        # parallel fragment — it executes at the coordinator, where
        # fragments are legal.
        build_side = self._rewrite(build_side)
        build_estimate = max(build_side.estimated_rows, 1.0)
        strategy = (
            "broadcast"
            if build_estimate <= self.ctx.params.parallel_broadcast_rows
            else "repartition"
        )
        join = ParallelHashJoin(
            self.ctx,
            build_side,
            [build(lane) for lane in range(degree)],
            build_keys,
            probe_keys,
            probe_is_left=not op.build_left,
            strategy=strategy,
            residual=op.residual,
            seed=self.ctx.params.parallel_hash_seed,
        )
        join.estimated_rows = op.estimated_rows
        return join
