"""Parallel execution operators: partition scans, exchanges, fragments.

A parallel plan contains *fragments*: subtrees executed by N worker
lanes over partitioned inputs, stitched back into the serial plan by an
exchange.  The operators here are:

* :class:`PartitionScan` — scans one partition of a
  :class:`~repro.engine.parallel.partition.PartitionedHeap` through the
  buffer pool under the partition's virtual file name;
* :class:`Gather` — the exchange that runs one operator tree per lane
  (each under its own :class:`~repro.sim.clock.LaneSink`) and merges
  their outputs at the coordinator, advancing the global clock by the
  slowest lane plus coordination overhead;
* :class:`PartialAggregate` / :class:`FinalAggregate` — two-phase
  aggregation: lanes fold their partition into per-group accumulator
  states, the coordinator merges states and emits final values;
* :class:`Repartition` — hash-routing of keyed rows to lanes (the
  shuffle used by the repartition join strategy);
* :class:`ParallelHashJoin` — partitioned hash join; the build side is
  executed serially once, then either **broadcast** (every lane builds
  the full table and probes its own partition) or **repartitioned**
  (build and probe rows shuffled by join-key hash; each lane joins one
  hash bucket, with a barrier between shuffle and probe phases).

Every lane's operator tree is a distinct object tree, so EXPLAIN
ANALYZE profiling attaches per lane and reports per-lane rows/pages.
Lane spans are recorded as ``parallel=True`` siblings under one
``exec.fragment`` span; because lane time is lane-local, the spans come
out as overlapping concurrent windows whose max — not sum — equals the
fragment's elapsed time.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.engine.exec.aggregate import GroupAggregate, _AggState
from repro.engine.exec.base import ExecContext, Operator, compiled
from repro.engine.exec.joins import build_hash_table
from repro.engine.expr import AggCall, Expr, OutputSchema
from repro.engine.index import key_getter
from repro.engine.parallel.lanes import LaneSet
from repro.engine.parallel.partition import (
    PartitionManager,
    PartitionSpec,
    stable_hash,
)
from repro.engine.table import Table


def key_hash(key: tuple, seed: int = 0) -> int:
    """Deterministic hash of a multi-column key (CRC chain)."""
    h = seed
    for value in key:
        h = stable_hash(value, h)
    return h


class PartitionScan(Operator):
    """Scan one partition of a table, with an optional pushed filter.

    The partition overlay is resolved at *execution* time through the
    :class:`PartitionManager`, so a plan cached across DML (the cursor
    cache) always scans a current snapshot.  Page reads charge the
    buffer pool under the partition's virtual file name; rows deleted
    since the snapshot resolve to tombstones and are skipped without
    shifting any sibling partition's rowids or page counts.
    """

    def __init__(
        self,
        ctx: ExecContext,
        manager: PartitionManager,
        table: Table,
        spec: PartitionSpec,
        lane_index: int,
        alias: str | None = None,
        predicate: Expr | None = None,
    ) -> None:
        from repro.engine.exec.scans import table_schema

        super().__init__(ctx, table_schema(table, alias))
        self.manager = manager
        self.table = table
        self.spec = spec
        self.lane_index = lane_index
        self.predicate = predicate

    _holds = compiled("predicate")

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        partition = self.manager.get(self.table, self.spec) \
            .partitions[self.lane_index]
        store = self.table.store
        buffer_pool = self.ctx.buffer_pool
        counts = self.ctx.metrics.counts
        counter = self.table.scanned_counter
        holds = self._holds
        last_page = -1
        for local_slot, rowid in enumerate(partition.rowids):
            page = partition.page_of(local_slot)
            if page != last_page:
                last_page = page
                buffer_pool.access(partition.file_name, page, sequential=True)
            row = store.get(rowid)
            if row is None:
                continue  # tombstoned since the partition snapshot
            counts[counter] += 1
            counts["exec.tuples"] += 1
            if holds is None or holds(row, params) is True:
                yield row

    def describe(self) -> str:
        filt = " (filtered)" if self.predicate is not None else ""
        return (f"PartitionScan({self.table.name} "
                f"p{self.lane_index}/{self.spec.degree}{filt})")


class Gather(Operator):
    """Exchange: execute one operator tree per lane, merge at the top.

    Lanes run under charge redirection; the global clock advances by
    ``max(lane seconds) + coordination overhead`` at the barrier.  Each
    gathered row pays an exchange shipping cost inside its lane.
    """

    def __init__(self, ctx: ExecContext, lane_ops: list[Operator],
                 label: str = "Gather") -> None:
        super().__init__(ctx, lane_ops[0].schema)
        self.lane_ops = lane_ops
        self.label = label

    @property
    def degree(self) -> int:
        return len(self.lane_ops)

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        ctx = self.ctx
        if ctx.clock.redirected:
            # Already inside a lane (defensive: the planner never nests
            # fragments): run the lane trees inline, charges flow into
            # the enclosing lane.
            for op in self.lane_ops:
                yield from op.rows(params)
            return
        clock = ctx.clock
        ship_s = ctx.params.parallel_ship_tuple_s
        lanes = LaneSet(clock, self.degree)
        outputs: list[list[tuple]] = []
        with ctx.tracer.span("exec.fragment", operator=self.label,
                             degree=self.degree) as fragment:
            for index, op in enumerate(self.lane_ops):
                def work(op: Operator = op,
                         index: int = index) -> list[tuple]:
                    with ctx.tracer.span("exec.lane", lane=index,
                                         parallel=True) as lane_span:
                        rows = list(op.rows(params))
                        clock.charge(len(rows) * ship_s)
                        lane_span.set(rows=len(rows))
                    return rows
                outputs.append(lanes.run(index, work))
            fragment.set(lane_seconds=lanes.lane_seconds(),
                         skew=lanes.skew(),
                         rows=sum(len(rows) for rows in outputs))
            lanes.barrier()
            clock.charge(ctx.params.parallel_fragment_overhead_s
                         + self.degree * ctx.params.parallel_lane_start_s)
        for rows in outputs:
            yield from rows

    def describe(self) -> str:
        return f"{self.label}(degree={self.degree})"

    def child_operators(self) -> list[Operator]:
        return list(self.lane_ops)


class PartialAggregate(GroupAggregate):
    """Lane-local aggregation emitting mergeable accumulator states.

    Output layout: group values first, then one state tuple
    ``(count, total, minimum, maximum)`` per aggregate call.  DISTINCT
    aggregates are not mergeable this way; the planner keeps them
    serial.  With no group expressions each lane emits exactly one
    state row, even over empty input, so the final phase always sees
    ``degree`` partials for a global aggregate.
    """

    AGG_PREFIX = "_s"

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        group_exprs: list[Expr],
        agg_calls: list[AggCall],
    ) -> None:
        assert not any(call.distinct for call in agg_calls), \
            "DISTINCT aggregates cannot be partially aggregated"
        super().__init__(ctx, child, group_exprs, agg_calls)

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        groups = self._accumulate(params)
        if not self.group_exprs and not groups:
            groups[()] = self._new_states()
        counts = self.ctx.metrics.counts
        for key, states in groups.items():
            counts["exec.tuples"] += 1
            yield key + tuple(
                (s.count, s.total, s.minimum, s.maximum) for s in states
            )

    def describe(self) -> str:
        return (f"PartialAggregate(groups={len(self.group_exprs)}, "
                f"aggs={len(self.agg_calls)})")


class FinalAggregate(Operator):
    """Merge partial aggregation states into final values.

    Consumes the gathered partial rows (group values + state tuples)
    and emits the same layout as :class:`GroupAggregate`: group values
    first, aggregate results after.
    """

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        group_count: int,
        agg_calls: list[AggCall],
    ) -> None:
        entries: list[tuple[str | None, str]] = []
        entries.extend((None, f"_g{i}") for i in range(group_count))
        entries.extend((None, f"_a{i}") for i in range(len(agg_calls)))
        super().__init__(ctx, OutputSchema(entries))
        self.child = child
        self.group_count = group_count
        self.agg_calls = agg_calls

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        merged: dict[tuple, list[_AggState]] = {}
        order: list[tuple] = []
        counts = self.ctx.metrics.counts
        for row in self.child.rows(params):
            counts["exec.tuples"] += 1
            key = row[:self.group_count]
            states = merged.get(key)
            if states is None:
                states = [
                    _AggState(call.func, False) for call in self.agg_calls
                ]
                merged[key] = states
                order.append(key)
            for state, packed in zip(states, row[self.group_count:]):
                count, total, minimum, maximum = packed
                state.count += count
                state.total += total
                if minimum is not None and (state.minimum is None
                                            or minimum < state.minimum):
                    state.minimum = minimum
                if maximum is not None and (state.maximum is None
                                            or maximum > state.maximum):
                    state.maximum = maximum
        if not self.group_count and not merged:
            states = [_AggState(call.func, False) for call in self.agg_calls]
            yield tuple(state.result() for state in states)
            return
        for key in order:
            counts["exec.tuples"] += 1
            yield key + tuple(state.result() for state in merged[key])

    def describe(self) -> str:
        return (f"FinalAggregate(groups={self.group_count}, "
                f"aggs={len(self.agg_calls)})")

    def child_operators(self) -> list[Operator]:
        return [self.child]


class Repartition:
    """Hash-route keyed rows into per-lane buckets (the shuffle).

    Charges one exchange ship per routed row on whatever clock context
    is active — a lane's sink during a parallel shuffle phase, the
    global clock when the coordinator splits the build side.
    """

    def __init__(self, ctx: ExecContext, degree: int, seed: int = 0) -> None:
        self.ctx = ctx
        self.degree = degree
        self.seed = seed

    def route(
        self, keyed_rows: Iterator[tuple[tuple, tuple]]
    ) -> list[list[tuple[tuple, tuple]]]:
        buckets: list[list[tuple[tuple, tuple]]] = [
            [] for _ in range(self.degree)
        ]
        count = 0
        for key, row in keyed_rows:
            buckets[key_hash(key, self.seed) % self.degree].append((key, row))
            count += 1
        self.ctx.clock.charge(
            count * (self.ctx.params.tuple_cpu_s
                     + self.ctx.params.parallel_ship_tuple_s))
        self.ctx.metrics.count("parallel.repartitioned_rows", count)
        return buckets


class ParallelHashJoin(Operator):
    """Partitioned hash join fragment (broadcast or repartition).

    The build side runs serially at the coordinator (it is the smaller
    input by the optimizer's choice).  Probe lanes then join in
    parallel:

    * ``broadcast`` — every lane receives the whole build table and
      probes its own partition; chosen when the build side is small.
    * ``repartition`` — build rows are hash-split by join key at the
      coordinator; each lane shuffles its probe partition by the same
      hash (phase 1), then builds and probes one bucket (phase 2),
      with a lane barrier between the phases.
    """

    def __init__(
        self,
        ctx: ExecContext,
        build_op: Operator,
        probe_lane_ops: list[Operator],
        build_key_positions: list[int],
        probe_key_positions: list[int],
        probe_is_left: bool,
        strategy: str,
        residual: Expr | None = None,
        seed: int = 0,
    ) -> None:
        probe_schema = probe_lane_ops[0].schema
        if probe_is_left:
            schema = probe_schema.concat(build_op.schema)
        else:
            schema = build_op.schema.concat(probe_schema)
        super().__init__(ctx, schema)
        assert strategy in ("broadcast", "repartition")
        self.build_op = build_op
        self.probe_lane_ops = probe_lane_ops
        self.build_key_positions = build_key_positions
        self.probe_key_positions = probe_key_positions
        self.probe_is_left = probe_is_left
        self.strategy = strategy
        self.residual = residual
        self.seed = seed

    @property
    def degree(self) -> int:
        return len(self.probe_lane_ops)

    # -- helpers ---------------------------------------------------------

    _holds = compiled("residual")

    def _probe_one(
        self,
        table: dict,
        unique: bool,
        probe_rows: Iterator[tuple[tuple, tuple]],
        params: Sequence[object],
        out: list[tuple],
    ) -> None:
        holds = self._holds
        probe_is_left = self.probe_is_left
        counts = self.ctx.metrics.counts
        composite = len(self.probe_key_positions) > 1
        for route_key, probe_row in probe_rows:
            counts["exec.tuples"] += 1
            found = table.get(route_key if composite else route_key[0])
            if found is None:
                continue
            if unique:  # one row, no inner loop
                combined = probe_row + found if probe_is_left \
                    else found + probe_row
                if holds is None or holds(combined, params) is True:
                    counts["exec.tuples"] += 1
                    out.append(combined)
                continue
            for build_row in found:
                if probe_is_left:
                    combined = probe_row + build_row
                else:
                    combined = build_row + probe_row
                if holds is None or holds(combined, params) is True:
                    counts["exec.tuples"] += 1
                    out.append(combined)

    def _keyed_probe(self, op: Operator, params: Sequence[object]) \
            -> Iterator[tuple[tuple, tuple]]:
        """``(key, row)`` for every row of ``op`` whose key has no NULL;
        the key is the tuple of the key values, the form lanes are
        routed by."""
        key_of = key_getter(self.probe_key_positions)
        for row in op.rows(params):
            key = key_of(row)
            if None not in key:
                yield key, row

    # -- execution -------------------------------------------------------

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        ctx = self.ctx
        clock = ctx.clock
        p = ctx.params
        build_keys = self.build_key_positions
        table, build_count, unique = build_hash_table(
            self.build_op.materialize(params), build_keys)
        ctx.charge_tuples(build_count)
        if clock.redirected:
            # Defensive serial fallback (fragments never nest): probe
            # every partition against the full build table inline.
            out: list[tuple] = []
            for op in self.probe_lane_ops:
                self._probe_one(table, unique,
                                self._keyed_probe(op, params), params, out)
            yield from out
            return
        degree = self.degree
        lanes = LaneSet(clock, degree)
        outputs: list[list[tuple]] = [[] for _ in range(degree)]
        with ctx.tracer.span("exec.fragment", operator="ParallelHashJoin",
                             strategy=self.strategy,
                             degree=degree) as fragment:
            if self.strategy == "broadcast":
                for index, probe in enumerate(self.probe_lane_ops):
                    def work(index: int = index,
                             probe: Operator = probe) -> None:
                        with ctx.tracer.span("exec.lane", lane=index,
                                             parallel=True) as lane_span:
                            # Receiving the broadcast copy + building
                            # (charged per lane; the table is read-only
                            # and built once).
                            clock.charge(build_count
                                         * (p.tuple_cpu_s
                                            + p.parallel_ship_tuple_s))
                            self._probe_one(
                                table, unique,
                                self._keyed_probe(probe, params),
                                params, outputs[index])
                            lane_span.set(rows=len(outputs[index]))
                    lanes.run(index, work)
                lanes.barrier()
            else:
                # routed by the tuple form of the table's key (a bucket's
                # first key), in bucket order, as when buckets held
                # tuple keys: lane assignment does not depend on the form
                composite = len(build_keys) > 1
                entries = table.items() if unique else (
                    (key, row) for key, bucket in table.items()
                    for row in bucket)
                build_shards = Repartition(ctx, degree, self.seed).route(
                    (key if composite else (key,), row)
                    for key, row in entries)
                shuffled: list[list[list[tuple[tuple, tuple]]]] = [
                    [[] for _ in range(degree)] for _ in range(degree)
                ]

                def shuffle(index: int, probe: Operator) -> None:
                    with ctx.tracer.span("exec.lane", lane=index, phase=1,
                                         parallel=True):
                        shuffled[index][:] = Repartition(
                            ctx, degree, self.seed
                        ).route(self._keyed_probe(probe, params))

                def probe_bucket(index: int) -> None:
                    with ctx.tracer.span("exec.lane", lane=index, phase=2,
                                         parallel=True) as lane_span:
                        shard = [row for _key, row in build_shards[index]]
                        shard_table, _, shard_unique = build_hash_table(
                            shard, build_keys)
                        clock.charge(len(shard) * p.tuple_cpu_s)
                        for source in range(degree):
                            self._probe_one(
                                shard_table, shard_unique,
                                iter(shuffled[source][index]),
                                params, outputs[index])
                        lane_span.set(rows=len(outputs[index]))

                for index, probe in enumerate(self.probe_lane_ops):
                    lanes.run(index, lambda i=index, op=probe: shuffle(i, op))
                lanes.barrier()
                for index in range(degree):
                    lanes.run(index, lambda i=index: probe_bucket(i))
                lanes.barrier()
            clock.charge(p.parallel_fragment_overhead_s
                         + degree * p.parallel_lane_start_s)
            total = sum(len(rows) for rows in outputs)
            clock.charge(total * p.parallel_ship_tuple_s)
            fragment.set(lane_seconds=lanes.lane_seconds(),
                         skew=lanes.skew(), rows=total,
                         build_rows=build_count)
        for rows in outputs:
            yield from rows

    def describe(self) -> str:
        return f"ParallelHashJoin({self.strategy}, degree={self.degree})"

    def child_operators(self) -> list[Operator]:
        return [self.build_op] + list(self.probe_lane_ops)
