"""Join operators: block nested loop, index nested loop, hash."""

from __future__ import annotations

from collections import defaultdict
from contextlib import ExitStack
from functools import cached_property
from itertools import chain, compress
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from repro.engine.exec.aggregate import GroupAggregate
from repro.engine.exec.base import (
    ExecContext,
    Operator,
    PipelineTop,
    compiled,
)
from repro.engine.exec.misc import Alias, Filter, Project
from repro.engine.exec.scans import SeqScan, table_schema
from repro.engine.expr import (
    Compiled,
    Expr,
    KernelSource,
    OutputSchema,
    ParamRef,
    SubqueryExpr,
    plain,
)
from repro.engine.table import Table


def _joined_schema(left: Operator, right_schema: OutputSchema) -> OutputSchema:
    return left.schema.concat(right_schema)


def build_hash_table(
    rows: list[tuple], key_positions: Sequence[int]
) -> tuple[dict, int, bool]:
    """The build side of a hash join, from its rows: ``(table,
    build_count, unique)``, keyed by ``itemgetter(*key_positions)`` —
    the value itself for one column, the tuple of the values for
    several.  A pipelined build side builds the same table in its
    kernel instead (``Pipeline``, DESIGN.md §30).

    A row whose key has a NULL part joins nothing and is neither stored
    nor counted.  Unique keys — a primary or foreign-key parent side —
    make the table in C, each row its own entry (``unique``); otherwise
    an entry is the list of the key's rows in input order.
    """
    keys = list(map(itemgetter(*key_positions), rows))
    composite = len(key_positions) > 1
    if None in (chain.from_iterable(keys) if composite else keys):
        live = [(None not in key) if composite else (key is not None)
                for key in keys]
        keys, rows = list(compress(keys, live)), list(compress(rows, live))
    table = dict(zip(keys, rows))
    if len(table) == len(rows):
        return table, len(rows), True
    buckets: defaultdict[object, list[tuple]] = defaultdict(list)
    for key, row in zip(keys, rows):
        buckets[key].append(row)
    buckets.default_factory = None  # a probe's miss adds no bucket
    return buckets, len(rows), False


class NestedLoopJoin(Operator):
    """Block nested-loop join with an arbitrary join predicate.

    The inner input is materialized; when it exceeds working memory the
    outer side is processed in blocks and the inner side re-scanned per
    block, as a real BNL would re-read the inner relation.
    """

    def __init__(
        self,
        ctx: ExecContext,
        left: Operator,
        right: Operator,
        condition: Expr | None,
        outer: bool = False,
    ) -> None:
        super().__init__(ctx, _joined_schema(left, right.schema))
        self.left = left
        self.right = right
        self.condition = condition
        self.outer = outer

    _holds = compiled("condition")

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        inner = self.right.materialize(params)
        inner_bytes = len(inner) * self.ctx.row_bytes(len(self.right.schema))
        rescans_needed = inner_bytes > self.ctx.params.work_mem_bytes
        null_row = (None,) * len(self.right.schema)
        outer_count = 0
        holds = self._holds
        counts = self.ctx.metrics.counts
        charge_comparisons = self.ctx.charge_comparisons
        for left_row in self.left.rows(params):
            outer_count += 1
            matched = False
            charge_comparisons(len(inner))
            for right_row in inner:
                combined = left_row + right_row
                if holds is None or holds(combined, params) is True:
                    matched = True
                    counts["exec.tuples"] += 1
                    yield combined
            if self.outer and not matched:
                counts["exec.tuples"] += 1
                yield left_row + null_row
        if rescans_needed and outer_count:
            # Charge the re-reads a block-sized BNL would have done.
            block_rows = max(
                1,
                self.ctx.params.work_mem_bytes
                // self.ctx.row_bytes(len(self.left.schema)),
            )
            blocks = -(-outer_count // block_rows)
            self.ctx.charge_spill(inner_bytes * max(0, blocks - 1), "bnl")

    def describe(self) -> str:
        kind = "LeftOuterNLJoin" if self.outer else "NestedLoopJoin"
        return kind

    def child_operators(self) -> list[Operator]:
        return [self.left, self.right]


class IndexNestedLoopJoin(Operator):
    """For each outer row, probe an index on the inner base table.

    ``key_sources`` builds the probe key along the index's key-column
    prefix; each element is either ``("outer", position)`` — take the
    value from the outer row — or ``("const", expr)`` — a plan-time
    constant / parameter / correlated reference.  This lets the probe
    use composite indexes whose leading columns are bound by equality
    filters (e.g. SAP's MANDT-first primary keys).
    """

    def __init__(
        self,
        ctx: ExecContext,
        left: Operator,
        inner_table: Table,
        inner_alias: str | None,
        index_name: str,
        key_sources: list[tuple[str, object]],
        residual: Expr | None = None,
        inner_filter: Expr | None = None,
    ) -> None:
        inner_schema = table_schema(inner_table, inner_alias)
        super().__init__(ctx, _joined_schema(left, inner_schema))
        self.left = left
        self.inner_table = inner_table
        self.index = inner_table.indexes[index_name.lower()]
        self.key_sources = key_sources
        self.residual = residual
        self.inner_filter = inner_filter

    @cached_property
    def _key_parts(self) -> list[tuple[int | None, Compiled | None]]:
        """Per key column ``(outer position, None)`` or ``(None, fn)``."""
        return [
            (source, None) if kind == "outer" else (None, source.compile())
            for kind, source in self.key_sources
        ]

    _inner_holds = compiled("inner_filter")
    _holds = compiled("residual")

    def _probe_key(self, left_row: tuple,
                   params: Sequence[object]) -> tuple | None:
        key = []
        for position, constant in self._key_parts:
            if constant is None:
                value = left_row[position]
            else:
                value = constant((), params)
            if value is None:
                return None
            key.append(value)
        return tuple(key)

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        inner_holds, holds = self._inner_holds, self._holds
        probe_key = self._probe_key
        index = self.index
        full_key = len(self.key_sources) == len(index.column_names)
        fetch_row = self.inner_table.fetch_row
        counts = self.ctx.metrics.counts
        for left_row in self.left.rows(params):
            key = probe_key(left_row, params)
            if key is None:
                continue
            if full_key:
                rowids = index.search_eq(key)
            else:
                rowids = [r for _k, r in index.search_prefix(key)]
            for rowid in rowids:
                inner_row = fetch_row(rowid, sequential=False)
                if inner_holds is not None \
                        and inner_holds(inner_row, params) is not True:
                    continue
                combined = left_row + inner_row
                counts["exec.tuples"] += 1
                if holds is None or holds(combined, params) is True:
                    yield combined

    def describe(self) -> str:
        return (f"IndexNestedLoopJoin({self.inner_table.name} "
                f"via {self.index.name})")

    def child_operators(self) -> list[Operator]:
        return [self.left]


class HashJoin(PipelineTop, Operator):
    """Equi-join; builds a hash table on the right input.

    When the build side exceeds working memory, a grace-hash spill of
    both inputs is charged (write + re-read), as in a classic hybrid
    hash join.
    """

    def __init__(
        self,
        ctx: ExecContext,
        left: Operator,
        right: Operator,
        left_key_positions: list[int],
        right_key_positions: list[int],
        residual: Expr | None = None,
        build_left: bool = False,
    ) -> None:
        super().__init__(ctx, _joined_schema(left, right.schema))
        self.left = left
        self.right = right
        self.left_key_positions = left_key_positions
        self.right_key_positions = right_key_positions
        self.residual = residual
        #: the optimizer sets this when the left input is the smaller
        #: one; output column order is unaffected
        self.build_left = build_left

    _holds = compiled("residual")

    @property
    def probe_op(self) -> Operator:
        return self.right if self.build_left else self.left

    @property
    def probe_keys(self) -> list[int]:
        return self.right_key_positions if self.build_left \
            else self.left_key_positions

    @property
    def build_side(self) -> tuple[Operator, list[int]]:
        """The build input and its key positions."""
        return (self.left, self.left_key_positions) if self.build_left \
            else (self.right, self.right_key_positions)

    @cached_property
    def _build_pipeline(self) -> "tuple[list[Operator], Pipeline] | None":
        """The pipeline the build side tops, its consumer this join's
        hash table (DESIGN.md §30), and the operators whose
        ``materialize`` a drain of the build side passes through — the
        build input and the ``Alias``es under it.  None for any other
        shape, or for a bare unfiltered scan, whose kernel is ``out +=
        rows``: ``build_hash_table``'s three passes in C beat a loop."""
        build_op, build_keys = self.build_side
        drained = [build_op]
        while type(drained[-1]) is Alias:
            drained.append(drained[-1].child)
        if not isinstance(drained[-1], PipelineTop):
            return None
        pipeline = Pipeline.of(drained[-1], build_keys)
        if pipeline is None or pipeline.bare:
            return None
        return drained, pipeline

    def build(self, params: Sequence[object]) -> tuple[dict, bool, bool]:
        """Drain and hash the build side, charging it: ``(table,
        unique, spilling)``.  A pipelined build side fills the table in
        its kernel, unless a drain it passes through is shadowed on the
        instance (the operator profile pins it to the row path)."""
        ctx = self.ctx
        build_op, build_keys = self.build_side
        drained, pipeline = self._build_pipeline or ((), None)
        if pipeline is None or any("materialize" in vars(op)
                                   for op in drained):
            table, build_count, unique = build_hash_table(
                build_op.materialize(params), build_keys)
        else:
            table, build_count, unique = pipeline.run(params)
        ctx.charge_tuples(build_count)
        build_bytes = build_count * ctx.row_bytes(len(build_op.schema))
        spilling = build_bytes > ctx.params.work_mem_bytes
        if spilling:
            ctx.charge_spill(build_bytes, "hash-build")
        return table, unique, spilling

    def spill_probe(self, probe_count: int) -> None:
        """Charge the grace-hash spill of ``probe_count`` probe rows."""
        self.ctx.charge_spill(
            probe_count * self.ctx.row_bytes(len(self.probe_op.schema)),
            "hash-probe")

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        build_left = self.build_left
        probe_key = itemgetter(*self.probe_keys)
        composite = len(self.probe_keys) > 1
        table, unique, spilling = self.build(params)
        holds = self._holds
        counts = self.ctx.metrics.counts
        probe_count = 0
        for probe_row in self.probe_op.rows(params):
            probe_count += 1
            key = probe_key(probe_row)
            if (None in key) if composite else (key is None):
                continue
            counts["exec.tuples"] += 1
            found = table.get(key)
            if found is None:
                continue
            if unique:  # one row, no inner loop
                combined = found + probe_row if build_left \
                    else probe_row + found
                if holds is None or holds(combined, params) is True:
                    counts["exec.tuples"] += 1
                    yield combined
                continue
            for build_row in found:
                if build_left:
                    combined = build_row + probe_row
                else:
                    combined = probe_row + build_row
                if holds is None or holds(combined, params) is True:
                    counts["exec.tuples"] += 1
                    yield combined
        if spilling:
            self.spill_probe(probe_count)

    def describe(self) -> str:
        side = "build=left" if self.build_left else "build=right"
        return f"HashJoin({side})"

    def child_operators(self) -> list[Operator]:
        return [self.left, self.right]


class Pipeline:
    """Hash joins followed along their probe sides (through ``Alias``,
    with the ``Filter``s and ``Project``s between them) down to a
    ``SeqScan``, under at most one ``GroupAggregate`` — a bare scan is
    the zero-join pipeline: drained, one generated loop a page, depth
    first, whose first step is the scan predicate, and which keeps a
    row as its parts — the scan row and one build row a join, or the
    last projection's values — and makes no tuple but the one it
    outputs (DESIGN.md §25), or none at all when the aggregate consumes
    it (§26).  With ``keys``, the pipeline is a hash join's build side
    and its consumer is the hash table on those output positions
    (§30).  ``rows`` stays the row path."""

    def __init__(self, top: Operator, stages: list[Operator],
                 scan: SeqScan, arity: int,
                 keys: Sequence[int] | None = None) -> None:
        self.top = top
        self.aggregate = top if type(top) is GroupAggregate else None
        #: the output positions the consumer hashes on, or None
        self.keys = None if keys is None else tuple(keys)
        #: an unfiltered bare scan: its kernel has no loop
        self.bare = top is scan and scan.predicate is None
        #: the joins, filters and projections, innermost first
        self.stages = stages
        self.joins = [stage for stage in stages
                      if isinstance(stage, HashJoin)]
        self.scan = scan
        #: the parameters the kernel reads
        self.arity = arity
        self._kernels: dict[tuple, Callable[..., None]] = {}

    @classmethod
    def of(cls, top: Operator,
           keys: Sequence[int] | None = None) -> "Pipeline | None":
        """The pipeline ``top`` tops, its consumer the hash table on
        ``keys`` if given, or None for any other shape, or for one with
        a subquery, which charges between two rows."""
        op = top.child if type(top) is GroupAggregate else top
        stages: list[Operator] = []
        while type(op) in (Alias, Filter, HashJoin, Project):
            if type(op) is not Alias:
                stages.append(op)
            op = op.probe_op if type(op) is HashJoin else op.child
        if type(op) is not SeqScan:
            return None
        exprs = [op.predicate]
        for stage in stages:
            if type(stage) is Project:
                exprs += stage.exprs
            else:
                exprs.append(stage.residual if type(stage) is HashJoin
                             else stage.predicate)
        if type(top) is GroupAggregate:
            exprs += [*top.group_exprs,
                      *(call.arg for call in top.agg_calls)]
        nodes = [node for expr in exprs if expr is not None
                 for node in expr.walk()]
        if any(isinstance(node, SubqueryExpr) for node in nodes):
            return None
        arity = max((node.index + 1 for node in nodes
                     if isinstance(node, ParamRef)), default=0)
        return cls(top, stages[::-1], op, arity, keys)

    def accepts(self, params: Sequence[object]) -> bool:
        """Whether the kernel may run with ``params``: it reads each of
        them (the row path raises per row at a missing one), and what it
        has proved holds for plain values only (:func:`plain`)."""
        return len(params) >= self.arity and plain(params[:self.arity])

    def run(self, params: Sequence[object]) \
            -> list[tuple] | dict | tuple[dict, int, bool]:
        """The builds, outermost first; the pages; the probe spills,
        innermost first — the row path's charges, in its order.  The
        output rows, the aggregate's groups, or ``build_hash_table``'s
        ``(table, build_count, unique)`` of them.  After each page, also
        when the kernel raises, the page's scan counts up to the row it
        got to and the tuples it counted are added: the row path's
        counts (and states) at the row where it raises."""
        if not self.accepts(params):
            rows = Operator.materialize(self.top, params)
            return rows if self.keys is None \
                else build_hash_table(rows, self.keys)
        built = [join.build(params) for join in reversed(self.joins)][::-1]
        flags = tuple((unique, spilling) for _t, unique, spilling in built)
        kernel = self._kernels.get(flags) or self._compile(flags)
        counts = self.scan.ctx.metrics.counts
        counter = self.scan.table.scanned_counter
        tally, probes = [0, 0], [0] * len(built)
        out: list[tuple] | dict = [] if self.aggregate is None \
            and self.keys is None else {}
        dups: list[tuple[object, tuple]] = []  # (key, row) of a seen key
        args = (out, *(() if self.keys is None else (dups,)),
                *(table for table, _unique, _spilling in built))
        for _rowids, rows in self.scan.table.store.scan():
            try:
                kernel(rows, params, tally, probes, *args)
            finally:
                scanned = tally[1] + 1
                counts[counter] += scanned
                counts["exec.tuples"] += scanned + tally[0]
        for join, (_table, _unique, spilling), count in zip(
                self.joins, built, probes):
            if spilling:
                join.spill_probe(count)
        if self.keys is None:
            return out
        if not dups:
            return out, len(out), True
        # the first row of a key, then the others in input order
        buckets = {key: [row] for key, row in out.items()}
        for key, row in dups:
            buckets[key].append(row)
        return buckets, len(out) + len(dups), False

    def _compile(self, flags: tuple) -> Callable[..., None]:
        """``kernel(rows, params, tally, probes, out, [dups,] h1, …)``:
        the output of the page ``rows`` goes to its consumer — appended
        to the list ``out``, added to the aggregate's groups there, or,
        with ``keys``, stored in the hash table ``out`` as ``out[k] =
        row`` for a new key and appended to ``dups`` as ``(k, row)``
        for a key already there, a row with a NULL key part neither;
        ``tally`` is the tuples it counted past the scan and the
        position in ``rows`` it got to, also when it raises;
        ``probes[i]`` plus the probe rows of join ``i`` when it spills.
        ``flags`` is ``(unique, spilling)`` a join, innermost first, as
        are the hash tables ``h1, …``, probed with ``in`` and a
        subscript: no call a row.  An unfiltered bare scan has no loop:
        its output is the page."""
        src = KernelSource()
        columns = [f"r0[{i:d}]" for i in range(len(self.scan.schema))]
        table_columns = self.scan.table.schema.columns
        assert len(columns) == len(table_columns)
        # storage holds no NULL in a NOT NULL column (``validate_row``)
        src.not_null.update(atom for atom, column in zip(columns, table_columns)
                            if not column.nullable)
        parts = ["r0"]
        counted = 0  # tuples counted since the last ``n +=``

        def count() -> None:
            nonlocal counted
            if counted:
                src.line(f"n += {counted:d}")
            counted = 0

        def key(name: str, positions: Sequence[int]) -> str | None:
            """``name = `` the key at ``positions`` of the row; its
            test for a NULL part, None for a key that cannot have one."""
            atoms = [columns[i] for i in positions]
            if len(atoms) == 1:
                src.line(f"{name} = {atoms[0]}")
                return f"{name} is None" if src.nullable(atoms[0]) else None
            atoms = [src.hold(atom) for atom in atoms]
            src.line(f"{name} = ({', '.join(atoms)})")
            return " or ".join(f"{atom} is None" for atom in atoms
                               if src.nullable(atom)) or None

        bare = self.bare
        src.line("n = 0")
        src.line("j = -1")
        if self.aggregate is None and not bare:
            src.line("emit = out.append" if self.keys is None
                     else "emit = dups.append")
        spills = [level for level, (_u, spilling) in enumerate(flags, 1)
                  if spilling]
        for level in spills:
            src.line(f"s{level} = 0")
        with ExitStack() as loops:
            loops.enter_context(src.block("try:"))
            if bare:  # the page is the output: no loop
                src.line("out += rows")
                src.line("j = len(rows) - 1")
            else:
                loops.enter_context(
                    src.block("for j, r0 in enumerate(rows):"))
            if self.scan.predicate is not None:
                src.require(self.scan.predicate, columns)
            level = 0
            for stage in self.stages:
                if type(stage) is Filter:
                    counted += 1
                    count()
                    src.require(stage.predicate, columns)
                    continue
                if type(stage) is Project:  # counted as its row arrives
                    counted += 1
                    count()
                    columns = src.values(stage.exprs, columns)
                    parts = [f"({''.join(a + ', ' for a in columns)})"]
                    continue
                level += 1
                unique, spilling = flags[level - 1]
                if spilling:
                    src.line(f"s{level} += 1")
                null = key(f"k{level}", stage.probe_keys)
                if null:
                    count()
                    with src.block(f"if {null}:"):
                        src.line("continue")
                counted += 1
                count()
                with src.block(f"if k{level} not in h{level}:"):
                    src.line("continue")
                if unique:
                    src.line(f"b{level} = h{level}[k{level}]")
                else:
                    loops.enter_context(
                        src.block(f"for b{level} in h{level}[k{level}]:"))
                build_side = stage.left if stage.build_left else stage.right
                build = [f"b{level}[{i:d}]"
                         for i in range(len(build_side.schema))]
                if stage.build_left:
                    columns, parts = build + columns, [f"b{level}", *parts]
                else:
                    columns, parts = columns + build, [*parts, f"b{level}"]
                if stage.residual is not None:
                    src.require(stage.residual, columns)
                counted += 1
            if self.aggregate is not None:
                counted += 1
                count()
                self.aggregate.consume(src, columns)
            elif self.keys is not None:
                count()
                null = key("k", self.keys)
                if null:
                    with src.block(f"if {null}:"):
                        src.line("continue")
                row = " + ".join(parts)
                with src.block("if k in out:"):
                    src.line(f"emit((k, {row}))")
                with src.block("else:"):
                    src.line(f"out[k] = {row}")
            elif not bare:
                count()
                src.line(f"emit({' + '.join(parts)})")
        with src.block("finally:"):
            src.line("tally[0], tally[1] = n, j")
        for level in spills:
            src.line(f"probes[{level - 1:d}] += s{level}")
        signature = ", ".join([
            "rows", "params", "tally", "probes", "out",
            *(() if self.keys is None else ("dups",)),
            *(f"h{level}" for level in range(1, len(flags) + 1))])
        home = "aggregate" if self.aggregate else \
            "joins" if self.joins else "scans"
        kernel = src.kernel(signature, f"repro/engine/exec/{home}.py")
        self._kernels[flags] = kernel
        return kernel
