"""Operator base class and execution context."""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Sequence

from repro.engine.buffer import BufferPool
from repro.engine.expr import Compiled, Expr, OutputSchema
from repro.sim.clock import SimulatedClock
from repro.sim.metrics import MetricsCollector
from repro.sim.params import SimParams
from repro.trace.tracer import Tracer

#: rough in-memory width used for spill decisions on derived rows
ESTIMATED_COLUMN_BYTES = 16


class ExecContext:
    """Shared execution services: clock, metrics, cost constants, buffer."""

    def __init__(
        self,
        clock: SimulatedClock,
        metrics: MetricsCollector,
        params: SimParams,
        buffer_pool: BufferPool,
        tracer: Tracer | None = None,
    ) -> None:
        self.clock = clock
        self.metrics = metrics
        self.params = params
        self.buffer_pool = buffer_pool
        #: the owning Database's tracer: parallel fragments record lane
        #: spans on it; a bare context gets a disabled one of its own
        self.tracer = tracer or Tracer(clock, metrics)
        self._spill_counter = 0
        #: numbers the top-level executions of plans: what a plan keeps
        #: for one execution only is keyed by it (DESIGN.md §29)
        self.execution = 0
        #: per-tuple CPU is charged lazily: an operator loop counts a
        #: tuple with ``counts["exec.tuples"] += 1`` on ``metrics.counts``
        #: and the clock replays the additions (see ``sim.clock``)
        clock.bind_unit_charge(metrics, "exec.tuples", params.tuple_cpu_s)

    def charge_tuples(self, count: int) -> None:
        """A batch of ``count`` tuples, counted and charged at once as
        **one** addition of ``tuple_cpu_s * count``."""
        if count:
            self.clock.charge_units(count)

    def charge_comparisons(self, count: float) -> None:
        if count:
            self.clock.charge(self.params.sort_cmp_s * count)

    def spill_file_name(self, label: str) -> str:
        """Fresh scratch-file name for external sorts / grace hash."""
        self._spill_counter += 1
        return f"tmp:{label}:{self._spill_counter}"

    def charge_spill(self, byte_count: int, label: str) -> None:
        """Charge writing + re-reading ``byte_count`` bytes of scratch."""
        pages = self.params.pages_for_bytes(byte_count)
        file_name = self.spill_file_name(label)
        for page_no in range(pages):
            self.buffer_pool.write(file_name, page_no, fresh=True)
        for page_no in range(pages):
            self.buffer_pool.access(file_name, page_no, sequential=True)
        self.metrics.count("exec.spill_pages", pages * 2)

    def row_bytes(self, width: int) -> int:
        return width * ESTIMATED_COLUMN_BYTES


def compile_optional(expr: Expr | None) -> Compiled | None:
    """The compiled expression, or None for an absent predicate."""
    return None if expr is None else expr.compile()


def compiled(attribute: str) -> cached_property:
    """Cached property compiling the operator's ``attribute`` expression.

    Use in an operator's class body: ``_holds = compiled("residual")``;
    an absent (None) expression compiles to None.
    """
    return cached_property(
        lambda self: compile_optional(getattr(self, attribute)))


class Operator:
    """Base physical operator.

    ``schema`` names the output columns; ``rows(params)`` yields output
    tuples.  ``estimated_rows`` is filled by the planner for costing
    and for explain output.

    Operators keep their expressions as ``Expr`` trees and compile them
    in ``functools.cached_property`` attributes (:func:`compiled` for a
    single optional expression): the function is built
    when ``rows()`` first asks for it — the planner binds residuals
    *after* constructing an operator, so the constructor is too early —
    and then lives on the operator for as long as the plan does (a
    prepared statement, a cursor-cache entry).  A compiled predicate
    holds when it returns ``True``; NULL counts as not satisfied.
    """

    def __init__(self, ctx: ExecContext, schema: OutputSchema) -> None:
        self.ctx = ctx
        self.schema = schema
        self.estimated_rows: float = 0.0

    def rows(self, params: Sequence[object]) -> Iterator[tuple]:
        raise NotImplementedError

    def materialize(self, params: Sequence[object]) -> list[tuple]:
        """Every output row, for a consumer that pulls the operator dry
        before it does anything else and charges nothing, not even a
        tuple unit, while it pulls: a sort, a nested-loop inner, the
        plan root, a hash build (``build_hash_table`` over the rows).
        For such a consumer a ``PipelineTop`` runs the pipeline it tops
        as one generated loop a page, which counts what the row path
        does (DESIGN.md §21, §25).  A consumer that counts or charges
        per row it pulls (a probe loop, ``Limit``) is not one: it calls
        ``rows``; ``GroupAggregate`` runs the pipeline under it as its
        consumer (§26), or calls ``rows``, and so does a ``HashJoin``
        whose build side is a pipeline other than an unfiltered bare
        scan: the loop fills its hash table (§30)."""
        return list(self.rows(params))

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.describe()}"]
        for child in self.child_operators():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__

    def child_operators(self) -> list["Operator"]:
        return []


class PipelineTop:
    """Mixed into the operators that can top a pipeline (``Project``,
    ``Filter``, ``HashJoin``, ``SeqScan``: a bare scan is the zero-join
    one): drained, one runs the pipeline's generated loop; of any other
    shape, the row path (DESIGN.md §25)."""

    @cached_property
    def _pipeline(self):
        # joins imports this module
        from repro.engine.exec.joins import Pipeline
        return Pipeline.of(self)

    def materialize(self, params: Sequence[object]) -> list[tuple]:
        pipeline = self._pipeline
        if pipeline is None:
            return list(self.rows(params))
        return pipeline.run(params)
