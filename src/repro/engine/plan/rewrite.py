"""Expression rewriting for the aggregation pipeline.

After binding, SELECT/HAVING/ORDER BY expressions over a grouped query
must be rewritten so that group keys and aggregate calls become
positional references into the aggregation operator's output layout
(group values first, aggregate results after).
"""

from __future__ import annotations

from typing import Callable

from repro.engine.errors import PlanError
from repro.engine.expr import AggCall, ColumnRef, Expr, InputRef

Mapper = Callable[[Expr], Expr | None]


def rewrite(expr: Expr, mapper: Mapper) -> Expr:
    """Bottom-up in-place rewrite; ``mapper`` may replace any node."""
    replacement = mapper(expr)
    if replacement is not None:
        return replacement
    expr.map_parts(lambda part: rewrite(part, mapper))
    return expr


class AggRegistry:
    """Collects distinct aggregate calls and assigns output positions."""

    def __init__(self, group_count: int) -> None:
        self.group_count = group_count
        self.calls: list[AggCall] = []
        self._by_fingerprint: dict[tuple, int] = {}

    def position_of(self, call: AggCall) -> int:
        key = call.fingerprint()
        index = self._by_fingerprint.get(key)
        if index is None:
            index = len(self.calls)
            self.calls.append(call)
            self._by_fingerprint[key] = index
        return self.group_count + index


def rewrite_for_aggregation(
    expr: Expr,
    group_positions: dict[tuple, int],
    registry: AggRegistry,
    context: str,
) -> Expr:
    """Rewrite one post-aggregation expression.

    Group-key subexpressions become positional refs, aggregate calls
    register in ``registry``.  Any column reference that survives is an
    error — it is neither grouped nor aggregated.
    """

    def mapper(node: Expr) -> Expr | None:
        key_position = group_positions.get(node.fingerprint())
        if key_position is not None and not isinstance(node, AggCall):
            return InputRef(key_position)
        if isinstance(node, AggCall):
            return InputRef(registry.position_of(node))
        return None

    rewritten = rewrite(expr, mapper)
    for node in rewritten.walk():
        if isinstance(node, ColumnRef) and node._outer_cell is None:
            raise PlanError(
                f"{context}: column {node.display_name} must appear in "
                f"GROUP BY or inside an aggregate"
            )
    return rewritten


def contains_aggregate(expr: Expr) -> bool:
    return any(isinstance(node, AggCall) for node in expr.walk())
