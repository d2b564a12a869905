"""Open SQL AST -> statement text.

The inverse of :mod:`repro.r3.opensql.parser`: renders an
:class:`~repro.r3.opensql.ast.OSSelect` back into the space-separated
Open SQL surface syntax, so transforms can manipulate statements as
ASTs and emit source code that round-trips through the parser.  Every
rendered statement is re-parsed by the planner as a self-check.
"""

from __future__ import annotations

import re

from repro.errors import ReproError
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
    OSNot,
    OSOperand,
    OSSelect,
    OSStar,
)

_NUMBER = re.compile(r"^\d+(\.\d+)?$")


class RenderError(ReproError):
    """The AST holds a value the Open SQL grammar cannot spell."""


def _literal(value: object) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, bool):
        raise RenderError("Open SQL has no boolean literals")
    if isinstance(value, (int, float)):
        text = repr(value)
        if not _NUMBER.match(text):
            raise RenderError(f"unrepresentable number literal {text}")
        return text
    raise RenderError(f"unrepresentable literal {value!r}")


def _operand(op: OSOperand) -> str:
    if isinstance(op, OSField):
        return op.display()
    if isinstance(op, OSHost):
        return f":{op.name}"
    if isinstance(op, OSLiteral):
        return _literal(op.value)
    raise RenderError(f"unrenderable operand {op!r}")


def _cond(cond: OSCond) -> str:
    if isinstance(cond, OSComp):
        return f"{cond.left.display()} {cond.op} {_operand(cond.right)}"
    if isinstance(cond, OSLike):
        op = "NOT LIKE" if cond.negated else "LIKE"
        return f"{cond.left.display()} {op} {_operand(cond.pattern)}"
    if isinstance(cond, OSIn):
        op = "NOT IN" if cond.negated else "IN"
        items = ", ".join(_operand(item) for item in cond.items)
        return f"{cond.left.display()} {op} ( {items} )"
    if isinstance(cond, OSBetween):
        op = "NOT BETWEEN" if cond.negated else "BETWEEN"
        return (f"{cond.left.display()} {op} {_operand(cond.low)} "
                f"AND {_operand(cond.high)}")
    if isinstance(cond, OSBool):
        return (f"{_bool_child(cond.left, cond.op)} {cond.op} "
                f"{_bool_child(cond.right, cond.op)}")
    if isinstance(cond, OSNot):
        inner = _cond(cond.operand)
        if isinstance(cond.operand, (OSBool, OSNot)):
            inner = f"( {inner} )"
        return f"NOT {inner}"
    raise RenderError(f"unrenderable condition {cond!r}")


def _bool_child(child: OSCond, parent_op: str) -> str:
    # AND binds tighter than OR: an OR under an AND needs parentheses
    # (and parenthesising every boolean child would also round-trip,
    # but keeps the generated SQL noisier than the hand-written form).
    text = _cond(child)
    if isinstance(child, OSBool) and parent_op == "AND" and child.op == "OR":
        return f"( {text} )"
    return text


def _item(item: OSField | OSAgg | OSStar) -> str:
    if isinstance(item, OSStar):
        return "*"
    if isinstance(item, OSField):
        return item.display()
    if isinstance(item, OSAgg):
        arg = "*" if item.arg is None else item.arg.display()
        return f"{item.func}( {arg} )"
    raise RenderError(f"unrenderable select item {item!r}")


def render_select(stmt: OSSelect) -> str:
    """Render ``stmt`` as Open SQL text that re-parses to the same AST."""
    parts = ["SELECT"]
    if stmt.single:
        parts.append("SINGLE")
    parts.extend(_item(item) for item in stmt.items)
    parts.append("FROM")
    parts.append(stmt.table)
    if stmt.alias:
        parts.extend(["AS", stmt.alias])
    for join in stmt.joins:
        parts.extend(["INNER", "JOIN", join.table])
        if join.alias:
            parts.extend(["AS", join.alias])
        parts.append("ON")
        parts.append(" AND ".join(_cond(comp) for comp in join.on))
    if stmt.where is not None:
        parts.extend(["WHERE", _cond(stmt.where)])
    if stmt.group_by:
        parts.append("GROUP BY")
        parts.extend(f.display() for f in stmt.group_by)
    if stmt.order_by:
        parts.append("ORDER BY")
        for field, descending in stmt.order_by:
            parts.append(field.display())
            if descending:
                parts.append("DESCENDING")
    if stmt.up_to is not None:
        parts.extend(["UP", "TO", str(stmt.up_to), "ROWS"])
    return " ".join(parts)
