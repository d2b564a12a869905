"""The analyzer's rule catalogue — the paper's traps, made static.

Each rule inspects extracted call sites / idioms plus the DDIC
snapshot and emits :class:`Finding` objects carrying a severity, a
static cost estimate and a pointer to the paper table the anti-pattern
reproduces:

========  =======================================  ===================
rule      anti-pattern                             paper evidence
========  =======================================  ===================
R001      SELECT inside a loop (nested-loop join   Table 4, Section 2.2
          executed from the application server)
R002      SELECT * / wide field list over the      Table 2, Section 3.1
          vertically partitioned SAP row
R003      WHERE clause without a usable key or     Section 4.1
          index prefix (full-scan risk)
R004      host-variable range predicate — the      Table 6, Section 4.1
          parameter-marker plan trap
R005      aggregation in ABAP where the 3.0        Table 7, Section 4.2
          GROUP BY pushdown applies
R006      KONV cluster decode inside a loop        Table 4, Section 3.2
R007      SELECT SINGLE without the full key       Table 8, Section 4.3
          (table buffer bypass)
R008      embedded statement not analyzable        —
R009      full-table report on a large table       Section 5
          eligible for a parallel partitioned scan
R010      ORDER BY performed in ABAP (sorted()     Table 7, Section 4.2
          over fetched rows the engine could sort)
========  =======================================  ===================
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.analysis.costmodel import (
    FULL_SCAN_ROW_FLOOR,
    MEMO_AMORTISATION,
    UNKNOWN_LOOP_ROWS,
    SchemaInfo,
    estimate_result_rows,
    severity_for_calls,
    severity_for_rows,
)
from repro.analysis.extractor import (
    ModuleAnalysis,
    StatementSite,
)
from repro.engine.errors import EngineError
from repro.engine.expr import ColumnRef
from repro.engine.sql.parser import parse_select
from repro.r3.ddic import TableKind
from repro.r3.errors import R3Error
from repro.r3.opensql.ast import (
    OSBetween,
    OSBool,
    OSComp,
    OSCond,
    OSField,
    OSLike,
    OSLiteral,
    OSSelect,
    OSStar,
)
from repro.r3.opensql.translate import translate

#: select-list width beyond which a field list counts as "wide"
WIDE_FIELD_LIST = 12

_SEVERITY_RANK = {"error": 0, "warning": 1, "info": 2}
_RANGE_OPS = ("<", "<=", ">", ">=")


@dataclass
class Rule:
    id: str
    title: str
    paper: str


RULES: list[Rule] = [
    Rule("R001", "SELECT inside a loop (application-server join)",
         "Table 4, Section 2.2"),
    Rule("R002", "SELECT * / wide field list on a partitioned SAP table",
         "Table 2, Section 3.1"),
    Rule("R003", "WHERE clause without a usable key or index prefix",
         "Section 4.1"),
    Rule("R004", "host-variable range predicate (parameter-marker trap)",
         "Table 6, Section 4.1"),
    Rule("R005", "aggregation in ABAP where 3.0 pushdown applies",
         "Table 7, Section 4.2"),
    Rule("R006", "pool/cluster table decode inside a loop",
         "Table 4, Section 3.2"),
    Rule("R007", "SELECT SINGLE without the full key (buffer bypass)",
         "Table 8, Section 4.3"),
    Rule("R008", "embedded statement not statically analyzable", "—"),
    Rule("R009", "full-table report eligible for a parallel scan",
         "Section 5"),
    Rule("R010", "ORDER BY performed in ABAP (sorted() over fetched rows)",
         "Table 7, Section 4.2"),
]

RULES_BY_ID = {rule.id: rule for rule in RULES}


@dataclass
class Finding:
    rule: str
    severity: str
    path: str
    module: str
    line: int
    func: str
    message: str
    paper: str
    estimate: dict = field(default_factory=dict)
    key: str = ""
    baselined: bool = False

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "title": RULES_BY_ID[self.rule].title,
            "severity": self.severity,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "func": self.func,
            "message": self.message,
            "paper": self.paper,
            "estimate": self.estimate,
            "key": self.key,
            "baselined": self.baselined,
        }


# -- predicate analysis ----------------------------------------------------


@dataclass
class Conjunct:
    """One top-level AND-connected predicate, statically classified."""

    table: str | None  # resolved table/view of the left-hand field
    column: str
    op: str  # '=', '<', '<=', '>', '>=', '<>', 'like', 'in', 'between'
    value_known: bool  # False when a host variable is involved
    col_col: bool = False  # both sides are fields
    from_on: bool = False  # came from a join ON clause
    leading_wildcard: bool = False  # LIKE '%...'

    @property
    def sargable(self) -> bool:
        if self.op == "<>":
            return False
        if self.op == "like" and self.leading_wildcard:
            return False
        return True


def _alias_map(stmt: OSSelect) -> dict[str | None, str]:
    refs: dict[str | None, str] = {stmt.alias or stmt.table: stmt.table}
    refs[None] = stmt.table  # unqualified fields hit the main table
    for join in stmt.joins:
        refs[join.alias or join.table] = join.table
    return refs


def _resolve(field_ref: OSField, aliases: dict[str | None, str]) -> str | None:
    return aliases.get(field_ref.alias, aliases[None]
                       if field_ref.alias is None else None)


def collect_conjuncts(stmt: OSSelect) -> list[Conjunct]:
    """Top-level AND-connected predicates plus join ON conditions.

    OR / NOT subtrees are skipped entirely — they cannot drive an
    index access, which is exactly what the rules care about.
    """
    aliases = _alias_map(stmt)
    out: list[Conjunct] = []

    def add_comp(comp: OSComp, from_on: bool) -> None:
        table = _resolve(comp.left, aliases)
        if isinstance(comp.right, OSField):
            out.append(Conjunct(table, comp.left.name, comp.op, True,
                                col_col=True, from_on=from_on))
            right_table = _resolve(comp.right, aliases)
            out.append(Conjunct(right_table, comp.right.name, comp.op,
                                True, col_col=True, from_on=from_on))
            return
        known = isinstance(comp.right, OSLiteral)
        out.append(Conjunct(table, comp.left.name, comp.op, known,
                            from_on=from_on))

    def walk(node: OSCond) -> None:
        if isinstance(node, OSBool):
            if node.op == "AND":
                walk(node.left)
                walk(node.right)
            return  # OR: not sargable at the top level
        if isinstance(node, OSComp):
            add_comp(node, from_on=False)
        elif isinstance(node, OSLike) and not node.negated:
            known = isinstance(node.pattern, OSLiteral)
            pattern = node.pattern.value if known else ""
            out.append(Conjunct(
                _resolve(node.left, aliases), node.left.name, "like",
                known,
                leading_wildcard=known and str(pattern).startswith("%"),
            ))
        elif isinstance(node, OSBetween) and not node.negated:
            known = (isinstance(node.low, OSLiteral)
                     and isinstance(node.high, OSLiteral))
            out.append(Conjunct(_resolve(node.left, aliases),
                                node.left.name, "between", known))
        # OSIn/OSNot/negated forms: skipped (no index use modelled)

    if stmt.where is not None:
        walk(stmt.where)
    for join in stmt.joins:
        for comp in join.on:
            add_comp(comp, from_on=True)
    return out


def estimate_site_rows(site: StatementSite | None,
                       schema: SchemaInfo) -> int:
    """Rows a statement site returns per execution (1 for SINGLE)."""
    if site is None or site.stmt is None:
        return UNKNOWN_LOOP_ROWS
    stmt = site.stmt
    if stmt.single or stmt.up_to == 1:
        return 1
    if stmt.has_aggregates and not stmt.group_by:
        return 1
    info = schema.lookup(stmt.table)
    conjuncts = [
        (c.column, c.op, c.value_known)
        for c in collect_conjuncts(stmt)
        if c.table == stmt.table and not c.col_col and c.sargable
    ]
    rows = estimate_result_rows(info, conjuncts)
    if stmt.up_to is not None:
        rows = min(rows, stmt.up_to)
    return rows


def estimate_loop_calls(outer: tuple[StatementSite | None, ...],
                        schema: SchemaInfo, memoized: bool) -> float:
    """How many times a loop body at this nesting runs end to end."""
    calls = 1.0
    for source in outer:
        calls *= estimate_site_rows(source, schema)
    if memoized:
        calls *= MEMO_AMORTISATION
    return max(1.0, calls)


def predicate_fingerprint(stmt: OSSelect,
                          schema: SchemaInfo) -> tuple | None:
    """Structural fingerprint of the translated WHERE clause.

    Runs the statement through the real translator (every literal and
    host variable becomes a ``?`` marker), re-parses the backend SQL
    with the engine parser, pseudo-binds column references to stable
    positions, and fingerprints with :meth:`Expr.fingerprint`.  Two
    sites that would share a cursor-cache plan share a fingerprint.
    """
    def field_names_of(table: str) -> list[str]:
        info = schema.lookup(table)
        return list(info.field_names) if info else []

    try:
        translation = translate(stmt, field_names_of, lambda _t: True)
        parsed = parse_select(translation.sql)
    except (R3Error, EngineError):
        return None
    where = parsed.where
    if where is None:
        return None
    positions: dict[tuple, int] = {}
    for node in where.walk():
        if isinstance(node, ColumnRef):
            key = (node.qualifier, node.name)
            node._position = positions.setdefault(key, len(positions))
    return where.fingerprint()


# -- the rules -------------------------------------------------------------


def _table_of(site: StatementSite) -> str:
    if site.stmt is not None:
        return site.stmt.table
    if site.sql:
        tokens = site.sql.upper().split()
        if "FROM" in tokens:
            index = tokens.index("FROM")
            if index + 1 < len(tokens):
                return tokens[index + 1].lower().strip(",()")
    return "?"


def _loop_note(outer: tuple[StatementSite | None, ...]) -> str:
    sources = [
        _table_of(src) if src is not None else "?" for src in outer
    ]
    return " > ".join(sources)


def rule_select_in_loop(analysis: ModuleAnalysis,
                        schema: SchemaInfo) -> list[Finding]:
    """R001: any database call repeated per row of an outer loop."""
    findings: list[Finding] = []
    for site in analysis.sites:
        if site.loop_depth < 1:
            continue
        calls = estimate_loop_calls(site.outer, schema, site.memoized)
        per_call = estimate_site_rows(site, schema)
        table = _table_of(site)
        memo_note = " (memoized)" if site.memoized else ""
        findings.append(Finding(
            rule="R001", severity=severity_for_calls(calls),
            path=site.path, module=site.module, line=site.line,
            func=site.func,
            message=(
                f"{site.api} on {table} inside loop over "
                f"{_loop_note(site.outer)}{memo_note}: "
                f"~{int(calls):,} DB calls of ~{per_call:,} row(s) each"
            ),
            paper=RULES_BY_ID["R001"].paper,
            estimate={"db_calls": int(calls),
                      "rows_per_call": per_call,
                      "rows_shipped": int(calls) * per_call},
            key=_key("R001", site.module, site.func,
                     site.sql or f"{site.api}:{table}"),
        ))
    for idiom in analysis.idioms:
        if idiom.kind != "wrapper_call" or idiom.loop_depth < 1:
            continue
        calls = estimate_loop_calls(idiom.outer, schema, idiom.memoized)
        table = _table_of(idiom.source) if idiom.source else "?"
        findings.append(Finding(
            rule="R001", severity=severity_for_calls(calls),
            path=idiom.path, module=idiom.module, line=idiom.line,
            func=idiom.func,
            message=(
                f"{idiom.detail} wraps a SELECT on {table} inside loop "
                f"over {_loop_note(idiom.outer)} (memo wrapper): "
                f"~{int(calls):,} DB calls"
            ),
            paper=RULES_BY_ID["R001"].paper,
            estimate={"db_calls": int(calls)},
            key=_key("R001", idiom.module, idiom.func, idiom.detail),
        ))
    return findings


def rule_select_star(analysis: ModuleAnalysis,
                     schema: SchemaInfo) -> list[Finding]:
    """R002: * or wide field lists drag the ~10x filler payload along."""
    findings: list[Finding] = []
    for site in analysis.sites:
        if site.stmt is None:
            continue
        stmt = site.stmt
        info = schema.lookup(stmt.table)
        star = any(isinstance(item, OSStar) for item in stmt.items)
        width = len([i for i in stmt.items if isinstance(i, OSField)])
        if star and info is not None:
            width = len(info.field_names)
        elif width <= WIDE_FIELD_LIST:
            continue
        rows = estimate_site_rows(site, schema)
        cells = rows * width
        what = "SELECT *" if star else f"{width}-field select list"
        findings.append(Finding(
            rule="R002", severity=severity_for_rows(cells / 10),
            path=site.path, module=site.module, line=site.line,
            func=site.func,
            message=(
                f"{what} on {stmt.table} ships ~{width} columns "
                f"x ~{rows:,} rows of the partitioned SAP row "
                f"(filler fields included)"
            ),
            paper=RULES_BY_ID["R002"].paper,
            estimate={"columns": width, "rows": rows, "cells": cells},
            key=_key("R002", site.module, site.func, site.sql or ""),
        ))
    return findings


def rule_missing_key_prefix(analysis: ModuleAnalysis,
                            schema: SchemaInfo) -> list[Finding]:
    """R003: no sargable WHERE conjunct hits any usable access path."""
    findings: list[Finding] = []
    for site in analysis.sites:
        if site.stmt is None:
            continue
        stmt = site.stmt
        conjuncts = collect_conjuncts(stmt)
        driving = [
            c for c in conjuncts
            if c.sargable and not c.col_col and not c.from_on
            and c.table is not None
            and schema.has_index_on(c.table, c.column)
        ]
        if driving:
            continue
        refs = [stmt.table] + [j.table for j in stmt.joins]
        rows = max(
            (info.rows for info in map(schema.lookup, refs)
             if info is not None),
            default=0,
        )
        if rows < FULL_SCAN_ROW_FLOOR:
            continue
        where_note = (
            "no WHERE clause" if stmt.where is None
            else "no WHERE conjunct usable as a key/index prefix"
        )
        findings.append(Finding(
            rule="R003", severity=severity_for_rows(rows),
            path=site.path, module=site.module, line=site.line,
            func=site.func,
            message=(
                f"{site.api} on {', '.join(refs)}: {where_note} — "
                f"full scan of ~{rows:,} rows"
            ),
            paper=RULES_BY_ID["R003"].paper,
            estimate={"rows_scanned": rows},
            key=_key("R003", site.module, site.func, site.sql or ""),
        ))
    return findings


def rule_host_variable_trap(analysis: ModuleAnalysis,
                            schema: SchemaInfo) -> list[Finding]:
    """R004: range predicate through a ``?`` marker on an indexed column.

    The translator turns the host variable into a parameter marker, so
    the optimizer prices the predicate at its blind default and keeps
    an index plan that collapses when the actual range is wide — the
    Table 6 measurement.
    """
    findings: list[Finding] = []
    for site in analysis.sites:
        if site.stmt is None:
            continue
        stmt = site.stmt
        seen: set[tuple[str | None, str]] = set()
        trapped = [
            c for c in collect_conjuncts(stmt)
            if not c.value_known and not c.col_col
            and c.op in _RANGE_OPS + ("between", "like")
            and c.table is not None
            and schema.has_index_on(c.table, c.column)
        ]
        for conjunct in trapped:
            spot = (conjunct.table, conjunct.column)
            if spot in seen:
                continue
            seen.add(spot)
            info = schema.lookup(conjunct.table)
            rows = info.rows if info else 0
            plan_key = predicate_fingerprint(stmt, schema)
            findings.append(Finding(
                rule="R004", severity="warning",
                path=site.path, module=site.module, line=site.line,
                func=site.func,
                message=(
                    f"range predicate {conjunct.column} {conjunct.op} "
                    f":hostvar on indexed {conjunct.table} becomes a "
                    f"? marker — optimizer keeps the index plan "
                    f"regardless of range width over ~{rows:,} rows"
                ),
                paper=RULES_BY_ID["R004"].paper,
                estimate={"table_rows": rows,
                          "plan_fingerprint": repr(plan_key)},
                key=_key("R004", site.module, site.func,
                         f"{site.sql}|{conjunct.column}"),
            ))
    return findings


def rule_abap_aggregation(analysis: ModuleAnalysis,
                          schema: SchemaInfo) -> list[Finding]:
    """R005: EXTRACT/SORT/LOOP grouping whose fold the DB could run."""
    findings: list[Finding] = []
    for idiom in analysis.idioms:
        if idiom.kind != "group_aggregate" or not idiom.simple_fold:
            continue
        source = idiom.source
        if source is None or source.stmt is None:
            continue  # fed by ABAP-computed records, not a raw SELECT
        if source.api == "exec_sql":
            continue  # Native SQL can aggregate in any release
        if source.stmt.has_aggregates or source.stmt.group_by:
            continue  # already pushed
        rows = estimate_site_rows(source, schema)
        findings.append(Finding(
            rule="R005", severity=severity_for_rows(rows),
            path=idiom.path, module=idiom.module, line=idiom.line,
            func=idiom.func,
            message=(
                f"{idiom.detail} over raw SELECT on "
                f"{source.stmt.table} computes only simple aggregates "
                f"— 3.0 GROUP BY pushdown would ship the group rows "
                f"instead of ~{rows:,} detail rows"
            ),
            paper=RULES_BY_ID["R005"].paper,
            estimate={"rows_shipped": rows},
            key=_key("R005", idiom.module, idiom.func,
                     source.sql or idiom.detail),
        ))
    return findings


def rule_cluster_decode_in_loop(analysis: ModuleAnalysis,
                                schema: SchemaInfo) -> list[Finding]:
    """R006: per-row pool/cluster container decode, as this release
    sees the table (the 3.0 install converted KONV to transparent)."""
    findings: list[Finding] = []
    release = analysis.release
    for idiom in analysis.idioms:
        if idiom.kind != "konv_lookup" or idiom.loop_depth < 1:
            continue
        if schema.kind_in_release("konv", release) == TableKind.TRANSPARENT:
            continue
        calls = estimate_loop_calls(idiom.outer, schema, idiom.memoized)
        findings.append(Finding(
            rule="R006", severity=severity_for_calls(calls),
            path=idiom.path, module=idiom.module, line=idiom.line,
            func=idiom.func,
            message=(
                f"{idiom.detail} decodes the KONV cluster container "
                f"inside loop over {_loop_note(idiom.outer)}: "
                f"~{int(calls):,} decodes (memoized per document)"
            ),
            paper=RULES_BY_ID["R006"].paper,
            estimate={"decodes": int(calls)},
            key=_key("R006", idiom.module, idiom.func, idiom.detail),
        ))
    for site in analysis.sites:
        if site.stmt is None or site.loop_depth < 1:
            continue
        kind = schema.kind_in_release(site.stmt.table, release)
        if kind == TableKind.TRANSPARENT:
            continue
        calls = estimate_loop_calls(site.outer, schema, site.memoized)
        findings.append(Finding(
            rule="R006", severity=severity_for_calls(calls),
            path=site.path, module=site.module, line=site.line,
            func=site.func,
            message=(
                f"{site.api} on {kind.name.lower()} table "
                f"{site.stmt.table} inside loop over "
                f"{_loop_note(site.outer)}: ~{int(calls):,} container "
                f"decodes"
            ),
            paper=RULES_BY_ID["R006"].paper,
            estimate={"decodes": int(calls)},
            key=_key("R006", site.module, site.func, site.sql or ""),
        ))
    return findings


def rule_partial_key_single(analysis: ModuleAnalysis,
                            schema: SchemaInfo) -> list[Finding]:
    """R007: SELECT SINGLE that cannot hit the table buffer."""
    findings: list[Finding] = []
    for site in analysis.sites:
        if site.api != "select_single" or site.stmt is None:
            continue
        stmt = site.stmt
        if stmt.has_joins:
            continue
        info = schema.lookup(stmt.table)
        if info is None or info.is_view or not info.key_fields:
            continue
        bound = {
            c.column for c in collect_conjuncts(stmt)
            if c.op == "=" and not c.col_col and c.table == stmt.table
        }
        if schema.is_full_key(stmt.table, bound):
            continue
        missing = [k for k in info.key_fields if k not in bound]
        severity = ("warning"
                    if site.loop_depth >= 1 and not site.memoized
                    else "info")
        findings.append(Finding(
            rule="R007", severity=severity,
            path=site.path, module=site.module, line=site.line,
            func=site.func,
            message=(
                f"SELECT SINGLE {stmt.table} binds "
                f"{sorted(bound) or 'no key fields'} but the full key "
                f"needs {list(info.key_fields)} — bypasses the table "
                f"buffer (missing {missing})"
            ),
            paper=RULES_BY_ID["R007"].paper,
            estimate={"bound": sorted(bound),
                      "key": list(info.key_fields)},
            key=_key("R007", site.module, site.func, site.sql or ""),
        ))
    return findings


def rule_unparseable(analysis: ModuleAnalysis,
                     schema: SchemaInfo) -> list[Finding]:
    """R008: statements the analyzer could not fully see through."""
    findings: list[Finding] = []
    for site in analysis.sites:
        if site.api == "exec_sql":
            continue  # Native SQL is expected to be dynamic
        if site.parse_error is not None:
            message = f"embedded Open SQL fails to parse: {site.parse_error}"
            severity = "warning"
        elif site.sql is None:
            message = ("statement text is dynamic and could not be "
                       "statically resolved")
            severity = "info"
        else:
            continue
        findings.append(Finding(
            rule="R008", severity=severity,
            path=site.path, module=site.module, line=site.line,
            func=site.func, message=message,
            paper=RULES_BY_ID["R008"].paper,
            estimate={},
            key=_key("R008", site.module, site.func,
                     site.parse_error
                     or f"dynamic:{site.sql_src or ''}"),
        ))
    return findings


#: defaults of the engine's parallel knobs, used to size the suggestion
_PARALLEL_MAX_DEGREE = 8
_PARALLEL_MIN_ROWS_PER_LANE = 250


def rule_parallel_candidate(analysis: ModuleAnalysis,
                            schema: SchemaInfo) -> list[Finding]:
    """R009: full-table report on a table a partitioned scan could split.

    A SELECT that binds no equality sarg on an indexed column reads
    (most of) the table regardless of any range predicate — exactly the
    scan shape the parallel engine splits across worker lanes.  Flagged
    as ``info``: not a defect, an opportunity (run the report with
    ``--degree N``).  Fires on the big document tables (LINEITEM /
    ORDERS live in VBAP / VBAK after the SAP mapping); tables too small
    to feed two lanes stay quiet.
    """
    findings: list[Finding] = []
    for site in analysis.sites:
        if site.stmt is None:
            continue
        stmt = site.stmt
        if stmt.single or stmt.up_to == 1:
            continue
        info = schema.lookup(stmt.table)
        if info is None or info.is_view:
            continue
        rows = info.rows
        if rows < FULL_SCAN_ROW_FLOOR:
            continue
        degree = min(_PARALLEL_MAX_DEGREE,
                     rows // _PARALLEL_MIN_ROWS_PER_LANE)
        if degree < 2:
            continue
        eq_driven = any(
            c.op == "=" and not c.col_col and not c.from_on
            and c.table == stmt.table
            and schema.has_index_on(stmt.table, c.column)
            for c in collect_conjuncts(stmt)
        )
        if eq_driven:
            continue  # an index narrows the scan; lanes would idle
        where_note = ("no WHERE clause" if stmt.where is None
                      else "no equality sarg on an indexed column")
        findings.append(Finding(
            rule="R009", severity="info",
            path=site.path, module=site.module, line=site.line,
            func=site.func,
            message=(
                f"{site.api} on {stmt.table} reads ~{rows:,} rows "
                f"({where_note}) — eligible for a partitioned parallel "
                f"scan at degree {degree} (run with --degree {degree})"
            ),
            paper=RULES_BY_ID["R009"].paper,
            estimate={"rows_scanned": rows, "suggested_degree": degree},
            key=_key("R009", site.module, site.func, site.sql or ""),
        ))
    return findings


def rule_abap_sort(analysis: ModuleAnalysis,
                   schema: SchemaInfo) -> list[Finding]:
    """R010: ``sorted()`` over fetched rows the engine could order.

    The application server pays ``n log n`` comparisons on rows the
    engine has already materialised; ORDER BY runs the same sort next
    to the data (with an index, for free).  ``sorted()`` over rows the
    extractor cannot trace stays quiet — only provable pushdowns fire.
    """
    findings: list[Finding] = []
    for idiom in analysis.idioms:
        if idiom.kind != "abap_sort":
            continue
        source = idiom.source
        if source is None or source.api == "exec_sql":
            continue
        if source.stmt is None:
            continue
        if source.stmt.order_by:
            continue  # engine already orders; sorted() is redundant
        rows = estimate_site_rows(source, schema)
        findings.append(Finding(
            rule="R010", severity=severity_for_rows(rows),
            path=idiom.path, module=idiom.module, line=idiom.line,
            func=idiom.func,
            message=(
                f"{idiom.detail} sorts ~{rows:,} fetched rows on the "
                f"application server — ORDER BY would run the sort in "
                f"the engine, next to the data"
            ),
            paper=RULES_BY_ID["R010"].paper,
            estimate={"rows_shipped": rows},
            key=_key("R010", idiom.module, idiom.func,
                     source.sql or idiom.detail),
        ))
    return findings


_RULE_FUNCS = [
    rule_select_in_loop,
    rule_select_star,
    rule_missing_key_prefix,
    rule_host_variable_trap,
    rule_abap_aggregation,
    rule_cluster_decode_in_loop,
    rule_partial_key_single,
    rule_unparseable,
    rule_parallel_candidate,
    rule_abap_sort,
]


def _key(rule: str, module: str, func: str, payload: str) -> str:
    """Baseline fingerprint: rule + scope + *normalised* content.

    The payload is whitespace-collapsed so reformatting a statement
    (or any edit that merely moves lines around) never churns the
    baseline — fingerprints follow what a site *does*, not where it
    sits in the file.
    """
    payload = " ".join(payload.split())
    digest = hashlib.sha1(
        f"{rule}|{module}|{func}|{payload}".encode()
    ).hexdigest()[:10]
    return f"{rule}:{module}:{func}:{digest}"


def run_rules(analyses: list[ModuleAnalysis],
              schema: SchemaInfo) -> list[Finding]:
    """Run the whole catalogue; rank by severity then estimated cost."""
    findings: list[Finding] = []
    for analysis in analyses:
        for rule_func in _RULE_FUNCS:
            findings.extend(rule_func(analysis, schema))
    # Disambiguate textually identical sites within one function.
    by_key: dict[str, int] = {}
    for finding in sorted(findings, key=lambda f: (f.module, f.line)):
        count = by_key.get(finding.key, 0)
        by_key[finding.key] = count + 1
        if count:
            finding.key = f"{finding.key}#{count + 1}"

    def magnitude(finding: Finding) -> float:
        est = finding.estimate
        return float(max(
            est.get("db_calls", 0), est.get("rows_shipped", 0),
            est.get("rows_scanned", 0), est.get("decodes", 0),
            est.get("cells", 0), est.get("table_rows", 0),
        ))

    findings.sort(key=lambda f: (
        _SEVERITY_RANK.get(f.severity, 3), -magnitude(f),
        f.module, f.line, f.rule,
    ))
    return findings
