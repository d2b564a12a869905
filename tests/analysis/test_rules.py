"""Rule-level tests: each rule fires on its target and stays quiet
on the corrected form of the same statement."""

import textwrap

import pytest

from repro.analysis.costmodel import SchemaInfo
from repro.analysis.extractor import analyze_module
from repro.analysis.rules import (
    collect_conjuncts,
    predicate_fingerprint,
    run_rules,
)
from repro.r3.opensql.parser import parse_open_sql


@pytest.fixture(scope="module")
def schema():
    return SchemaInfo(scale_factor=1.0)


@pytest.fixture()
def lint(tmp_path, schema):
    def run(source: str, name: str = "open22_case.py"):
        path = tmp_path / name
        path.write_text(textwrap.dedent(source))
        return run_rules([analyze_module(path)], schema)

    return run


def rules_of(findings):
    return {f.rule for f in findings}


def test_r001_select_in_loop(lint):
    findings = lint("""
        def q(r3):
            for infnr, in r3.open_sql.select(
                    "SELECT infnr FROM eina").rows:
                r3.open_sql.select_single(
                    "SELECT SINGLE netpr FROM eine "
                    "WHERE infnr = :i", {"i": infnr})
    """)
    (f,) = [f for f in findings if f.rule == "R001"]
    assert f.severity == "error"  # ~800k probes at SF 1
    assert f.estimate["db_calls"] >= 100_000


def test_r001_quiet_without_loop(lint):
    findings = lint("""
        def q(r3):
            r3.open_sql.select_single(
                "SELECT SINGLE netpr FROM eine WHERE infnr = :i "
                "AND ekorg = :e AND esokz = :s AND werks = :w",
                {"i": 1, "e": 1, "s": 1, "w": 1})
    """)
    assert "R001" not in rules_of(findings)


def test_r002_select_star(lint):
    findings = lint("""
        def q(r3):
            return r3.open_sql.select("SELECT * FROM vbak")
    """)
    (f,) = [f for f in findings if f.rule == "R002"]
    assert f.estimate["columns"] == len(
        SchemaInfo().lookup("vbak").field_names)


def test_r002_quiet_on_narrow_list(lint):
    findings = lint("""
        def q(r3):
            return r3.open_sql.select(
                "SELECT vbeln audat FROM vbak WHERE vbeln = :v",
                {"v": 1})
    """)
    assert "R002" not in rules_of(findings)


def test_r003_missing_prefix_fires_and_indexed_is_quiet(lint):
    findings = lint("""
        def scan(r3):
            return r3.open_sql.select(
                "SELECT name1 FROM kna1 WHERE brsch = 'STEEL'")

        def probe(r3):
            return r3.open_sql.select(
                "SELECT name1 FROM kna1 WHERE land1 = 'DE'")
    """)
    r003 = [f for f in findings if f.rule == "R003"]
    assert [f.func for f in r003] == ["scan"]


def test_r003_ignores_small_tables(lint):
    findings = lint("""
        def q(r3):
            return r3.open_sql.select("SELECT land1 landx FROM t005t")
    """)
    assert "R003" not in rules_of(findings)


def test_r004_host_range_on_indexed_column(lint):
    findings = lint("""
        def trapped(r3):
            return r3.open_sql.select(
                "SELECT vbeln FROM vbak WHERE audat >= :lo",
                {"lo": 1})

        def literal(r3):
            return r3.open_sql.select(
                "SELECT vbeln FROM vbak WHERE audat >= '1994-01-01'")
    """)
    r004 = [f for f in findings if f.rule == "R004"]
    assert [f.func for f in r004] == ["trapped"]
    assert "plan_fingerprint" in r004[0].estimate


def test_r005_pushable_fold_fires(lint):
    findings = lint("""
        def q13(r3):
            rows = r3.open_sql.select(
                "SELECT prior netwr FROM vbak WHERE audat >= :lo",
                {"lo": 1})
            return group_aggregate(
                r3, rows.rows, lambda g: (g[0],),
                lambda key, group: key + (len(group),
                                          sum(g[1] for g in group)))
    """)
    assert "R005" in rules_of(findings)


def test_r005_quiet_when_pushed_or_arithmetic(lint):
    findings = lint("""
        def pushed(r3):
            return r3.open_sql.select(
                "SELECT prior COUNT( * ) SUM( netwr ) FROM vbak "
                "GROUP BY prior")

        def arithmetic(r3):
            rows = r3.open_sql.select(
                "SELECT prior netwr kbetr FROM vbak "
                "WHERE audat >= :lo", {"lo": 1})
            return group_aggregate(
                r3, rows.rows, lambda g: (g[0],),
                lambda key, group: key + (
                    sum(g[1] * (1 + g[2]) for g in group),))
    """)
    assert "R005" not in rules_of(findings)


def test_r006_cluster_decode_release_gate(lint):
    source = """
        from repro.reports.common import KonvLookup

        def q(r3):
            konv = KonvLookup(r3)
            for vbeln, knumv in r3.open_sql.select(
                    "SELECT vbeln knumv FROM vbak").rows:
                konv.disc(knumv, 1)
    """
    in_22 = lint(source, name="open22_case.py")
    assert "R006" in rules_of(in_22)
    # Same code under the 3.0 install: KONV is transparent there.
    in_30 = lint(source, name="open30_case.py")
    assert "R006" not in rules_of(in_30)


def test_r007_partial_key_single(lint):
    findings = lint("""
        def partial(r3):
            return r3.open_sql.select_single(
                "SELECT SINGLE netpr FROM eine WHERE infnr = :i",
                {"i": 1})

        def full(r3):
            return r3.open_sql.select_single(
                "SELECT SINGLE knumv FROM vbak WHERE vbeln = :v",
                {"v": 1})
    """)
    r007 = [f for f in findings if f.rule == "R007"]
    assert [f.func for f in r007] == ["partial"]


def test_r008_parse_error(lint):
    findings = lint("""
        def q(r3):
            return r3.open_sql.select("SELECT FROM mara")
    """)
    (f,) = [f for f in findings if f.rule == "R008"]
    assert "fails to parse" in f.message


def test_r009_full_table_report_on_partitionable_table(lint):
    findings = lint("""
        def report(r3):
            return r3.open_sql.select(
                "SELECT matnr kwmeng FROM vbap WHERE kwmeng < :q",
                {"q": 24})
    """)
    (f,) = [f for f in findings if f.rule == "R009"]
    assert f.severity == "info"
    assert "--degree" in f.message
    assert f.estimate["suggested_degree"] >= 2
    assert f.estimate["rows_scanned"] > 0


def test_r009_quiet_on_indexed_probe_and_small_table(lint):
    findings = lint("""
        def probe(r3):
            return r3.open_sql.select(
                "SELECT posnr FROM vbap WHERE vbeln = :v", {"v": 1})

        def single(r3):
            return r3.open_sql.select_single(
                "SELECT SINGLE knumv FROM vbak WHERE vbeln = :v",
                {"v": 1})

        def tiny(r3):
            return r3.open_sql.select("SELECT land1 landx FROM t005t")
    """)
    assert "R009" not in rules_of(findings)


def test_findings_ranked_by_severity(lint):
    findings = lint("""
        def big(r3):
            for infnr, in r3.open_sql.select(
                    "SELECT infnr FROM eina").rows:
                r3.open_sql.select_single(
                    "SELECT SINGLE netpr FROM eine "
                    "WHERE infnr = :i", {"i": infnr})

        def small(r3):
            return r3.open_sql.select_single(
                "SELECT SINGLE netpr FROM eine WHERE infnr = :i",
                {"i": 1})
    """)
    severities = [f.severity for f in findings]
    assert severities == sorted(
        severities, key=("error", "warning", "info").index)
    assert all(f.key for f in findings)
    assert len({f.key for f in findings}) == len(findings)


# -- helpers ---------------------------------------------------------------


def test_collect_conjuncts_join_and_or(schema):
    stmt = parse_open_sql(
        "SELECT p~posnr FROM vbap AS p "
        "INNER JOIN vbep AS e ON e~vbeln = p~vbeln "
        "WHERE e~edatu >= :lo AND ( p~netwr > 100 OR p~kwmeng < 5 )"
    )
    conjuncts = collect_conjuncts(stmt)
    tables = {(c.table, c.column, c.from_on) for c in conjuncts}
    assert ("vbep", "edatu", False) in tables
    assert ("vbep", "vbeln", True) in tables
    assert ("vbap", "vbeln", True) in tables
    # The OR branch must not contribute sargable conjuncts.
    assert not any(c.column in ("netwr", "kwmeng") for c in conjuncts)


def test_predicate_fingerprint_matches_shared_plan(schema):
    lo = parse_open_sql("SELECT vbeln FROM vbak WHERE audat >= :lo")
    hi = parse_open_sql("SELECT vbeln FROM vbak WHERE audat >= '1994'")
    literal_93 = parse_open_sql(
        "SELECT vbeln FROM vbak WHERE audat >= '1993'")
    # Host variable and literal translate to the same ? marker plan —
    # that is exactly why the optimizer cannot tell them apart.
    assert predicate_fingerprint(lo, schema) == \
        predicate_fingerprint(hi, schema)
    assert predicate_fingerprint(hi, schema) == \
        predicate_fingerprint(literal_93, schema)
    # the plan_fingerprint string R004 publishes (client, then audat)
    assert repr(predicate_fingerprint(lo, schema)) == (
        "('bin', 'AND', ('bin', '=', ('col', 0), ('param', 0)), "
        "('bin', '>=', ('col', 1), ('param', 1)))")
    different = parse_open_sql(
        "SELECT vbeln FROM vbak WHERE audat >= :lo AND netwr > :n")
    assert predicate_fingerprint(different, schema) != \
        predicate_fingerprint(lo, schema)


def test_r010_abap_sort_over_select(lint):
    findings = lint("""
        def q(r3):
            rows = r3.open_sql.select("SELECT lifnr land1 FROM lfa1")
            return sorted(rows.rows)
    """)
    (f,) = [f for f in findings if f.rule == "R010"]
    assert "ORDER BY" in f.message
    assert f.estimate["rows_shipped"] > 0


def test_r010_quiet_when_engine_already_orders(lint):
    findings = lint("""
        def q(r3):
            rows = r3.open_sql.select(
                "SELECT lifnr land1 FROM lfa1 ORDER BY lifnr")
            return sorted(rows.rows)
    """)
    assert "R010" not in rules_of(findings)


def test_r010_quiet_on_untraceable_source(lint):
    findings = lint("""
        def q(r3, records):
            return sorted(records)
    """)
    assert "R010" not in rules_of(findings)
