"""The tracer and the monitor decompose one run the same way.

Both read the same clock around the same blocks: the span tree
(``TraceAnalyzer.query_breakdowns``) and the exclusive layer stack (one
STAT record per step) must put every simulated second of a power-test
step in the same layer.  They did not while ``Database._plan`` charged
the plan CPU inside the monitor's ``engine`` layer but before it opened
the ``db.plan`` span: every plan moved ``plan_cpu_s`` from the engine to
the DBIF (or, without an R/3 system, to the application) in the trace.
"""

import pytest

from repro.core.powertest import run_power_test
from repro.r3.appserver import R3Version
from repro.tpcd.dbgen import generate
from repro.trace import TraceAnalyzer

SF = 0.0005
VARIANTS = ("rdbms", "native", "open")


@pytest.fixture(scope="module")
def tiny_data():
    return generate(SF)


@pytest.mark.parametrize("version", [R3Version.V22, R3Version.V30],
                         ids=["2.2", "3.0"])
def test_trace_and_stat_agree_on_every_step(tiny_data, version):
    result = run_power_test(SF, version, variants=VARIANTS, data=tiny_data,
                            tracing=True, monitoring=True)
    for variant in VARIANTS:
        breakdowns = TraceAnalyzer(result.traces[variant]) \
            .query_breakdowns()
        stats = list(result.monitors[variant].stat_records)
        assert [b.name for b in breakdowns] == [s.label for s in stats]
        assert len(breakdowns) >= 17
        for trace, stat in zip(breakdowns, stats):
            step = (version.value, variant, trace.name)
            assert trace.engine_s == pytest.approx(
                stat.engine_s + stat.commit_s, abs=1e-9), step
            assert trace.dbif_s == pytest.approx(
                stat.dbif_s, abs=1e-9), step
            assert trace.app_s == pytest.approx(
                stat.abap_s + stat.rollin_s + stat.rollout_s,
                abs=1e-9), step
        # the spans that used to have no length hold the plan CPU now
        plan_spans = result.traces[variant].find("db.plan")
        assert plan_spans and all(s.elapsed_s > 0 for s in plan_spans)
