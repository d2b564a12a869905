"""The tracer and the monitor decompose one run the same way.

Both read one layer stack, the tracer's: the span tree
(``TraceAnalyzer.query_breakdowns``) and the STAT records (one per
step) must put every simulated second of a power-test step in the same
layer, exactly, serial or parallel.  A tracer-alone run counts the same
layers, so its breakdowns are the traced-and-monitored run's.
"""

import pytest

from repro.core.powertest import run_power_test
from repro.r3.appserver import R3Version
from repro.tpcd.dbgen import generate
from repro.trace import TraceAnalyzer

SF = 0.0005
VARIANTS = ("rdbms", "native", "open")
#: (release, degree); the serial cases keep their ids
CASES = pytest.mark.parametrize(
    "version, degree",
    [(R3Version.V22, 1), (R3Version.V30, 1),
     (R3Version.V22, 4), (R3Version.V30, 4)],
    ids=["2.2", "3.0", "2.2-degree4", "3.0-degree4"])


@pytest.fixture(scope="module")
def tiny_data():
    return generate(SF)


@pytest.fixture(scope="module")
def power_runs(tiny_data):
    """One power test per (release, degree, monitoring), run once."""
    runs = {}

    def run(version, degree, monitoring):
        key = (version, degree, monitoring)
        if key not in runs:
            runs[key] = run_power_test(
                SF, version, variants=VARIANTS, data=tiny_data,
                degree=degree, tracing=True, monitoring=monitoring)
        return runs[key]

    return run


@CASES
def test_trace_and_stat_agree_on_every_step(power_runs, version, degree):
    result = power_runs(version, degree, True)
    for variant in VARIANTS:
        breakdowns = TraceAnalyzer(result.traces[variant]) \
            .query_breakdowns()
        stats = list(result.monitors[variant].stat_records)
        assert [b.name for b in breakdowns] == [s.label for s in stats]
        assert len(breakdowns) >= 17
        for trace, stat in zip(breakdowns, stats):
            step = (version.value, degree, variant, trace.name)
            assert trace.engine_s == stat.engine_s + stat.commit_s, step
            assert trace.dbif_s == stat.dbif_s, step
            assert trace.app_s == \
                stat.abap_s + stat.rollin_s + stat.rollout_s, step
        # the spans that used to have no length hold the plan CPU now
        plan_spans = result.traces[variant].find("db.plan")
        assert plan_spans and all(s.elapsed_s > 0 for s in plan_spans)
    if degree > 1:
        assert any(result.traces[variant].find("exec.lane")
                   for variant in VARIANTS)


@CASES
def test_tracer_alone_splits_as_when_monitored(power_runs, version, degree):
    alone = power_runs(version, degree, False)
    monitored = power_runs(version, degree, True)
    assert not alone.monitors
    for variant in VARIANTS:
        assert [b.to_dict() for b in
                TraceAnalyzer(alone.traces[variant]).query_breakdowns()] \
            == [b.to_dict() for b in
                TraceAnalyzer(monitored.traces[variant]).query_breakdowns()]
