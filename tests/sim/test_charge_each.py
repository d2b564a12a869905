"""``SimulatedClock.charge_each(s, n)`` against ``n`` calls of ``charge(s)``.

Two clocks run one script: one makes each run of equal charges with one
``charge_each``, the other with a loop of ``charge``.  They must read
the same bits at every step — with tuple units pending, inside a lane
sink, and when an armed deadline fires part of the way into a run (both
raise, at the same addition).  Each charge of a run is counted, as a
caller counts a row after charging it: the counters agree too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import LaneSink, SimulatedClock
from repro.sim.metrics import MetricsCollector
from repro.sim.params import SimParams

UNIT_S = SimParams().tuple_cpu_s
HIT_S = SimParams().buffer_hit_s


class Timeout(Exception):
    pass


def bound_clock():
    clock, metrics = SimulatedClock(), MetricsCollector()
    clock.bind_unit_charge(metrics, "exec.tuples", UNIT_S)
    return clock, metrics


amounts = st.one_of(st.sampled_from([0.0, UNIT_S, HIT_S, 1e-7, 0.25]),
                    st.floats(0, 0.01))
ops = st.one_of(
    st.tuples(st.just("run"), amounts, st.integers(0, 300)),
    st.tuples(st.just("charge"), amounts),
    st.tuples(st.just("tuples"), st.integers(1, 40)),
    st.tuples(st.just("enter")),
    st.tuples(st.just("leave")),
    st.tuples(st.just("arm"), st.floats(0, 0.02)),
    st.tuples(st.just("pop")),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(ops, max_size=40))
def test_one_call_makes_the_additions_of_n_charges(script):
    each, each_metrics = bound_clock()
    loop, loop_metrics = bound_clock()
    clocks = ((each, each_metrics), (loop, loop_metrics))
    sinks = [LaneSink(), LaneSink()]
    redirects = None
    tokens = None
    for op in script:
        kind = op[0]
        if kind in ("run", "charge"):
            seconds, n = op[1], op[2] if kind == "run" else 1
            results = []
            def charges():  # each followed by its count
                for _ in range(n):
                    loop.charge(seconds)
                    loop_metrics.counts["runs"] += 1

            for clock, run in ((each, lambda: each.charge_each(
                    seconds, n, each_metrics.counts, "runs")),
                               (loop, charges)):
                try:
                    run()
                    results.append("ok")
                except Timeout:
                    results.append("fired")
            assert results[0] == results[1]
            if results[0] == "fired":
                tokens = None  # a deadline that fires is gone
        elif kind == "tuples":
            for _clock, metrics in clocks:
                metrics.counts["exec.tuples"] += op[1]
        elif kind == "enter" and redirects is None:
            redirects = [clock.redirect(sink)
                         for (clock, _), sink in zip(clocks, sinks)]
            for redirect in redirects:
                redirect.__enter__()
        elif kind == "leave" and redirects is not None:
            for redirect in redirects:
                redirect.__exit__(None, None, None)
            redirects = None
        elif kind == "arm" and tokens is None:
            tokens = [clock.push_deadline(clock.now + op[1], Timeout)
                      for clock, _ in clocks]
        elif kind == "pop" and tokens is not None:
            for (clock, _), token in zip(clocks, tokens):
                clock.pop_deadline(token)
            tokens = None
        assert repr(each.now) == repr(loop.now)
        assert repr(sinks[0].seconds) == repr(sinks[1].seconds)
    assert each_metrics.all() == loop_metrics.all()


def test_n_additions_are_not_one_product():
    clock = SimulatedClock()
    clock.charge(0.1)
    clock.charge_each(HIT_S, 1000)
    expected = 0.1
    for _ in range(1000):
        expected += HIT_S
    assert expected != 0.1 + 1000 * HIT_S
    assert clock.now == expected


def test_a_deadline_fires_at_the_addition_that_crosses_it():
    clock, loop = SimulatedClock(), SimulatedClock()
    for c in (clock, loop):
        c.push_deadline(HIT_S * 40.5, Timeout)
    with pytest.raises(Timeout):
        clock.charge_each(HIT_S, 100)
    with pytest.raises(Timeout):
        for _ in range(100):
            loop.charge(HIT_S)
    assert repr(clock.now) == repr(loop.now)
    assert clock.now > HIT_S * 40.5 > clock.now - HIT_S  # the 41st
    clock.charge_each(HIT_S, 5)  # fired once, disarmed
    assert not clock.deadline_armed


def test_in_a_lane_the_run_lands_in_the_sink_and_fires_nothing():
    clock, sink = SimulatedClock(), LaneSink()
    clock.push_deadline(HIT_S, Timeout)
    assert clock.deadline_armed
    with clock.redirect(sink):
        assert not clock.deadline_armed
        clock.charge_each(HIT_S, 10)
    assert clock.now == 0.0
    expected = 0.0
    for _ in range(10):
        expected += HIT_S
    assert sink.seconds == expected


def test_negative_time_is_refused():
    with pytest.raises(ValueError):
        SimulatedClock().charge_each(-1.0, 3)
