"""A run of equal additions in closed form against the addition loop.

``RunAdder.add_each(total, s, n)`` — what ``charge_each`` and the
replay of counted units make — must give the bits of ``n`` additions of
``s`` onto ``total``, one at a time (DESIGN.md §31).  Compared by
``repr``: starts near powers of two and near zero, where a run leaves
its binade; steps ``3·2^-k``, whose additions tie; every cost of
``SimParams``; runs of up to 10⁶; lane sinks; a reset and a rebinding
after a binade is cached.
"""

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import LaneSink, RunAdder, SimulatedClock
from repro.sim.metrics import MetricsCollector
from repro.sim.params import SimParams

COSTS = sorted({getattr(SimParams(), f.name) for f in fields(SimParams)
                if f.type in (float, "float")} - {0.0})


def loop(total: float, step: float, n: int) -> float:
    for _ in range(n):
        total += step
    return total


@st.composite
def starts_and_steps(draw):
    """A start near a power of two ``2**e`` (below it, on the finer grid
    of the binade below) or near zero, or anywhere; a step that ties in
    the binade above ``2**e`` (an odd number of its half-ulps, as
    ``3·2^-k`` is), a cost, or anything."""
    e = draw(st.integers(-40, 20))
    start = draw(st.one_of(
        st.builds(lambda m: math.ldexp(1.0, e) + math.ldexp(m, e - 53),
                  st.integers(-64, 64)),
        st.floats(0, 1e-300),
        st.just(0.0),
        st.floats(0, 1e6),
    ))
    step = draw(st.one_of(
        st.builds(lambda j: math.ldexp(2 * j + 1, e - 53),
                  st.integers(0, 40)),
        st.builds(lambda k: 3 * math.ldexp(1.0, -k), st.integers(1, 70)),
        st.sampled_from(COSTS),
        st.floats(0, 1.0),
        st.floats(0, 1e-12),
    ))
    return start, step


runs = st.one_of(st.integers(0, 12), st.integers(0, 5000))


@settings(max_examples=1500, deadline=None)
@given(starts_and_steps(), runs)
def test_a_run_is_the_addition_loop(start_and_step, n):
    start, step = start_and_step
    adder = RunAdder()
    expected = repr(loop(start, step, n))
    assert repr(adder.add_each(start, step, n)) == expected
    # again, with the binade the run ended in cached: from below it, the
    # first of the three real additions can land inside it unsettled
    assert repr(adder.add_each(start, step, n)) == expected
    end = adder.add_each(start, step, n)
    assert repr(adder.add_each(end, step, n)) == repr(loop(end, step, n))


@settings(max_examples=12, deadline=None)
@given(st.floats(0, 1e4), st.sampled_from(COSTS),
       st.integers(10**5, 10**6))
def test_a_long_run_is_the_addition_loop(start, step, n):
    assert repr(RunAdder().add_each(start, step, n)) == \
        repr(loop(start, step, n))


def test_a_tie_settles_on_even_after_the_first_addition():
    # 2**52 + 1 is odd in the binade [2**52, 2**53), whose ulp is 1; a
    # step of 2.5 ulps ties: the first addition rounds up to even, and
    # from then on every addition adds 2
    start, step = 2.0**52 + 1, 2.5
    assert start + step - start == 3.0
    assert start + step + step - (start + step) == 2.0
    assert RunAdder().add_each(start, step, 1000) == loop(start, step, 1000)


def test_a_run_that_crosses_binades_is_cut_at_each():
    adder = RunAdder()
    assert repr(adder.add_each(0.0, 0.1, 10**5)) == repr(loop(0.0, 0.1, 10**5))
    assert adder.low <= loop(0.0, 0.1, 10**5) < adder.high


def bound_clock():
    clock, metrics = SimulatedClock(), MetricsCollector()
    clock.bind_unit_charge(metrics, "exec.tuples", SimParams().tuple_cpu_s)
    return clock, metrics


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["units", "each", "charge", "enter", "leave", "fresh",
                     "rebind"]),
    st.integers(0, 3000), st.sampled_from(COSTS)), max_size=30))
def test_the_clock_replays_runs_as_the_loop(script):
    """Units, runs and single charges, in and out of a lane sink, with
    fresh clocks and rebindings after binades are cached; the reference
    adds one at a time."""
    clock, metrics = bound_clock()
    unit = SimParams().tuple_cpu_s
    sink, ref_sink = LaneSink(), None
    ref_global = 0.0
    redirect = None
    for kind, n, cost in script:
        lane = redirect is not None
        if kind == "units":
            metrics.counts["exec.tuples"] += n
            delta = (unit, n)
        elif kind == "each":
            clock.charge_each(cost, n)
            delta = (cost, n)
        elif kind == "charge":
            clock.charge(cost)
            delta = (cost, 1)
        elif kind == "enter" and not lane:
            redirect = clock.redirect(sink)
            redirect.__enter__()
            ref_sink = sink.seconds
            continue
        elif kind == "leave" and lane:
            redirect.__exit__(None, None, None)
            redirect = None
            continue
        elif kind == "fresh" and not lane:
            clock, metrics = bound_clock()
            ref_global = 0.0
            continue
        elif kind == "rebind":
            metrics = MetricsCollector()
            clock.bind_unit_charge(metrics, "exec.tuples", unit)
            continue
        else:
            continue
        if lane:
            ref_sink = loop(ref_sink, *delta)
            assert repr(clock.now) == repr(ref_global + ref_sink)
        else:
            ref_global = loop(ref_global, *delta)
            assert repr(clock.now) == repr(ref_global)
    if redirect is not None:
        redirect.__exit__(None, None, None)
        assert repr(sink.seconds) == repr(ref_sink)
    assert repr(clock.now) == repr(ref_global)


def test_a_negative_run_is_refused_and_counts_nothing():
    clock, metrics = bound_clock()
    metrics.counts["x"] += 5
    with pytest.raises(ValueError):
        clock.charge_each(1.0, -3, metrics.counts, "x")
    assert metrics.counts["x"] == 5
    assert clock.now == 0.0


def test_charging_units_needs_a_binding():
    clock = SimulatedClock()
    with pytest.raises(ValueError):
        clock.charge_units(3)
    assert clock.now == 0.0
