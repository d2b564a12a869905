import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import LaneSink, SimulatedClock, format_duration
from repro.sim.metrics import MetricsCollector
from repro.sim.params import SimParams


class TestSimulatedClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now == 0.0

    def test_charge_accumulates(self):
        clock = SimulatedClock()
        clock.charge(1.5)
        clock.charge(2.5)
        assert clock.now == 4.0

    def test_negative_charge_rejected(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            clock.charge(-1.0)

    def test_span_measures_window(self):
        clock = SimulatedClock()
        clock.charge(10.0)
        span = clock.span()
        clock.charge(3.0)
        assert span.stop() == 3.0
        # time after stop is not counted
        clock.charge(5.0)
        assert span.elapsed == 3.0

    def test_span_context_manager(self):
        clock = SimulatedClock()
        with clock.span() as span:
            clock.charge(2.0)
        assert span.elapsed == 2.0

    def test_nested_spans(self):
        clock = SimulatedClock()
        outer = clock.span()
        clock.charge(1.0)
        inner = clock.span()
        clock.charge(2.0)
        assert inner.stop() == 2.0
        assert outer.stop() == 3.0


class TestFormatDuration:
    def test_seconds(self):
        assert format_duration(34) == "34s"

    def test_minutes(self):
        assert format_duration(5 * 60 + 17) == "5m 17s"

    def test_hours(self):
        assert format_duration(2 * 3600 + 14 * 60 + 56) == "2h 14m 56s"

    def test_days(self):
        seconds = 25 * 86400 + 19 * 3600 + 55 * 60
        assert format_duration(seconds) == "25d 19h 55m"

    def test_zero(self):
        assert format_duration(0) == "0s"

    def test_rounding(self):
        assert format_duration(59.6) == "1m 00s"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-1)


# -- the lazily replayed unit charge ----------------------------------------

UNIT_S = SimParams().tuple_cpu_s


def bound_clock():
    clock, metrics = SimulatedClock(), MetricsCollector()
    clock.bind_unit_charge(metrics, "exec.tuples", UNIT_S)
    return clock, metrics


class TestUnitCharge:
    def test_counted_units_are_replayed_one_addition_each(self):
        clock, metrics = bound_clock()
        clock.charge(0.1)
        expected = 0.1
        for _ in range(1000):
            metrics.counts["exec.tuples"] += 1
            expected += UNIT_S
        assert expected != 0.1 + 1000 * UNIT_S  # the product is not it
        assert clock.now == expected

    def test_charge_units_is_one_addition_of_the_product(self):
        clock, metrics = bound_clock()
        clock.charge(0.1)
        clock.charge_units(1000)
        assert clock.now == 0.1 + UNIT_S * 1000
        assert metrics.get("exec.tuples") == 1000
        assert clock.now == 0.1 + UNIT_S * 1000  # nothing left pending

    def test_reading_now_never_lists_the_counter(self):
        clock, metrics = bound_clock()
        clock.charge(1.0)
        assert clock.now == 1.0
        assert metrics.all() == {}

    def test_negative_unit_cost_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().bind_unit_charge(MetricsCollector(), "n", -1e-6)

    def test_units_counted_before_the_binding_are_not_charged(self):
        clock, metrics = SimulatedClock(), MetricsCollector()
        metrics.count("exec.tuples", 5)
        clock.bind_unit_charge(metrics, "exec.tuples", UNIT_S)
        assert clock.now == 0.0

    def test_rebinding_settles_the_first_binding(self):
        clock, first = bound_clock()
        first.counts["exec.tuples"] += 2
        second = MetricsCollector()
        second.count("rows", 10)
        clock.bind_unit_charge(second, "rows", 0.5)
        assert clock.now == UNIT_S + UNIT_S
        first.counts["exec.tuples"] += 1  # no longer a charge
        second.counts["rows"] += 1
        assert clock.now == UNIT_S + UNIT_S + 0.5


class Timeout(Exception):
    pass


class EagerClock:
    """The reference: the parent commit's clock, on which every charge
    lands when it is made — a tuple is ``charge(UNIT_S)``."""

    def __init__(self):
        self.global_s = 0.0
        self.lane = None  # index into ``lanes`` while redirected
        self.lanes = [0.0, 0.0]
        self.deadline = None

    @property
    def now(self):
        if self.lane is None:
            return self.global_s
        return self.global_s + self.lanes[self.lane]

    def charge(self, seconds):
        if self.lane is not None:
            self.lanes[self.lane] += seconds
            return
        self.global_s += seconds
        if self.deadline is not None and self.global_s >= self.deadline:
            self.deadline = None
            raise Timeout()


amounts = st.one_of(st.sampled_from([0.0, UNIT_S, 1e-7, 0.00123, 0.25]),
                    st.floats(0, 0.01))
script_ops = st.one_of(
    st.tuples(st.just("tuples"), st.integers(1, 60)),
    st.tuples(st.just("bulk"), st.integers(0, 60)),
    st.tuples(st.just("charge"), amounts),
    st.tuples(st.just("now")),
    st.tuples(st.just("span")),
    st.tuples(st.just("stop")),
    st.tuples(st.just("enter"), st.integers(0, 1)),
    st.tuples(st.just("leave")),
    st.tuples(st.just("arm"), amounts),
    st.tuples(st.just("pop")),
)


@settings(max_examples=300, deadline=None)
@given(script=st.lists(script_ops, max_size=60))
def test_lazy_clock_equals_eager_clock(script):
    clock, metrics = bound_clock()
    counts = metrics.counts
    eager = EagerClock()
    sinks = [LaneSink(), LaneSink()]
    redirect = None
    spans = []
    counted = 0
    armed = token = None    # the lazy clock's deadline and its token
    owed = False            # the eager clock has fired, the lazy not yet
    unchecked = 0           # global tuples since the last deadline check

    def charge_both(lazy_charge, seconds):
        """A charge that is not a unit tuple, on both clocks."""
        nonlocal armed, owed, unchecked
        try:
            eager.charge(seconds)
        except Timeout:
            owed = True
        fired = False
        try:
            lazy_charge()
        except Timeout:
            # no later than the first such charge after the crossing,
            # and late by no more than what was pending plus the charge
            assert owed
            assert clock.now - armed <= unchecked * UNIT_S + seconds + 1e-12
            armed, owed, fired = None, False, True
        assert not owed or redirect is not None
        if redirect is None:
            unchecked = 0
        return fired

    for op in script:
        kind = op[0]
        if kind == "tuples":
            for _ in range(op[1]):
                counts["exec.tuples"] += 1  # cannot raise
                try:
                    eager.charge(UNIT_S)
                except Timeout:
                    owed = True
            counted += op[1]
            if redirect is None:
                unchecked += op[1]
        elif kind == "bulk":
            # an aborted batch is charged but not counted, as ever
            if op[1] and not charge_both(lambda: clock.charge_units(op[1]),
                                         UNIT_S * op[1]):
                counted += op[1]
        elif kind == "charge":
            charge_both(lambda: clock.charge(op[1]), op[1])
        elif kind == "now":
            assert clock.now == eager.now
        elif kind == "span":
            spans.append((clock.span(), eager.now))
        elif kind == "stop" and spans:
            span, start = spans.pop()
            assert span.stop() == eager.now - start
        elif kind == "enter" and redirect is None:
            redirect = clock.redirect(sinks[op[1]])
            redirect.__enter__()
            eager.lane = op[1]
        elif kind == "leave" and redirect is not None:
            redirect.__exit__(None, None, None)
            redirect = None
            # read the way engine/parallel/lanes.py reads it
            assert sinks[eager.lane].seconds == eager.lanes[eager.lane]
            eager.lane = None
        elif kind == "arm" and armed is None and redirect is None:
            armed = eager.deadline = clock.now + op[1]
            token = clock.push_deadline(armed, Timeout)
            unchecked = 0
        elif kind == "pop" and armed is not None:
            clock.pop_deadline(token)
            armed, owed, eager.deadline = None, False, None
        assert metrics.get("exec.tuples") == counted  # always current
    assert clock.now == eager.now
    assert [sink.seconds for sink in sinks] == eager.lanes
