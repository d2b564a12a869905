"""Dispatcher + work-process pool: scheduling, overload, crashes."""

import pytest

from repro.engine.errors import DiskIOError
from repro.r3.appserver import R3System, R3Version
from repro.r3.dispatcher import (
    PRIORITY_UPDATE,
    Dispatcher,
    DispatcherConfig,
    Request,
)
from repro.r3.errors import DispatcherOverload
from repro.r3.workproc import (
    WorkProcessPool,
    WorkProcessState,
    WorkProcessType,
)
from repro.sim.faults import FaultProfile


@pytest.fixture()
def r3():
    return R3System(R3Version.V30)


def _request(r3, label, cost=1.0, stream=0, priority=0, body=None):
    def fn():
        if body is not None:
            body()
        r3.clock.charge(cost)
        return label

    return Request(stream=stream, label=label, fn=fn, priority=priority)


def _drain(disp, max_rounds=100):
    """Dispatch until the queue is empty; returns all completions."""
    completions = []
    for _ in range(max_rounds):
        completions.extend(disp.dispatch_round())
        if disp.queue_depth == 0:
            break
    return completions


class TestScheduling:
    def test_fifo_order_and_values(self, r3):
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=3))
        for label in ("a", "b", "c"):
            disp.submit(_request(r3, label))
        completions = disp.dispatch_round()
        assert [c.request.label for c in completions] == ["a", "b", "c"]
        assert all(c.kind == "completed" for c in completions)
        assert [c.value for c in completions] == ["a", "b", "c"]

    def test_pool_bounds_multiprogramming(self, r3):
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=1,
                                               rollin_s=0.0,
                                               rollout_s=0.0))
        disp.submit(_request(r3, "first", cost=2.0))
        disp.submit(_request(r3, "second", cost=1.0))
        first_round = disp.dispatch_round()
        assert [c.request.label for c in first_round] == ["first"]
        assert disp.queue_depth == 1
        second_round = disp.dispatch_round()
        assert [c.request.label for c in second_round] == ["second"]
        # the leftover request waited exactly the first one's service
        assert second_round[0].queue_wait_s == pytest.approx(2.0)
        assert r3.metrics.get("dispatcher.queue_wait_s") == \
            pytest.approx(2.0)

    def test_queue_wait_zero_when_pool_outnumbers_streams(self, r3):
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=4))
        for i in range(4):
            disp.submit(_request(r3, f"q{i}"))
        for comp in disp.dispatch_round():
            assert comp.queue_wait_s == 0.0

    def test_roll_costs_charged_and_counted(self, r3):
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=1,
                                               rollin_s=0.5,
                                               rollout_s=0.25))
        disp.submit(_request(r3, "q", cost=1.0))
        comp = disp.dispatch_round()[0]
        assert comp.service_s == pytest.approx(1.75)
        assert r3.metrics.get("dispatcher.rollin_s") == pytest.approx(0.5)
        assert r3.metrics.get("dispatcher.rollout_s") == \
            pytest.approx(0.25)

    def test_update_request_uses_update_process(self, r3):
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=1,
                                               update_processes=1))
        disp.submit(_request(r3, "uf", priority=PRIORITY_UPDATE))
        disp.dispatch_round()
        served_by = [wp for wp in disp.pool.processes if wp.served]
        assert [wp.kind for wp in served_by] == [WorkProcessType.UPDATE]

    def test_update_falls_back_to_dialog_pool(self, r3):
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=2,
                                               update_processes=0))
        disp.submit(_request(r3, "uf", priority=PRIORITY_UPDATE))
        comp = disp.dispatch_round()[0]
        assert comp.kind == "completed"
        served_by = [wp for wp in disp.pool.processes if wp.served]
        assert [wp.kind for wp in served_by] == [WorkProcessType.DIALOG]


class TestAdmissionControl:
    def test_full_queue_rejects_typed(self, r3):
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=1,
                                               queue_capacity=2))
        disp.submit(_request(r3, "a"))
        disp.submit(_request(r3, "b"))
        with pytest.raises(DispatcherOverload) as exc:
            disp.submit(_request(r3, "c"))
        assert not exc.value.shed
        assert "queue full" in str(exc.value)
        assert r3.metrics.get("dispatcher.rejected") == 1
        assert disp.queue_depth == 2

    def test_lowprio_shed_past_highwater(self, r3):
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=1,
                                               queue_capacity=4,
                                               shed_highwater=0.5))
        disp.submit(_request(r3, "a"))
        disp.submit(_request(r3, "b"))
        # occupancy 2/4 >= 50% high water: update traffic is shed ...
        with pytest.raises(DispatcherOverload) as exc:
            disp.submit(_request(r3, "uf", priority=PRIORITY_UPDATE))
        assert exc.value.shed
        assert r3.metrics.get("dispatcher.shed_lowprio") == 1
        # ... while dialog traffic is still admitted
        disp.submit(_request(r3, "c"))
        assert disp.queue_depth == 3

    def test_lowprio_admitted_when_queue_calm(self, r3):
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=1,
                                               queue_capacity=4,
                                               shed_highwater=0.5))
        disp.submit(_request(r3, "uf", priority=PRIORITY_UPDATE))
        assert disp.queue_depth == 1

    def test_deadline_shed_at_dispatch(self, r3):
        disp = Dispatcher(r3, DispatcherConfig(
            dialog_processes=1, queue_wait_deadline_s=5.0))
        disp.submit(_request(r3, "stale"))
        r3.clock.charge(6.0)
        comp = disp.dispatch_round()[0]
        assert comp.kind == "shed"
        assert "deadline" in comp.reason
        assert comp.queue_wait_s == pytest.approx(6.0)
        assert r3.metrics.get("dispatcher.deadline_shed") == 1
        # the work process never served it
        assert all(wp.served == 0 for wp in disp.pool.processes)


class TestCrashRecovery:
    def test_crash_restarts_process_and_requeues_idempotently(self, r3):
        r3.attach_faults(FaultProfile(work_process_crash_every=2))
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=1,
                                               restart_s=2.0))
        runs = []
        disp.submit(_request(r3, "a", body=lambda: runs.append("a")))
        disp.submit(_request(r3, "b", body=lambda: runs.append("b")))
        completions = _drain(disp)
        kinds = [(c.request.label, c.kind) for c in completions]
        # request b crashes at roll-in (before its body), is requeued
        # at the queue front and completes on the restarted process
        assert ("b", "requeued") in kinds
        assert kinds[-1] == ("b", "completed")
        assert runs == ["a", "b"]  # bodies ran exactly once each
        assert r3.metrics.get("dispatcher.requeued") == 1
        assert r3.metrics.get("dispatcher.wp_restarts") == 1
        assert r3.metrics.get("faults.crashes_injected") == 1

    def test_restart_charges_simulated_time(self, r3):
        r3.attach_faults(FaultProfile(work_process_crash_every=1))
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=1,
                                               rollin_s=0.0,
                                               rollout_s=0.0,
                                               restart_s=2.0,
                                               max_requeues=1))
        disp.submit(_request(r3, "doomed", cost=0.0))
        before = r3.clock.now
        _drain(disp)
        # two crashes (initial + one requeue) -> two restarts
        assert r3.clock.now - before == pytest.approx(4.0)

    def test_requeue_budget_exhaustion_sheds(self, r3):
        r3.attach_faults(FaultProfile(work_process_crash_every=1))
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=1,
                                               max_requeues=2))
        disp.submit(_request(r3, "doomed"))
        completions = _drain(disp)
        assert [c.kind for c in completions] == \
            ["requeued", "requeued", "shed"]
        assert "requeue budget exhausted" in completions[-1].reason
        assert r3.metrics.get("dispatcher.wp_restarts") == 3

    def test_transient_error_sheds_but_process_survives(self, r3):
        def boom():
            raise DiskIOError("injected")

        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=1))
        disp.submit(Request(stream=0, label="q", fn=boom))
        comp = disp.dispatch_round()[0]
        assert comp.kind == "shed"
        assert "DiskIOError" in comp.reason
        wp = disp.pool.processes[0]
        assert wp.state is WorkProcessState.IDLE
        assert r3.metrics.get("dispatcher.shed") == 1


class TestConfigAndPool:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DispatcherConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            DispatcherConfig(shed_highwater=0.0)
        with pytest.raises(ValueError):
            DispatcherConfig(shed_highwater=1.5)

    def test_pool_validation(self, r3):
        with pytest.raises(ValueError):
            WorkProcessPool(r3, dialog=0, update=1, restart_s=0.0)
        with pytest.raises(ValueError):
            WorkProcessPool(r3, dialog=1, update=-1, restart_s=0.0)

    def test_unconstrained_config_shape(self):
        config = DispatcherConfig.unconstrained(6)
        assert config.dialog_processes == 6
        assert config.queue_capacity == 7
        assert config.rollin_s == 0.0
        assert config.rollout_s == 0.0
        assert config.queue_wait_deadline_s is None

    def test_pool_stats_account_service(self, r3):
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=1,
                                               rollin_s=0.0,
                                               rollout_s=0.0))
        disp.submit(_request(r3, "q", cost=3.0))
        disp.dispatch_round()
        stats = disp.pool.stats()
        assert stats["DIA00"]["served"] == 1
        assert stats["DIA00"]["busy_s"] == pytest.approx(3.0)

    def test_serve_emits_trace_spans(self, r3):
        r3.tracer.enable()
        disp = Dispatcher(r3, DispatcherConfig(dialog_processes=1))
        disp.submit(_request(r3, "q7", stream=3))
        disp.dispatch_round()
        spans = [s for root in r3.tracer.roots for s in root.walk()
                 if s.name == "dispatcher.serve"]
        assert len(spans) == 1
        assert spans[0].attrs["label"] == "q7"
        assert spans[0].attrs["stream"] == 3
        assert spans[0].attrs["outcome"] == "completed"
