"""Throughput-test extension (the power test's concurrent sibling)."""

import pytest

from repro.core.throughput import (
    _STREAM_PERMUTATIONS,
    run_throughput_test,
    stream_permutation,
)
from repro.r3.dispatcher import DispatcherConfig
from repro.reports import native30
from tests.conftest import SF


@pytest.fixture(scope="module")
def suite():
    return native30.make_queries(SF)


class TestThroughput:
    def test_single_stream_covers_all_queries(self, r3_30, suite):
        result = run_throughput_test(r3_30, suite, streams=1)
        names = {name for _s, name in result.per_query}
        assert names == {f"Q{n}" for n in range(1, 18)}
        assert result.queries_run == 17
        assert result.elapsed_s > 0

    def test_two_streams_run_34_queries(self, r3_30, suite):
        result = run_throughput_test(r3_30, suite, streams=2)
        assert result.queries_run == 34
        for stream in (0, 1):
            assert sum(seconds for (s, _name), seconds
                       in result.per_query.items() if s == stream) > 0
        assert result.conservation_ok()

    def test_queries_per_hour_metric(self, r3_30, suite):
        result = run_throughput_test(r3_30, suite, streams=1)
        expected = 17 * 3600.0 / result.elapsed_s
        assert result.queries_per_hour == pytest.approx(expected)

    def test_second_stream_benefits_from_warm_caches(self, r3_30,
                                                     suite):
        """Interleaving is not free serialization: stream 1 reuses the
        buffer pool and cursor cache stream 0 warmed."""
        r3_30.db.buffer_pool.clear()
        r3_30.dbif.flush_cursor_cache()
        cold = run_throughput_test(r3_30, suite, streams=1)
        warm = run_throughput_test(r3_30, suite, streams=1)
        assert warm.elapsed_s <= cold.elapsed_s

    def test_stream_count_validated(self, r3_30, suite):
        with pytest.raises(ValueError):
            run_throughput_test(r3_30, suite, streams=0)

    def test_update_stream_consumes_distinct_sets(self, tpcd_data):
        from repro.core.powertest import build_sap_system
        from repro.r3.appserver import R3Version
        from repro.tpcd.dbgen import delete_keys, generate_refresh_orders

        r3 = build_sap_system(tpcd_data, R3Version.V30)
        refresh = generate_refresh_orders(tpcd_data, seed=123)
        doomed = delete_keys(tpcd_data, seed=321)
        result = run_throughput_test(
            r3, native30.make_queries(SF), streams=2,
            update_sets=[(refresh, doomed)],
        )
        assert result.update_s > 0
        assert result.updates_submitted == result.updates_run == 1
        # inserted documents are visible afterwards
        from repro.sapschema.mapping import KeyCodec

        new_vbeln = KeyCodec.vbeln(refresh.orders[0][0])
        assert r3.open_sql.select_single(
            "SELECT SINGLE vbeln FROM vbak WHERE vbeln = :v",
            {"v": new_vbeln}) is not None


class TestStreamPermutations:
    """Streams beyond the spec's eight cycle with a per-cycle rotation."""

    def test_first_eight_are_the_spec_orderings(self):
        for stream in range(8):
            assert stream_permutation(stream) == \
                _STREAM_PERMUTATIONS[stream]

    def test_ninth_stream_no_longer_crashes(self):
        # regression: _STREAM_PERMUTATIONS[8] used to IndexError
        perm = stream_permutation(8)
        base = _STREAM_PERMUTATIONS[0]
        assert perm == base[1:] + base[:1]
        assert sorted(perm) == list(range(1, 18))

    def test_cycles_rotate_deterministically(self):
        for stream in (9, 16, 23, 40):
            perm = stream_permutation(stream)
            base = _STREAM_PERMUTATIONS[stream % 8]
            rotation = (stream // 8) % 17
            assert perm == base[rotation:] + base[:rotation]
            assert sorted(perm) == list(range(1, 18))

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            stream_permutation(-1)

    def test_nine_streams_run_end_to_end(self, r3_30, suite):
        result = run_throughput_test(r3_30, suite, streams=9)
        assert result.queries_run == 9 * 17
        assert result.conservation_ok()
        # streams 0 and 8 share a base permutation but run it rotated
        assert stream_permutation(0) != stream_permutation(8)


class TestDispatcherIdentity:
    """With the unconstrained default config the dispatcher schedule is
    tick-for-tick the old round-robin loop it replaced."""

    def _reference_round_robin(self, r3, suite, streams, update_sets):
        """The pre-dispatcher implementation, verbatim."""
        per_query = {}
        update_s = 0.0
        pending_updates = list(update_sets or [])
        positions = [0] * streams
        total_span = r3.measure()
        step = 0
        while any(pos < 17 for pos in positions):
            stream = step % streams
            step += 1
            pos = positions[stream]
            if pos >= 17:
                continue
            number = _STREAM_PERMUTATIONS[stream][pos]
            span = r3.measure()
            suite[number](r3)
            per_query[(stream, f"Q{number}")] = span.stop()
            positions[stream] += 1
            if pending_updates and step % streams == 0:
                from repro.reports.updatefuncs import (
                    run_uf1_sap,
                    run_uf2_sap,
                )

                refresh, doomed = pending_updates.pop(0)
                span = r3.measure()
                if refresh is not None:
                    run_uf1_sap(r3, refresh)
                if doomed:
                    run_uf2_sap(r3, doomed)
                update_s += span.stop()
        return per_query, update_s, total_span.stop()

    def test_unconstrained_dispatcher_is_zero_tick(self, tpcd_data):
        from repro.core.powertest import build_sap_system
        from repro.r3.appserver import R3Version
        from repro.tpcd.dbgen import delete_keys, generate_refresh_orders

        suite = native30.make_queries(SF)
        update_sets = [(generate_refresh_orders(tpcd_data, seed=123),
                        delete_keys(tpcd_data, seed=321))]
        old = build_sap_system(tpcd_data, R3Version.V30)
        per_query, update_s, elapsed = self._reference_round_robin(
            old, suite, 2, [tuple(update_sets[0])])
        new = build_sap_system(tpcd_data, R3Version.V30)
        result = run_throughput_test(new, suite, streams=2,
                                     update_sets=update_sets)
        # identical schedule, identical clock: exact equality, not approx
        assert result.per_query == per_query
        assert result.update_s == update_s
        assert result.elapsed_s == elapsed
        assert result.queue_wait_s == 0.0
        assert result.rejected == 0 and result.shed == 0

    def test_unconstrained_charges_no_roll_costs(self, r3_30, suite):
        before = r3_30.metrics.snapshot()
        run_throughput_test(r3_30, suite, streams=2)
        assert before.get("dispatcher.rollin_s") == 0
        assert before.get("dispatcher.rollout_s") == 0


class TestConstrainedPool:
    def test_sixteen_streams_queue_behind_four_processes(self, r3_30,
                                                         suite):
        config = DispatcherConfig(dialog_processes=4, update_processes=1,
                                  queue_capacity=32)
        result = run_throughput_test(r3_30, suite, streams=16,
                                     dispatcher=config)
        assert result.queries_run == 16 * 17
        assert result.conservation_ok()
        # per-stream queue-wait breakdown: the pool is outnumbered, so
        # every stream spends simulated time in the dispatcher queue
        waits = [result.per_stream[s].queue_wait_s for s in range(16)]
        assert all(wait > 0 for wait in waits)
        assert result.queue_wait_s == pytest.approx(sum(waits))

    def test_full_queue_rejects_with_typed_error(self, r3_30, suite):
        config = DispatcherConfig(dialog_processes=1, update_processes=0,
                                  queue_capacity=2)
        result = run_throughput_test(r3_30, suite, streams=8,
                                     dispatcher=config)
        assert result.rejected > 0
        assert result.conservation_ok()
        # rejected queries are resolved (skipped), never served
        assert result.queries_run == 8 * 17 - result.rejected
