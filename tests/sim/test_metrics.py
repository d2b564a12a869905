from repro.sim.metrics import MetricsCollector


class TestMetricsCollector:
    def test_count_default_one(self):
        metrics = MetricsCollector()
        metrics.count("x")
        metrics.count("x")
        assert metrics.get("x") == 2

    def test_count_amount(self):
        metrics = MetricsCollector()
        metrics.count("rows", 10)
        metrics.count("rows", 5)
        assert metrics.get("rows") == 15

    def test_unknown_counter_is_zero(self):
        assert MetricsCollector().get("missing") == 0

    def test_snapshot_delta(self):
        metrics = MetricsCollector()
        metrics.count("a", 3)
        snap = metrics.snapshot()
        metrics.count("a", 2)
        metrics.count("b", 1)
        assert snap.delta() == {"a": 2, "b": 1}
        assert snap.get("a") == 2
        assert snap.get("c") == 0

    def test_snapshot_excludes_unchanged(self):
        metrics = MetricsCollector()
        metrics.count("a")
        snap = metrics.snapshot()
        assert snap.delta() == {}

    def test_iteration_sorted(self):
        metrics = MetricsCollector()
        metrics.count("zz")
        metrics.count("aa")
        assert [name for name, _v in metrics] == ["aa", "zz"]

    def test_reading_never_lists_a_counter(self):
        # the counts live in a defaultdict: a subscript read would
        # create the name, so every read goes through ``.get``
        metrics = MetricsCollector()
        metrics.count("written")
        snap = metrics.snapshot()
        assert metrics.get("only.read") == 0
        assert snap.get("only.read") == 0
        assert snap.delta() == {}
        assert metrics.all() == {"written": 1}
        assert list(metrics) == [("written", 1)]
        assert "only.read" not in metrics.counts

    def test_delta_keys_come_out_sorted(self):
        # the order is part of every trace file; a set of names iterates
        # in an order that changes with PYTHONHASHSEED
        metrics = MetricsCollector()
        names = [f"layer{n % 7}.counter{n}" for n in range(40, 0, -1)]
        metrics.count(names[3])
        snap = metrics.snapshot()
        for name in names:
            metrics.count(name)
        assert list(snap.delta()) == sorted(names)

    def test_counts_is_the_write_surface(self):
        metrics = MetricsCollector()
        counts = metrics.counts
        counts["hot"] += 2
        metrics.count("hot")
        assert metrics.get("hot") == 3
        counts["hot"] += 1
        assert metrics.all() == {"hot": 4}

    def test_snapshot_isolation_across_collectors(self):
        one, two = MetricsCollector(), MetricsCollector()
        one.count("shared", 1)
        snap_one = one.snapshot()
        snap_two = two.snapshot()
        one.count("shared", 2)
        two.count("shared", 7)
        two.count("other", 1)
        assert snap_one.delta() == {"shared": 2}
        assert snap_two.delta() == {"shared": 7, "other": 1}
        # each snapshot reads only its own collector
        assert snap_one.get("other") == 0
        assert snap_two.get("shared") == 7


class TestMetricsScope:
    def test_scoped_freezes_delta_at_exit(self):
        metrics = MetricsCollector()
        metrics.count("before", 5)
        with metrics.scoped() as scope:
            metrics.count("inside", 2)
            assert scope.get("inside") == 2
        metrics.count("after", 9)
        assert scope.delta == {"inside": 2}

    def test_scope_before_enter_is_empty(self):
        scope = MetricsCollector().scoped()
        assert scope.delta == {} and scope.get("x") == 0

    def test_nested_scopes_account_independently(self):
        metrics = MetricsCollector()
        with metrics.scoped() as outer:
            metrics.count("a", 1)
            with metrics.scoped() as inner:
                metrics.count("a", 2)
                metrics.count("b", 5)
            metrics.count("a", 4)
        # the inner scope sees only what happened inside it; the outer
        # scope sees everything, including the inner block's counts
        assert inner.delta == {"a": 2, "b": 5}
        assert outer.delta == {"a": 7, "b": 5}

    def test_nested_scope_live_reads_do_not_leak_outer(self):
        metrics = MetricsCollector()
        metrics.count("x", 3)
        with metrics.scoped():
            metrics.count("x", 1)
            with metrics.scoped() as inner:
                assert inner.get("x") == 0
                metrics.count("x", 2)
                assert inner.get("x") == 2
