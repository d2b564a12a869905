"""The ``python -m repro`` command line."""

import pytest

from repro.__main__ import COMMANDS, build_parser, main


def exit_status(argv) -> int:
    """The process exit status of ``python -m repro <argv>``: what
    ``main`` returns, or the ``SystemExit`` code argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["power"])
        assert args.sf == 0.002 and args.release == "3.0"

    def test_storage_flag(self):
        assert build_parser().parse_args(["power"]).storage == "heap"
        args = build_parser().parse_args(["loading", "--storage", "lsm"])
        assert args.storage == "lsm"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["power", "--storage", "btree"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_all_commands_listed(self):
        assert set(COMMANDS) == {
            "power", "dbsize", "loading", "plan-trap", "aggregation",
            "caching", "warehouse", "eis", "lint", "trace", "bench-diff",
            "chaos", "recover", "rewrite", "monitor",
        }


class TestCommands:
    def test_dbsize_runs(self, capsys):
        assert main(["dbsize", "--sf", "0.0005"]) == 0
        out = capsys.readouterr().out
        assert "inflation" in out and "LINEITEM" in out

    def test_loading_runs(self, capsys):
        assert main(["loading", "--sf", "0.0003"]) == 0
        assert "ORDER+LINEITEM" in capsys.readouterr().out

    def test_power_runs(self, capsys):
        assert main(["power", "--sf", "0.0005", "--no-updates"]) == 0
        out = capsys.readouterr().out
        assert "Total (quer.)" in out

    def test_aggregation_runs(self, capsys):
        assert main(["aggregation", "--sf", "0.0005"]) == 0
        assert "match=True" in capsys.readouterr().out

    def test_trace_text_runs(self, capsys):
        assert main(["trace", "power", "--sf", "0.0005", "--no-updates",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "App-server s" in out and "DBIF s" in out
        assert "Top 3 operators" in out

    def test_trace_json_parses(self, capsys):
        import json

        assert main(["trace", "power", "--sf", "0.0005", "--no-updates",
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == "repro-power-trace-v1"
        for variant in ("rdbms", "native", "open"):
            analysis = document["variants"][variant]["analysis"]
            assert len(analysis["queries"]) == 17

    def test_trace_rejects_unknown_target(self, capsys):
        assert exit_status(["trace", "dbsize"]) == 2

    def test_chrome_format_is_trace_only(self, capsys):
        for command in ("lint", "rewrite", "bench-diff", "chaos",
                        "recover", "monitor"):
            assert exit_status([command, "--format", "chrome"]) == 2
        assert build_parser().parse_args(
            ["trace", "--format", "chrome"]).format == "chrome"

    def test_bench_diff(self, tmp_path, capsys):
        import json

        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        a.write_text(json.dumps({
            "name": "bench_x", "stats": {"mean": 2.0},
            "extra_info": {"simulated_s": 100.0},
        }))
        b.write_text(json.dumps({
            "name": "bench_x", "stats": {"mean": 1.0},
            "extra_info": {"simulated_s": 150.0, "extra": 1},
        }))
        assert main(["bench-diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "extra_info.simulated_s" in out and "+50.0%" in out
        assert "B only" in out

    def test_bench_diff_needs_two_files(self, capsys):
        assert exit_status(["bench-diff"]) == 2
        assert exit_status(["bench-diff", "only-one.json"]) == 2

    def test_bench_diff_name_mismatch_is_a_clear_error(self, tmp_path,
                                                       capsys):
        import json

        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        a.write_text(json.dumps({"name": "bench_x",
                                 "extra_info": {"s": 1.0}}))
        b.write_text(json.dumps({"name": "bench_y",
                                 "extra_info": {"s": 1.0}}))
        assert main(["bench-diff", str(a), str(b), "--gate", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "name mismatch" in err
        assert "bench_x" in err and "bench_y" in err

    def test_bench_diff_foreign_shape_is_a_clear_error(self, tmp_path,
                                                       capsys):
        import json

        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "raw.json"
        a.write_text(json.dumps({"name": "bench_x",
                                 "extra_info": {"s": 1.0}}))
        # raw pytest-benchmark output is a JSON list, not a dump
        b.write_text(json.dumps([{"stats": {"mean": 1.0}}]))
        assert main(["bench-diff", str(a), str(b)]) == 2
        err = capsys.readouterr().err
        assert "raw.json" in err and "expected a BENCH_" in err

    def test_bench_diff_missing_name_is_a_clear_error(self, tmp_path,
                                                      capsys):
        import json

        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        a.write_text(json.dumps({"stats": {"mean": 1.0}}))
        b.write_text(json.dumps({"name": "bench_x", "stats": {}}))
        assert main(["bench-diff", str(a), str(b)]) == 2
        assert "missing 'name'" in capsys.readouterr().err


# -- the failure surface -------------------------------------------------------
#
# Whatever a user can provoke ends in exit status 2 and one line on
# stderr naming the command — never a traceback.  Rows are either a
# real command line, or (for failures no command line reaches directly)
# a library call run *as* a command, so the row exercises main()'s
# handler with the exception the library really raises.


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _good_dump(tmp_path):
    return _write(tmp_path, "BENCH_ok.json",
                  '{"name": "bench_x", "extra_info": {"s": 1.0}}')


BAD_COMMAND_LINES = {
    # scale factors and other numbers that must be positive
    "power-sf-zero": ["power", "--sf", "0"],
    "dbsize-sf-zero": ["dbsize", "--sf", "0"],
    "monitor-sf-zero": ["monitor", "--sf", "0"],
    "power-sf-inf": ["power", "--sf", "inf"],
    "power-sf-word": ["power", "--sf", "tiny"],
    "power-degree-zero": ["power", "--degree", "0"],
    "power-degree-negative": ["power", "--degree", "-3"],
    "trace-top-negative": ["trace", "--top", "-1"],
    "chaos-fuzz-sample-negative": ["chaos", "--fuzz-sample", "-1"],
    "chaos-commit-interval-zero": ["chaos", "--commit-interval", "0"],
    "monitor-streams-zero": ["monitor", "--monitor-streams", "0"],
    "monitor-window-zero": ["monitor", "--window", "0"],
    "recover-crash-at-zero": ["recover", "--crash-at", "0"],
    "chaos-sync-period-zero": ["chaos", "--kill-appserver",
                               "--sync-period", "0"],
    "chaos-servers-zero": ["chaos", "--kill-appserver", "--servers", "0"],
    "bench-diff-gate-negative": ["bench-diff", "a.json", "b.json",
                                 "--gate", "-1"],
    # names the owning command rejects
    "recover-unknown-workload": ["recover", "--sf", "0.0002",
                                 "--fuzz-workloads", "nope"],
    "chaos-unknown-fuzz-workload": ["chaos", "--crash-fuzz",
                                    "--fuzz-workloads", "load,nope"],
    "chaos-unknown-profile": ["chaos", "--profile", "nope"],
    "chaos-unknown-routing": ["chaos", "--kill-appserver",
                              "--routing", "random"],
    "rewrite-unknown-family": ["rewrite", "--family", "nope"],
    "power-unknown-storage": ["power", "--storage", "btree"],
    # combinations
    "chaos-two-scenarios": ["chaos", "--crash-fuzz", "--kill-appserver"],
    "chaos-kill-with-stream-list": ["chaos", "--kill-appserver",
                                    "--streams", "2,4,8"],
    "recover-crash-at-past-the-end": ["recover", "--sf", "0.0002",
                                      "--crash-at", "9999999"],
    # output paths are checked before the work, inputs when opened
    "chaos-out-unwritable": ["chaos", "--streams", "2", "--chaos-out",
                             "/no/such/dir/x.json"],
    "monitor-out-unwritable": ["monitor", "--monitor-out",
                               "/no/such/dir/x.json"],
    "trace-out-unwritable": ["trace", "--trace-out", "/no/such/dir/x.json"],
    "rewrite-report-unwritable": ["rewrite", "--report",
                                  "/no/such/dir/x.json"],
    "rewrite-out-unwritable": ["rewrite", "--rewrite-out",
                               "/proc/no-such/dir"],
    "lint-missing-path": ["lint", "/no/such.py"],
    "bench-diff-missing-file": lambda tmp: [
        "bench-diff", _good_dump(tmp), "/no/such/BENCH.json"],
    "bench-diff-not-json": lambda tmp: [
        "bench-diff", _good_dump(tmp), _write(tmp, "b.json", "{not json")],
    "bench-diff-wrong-shape": lambda tmp: [
        "bench-diff", _good_dump(tmp),
        _write(tmp, "b.json", '{"name": "bench_x", "stats": [1, 2]}')],
    # the command line itself
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "option-of-another-command": ["power", "--alerts"],
    "chrome-format-outside-trace": ["monitor", "--format", "chrome"],
    "trace-unknown-target": ["trace", "dbsize"],
}


def _assert_clean_failure(status, captured, command):
    assert status == 2
    assert "Traceback" not in captured.out + captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    prefix = f"repro {command}:" if command else "repro:"
    assert lines[0].startswith(prefix), lines[0]
    assert len(lines[0]) > len(prefix) + 5  # says what is wrong


@pytest.mark.parametrize("case", sorted(BAD_COMMAND_LINES))
def test_bad_command_line_exits_two_in_one_line(case, tmp_path, capsys):
    argv = BAD_COMMAND_LINES[case]
    if callable(argv):
        argv = argv(tmp_path)
    status = exit_status(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else ""
    _assert_clean_failure(status, capsys.readouterr(), command)


def _durable_store(storage="heap"):
    from repro.engine.database import Database
    from repro.engine.schema import Column, TableSchema
    from repro.engine.types import SqlType
    from repro.engine.wal import DurableStore

    store = DurableStore()
    db = Database(durability="wal", store=store, storage=storage)
    db.begin()
    db.create_table(TableSchema("t", [Column("id", SqlType.integer())],
                                ["id"]))
    for i in range(30):
        db.catalog.table("t").insert((i,))
    db.commit()
    return db, store


def _unknown_table(args):
    from repro.engine.database import Database

    Database().execute("SELECT * FROM nope")


def _malformed_engine_sql(args):
    from repro.engine.sql.parser import parse_sql

    parse_sql("SELEC 1 FROM")


def _malformed_open_sql(args):
    from repro.r3.opensql.parser import parse_open_sql

    parse_open_sql("SELECT FROM vbak WHERE")


def _corrupt_wal(args):
    from repro.engine.database import Database

    _db, store = _durable_store()
    store.corrupt_mid_frame()
    Database.open(store)


def _reopen_with_unknown_storage(args):
    from repro.engine.database import Database

    store = _durable_store()[1]
    store.storage = "btree"  # a store no backend wrote
    Database.open(store)


def _bad_fault_profile(args):
    from repro.sim.faults import FaultProfile

    FaultProfile(name="bad", jitter=1.5)


def _unknown_chaos_profile(args):
    from repro.sim.chaos import run_chaos

    run_chaos(profiles=("none", "nope"))


def _sync_period_zero(args):
    from repro.r3.cluster import R3Cluster
    from repro.r3.appserver import R3System, R3Version

    R3Cluster(R3System(R3Version.V30), n_servers=2, sync_period_s=0.0)


LIBRARY_FAILURES = {
    "unknown-table": (_unknown_table, "no table nope"),
    "malformed-engine-sql": (_malformed_engine_sql, "SELEC"),
    "malformed-open-sql": (_malformed_open_sql, "select list"),
    "corrupt-wal": (_corrupt_wal, "corrupt WAL frame"),
    "reopen-unknown-storage": (_reopen_with_unknown_storage, "btree"),
    "fault-profile-out-of-range": (_bad_fault_profile, "jitter"),
    "unknown-chaos-profile": (_unknown_chaos_profile, "nope"),
    "cluster-sync-period-zero": (_sync_period_zero, "sync_interval_s"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_FAILURES))
def test_library_error_reaching_main_exits_two(case, monkeypatch, capsys):
    fails, fragment = LIBRARY_FAILURES[case]
    monkeypatch.setitem(COMMANDS, "dbsize", fails)
    status = main(["dbsize"])
    captured = capsys.readouterr()
    _assert_clean_failure(status, captured, "dbsize")
    assert fragment in captured.err


def test_reopening_with_the_other_backend_is_not_an_error():
    """Recovery is logical, so a heap-written store reopens as LSM (and
    back) to the same content — the one ``--storage`` mismatch that is
    *not* on the failure surface."""
    from repro.engine.database import Database

    db, store = _durable_store("heap")
    store.storage = "lsm"
    reopened, _report = Database.open(store)
    assert reopened.content_digest() == db.content_digest()


def test_internal_errors_are_not_swallowed(monkeypatch):
    def buggy(args):
        raise AssertionError("a bug, not a usage error")

    monkeypatch.setitem(COMMANDS, "dbsize", buggy)
    with pytest.raises(AssertionError):
        main(["dbsize"])


@pytest.mark.parametrize("argv", [
    ["power", "--sf", "0"],
    ["lint", "/no/such.py"],
    ["chaos", "--kill-appserver", "--streams", "2,4,8"],
], ids=["argparse-type", "os-error", "usage-error"])
def test_failure_surface_in_a_real_process(argv):
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith(f"repro {argv[0]}:")


def test_every_command_has_a_subparser_with_help(capsys):
    for command in COMMANDS:
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        assert f"python -m repro {command}" in text
        assert "examples:" in text


def test_every_exception_class_is_a_repro_error():
    import importlib
    import inspect
    import pkgutil

    import repro
    from repro.errors import ReproError

    strays = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == info.name
                    and issubclass(cls, BaseException)
                    and not issubclass(cls, ReproError)):
                strays.append(f"{info.name}.{name}")
    assert strays == []
