"""Baseline semantics and the ``python -m repro lint`` entry point."""

import json
import textwrap

from repro.__main__ import main
from repro.analysis.baseline import Baseline, default_baseline_path
from repro.analysis.cli import run_lint

LOOPING = """
    def q(r3):
        for infnr, in r3.open_sql.select(
                "SELECT infnr FROM eina").rows:
            r3.open_sql.select_single(
                "SELECT SINGLE netpr FROM eine WHERE infnr = :i",
                {"i": infnr})
"""

CLEAN = """
    def q(r3):
        return r3.open_sql.select(
            "SELECT name1 FROM kna1 WHERE land1 = 'DE'")
"""


def _write(tmp_path, source, name="open22_case.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


def test_exit_one_on_new_findings(tmp_path, capsys):
    path = _write(tmp_path, LOOPING)
    status = run_lint([path], use_baseline=False)
    assert status == 1
    assert "R001" in capsys.readouterr().out


def test_exit_zero_when_clean(tmp_path):
    path = _write(tmp_path, CLEAN)
    status = run_lint([path], use_baseline=False)
    assert status == 0


def test_baseline_suppresses_but_counts(tmp_path, capsys):
    path = _write(tmp_path, LOOPING)
    baseline_file = tmp_path / "baseline.json"
    assert run_lint([path], baseline_path=baseline_file,
                    write_baseline=True) == 0
    assert baseline_file.exists()

    capsys.readouterr()
    status = run_lint([path], output_format="json",
                      baseline_path=baseline_file)
    assert status == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["new"] == 0
    assert payload["summary"]["baselined"] == payload["summary"]["total"]
    assert payload["summary"]["total"] > 0
    assert all(f["baselined"] for f in payload["findings"])


def test_new_finding_breaks_through_baseline(tmp_path, capsys):
    path = _write(tmp_path, LOOPING)
    baseline_file = tmp_path / "baseline.json"
    run_lint([path], baseline_path=baseline_file, write_baseline=True)
    # A second, previously unseen anti-pattern appears in the module.
    path.write_text(path.read_text() + textwrap.dedent("""
        def q_new(r3):
            return r3.open_sql.select("SELECT * FROM vbak")
    """))
    capsys.readouterr()
    status = run_lint([path], output_format="json",
                      baseline_path=baseline_file)
    assert status == 1
    payload = json.loads(capsys.readouterr().out)
    fresh = [f for f in payload["findings"] if not f["baselined"]]
    assert {f["func"] for f in fresh} == {"q_new"}


def test_baseline_roundtrip(tmp_path):
    baseline = Baseline({"R001:m:f:abc": "note"})
    target = tmp_path / "b.json"
    baseline.save(target)
    loaded = Baseline.load(target)
    assert loaded.entries == baseline.entries
    assert Baseline.load(tmp_path / "missing.json").entries == {}


def test_cli_main_lint_with_committed_baseline():
    # The repo gate: default paths + committed baseline must be green.
    assert default_baseline_path().exists()
    assert main(["lint"]) == 0


def test_cli_main_lint_json_no_baseline_fails(tmp_path, capsys):
    path = _write(tmp_path, LOOPING)
    status = main(["lint", str(path), "--format=json", "--no-baseline"])
    assert status == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["new"] == payload["summary"]["total"]


def test_missing_baseline_exits_two(tmp_path, capsys):
    path = _write(tmp_path, LOOPING)
    status = run_lint([path], baseline_path=tmp_path / "absent.json")
    assert status == 2
    err = capsys.readouterr().err
    assert "missing" in err and "--write-baseline" in err


def test_unreadable_baseline_exits_two(tmp_path, capsys):
    path = _write(tmp_path, LOOPING)
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    status = run_lint([path], baseline_path=corrupt)
    assert status == 2
    assert "unreadable" in capsys.readouterr().err


def test_cli_main_missing_baseline_exits_two(tmp_path):
    path = _write(tmp_path, LOOPING)
    status = main(["lint", str(path),
                   f"--baseline={tmp_path / 'absent.json'}"])
    assert status == 2


def test_fingerprints_survive_line_drift(tmp_path):
    """Inserting blank lines above every finding site must not churn
    a single baseline key — fingerprints follow content, not lines."""
    from repro.analysis.costmodel import SchemaInfo
    from repro.analysis.extractor import analyze_module
    from repro.analysis.rules import run_rules

    schema = SchemaInfo(scale_factor=1.0)
    path = _write(tmp_path, LOOPING)
    before = {f.key for f in run_rules([analyze_module(path)], schema)}
    assert before

    drifted = textwrap.dedent(LOOPING).replace("\n", "\n\n")
    path.write_text("# a leading comment\n\n" + drifted)
    after = {f.key for f in run_rules([analyze_module(path)], schema)}
    assert after == before
