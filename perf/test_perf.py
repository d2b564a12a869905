"""Tests of the benchmark itself.

Run as ``python -m pytest perf -q`` from the repo root (tier-1's
``testpaths`` stays ``tests``).  Everything runs ``--quick``: SF 0.0005,
one pass of each kind.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import run
import spans
import speed
import workloads

BENCHMARK = run.BENCHMARK
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED, OTHER_SEED = 7, 8


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """(workload, seed, repeat) -> (result object, layers.json) of a
    quick traced run, made once."""
    made = {}

    def get(name: str, seed: int, repeat: int = 0):
        key = (name, seed, repeat)
        if key not in made:
            out = tmp_path_factory.mktemp("out")
            outcome = run.run_workload(name, seed, trace=1, quick=True,
                                       out_dir=out)
            made[key] = (outcome, json.loads(
                (out / f"{name}.layers.json").read_text()))
        return made[key]

    return get


def test_span_self_time_arithmetic():
    # pass [0, 10] > report [1, 9] > two engine calls [2, 4], [5, 8];
    # a second report [9, 10] with no children
    tree = [
        [-1, None, "pass", 0.0, 10.0],
        [0, "Q1", "reports", 1.0, 9.0],
        [1, "Q1", "engine", 2.0, 4.0],
        [1, "Q1", "engine", 5.0, 8.0],
        [0, "Q2", "reports", 9.0, 10.0],
    ]
    assert spans.self_times(tree) == [1.0, 3.0, 2.0, 3.0, 1.0]
    summary = spans.summarize(tree)
    assert summary["engine"] == {"count": 2, "total_s": 5.0, "self_s": 5.0}
    assert summary["reports"] == {"count": 2, "total_s": 9.0, "self_s": 4.0}
    assert sum(entry["self_s"] for entry in summary.values()) == 10.0
    assert spans.op_durations(tree) == [("Q1", 8.0), ("Q2", 1.0)]


def test_recorder_wraps_and_unwraps_by_instance_attribute():
    class Layer:
        def call(self, x):
            return x + 1

    layer, rec = Layer(), spans.SpanRecorder()
    rec.wrap(layer, "call", "layer")
    with rec.span("pass", op="Q1"):
        assert layer.call(1) == 2
    assert [(s[spans.PARENT], s[spans.OP], s[spans.NAME])
            for s in rec.take()] == [(-1, "Q1", "pass"), (0, "Q1", "layer")]
    rec.unwrap_all()
    assert "call" not in vars(layer) and layer.call(1) == 2
    assert rec.spans == []


def test_reference_seconds_scale_each_stretch_by_the_kernels_around_it():
    k = speed.KERNEL_REF_S
    sampler = speed.SpeedSampler()
    # (wall in, cpu in, wall out, cpu out): a kernel run at reference
    # speed, then two at half speed; one second of program time between
    # each, of which the process was on the CPU for half
    sampler.samples = [(0.0, 0.0, k, k),
                       (1 + k, 0.5 + k, 1 + 3 * k, 0.5 + 3 * k),
                       (2 + 3 * k, 1 + 3 * k, 2 + 5 * k, 1 + 5 * k)]
    seconds = sampler.between(0, 2)
    assert seconds.raw_wall_s == pytest.approx(2.0)
    assert seconds.wall_s == pytest.approx(1 / 1.5 + 1 / 2)
    assert seconds.cpu_s == pytest.approx(0.5 / 1.5 + 0.5 / 2)
    # a paused stretch does not count
    assert sampler.between(0, 2, [(1, 2)]).raw_wall_s == pytest.approx(1.0)
    assert sampler.factor(1) == pytest.approx(0.5)


def test_benchmark_json_is_within_the_contract():
    path = Path(run.HERE.parent / "BENCHMARK.json")
    assert path.stat().st_size <= 64 * 1024
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in BENCHMARK[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS)
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_quick_run_emits_the_end_to_end_metrics(name, tmp_path):
    outcome = run.run_workload(name, SEED, quick=True, out_dir=tmp_path)
    assert outcome["correct"] and outcome["failed"] == 0
    assert outcome["attempted"] >= 1
    assert list(outcome["metrics"]) \
        == [m["name"] for m in BENCHMARK["end_to_end"]]
    # end-to-end metrics are never 0, and an untraced run writes nothing
    assert all(entry["value"] > 0 for entry in outcome["metrics"].values())
    assert list(tmp_path.iterdir()) == []


def test_traced_quick_runs_emit_every_per_layer_metric(traced):
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    measured = set()
    for name in workloads.WORKLOADS:
        outcome, written = traced(name, SEED)
        assert outcome["correct"]
        assert list(outcome["metrics"]) == declared
        # run.outcome() refuses undeclared names; here: nothing declared
        # that no workload measures
        measured |= set(written["layers"])
    assert measured == set(declared)


def test_layer_self_times_add_up_to_the_pass(traced):
    _, written = traced("power_open22", SEED)
    assert written["layer_self_sum_over_pass_wall"] == pytest.approx(1, abs=0.02)
    names = set(written["span_summaries"][0])
    assert {"reports", "r3.opensql", "r3.dbif", "engine"} <= names


def test_update_pairs_are_pairwise_disjoint():
    data = workloads.generate(run.QUICK_SF, seed=SEED)
    pairs = workloads.update_pairs(data, SEED, 25)
    inserted = [row[0] for refresh, _ in pairs for row in refresh.orders]
    deleted = [key for _, doomed in pairs for key in doomed]
    existing = {row[0] for row in data.orders}
    assert len(set(inserted)) == len(inserted) >= 25
    assert len(set(deleted)) == len(deleted) == len(inserted)
    assert not set(inserted) & existing
    assert set(deleted) <= existing


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_counts_other_seed_other_counts(name, traced):
    def exact(seed: int, repeat: int = 0):
        outcome, written = traced(name, seed, repeat)
        counts = {m["name"]: outcome["metrics"][m["name"]]["value"]
                  for m in BENCHMARK["per_layer"]
                  if m["unit"] in ("count", "sim-s")}
        return (written["pass_1_sim_s"], written["pass_1_counters"], counts,
                outcome["attempted"])

    assert exact(SEED) == exact(SEED, repeat=1)
    assert exact(SEED)[:2] != exact(OTHER_SEED)[:2]


def test_a_wrong_answer_fails_the_command(monkeypatch, capsys):
    make_queries = workloads.open22.make_queries
    monkeypatch.setattr(
        workloads.open22, "make_queries",
        lambda sf: {**make_queries(sf), 6: lambda r3: [(0.0,)]})
    assert run.main(["--workload", "power_open22", "--quick",
                     "--seed", str(SEED)]) == 1
    outcome = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not outcome["correct"]
    assert outcome["failed"] == 1 and outcome["attempted"] == 17
