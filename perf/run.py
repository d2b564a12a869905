#!/usr/bin/env python3
"""The repo's benchmark: one workload per process, both clocks.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints every metric by name with its unit, then,
as the last line, one JSON object ``{correct, attempted, failed,
metrics}``.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation installed; ``--trace 1`` is a separate run that records
spans around the layer entry points and reports the per-layer metrics.
The exit code is 1 if an output check failed.

    python3 perf/run.py --workload all [--runs K] [--ledger FILE]

runs the four workloads one after another, each in a child process of
its own (``peak_rss_mb`` and ``setup_s`` are per process, and the box
has two cores: never two workloads at once), ``K`` times with seeds
``N, N+1, ...``, and collects the result lines into a ledger file that
``compare.py`` reads.  See README.md.
"""

from __future__ import annotations

import time

# process start, as near as a script can see it: before any import
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
# the program under test; a directory without it cannot run the benchmark
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from spans import NULL, SpanRecorder, op_durations, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: the scale factor of every committed baseline, CI smoke and README
#: example; ``--quick`` is for smoke tests only
SF = 0.002
QUICK_SF = 0.0005
DEFAULT_SEED = 19970601
#: span names whose self times make up a pass (everything but the
#: benchmark's own root span and paused checks)
OWN_SPANS = ("pass", "perf.check")


class PassTimer:
    """The seconds of one pass (see speed.py), minus its paused
    sections, in ``seconds`` once the pass is over."""

    def __init__(self, sampler: SpeedSampler) -> None:
        self._sampler = sampler
        self._skipped: list[tuple[int, int]] = []

    def __enter__(self) -> "PassTimer":
        self._first = self._sampler.sample()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = self._sampler.between(
            self._first, self._sampler.sample(), self._skipped)

    @contextmanager
    def paused(self):
        """An output check that has to run in the middle of a pass."""
        first = self._sampler.sample()
        try:
            yield
        finally:
            self._skipped.append((first, self._sampler.sample()))


class Run:
    """One workload, set up, with the passes made so far."""

    def __init__(self, name: str, seed: int, quick: bool, t0: float,
                 sampler: SpeedSampler) -> None:
        self.quick = quick
        self.sampler = sampler
        self.workload = WORKLOADS[name](QUICK_SF if quick else SF, seed)
        start = sampler.sample()
        self.workload.prepare()
        builds = []
        for _ in range(1 if quick else self.workload.setup_repeats):
            first = sampler.sample()
            self.workload.build()
            builds.append(sampler.between(first, sampler.sample()).wall_s)
        # process start to pass 1 at reference speed, with the median
        # build in place of all the builds made; what ran before the
        # first sample (the imports) is scaled by that sample
        self.setup_s = (sampler.samples[start][0] - t0) * sampler.factor(start) \
            + sampler.between(start, len(sampler.samples) - 1).wall_s \
            - (sum(builds) - statistics.median(builds))
        #: one PassResult per pass made, in order
        self.results = []

    def measure(self, rec=NULL, **kwargs):
        """Run, time and check the next pass; returns its PassResult."""
        gc.collect()
        with PassTimer(self.sampler) as timer, rec.span("pass"):
            result = self.workload.run_pass(len(self.results), rec, timer,
                                            **kwargs)
        result.wall_s, result.cpu_s, result.raw_wall_s = timer.seconds
        self.workload.check(len(self.results), result)
        self.results.append(result)
        return result

    def outcome(self, metrics: dict[str, float], declared: list[dict]) -> dict:
        """The result object; ``metrics`` must be what was declared."""
        undeclared = set(metrics) - {m["name"] for m in declared}
        if undeclared:
            raise KeyError(f"metrics not in BENCHMARK.json: "
                           f"{sorted(undeclared)}")
        failed = sum(r.failed for r in self.results)
        return {
            "correct": failed == 0,
            "attempted": sum(r.attempted for r in self.results),
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                    "unit": m["unit"]} for m in declared},
        }


def run_untraced(run: Run, seconds: float) -> dict:
    """The end-to-end metrics: passes until ``seconds`` have gone by."""
    workload = run.workload
    least = 1 if run.quick else workload.min_passes
    start = perf_counter()
    while len(run.results) < workload.max_passes and (
            len(run.results) < least or perf_counter() - start < seconds):
        run.measure()
    raw_wall_s = statistics.median(r.raw_wall_s for r in run.results)
    print(f"as measured: pass_wall_s {raw_wall_s:.6g} s, "
          f"sim_s {run.results[0].sim_s:.6g} sim-s, sim_s_per_wall_s "
          f"{statistics.mean(r.sim_s for r in run.results) / raw_wall_s:.6g}")
    return run.outcome({
        "setup_s": run.setup_s,
        "pass_wall_s": statistics.median(r.wall_s for r in run.results),
        "pass_cpu_s": statistics.median(r.cpu_s for r in run.results),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, BENCHMARK["end_to_end"])


def run_traced(run: Run, out_dir: Path) -> dict:
    """The per-layer metrics; every time here is as measured, not at
    reference speed.

    Pass order: traced passes (spans installed), the same number of
    untraced passes (spans removed again), one pass under ``cProfile``,
    then the workload's extras (on ``power_open22`` passes with the
    program's own monitor and tracer on) and the micro probes.  The pass counts are fixed,
    so every count repeats exactly for a seed.
    """
    workload = run.workload
    count = 1 if run.quick else workload.traced_passes
    rec = SpanRecorder()
    workload.instrument(rec)
    traced = []
    for _ in range(count):
        result = run.measure(rec)
        spans = rec.take()
        if not traced:
            first_spans = spans
        traced.append({
            "wall_s": result.raw_wall_s, "counters": dict(result.counters),
            "summary": summarize(spans), "ops": op_durations(spans),
            "span_count": len(spans),
        })
    rec.unwrap_all()
    untraced = [run.measure() for _ in range(count)]
    walls = [r.raw_wall_s for r in untraced]

    values = dict(workload.layers)
    values.update(layers.from_counters(traced[0]["counters"]))
    values.update(layers.from_spans(traced))
    values.update(layers.from_untraced(untraced))
    values["core.sim_s"] = run.results[0].sim_s
    # best against best: the first traced pass runs on cold caches
    values["perf.span_overhead_ratio"] = \
        min(p["wall_s"] for p in traced) / min(walls)
    values.update(layers.per_unit(values))

    gc.collect()
    profiled = []
    values.update(layers.profiled_pass(lambda: profiled.append(
        workload.run_pass(len(run.results), NULL, None))))
    workload.check(len(run.results), profiled[0])
    run.results.extend(profiled)

    workload.extras(run.measure, statistics.median(walls))
    values.update(workload.layers)
    values.update(layers.micro_probes(workload.sf, workload.data.lineitem,
                                      rec.texts))

    out_dir.mkdir(parents=True, exist_ok=True)
    first = traced[0]
    (out_dir / f"{workload.name}.layers.json").write_text(json.dumps({
        "workload": workload.name, "seed": workload.seed, "sf": workload.sf,
        "layers": values,
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "untraced_pass_wall_s": walls,
        "span_summaries": [p["summary"] for p in traced],
        # self times of the layers over the traced pass's wall time:
        # 1.0 when the spans account for the whole pass
        "layer_self_sum_over_pass_wall": sum(
            entry["self_s"] for name, entry in first["summary"].items()
            if name not in OWN_SPANS) / first["wall_s"],
        "pass_1_counters": first["counters"],
        "pass_1_sim_s": run.results[0].sim_s,
        "failed_checks": [n for r in run.results for n in r.notes],
    }, indent=1, sort_keys=True))
    (out_dir / f"{workload.name}.spans.json").write_text(json.dumps({
        "columns": ["parent", "op", "name", "t0", "t1"],
        "spans": first_spans,
    }))
    return run.outcome(values, BENCHMARK["per_layer"])


def run_workload(name: str, seed: int = DEFAULT_SEED,
                 seconds: float = BENCHMARK["run_seconds"], trace: int = 0,
                 quick: bool = False, out_dir: Path = HERE / "out",
                 t0: float | None = None) -> dict:
    sampler = SpeedSampler()
    if not trace:
        sampler.start()
    try:
        run = Run(name, seed, quick, perf_counter() if t0 is None else t0,
                  sampler)
        outcome = run_traced(run, out_dir) if trace \
            else run_untraced(run, 0 if quick else seconds)
    finally:
        sampler.stop()
    for result in run.results:
        for note in result.notes:
            print(f"FAILED CHECK {note}")
    print(f"{name}: seed {seed}, {len(run.results)} passes, "
          f"{outcome['attempted']} operations attempted, "
          f"{outcome['failed']} failed")
    for metric, entry in outcome["metrics"].items():
        print(f"{metric:40s} {entry['value']:<14.6g} {entry['unit']}")
    return outcome


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a child process of its own, ``--runs`` times."""
    ledger = []
    status = 0
    for seed in range(args.seed, args.seed + args.runs):
        for name in WORKLOADS:
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(args.out)]
            if args.quick:
                command.append("--quick")
            start = perf_counter()
            child = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True)
            sys.stdout.write(child.stdout)
            sys.stdout.flush()
            status |= child.returncode
            lines = child.stdout.splitlines()
            if lines and lines[-1].startswith("{"):
                ledger.append({
                    "workload": name, "seed": seed, "trace": args.trace,
                    "run_wall_s": perf_counter() - start,
                    **json.loads(lines[-1]),
                })
    ledger_path = Path(args.ledger or args.out / "ledger.json")
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    ledger_path.write_text(json.dumps(ledger, indent=1))
    print(f"{len(ledger)} runs written to {ledger_path}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"],
                        help="measure for at least this long (and at "
                             "least the workload's minimum passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke test: SF 0.0005, one pass")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="where a traced run writes its spans and "
                             "layer aggregates")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --workload all: runs per workload, "
                             "seeds --seed, --seed+1, ...")
    parser.add_argument("--ledger", help="with --workload all: the file "
                                         "the result lines go to")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           args.trace, args.quick, args.out, t0=_T0)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
