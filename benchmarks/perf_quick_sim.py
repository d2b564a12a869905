"""The perf smoke's simulated clock against its committed baseline.

``perf/run.py --workload all --quick --trace 1`` writes
``perf/out/<workload>.layers.json``.  The simulated seconds and the
counters of its first pass are deterministic, so they must equal
``benchmarks/baselines/perf_quick_sim.json`` exactly: a wall-clock
change moves neither.  A change that moves them on purpose re-pins the
file with ``--write`` and says so.

    python3 perf/run.py --workload all --quick --trace 1
    python benchmarks/perf_quick_sim.py          # exit 1 on a difference
    python benchmarks/perf_quick_sim.py --write  # re-pin the baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "baselines" / "perf_quick_sim.json"
WORKLOADS = ("load", "power_open22", "power_rdbms", "throughput_open30")


def observed(out: Path) -> dict:
    """``pass_1_sim_s`` (as ``repr``) and ``pass_1_counters`` of each
    workload's layers file in ``out``."""
    result = {}
    for name in WORKLOADS:
        layers = json.loads((out / f"{name}.layers.json").read_text())
        result[name] = {"pass_1_sim_s": repr(layers["pass_1_sim_s"]),
                        "pass_1_counters": layers["pass_1_counters"]}
    return result


def first_difference(baseline: dict, got: dict) -> str | None:
    """The first workload and counter (or the seconds) that differ."""
    for name in WORKLOADS:
        pinned, now = baseline[name], got[name]
        counters = pinned["pass_1_counters"], now["pass_1_counters"]
        for counter in sorted(set(counters[0]) | set(counters[1])):
            before, after = (side.get(counter) for side in counters)
            if before != after:
                return f"{name}: counter {counter} is {after}, baseline {before}"
        if pinned["pass_1_sim_s"] != now["pass_1_sim_s"]:
            return (f"{name}: pass_1_sim_s is {now['pass_1_sim_s']}, "
                    f"baseline {pinned['pass_1_sim_s']}")
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "perf" / "out",
                        help="the directory perf/run.py wrote into")
    parser.add_argument("--write", action="store_true",
                        help="re-pin the baseline from --out")
    args = parser.parse_args()
    got = observed(args.out)
    if args.write:
        BASELINE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        return 0
    difference = first_difference(json.loads(BASELINE.read_text()), got)
    if difference is not None:
        print(f"perf smoke simulated clock moved: {difference}",
              file=sys.stderr)
        return 1
    print(f"{len(WORKLOADS)} workloads: pass 1 seconds and counters "
          f"equal the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
