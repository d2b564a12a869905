"""``python -m repro chaos`` and ``python -m repro recover``.

``chaos`` runs one of three sweeps — the fault-profile sweep (default),
``--kill-appserver`` or ``--crash-fuzz`` — and exits 1 if any invariant
is violated; ``recover`` crashes one workload at one durability boundary
and prints the ARIES pass statistics.
"""

from __future__ import annotations

import argparse
import json

from repro import cli
from repro.errors import UsageError
from repro.r3.cluster import ROUTING_POLICIES
from repro.sim.chaos import CHAOS_PROFILES, run_chaos, run_kill_appserver
from repro.sim.crashfuzz import crash_census, run_crash_fuzz, run_crash_trial
from repro.sim.params import SimParams
from repro.tpcd.dbgen import generate


def cmd_chaos(args) -> int:
    if args.crash_fuzz:
        report = run_crash_fuzz(
            scale_factor=args.sf, workloads=args.fuzz_workloads,
            commit_interval=args.commit_interval,
            sample=args.fuzz_sample or None, storage=args.storage)
    elif args.kill_appserver:
        # --streams is a sweep list for the fault-profile scenario; a
        # scale-out cell runs one stream count.
        if len(args.streams or ()) > 1:
            raise UsageError(
                f"--kill-appserver takes one --streams value, got "
                f"{','.join(map(str, args.streams))}")
        report = run_kill_appserver(
            scale_factor=args.sf, server_counts=args.servers,
            streams=args.streams[0] if args.streams else 6,
            routing=args.routing, sync_period_s=args.sync_period)
    else:
        report = run_chaos(
            scale_factor=args.sf,
            stream_counts=args.streams or (2, 4, 8),
            profiles=(tuple(CHAOS_PROFILES) if args.profile == "all"
                      else (args.profile,)))
    return cli.emit_report(report, args.format, args.chaos_out)


def cmd_recover(args) -> int:
    workload = args.fuzz_workloads[0]
    data = generate(args.sf)
    census = crash_census(workload, data, args.commit_interval, SimParams)
    k = args.crash_at or max(1, census.boundaries // 2)
    if k > census.boundaries:
        raise UsageError(
            f"--crash-at {k} exceeds the workload's "
            f"{census.boundaries} durability boundaries")
    trial = run_crash_trial(
        workload, data, k, "torn" if args.torn else "clean",
        census.reference_digest, args.commit_interval, SimParams)
    if args.format == "json":
        print(json.dumps(trial.to_json(), indent=2, sort_keys=True))
    else:
        print(f"workload {workload!r}: {census.boundaries} durability "
              f"boundaries ({', '.join(sorted(census.boundary_kinds))})")
        print(f"crashed at boundary {k} ({trial.kind}), "
              f"mode {trial.mode}")
        print(f"recovery: losers={trial.loser_txns} "
              f"redo={trial.redo_applied} undo={trial.undo_applied} "
              f"torn_tail_dropped={trial.torn_tail_dropped}")
        print(f"resumed: {trial.resumed}; recovered digest "
              f"{'matches' if trial.digest_ok else 'DIVERGES FROM'} "
              f"the uncrashed reference")
        if trial.error:
            print(f"error: {trial.error}")
    return 0 if trial.ok else 1


def register(sub) -> dict:
    """Add this package's subparsers to ``sub``; returns name -> function."""
    #: options ``chaos --crash-fuzz`` and ``recover`` share
    fuzz = argparse.ArgumentParser(add_help=False)
    fuzz.add_argument("--fuzz-workloads", type=cli.names,
                      default=("load",),
                      help="comma-separated crash-fuzz workloads (load, "
                           "uf, power; default load; recover runs the "
                           "first)")
    fuzz.add_argument("--commit-interval", type=cli.positive_int,
                      default=8,
                      help="batch-input commit interval for the fuzzed "
                           "load (default 8)")

    chaos = cli.add_command(
        sub, "chaos",
        "throughput under fault storms, an app-server failover, or "
        "engine crashes at sampled WAL boundaries; exits 1 if any "
        "invariant is violated",
        """\
  the fault-profile sweep (dispatcher-scheduled throughput):
    python -m repro chaos --streams 4 --profile light --sf 0.001
    python -m repro chaos --streams 2,4,8 --profile all --chaos-out chaos.json
  the app-server failover scenario (scale-out with a mid-run crash):
    python -m repro chaos --kill-appserver --servers 1,2,4 --sf 0.001
    python -m repro chaos --kill-appserver --routing round_robin \\
        --sync-period 2.0 --chaos-out scaleout.json
  the crash-point fuzzer (kill, recover, resume, compare digests):
    python -m repro chaos --crash-fuzz --fuzz-workloads load --sf 0.0002
    python -m repro chaos --crash-fuzz --fuzz-sample 12 --storage lsm
""", [cli.SF, cli.STORAGE, cli.TEXT_OR_JSON, fuzz])
    scenario = chaos.add_mutually_exclusive_group()
    scenario.add_argument("--kill-appserver", action="store_true",
                          help="run the multi-app-server failover sweep "
                               "instead of the fault-profile sweep")
    scenario.add_argument("--crash-fuzz", action="store_true",
                          help="run the crash-point fuzz sweep instead "
                               "of the fault-profile sweep")
    chaos.add_argument("--streams", type=cli.positive_ints, default=None,
                       help="comma-separated stream counts to sweep "
                            "(default 2,4,8); with --kill-appserver one "
                            "stream count (default 6)")
    chaos.add_argument("--profile", choices=[*CHAOS_PROFILES, "all"],
                       default="all",
                       help="fault profile(s) to sweep (default all)")
    chaos.add_argument("--chaos-out", type=cli.output_file, default=None,
                       help="also write the JSON report to this file")
    chaos.add_argument("--servers", type=cli.positive_ints,
                       default=(1, 2, 4),
                       help="kill-appserver: comma-separated server "
                            "counts to sweep (default 1,2,4)")
    chaos.add_argument("--routing", choices=sorted(ROUTING_POLICIES),
                       default="sticky",
                       help="kill-appserver: login balancer policy "
                            "(default sticky)")
    chaos.add_argument("--sync-period", type=cli.positive_float,
                       default=5.0,
                       help="kill-appserver: DDLOG buffer-coherence "
                            "sync period in simulated seconds "
                            "(default 5.0)")
    chaos.add_argument("--fuzz-sample", type=cli.non_negative_int,
                       default=24,
                       help="crash-fuzz: sampled crash points per "
                            "workload (default 24; 0 = every boundary)")

    recover = cli.add_command(
        sub, "recover",
        "one crash/recover demonstration printing the ARIES pass "
        "statistics (exit 1 if the recovered digest diverges)",
        """\
  python -m repro recover --sf 0.0002 --crash-at 120 --torn
  python -m repro recover --sf 0.0002 --fuzz-workloads uf --format json
""", [cli.SF, cli.TEXT_OR_JSON, fuzz])
    recover.add_argument("--crash-at", type=cli.positive_int, default=None,
                         help="durability boundary to crash at "
                              "(default: the middle one)")
    recover.add_argument("--torn", action="store_true",
                         help="leave the in-flight frame torn on the "
                              "log tail")
    return {"chaos": cmd_chaos, "recover": cmd_recover}
