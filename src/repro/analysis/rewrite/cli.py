"""``python -m repro rewrite`` — plan, diff, verify, report.

Default mode plans the rewrites and prints the applied/refused ledger
without executing anything.  ``--check`` runs the differential
verification harness (exit 1 on any row mismatch, regression, or
refusal without a reason); ``--diff`` prints the unified source diffs;
``--report`` writes the ``repro-rewrite-v1`` JSON document;
``--rewrite-out`` saves the rewritten module sources to a directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import cli
from repro.analysis.costmodel import SchemaInfo
from repro.analysis.rewrite.planner import plan_module
from repro.analysis.rewrite.report import render_json, render_text
from repro.analysis.rewrite.verify import (
    FAMILIES,
    FamilyVerification,
    reports_dir,
    verify_families,
)
from repro.errors import UsageError

DEFAULT_FAMILIES = ["open22", "native22"]


def run_rewrite(families: list[str] | None = None,
                check: bool = False,
                diff: bool = False,
                report_path: str | Path | None = None,
                rewrite_out: str | Path | None = None,
                scale: float = 0.001) -> int:
    """Run the rewriter; returns the process exit status."""
    chosen = families or DEFAULT_FAMILIES
    unknown = [f for f in chosen if f not in FAMILIES]
    if unknown:
        raise UsageError(f"unknown family(ies) {unknown} "
                         f"(choose from {', '.join(sorted(FAMILIES))})")
    if rewrite_out is not None:
        # before the (slow) verification, so a bad path fails at once
        Path(rewrite_out).mkdir(parents=True, exist_ok=True)

    if check:
        results = verify_families(chosen, scale)
    else:
        schema = SchemaInfo(scale)
        base = reports_dir()
        results = []
        for name in chosen:
            spec = FAMILIES[name]
            modules = [plan_module(base / f"{spec['module']}.py", schema)]
            modules += [plan_module(base / f"{s}.py", schema)
                        for s in spec["support"]]
            results.append(FamilyVerification(name, modules))

    if diff:
        for fam in results:
            for module in fam.modules:
                text = module.diff()
                if text:
                    print(text)

    if rewrite_out is not None:
        out_dir = Path(rewrite_out)
        written = set()
        for fam in results:
            for module in fam.modules:
                if module.module in written or not module.changed:
                    continue
                written.add(module.module)
                (out_dir / f"{module.module}.py").write_text(
                    module.rewritten_source)
        print(f"wrote {len(written)} rewritten module(s) to {out_dir}")

    print(render_text(results, checked=check))

    if report_path is not None:
        Path(report_path).write_text(
            render_json(results, scale, checked=check) + "\n")
        print(f"report written to {report_path}")

    if check:
        if "open22" in chosen and not any(
            r.applied for r in results if r.family == "open22"
        ):
            print("rewrite: --check expected rewrites in open22 but "
                  "none were applied", file=sys.stderr)
            return 1
        return 0 if all(r.ok for r in results) else 1
    return 0


def run_rewrite_command(args) -> int:
    """Adapter for the ``python -m repro`` argument namespace."""
    return run_rewrite(
        families=list(args.family) if args.family else None,
        check=args.check,
        diff=args.diff,
        report_path=args.report,
        rewrite_out=args.rewrite_out,
        scale=args.sf,
    )


def register(sub) -> dict:
    """Add this package's subparser to ``sub``; returns name -> function."""
    rewrite = cli.add_command(
        sub, "rewrite",
        "the rule-driven report rewriter: plans 2.2->3.0 pushdown "
        "rewrites from the analyzer's findings; --check proves each one "
        "by running original and rewritten reports against the same "
        "seeded database",
        """\
  python -m repro rewrite
  python -m repro rewrite --diff
  python -m repro rewrite --check --family open22 --sf 0.001 \\
      --report rewrite-report.json
""", [cli.SF])
    rewrite.add_argument("--check", action="store_true",
                         help="run the differential verification "
                              "harness (exit 1 on any row mismatch or "
                              "regression)")
    rewrite.add_argument("--diff", action="store_true",
                         help="print unified diffs of the rewritten "
                              "modules")
    rewrite.add_argument("--report", type=cli.output_file, default=None,
                         help="write the repro-rewrite-v1 JSON report "
                              "to this file")
    rewrite.add_argument("--rewrite-out", default=None,
                         help="write rewritten module sources to this "
                              "directory")
    rewrite.add_argument("--family", type=cli.names, default=None,
                         help="comma-separated report families "
                              "(default open22,native22)")
    return {"rewrite": run_rewrite_command}
