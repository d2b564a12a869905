"""``python -m repro lint`` — the analyzer's command-line entry.

Exit status is the CI contract: 0 when every finding is baselined (or
none exist), 1 when a new, non-baselined finding appears, 2 when the
baseline itself is missing or unreadable (a configuration error must
never masquerade as a clean — or failed — lint).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import cli
from repro.analysis.baseline import Baseline, default_baseline_path
from repro.analysis.costmodel import SchemaInfo
from repro.analysis.extractor import analyze_paths
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import run_rules


def default_lint_paths() -> list[Path]:
    """The report sources the analyzer was built for."""
    import repro.reports

    return [Path(repro.reports.__file__).resolve().parent]


def run_lint(paths: list[str | Path] | None = None,
             output_format: str = "text",
             baseline_path: str | Path | None = None,
             use_baseline: bool = True,
             write_baseline: bool = False,
             scale: float = 1.0) -> int:
    """Analyze ``paths`` and render findings; returns the exit status."""
    targets = [Path(p) for p in paths] if paths else default_lint_paths()
    analyses = analyze_paths(targets)
    schema = SchemaInfo(scale_factor=scale)
    findings = run_rules(analyses, schema)

    resolved_baseline = Path(baseline_path) if baseline_path \
        else default_baseline_path()
    if write_baseline:
        Baseline.from_findings(findings).save(resolved_baseline)
        print(f"wrote {len(findings)} finding key(s) to "
              f"{resolved_baseline}")
        return 0

    baseline = Baseline()
    if use_baseline:
        if not resolved_baseline.exists():
            print(
                f"lint: baseline file {resolved_baseline} is missing — "
                f"run `python -m repro lint --write-baseline` to create "
                f"it, or pass --no-baseline to lint without one",
                file=sys.stderr,
            )
            return 2
        try:
            baseline = Baseline.load(resolved_baseline)
        except (OSError, ValueError, AttributeError) as exc:
            print(
                f"lint: baseline file {resolved_baseline} is unreadable "
                f"({exc}) — fix or regenerate it with "
                f"`python -m repro lint --write-baseline`",
                file=sys.stderr,
            )
            return 2
    fresh = baseline.apply(findings)

    if output_format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if fresh else 0


def run_lint_command(args) -> int:
    """Adapter for the ``python -m repro`` argument namespace."""
    return run_lint(
        paths=args.paths or None,
        output_format=args.format,
        baseline_path=args.baseline,
        use_baseline=not args.no_baseline,
        write_baseline=args.write_baseline,
        scale=args.lint_scale,
    )


def register(sub) -> dict:
    """Add this package's subparser to ``sub``; returns name -> function."""
    lint = cli.add_command(
        sub, "lint",
        "the static analyzer over the report sources (exit 1 on a "
        "finding that is not in the baseline)",
        """\
  python -m repro lint
  python -m repro lint --format=json > lint-report.json
  python -m repro lint --no-baseline src/repro/reports/open22.py
  python -m repro lint --write-baseline
""", [cli.TEXT_OR_JSON])
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: the "
                           "report sources)")
    lint.add_argument("--baseline", default=None,
                      help="baseline file (default: lint-baseline.json "
                           "at the repo root)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="report all findings as new")
    lint.add_argument("--write-baseline", action="store_true",
                      help="accept the current findings as the baseline")
    lint.add_argument("--lint-scale", type=cli.positive_float, default=1.0,
                      help="scale factor for lint cost estimates "
                           "(default 1.0 — the paper's installation)")
    return {"lint": run_lint_command}
