"""Command-line entry point: ``python -m repro <command>``.

One subcommand per experiment, each registered by the package that owns
it (its ``cli.py``); ``python -m repro <command> --help`` shows that
command's options and usage examples:

    python -m repro power --release 3.0 --sf 0.002
    python -m repro chaos --help

Exit status: 0 success; 1 an invariant, gate or lint failure; 2 a usage
or input error.  :func:`main` holds the only handler that turns an
exception into status 2 — any :class:`~repro.errors.ReproError` or
``OSError`` becomes one ``repro <command>: <message>`` line on stderr.
Anything else is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import cli as lint_cli
from repro.analysis.rewrite import cli as rewrite_cli
from repro.cli import ReproParser
from repro.core import cli as core_cli
from repro.errors import ReproError
from repro.monitor import cli as monitor_cli
from repro.sim import cli as sim_cli
from repro.trace import cli as trace_cli

_PACKAGES = (core_cli, trace_cli, lint_cli, rewrite_cli, sim_cli,
             monitor_cli)


def _build() -> tuple[argparse.ArgumentParser, dict]:
    parser = ReproParser(
        prog="python -m repro",
        description="Reproduce the SIGMOD'97 TPC-D / SAP R/3 experiments",
    )
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)
    commands: dict = {}
    for package in _PACKAGES:
        commands.update(package.register(sub))
    return parser, commands


#: command name -> function taking the parsed arguments
COMMANDS = _build()[1]


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args) or 0
    except (ReproError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"repro {args.command}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
