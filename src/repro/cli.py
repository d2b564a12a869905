"""What the per-package ``cli.py`` modules share.

``python -m repro`` is one ``argparse`` subparser per command, each
registered by the package that owns it (``core``, ``trace``,
``analysis``, ``analysis.rewrite``, ``sim``, ``monitor``).  This module
holds the common vocabulary: the parser class, the value types every
numeric or path option uses, the parent parsers of options several
commands take, and the one function that prints a sweep report.

Exit statuses (DESIGN.md §18): 0 success, 1 an invariant, gate or lint
failure, 2 a usage or input error.  Status 2 comes from ``argparse``
for a malformed command line and from the handler in
``repro.__main__.main`` for everything else — command code raises
:class:`~repro.errors.UsageError`, it never returns 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import textwrap
from argparse import ArgumentTypeError


class ReproParser(argparse.ArgumentParser):
    """Reports a bad command line as one ``repro <command>: <message>``
    line — the format of ``main``'s handler — not a usage dump."""

    def error(self, message: str):
        name = self.prog.removeprefix("python -m ")
        self.exit(2, f"{name}: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # argparse hands a subcommand's leftovers up to the root parser;
        # reject them here so the message names the subcommand.
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def add_command(sub, name: str, summary: str, examples: str,
                parents=()) -> argparse.ArgumentParser:
    """Register subcommand ``name``; ``examples`` become the epilog of
    its ``--help`` (and the README's CLI section)."""
    return sub.add_parser(
        name, help=summary, description=textwrap.fill(summary, 78),
        parents=list(parents),
        epilog="examples:\n" + examples,
        formatter_class=argparse.RawDescriptionHelpFormatter)


# -- value types -------------------------------------------------------------


def _number(cast, what: str, accept):
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


positive_int = _number(int, "a positive integer", lambda v: v >= 1)
non_negative_int = _number(int, "a non-negative integer", lambda v: v >= 0)
positive_float = _number(float, "a positive number",
                         lambda v: 0 < v < math.inf)
non_negative_float = _number(float, "a non-negative number",
                             lambda v: 0 <= v < math.inf)


def _listed(item, what: str):
    def parse(text: str) -> tuple:
        values = tuple(item(part) for part in text.split(",")
                       if part.strip())
        if not values:
            raise ArgumentTypeError(f"expected {what}, got {text!r}")
        return values
    return parse


#: ``'4'`` or ``'2,4,8'`` as a non-empty tuple of positive ints
positive_ints = _listed(positive_int, "comma-separated positive integers")
#: ``'load, uf'`` as ``('load', 'uf')``; the owning command checks them
names = _listed(str.strip, "comma-separated names")


def output_file(text: str) -> str:
    """A path the command will write when it is done — checked now, so
    an unwritable path costs milliseconds, not the whole run."""
    target = (text if os.path.exists(text)
              else os.path.dirname(text) or ".")
    if os.path.isdir(text) or not os.access(target, os.W_OK):
        raise ArgumentTypeError(f"cannot write to {text!r}")
    return text


# -- options several commands take -------------------------------------------


def _parent(*flags: str, **spec) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(*flags, **spec)
    return parser


SF = _parent("--sf", type=positive_float, default=0.002,
             help="TPC-D scale factor (default 0.002)")
STORAGE = _parent("--storage", choices=["heap", "lsm"], default="heap",
                  help="storage backend (default: heap)")
TEXT_OR_JSON = _parent("--format", choices=["text", "json"],
                       default="text", help="output format")

#: the power-test flags, shared by ``power`` and ``trace power``
POWER = argparse.ArgumentParser(add_help=False, parents=[SF])
POWER.add_argument("--release", choices=["2.2", "3.0"], default="3.0",
                   help="R/3 release (default 3.0)")
POWER.add_argument("--no-updates", action="store_true",
                   help="skip UF1/UF2")
POWER.add_argument("--degree", type=positive_int, default=1,
                   help="intra-query parallel degree (default 1 = serial)")


def power_test_options(args) -> dict:
    """The ``run_power_test`` keyword arguments the POWER flags select."""
    from repro.r3.appserver import R3Version

    return {
        "scale_factor": args.sf,
        "version": (R3Version.V22 if args.release == "2.2"
                    else R3Version.V30),
        "include_updates": not args.no_updates,
        "degree": args.degree,
    }


# -- the one way a sweep report leaves the process ---------------------------


def emit_report(report, output_format: str, out: str | None) -> int:
    """Print ``report`` as text or JSON, also write the JSON to ``out``
    if given, and return the exit status: 0 when ``report.ok``, else 1."""
    payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if out:
        with open(out, "w") as handle:
            handle.write(payload + "\n")
    if output_format == "json":
        print(payload)
    else:
        print(report.render())
        if out:
            print(f"report written to {out}")
    return 0 if report.ok else 1
