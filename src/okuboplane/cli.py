"""Command-line entry point: run verification suites, dump derived tables.

Exit status: 0 when every suite passed (expected-fail statements count as
passed exactly when their witness was found), 1 on any suite failure, 2 on
bad arguments, an ``--output`` that cannot be opened for writing included
(checked before any suite runs).  A command that makes no report for the
kind (``ptr --kind para``: no row lists the para plane) verified nothing,
so it cannot pass: it writes no report, names the command and the kind on
stderr and exits 2.  Reports with identical (command, kind, seed, trials)
are byte-identical apart from the elapsed_ms fields.

The argument parser is built on first use, not at import, and every later
call reuses it while ``$OKUBOPLANE_SEED``, the one default it reads from the
environment, keeps its value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .report import TheoremReport, reports_to_json
from .suites import SUITES, dump_tables, suite_all

COMMANDS = (*SUITES, "dump-tables", "all")

SEED_ENV_VAR = "OKUBOPLANE_SEED"


def build_parser() -> argparse.ArgumentParser:
    """The parser for the current ``$OKUBOPLANE_SEED``, shared by every call
    made while the variable keeps its value: read it, do not modify it."""
    return _parser(os.environ.get(SEED_ENV_VAR, "0"))


@lru_cache(maxsize=1)
def _parser(seed_default: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okuboplane",
        description=(
            "Exact verification suites for the octonion, para-octonion and "
            "Okubo models of the 16-dimensional Moufang plane."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} suite")
        if name != "dump-tables":
            p.add_argument(
                "--kind",
                choices=("okubo", "para", "octonion", "all"),
                default="all",
                help="which plane/algebra to exercise (default: all)",
            )
            p.add_argument(
                "--seed",
                type=int,
                # a string default goes through type=int: a bad value exits 2
                default=seed_default,
                help=f"base seed for trial generators (default: ${SEED_ENV_VAR} or 0)",
            )
            p.add_argument(
                "--trials",
                type=_positive_int,
                default=500,
                help="trial budget per report (default: 500)",
            )
            p.add_argument(
                "--format",
                choices=("text", "json"),
                default="text",
                help="report rendering (default: text)",
            )
        p.add_argument(
            "--output",
            default="-",
            help="output path, or - for stdout (default: -)",
        )
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("trials must be >= 1")
    return value


def _write(path: str, payload: str) -> None:
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _render_text(command: str, reports: list[TheoremReport]) -> str:
    lines = [f"# okuboplane {command}"]
    lines.extend(r.text_line() for r in reports)
    passed = sum(r.ok for r in reports)
    lines.append(f"# {passed}/{len(reports)} reports passed")
    return "\n".join(lines) + "\n"


def run_command(
    command: str, kind: str, seed: int, trials: int, fmt: str, output: str
) -> int:
    runner = suite_all if command == "all" else SUITES[command]
    reports = runner(kind, trials, seed)
    if not reports:
        sys.stderr.write(f"okuboplane {command}: no report lists --kind {kind},"
                         " so nothing was verified\n")
        return 2
    if fmt == "json":
        _write(output, reports_to_json(reports))
    else:
        _write(output, _render_text(command, reports))
    return 0 if all(r.ok for r in reports) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.output != "-":
        try:
            open(args.output, "a", encoding="utf-8").close()
        except OSError as exc:
            parser.error(f"cannot write --output {args.output}: {exc.strerror}")
    if args.command == "dump-tables":
        _write(args.output, json.dumps(dump_tables(), indent=2) + "\n")
        return 0
    return run_command(
        args.command, args.kind, args.seed, args.trials, args.format, args.output
    )


if __name__ == "__main__":
    raise SystemExit(main())
