"""Command-line front end.

Two subcommands:

    femlab run <scenario.json> [--out DIR]
    femlab suite <name> --seed N [--count N] [--out DIR]

`run` executes a scenario file and writes its artifacts (a block's own
"tolerance" sets its float threshold); `suite` streams one JSON line per
check to stdout, then a summary line.  FEM_LAB_OUT overrides --out for
both.  Exit codes: 0 on success, 1 when an assertion block or suite check
fails, 2 on a usage error, malformed input or any package error it leads
to (parse or validation errors, unknown suite, a suite --count below 1, an
output path that is, or lies below, an existing non-directory; all refused
before any work), 3 on any other exception (a defect, or an output
directory that cannot be created).  Errors go to stderr as one canonical
JSON object, never as a traceback or usage text; --help exits 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import AssertionFailed, FemlabError, ParseError, ValidationError
from .scenario import run_scenario
from .serialize import dumps_canonical, load_json, write_jsonl
from .suites import run_suite

DEFAULT_SUITE_COUNT = 50


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParseError instead of printing usage text."""

    def error(self, message):
        raise ParseError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="femlab",
        description="exact piecewise-linear potential geometry experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="execute a JSON scenario file")
    run_cmd.add_argument("scenario", help="path to the scenario JSON document")
    run_cmd.add_argument("--out", default=".", help="output directory (default: .)")

    suite_cmd = sub.add_parser("suite", help="run one seeded property suite")
    suite_cmd.add_argument("name", help="suite name")
    suite_cmd.add_argument("--seed", type=int, required=True, help="RNG seed")
    suite_cmd.add_argument(
        "--count", type=int, default=DEFAULT_SUITE_COUNT, help="number of trials"
    )
    suite_cmd.add_argument(
        "--out", default=None, help="also write the JSON lines to <out>/suite_<name>.jsonl"
    )
    return parser


def _out_dir(cli_value):
    """The output path, refused unless its nearest existing ancestor is a directory."""
    out = os.environ.get("FEM_LAB_OUT") or cli_value
    if out:
        existing = os.path.abspath(out)
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise ValidationError("output path %r: %r is not a directory" % (out, existing))
    return out


def _fail(exc, code, **extra) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), **extra}
    print(dumps_canonical(payload), file=sys.stderr)
    return code


def _cmd_run(args) -> int:
    try:
        out = _out_dir(args.out)
        run_scenario(load_json(args.scenario), out)
    except AssertionFailed as exc:
        return _fail(exc, 1, witnesses=exc.witnesses)
    except FemlabError as exc:
        return _fail(exc, 2)
    return 0


def _cmd_suite(args) -> int:
    try:
        out = _out_dir(args.out)
        if args.count < 1:
            raise ValidationError("--count must be at least 1, got %d" % args.count)
        records, summary = run_suite(args.name, args.seed, args.count)
    except FemlabError as exc:
        return _fail(exc, 2)
    rows = records + [summary]
    if out:
        os.makedirs(out, exist_ok=True)
        write_jsonl(os.path.join(out, "suite_%s.jsonl" % args.name), rows)
    for row in rows:
        print(dumps_canonical(row))
    return 0 if summary["failures"] == 0 else 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except ParseError as exc:
        return _fail(exc, 2)
    command = _cmd_run if args.command == "run" else _cmd_suite
    try:
        return command(args)
    except Exception as exc:
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
