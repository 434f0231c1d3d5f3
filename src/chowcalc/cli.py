"""Command-line interface.

    chowcalc verify [--only id,...] [--format text|json] [--trunc D] [--list]
    chowcalc eval [--defs FILE] [--trunc D] EXPR
    chowcalc repl [--defs FILE] [--trunc D]

Exit codes: 0 all selected checks pass / expression evaluated; 1 some check
failed; 2 usage, parse, or evaluation error; 141 (128 + SIGPIPE, the code a
shell gives a process ended by a broken pipe) standard output was closed
before every answer was written, as in ``chowcalc repl | head -1``.
Configuration comes only from flags; environment variables are never
consulted, so runs are reproducible.

``run`` is the program entry (``python -m chowcalc`` and the ``chowcalc``
script): it flushes the answer and ends the process at once, without the
interpreter's teardown, which would free every object one at a time after
the answer is already out.  ``main`` returns the exit code instead, for
callers in the same process.

Only ``verify`` imports the check battery (``chowcalc.checks``, and with it
``json``): ``eval`` and ``repl`` start without it.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .evaluator import DEFAULT_TRUNCATION, EvalError, Evaluator, format_value, statements
from .expr import ParseError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowcalc",
        description="Exact verification suite and expression calculator for "
        "intersection-theoretic computations on moduli of curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--only", help="comma-separated check ids", default=None)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument(
        "--trunc", type=int, default=DEFAULT_TRUNCATION,
        help=f"truncation order (default {DEFAULT_TRUNCATION})",
    )
    verify.add_argument("--list", action="store_true", help="list check ids and exit")

    ev = sub.add_parser("eval", help="evaluate one expression")
    ev.add_argument("expression")
    ev.add_argument("--defs", help="definitions file (name = expr, one per line)")
    ev.add_argument("--trunc", type=int, default=DEFAULT_TRUNCATION)

    repl = sub.add_parser("repl", help="batch read-eval-print on stdin")
    repl.add_argument("--defs", help="definitions file (name = expr, one per line)")
    repl.add_argument("--trunc", type=int, default=DEFAULT_TRUNCATION)

    return parser


def _cmd_verify(args) -> int:
    from . import checks

    if args.list:
        print("\n".join(checks.check_ids()))
        return 0
    only = args.only
    selection = None if only is None else tuple(s.strip() for s in only.split(",") if s.strip())
    try:
        results = checks.run_suite(selection, args.trunc)
    except ValueError as exc:  # a bad truncation or selection
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(checks.format_json(results) if args.format == "json" else checks.format_text(results))
    return checks.exit_code(results)


def _make_evaluator(args) -> Evaluator:
    ev = Evaluator(trunc=args.trunc)
    if args.defs:
        ev.load_definitions(Path(args.defs).read_text())
    return ev


def _cmd_eval(args) -> int:
    try:
        ev = _make_evaluator(args)
        value = ev.run(args.expression)
    except (ParseError, EvalError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_value(value))
    return 0


def _cmd_repl(args) -> int:
    try:
        ev = _make_evaluator(args)
    except (ParseError, EvalError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = 0
    for line in statements(sys.stdin):
        try:
            text = format_value(ev.run(line))
        except (ParseError, EvalError) as exc:
            text = f"error: {exc}"
            status = 2
        # One write per answer: print writes the newline separately, which
        # unbuffered output sends to the reader as a second chunk.
        sys.stdout.write(text + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    # Answers are exact: an integer of any length is read and printed whole.
    # The interpreter-wide limit on integer strings (none before 3.10.7) is
    # lifted for the command only, so the caller's own str(int) keeps it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run_command(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run_command(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "repl":
        return _cmd_repl(args)
    return 2


BROKEN_PIPE = 141


def run() -> None:
    """Run ``main`` on the command line, flush its output and end the
    process with its exit code, skipping interpreter teardown.  A closed
    standard output ends it quietly with BROKEN_PIPE."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = BROKEN_PIPE
    try:
        sys.stderr.flush()
    except BrokenPipeError:
        code = BROKEN_PIPE
    os._exit(code)
