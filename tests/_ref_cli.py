"""The argument parser ``chowcalc.cli`` built with ``argparse`` before the
grammar became one table that ``cli._parse`` reads.  It is the oracle that
tests/test_cli_grammar.py compares the parsed values and the usage errors
against.
"""
from __future__ import annotations

import argparse

from chowcalc.evaluator import DEFAULT_TRUNCATION


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
