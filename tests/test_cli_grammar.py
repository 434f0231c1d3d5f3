"""The CLI grammar read from ``cli.GRAMMAR`` against the argparse parser it
replaced (``_ref_cli._build_parser``): a valid argument vector gives the
same values under both, and an invalid one exits 2 under both, with a
usage line and the same error after ``error: ``.
"""
import ast
import shlex
import sys
import textwrap
from itertools import product
from pathlib import Path

import pytest

from _ref_cli import _build_parser
from chowcalc import cli
from test_entry import CASES

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))  # benchmarks/ is not a package
try:
    import workloads
finally:
    sys.path.remove(str(BENCHMARKS))

REF = _build_parser()


def _outcome(parse, argv, capsys):
    """The values `parse` gives `argv`, or its exit code, standard output and
    standard error."""
    try:
        return parse(list(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def _ref(argv):
    return vars(REF.parse_args(argv))


def _readme_argvs():
    """The arguments of every ``chowcalc`` command in the README's sh blocks."""
    blocks = [b.split("```", 1)[0] for b in (ROOT / "README.md").read_text().split("```sh\n")[1:]]
    argvs = []
    for line in "\n".join(blocks).splitlines():
        if "chowcalc " in line:
            words = shlex.split(line.split("chowcalc ", 1)[1], comments=True)
            argvs.append(words)
    return argvs


def _setup_args():
    """``SETUP_ARGS`` of benchmarks/run.py, read without running it."""
    tree = ast.parse((BENCHMARKS / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "SETUP_ARGS":
            return ast.literal_eval(node.value).values()
    raise AssertionError("benchmarks/run.py has no SETUP_ARGS")


VALID = [
    *_readme_argvs(),
    *(argv for argv, *_ in CASES.values() if "--help" not in argv),
    *_setup_args(),
    workloads.VERIFY_ARGS,
    *(workloads.EVAL_ARGS + (expr,) for expr, _ in workloads.EVAL_CORPUS),
    workloads.SESSION_ARGS,
    ["eval", "--trunc=8", "k1^4"],
    ["eval", "k1^4", "--trunc", "8"],
    ["verify", "--trunc", "4", "--trunc", "6", "--format", "json", "--format", "text"],
    ["eval", "--", "-k1"],
    ["eval", "--trunc", "8", "--", "-k1"],
    ["eval", "--trunc", "-1", "1+1"],
    ["verify", "--tr", "8"],
    ["verify", "--form", "json", "--l"],
    ["verify", "--only=a,b", "--list"],
    ["repl", "--defs", "-", "--trunc", "+3"],
    ["eval", "-5"],
    ["eval", "-1.5"],
    ["eval", "-k1 + 1"],
]
HELP = [
    *(argv for argv, *_ in CASES.values() if "--help" in argv),
    ["-h"], ["--he"], ["verify", "-h"], ["eval", "--help"], ["repl", "-h"],
    ["eval", "-k1", "--h"], ["verify", "-h", "--trunc", "abc"],
]
INVALID = [
    ["verify", "--config", "x.cfg"],
    ["verify", "--trunc", "abc"],
    ["eval", "--trunc=", "1"],
    ["verify", "--format", "xml"],
    ["verify", "--trunc"],
    ["eval", "1", "--defs"],
    ["eval", "--defs", "-x", "1"],
    ["repl", "--trunc", "--", "1"],
    ["eval"],
    ["eval", "--trunc", "8"],
    ["eval", "a", "b"],
    ["eval", "a", "--", "b"],
    ["eval", "k1", "--", "--trunc"],
    ["eval", "a", "--trunc", "8", "--", "b"],
    ["verify", "--"],
    ["verify", "--list=1"],
    ["eval", "--help=x"],
    ["bogus"],
    ["--trunc", "8", "eval", "1"],
    [],
    ["--bogus"],
    ["--bogus", "eval", "1"],
    ["eval", "-k1"],
    ["eval", "-k1", "x"],
    ["verify", "--trunc", "abc", "--help"],
]


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_a_valid_command_line_reads_as_argparse_read_it(argv, capsys):
    assert cli._parse(list(argv)) == _ref(list(argv))


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_exits_0_where_argparse_did(argv, capsys):
    code, out, err = _outcome(cli._parse, argv, capsys)
    assert (code, err) == (0, "") and out.startswith("usage: chowcalc")
    assert _outcome(_ref, argv, capsys)[0] == 0


def _error(outcome):
    code, out, err = outcome
    assert code == 2 and out == "" and err.startswith("usage: chowcalc"), outcome
    return err.split("error: ", 1)[1]


@pytest.mark.parametrize("argv", INVALID, ids=" ".join)
def test_an_invalid_command_line_is_argparse_s_usage_error(argv, capsys):
    assert _error(_outcome(cli._parse, argv, capsys)) == _error(_outcome(_ref, argv, capsys))


# Every command with two of these words after it, and every pair of them
# alone.  Left out where argparse versions differ or where the CLI reads a
# nonsense line another way: "-hx" (help on 3.13, an error before), "--"
# before a command (a bad command, where argparse wants one when it is
# last) and "--=x" (an unknown flag, where argparse calls it ambiguous); all
# three exit 2 at least where argparse did.
WORDS = ["verify", "eval", "bogus", "-", "-h", "--he", "--trunc", "--tr=3", "8", "-1", "-.5",
         "abc", "--format", "--f", "json", "xml", "--list", "--list=1", "--only", "--defs=f",
         "-k1", "-k1 + 1", "--bogus", "+8", "--"]


@pytest.mark.parametrize("command", ["verify", "eval", "repl", None])
def test_pairs_of_words_read_as_argparse_read_them(command, capsys):
    for pair in product(WORDS, repeat=2):
        argv = [command, *pair] if command else list(pair)
        if command is None and "--" in pair:
            continue
        ours, ref = _outcome(cli._parse, argv, capsys), _outcome(_ref, argv, capsys)
        if isinstance(ref, dict):
            assert ours == ref, argv
        elif ref[0] == 0:
            assert ours[0] == 0, argv
        else:
            assert _error(ours) == _error(ref), argv


def test_the_docstring_shows_the_help():
    help_text = cli._help(cli.GRAMMAR)
    assert textwrap.indent(help_text, "    ") in cli.__doc__
    for command in cli.GRAMMAR:
        line = cli._usage([command])[len("usage: "):]
        assert line in help_text and line in cli._help([command])
