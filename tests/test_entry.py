"""The program entry, ``python -m chowcalc``: it ends the process without
interpreter teardown, so these tests run it in a subprocess and check that
it prints the same bytes and exits with the same code as ``cli.main`` in
process, and that a closed standard output ends it quietly.
"""
import contextlib
import decimal
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chowcalc import cli

# A warning in library code fails the in-process runs too.
pytestmark = pytest.mark.filterwarnings("error")

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
# A fixed encoding, so that the bytes do not depend on the host's locale,
# buffered output unless a test passes -u, so that the final flush is tested,
# every warning an error, so that a deprecation in library code fails, and a
# fixed width for argparse's help, which a pipe and a terminal wrap apart.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV.update(
    PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8", PYTHONWARNINGS="error", COLUMNS="80",
)
# More than 64 KB of answers (about 1.3 KB each), then the golden session.
LONG_REPL = "F\n" * 60 + (GOLDEN / "repl_input.txt").read_text()


def _in_process(argv: list[str], stdin: str) -> tuple[bytes, int]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return out.getvalue().encode(), code


def _untimed(out: bytes) -> bytes:
    """`out` without the check timings of a verify report."""
    out = re.sub(rb'"millis": [0-9.]+', b'"millis"', out)
    return re.sub(rb"^(\S+  \S+) +\d+\.\d ms", rb"\1", out, flags=re.M)


# 2^20000, 6021 digits: past the interpreter's default limit of 4300 digits
# on integer strings, which Decimal does not have
LONG = str(decimal.Decimal(2**20000))
# argv, stdin, exit code and, where the answer is known, stdout; the long
# cases also read a literal of 5000 digits and answer the line after it
CASES = {
    "verify-text": (["verify", "--trunc", "4"], "", 0, None),
    "verify-json": (["verify", "--trunc", "4", "--format", "json"], "", 0, None),
    "verify-trunc2": (["verify", "--trunc", "2"], "", 0, None),
    "verify-trunc8": (["verify", "--trunc", "8"], "", 0, None),
    "verify-help": (["verify", "--help"], "", 0, None),
    "eval-error": (["eval", "1 + * 2"], "", 2, None),
    "repl-golden": (["repl", "--trunc", "4"], (GOLDEN / "repl_input.txt").read_text(), 2, None),
    "eval-long": (["eval", "2^20000"], "", 0, LONG + "\n"),
    "repl-long": (
        ["repl"], "2^20000\n" + "7" * 5000 + " + 1\n1+1\n", 0,
        LONG + "\n" + "7" * 4999 + "8\n2\n",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_entry_prints_and_exits_like_main(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", ENV["COLUMNS"])
    argv, stdin, code, out = CASES[case]
    proc = subprocess.run(
        [sys.executable, "-m", "chowcalc", *argv], input=stdin.encode(),
        capture_output=True, env=ENV, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert _untimed(proc.stdout) == _untimed(_in_process(argv, stdin)[0])
    if out is not None:
        assert (proc.stdout, proc.stderr) == (out.encode(), b"")


def test_main_leaves_the_limit_on_integer_strings_as_it_found_it():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert _in_process(["eval", "2^20000"], "") == ((LONG + "\n").encode(), 0)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_the_entry_flushes_a_long_repl_to_a_file(tmp_path):
    argv = ["repl", "--trunc", "8"]
    expected, code = _in_process(argv, LONG_REPL)
    assert len(expected) > 64 * 1024 and code == 2
    out = tmp_path / "out.txt"
    with out.open("wb") as f:
        proc = subprocess.run(
            [sys.executable, "-m", "chowcalc", *argv], input=LONG_REPL.encode(),
            stdout=f, stderr=subprocess.PIPE, env=ENV, timeout=120,
        )
    assert proc.returncode == code, proc.stderr
    assert out.read_bytes() == expected


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_the_repl_quietly(flags):
    """`yes E | head -n 3000 | chowcalc repl --trunc 8 | head -1`: the reader
    leaves after one line, long before the repl has written its answers."""
    proc = subprocess.Popen(
        [sys.executable, *flags, "-m", "chowcalc", "repl", "--trunc", "8"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV,
    )
    try:
        proc.stdin.write(b"E\n" * 3000)
        proc.stdin.close()
        assert proc.stdout.readline().startswith(b"bundle(rank 6; ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == cli.BROKEN_PIPE
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""
