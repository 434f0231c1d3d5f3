"""Golden transcripts: the bytes the CLI and the scripts print, regenerated
in-process and compared with the files under tests/golden/.

Timings are the only bytes left out: the ``millis`` field of the JSON report
and the ms column of the text report.  A change that alters output on
purpose rewrites the files with ``python scripts/update_golden.py``, so the
change shows as a diff of them.  ``repl_input.txt`` is written by hand and
never rewritten.
"""
import contextlib
import io
import re
import runpy
import sys
from pathlib import Path

import pytest

from chowcalc import cli

# A warning in library code fails the CLI cases rendered here.
pytestmark = pytest.mark.filterwarnings("error")

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# The README examples, then the benchmark's eval corpus (copied: the tests do
# not import benchmarks/).
EXPRESSIONS = (
    "dim(G(4, 10)) + 16",
    "nf(k1^4, M6)",
    "genus(F[2], 3*S + 1*F)",
    "hilbert(ring[k1,k2; 1,2](127*k1^3 - 2304*k1*k2, 113*k1^4 - 36864*k2^2), 8)",
    "integrate(G(2, 5), sigma1^6)",
    "twist(dual(V), v1)",
    "push(omega(2, 6) * td(6))",
    "-k1",
    "sym(2, V) / F",
    "hilbert(M6, 6)",
    "nf(k1^5, M6)",
    "nf(k1*k2^2, M6)",
    "plucker(G(2, 6))",
    "plucker(G(3, 6))",
    "plucker(G(2, 7))",
    "integrate(G(2, 4), sigma1^4)",
    "lr([2, 1], [2, 1])",
    "lr([3, 1], [2, 2])",
    "schurdim([2, 1], 4)",
    "schurdim([3, 2, 1], 5)",
)

# (truncation, expression) rows of eval.txt: each of EXPRESSIONS at 4 and 8,
# then single cases at the truncation they are about.
ROWS = tuple((t, e) for t in (4, 8) for e in EXPRESSIONS) + (
    # push sends psi^j to kappa_(j-1) and drops psi^j past psi^(D+1): at
    # truncation 4, psi^5 pushes to kappa4 and psi^6 to 0.
    (4, "push(psi(6) * psi(6) * psi(6) * psi(6) * psi(6))"),
    (4, "push(psi(6) * psi(6) * psi(6) * psi(6) * psi(6) * psi(6))"),
    # A product of psi series stops at psi^(D+1), where omega and td stop.
    (2, "omega(1, 6) * td(6)"),
    # sym2wedge2 sums characters over the partitions of 4, whatever n is.
    (4, "sym2wedge2(40)"),
    # M6 is zero from degree 5 on, so these read the piece dimensions only up
    # to the zero run (test_quotient counts the pieces built).
    (4, "nf(k1^200, M6)"),
    (4, "nf(k1^1000000000000, M6)"),
    # A divisor is a polynomial on the Chow ring of F[n]: E on F[2] is a rigid
    # -2 curve with one section.
    (4, "h0(F[2], E)"),
    (4, "intersect(F[2], S, S)"),
    (4, "hilbert(F[2], 3)"),
    (4, "nf(E^2, F[2])"),
    # A surface is recognised by its ideal, however its relations are written.
    (4, "genus(ring[E, F; 1, 1](E^2 + 2*E*F, F^2), 3*S + 1*F)"),
    # A constant polynomial counts as a number.
    (4, "(k1 - k1 + 2) * w1"),
    # A count is the library's int, and dividing it is exact.
    (4, "dim(G(2, 5)) / 4"),
    # A power of a monomial is one key times k: its coefficient is raised
    # too, k1^32 needs the 16-bit exponent field where k1^31 fits in 6, and
    # a negative coefficient to an odd power stays negative.
    (4, "(2/3*k1)^3"),
    (4, "k1^32 * k2"),
    (4, "(-k2)^17"),
    # A monomial's normal form is a scalar times its table entry:
    # 3/7 * 36864/113 = 110592/791.
    (4, "nf(3/7 * k1^4, M6)"),
    # schurdim multiplies ints and divides once.
    (4, "schurdim([3, 2, 1], 4)"),
    # One pushforward of omega^k serves every genus: the genus sets ch_0 and
    # the rank alone, and c_5 of the genus-4 Hodge bundle, a class above its
    # rank, is the per-genus pushforward's.
    (4, "chern(1, hodge(3))"),
    (4, "chern(1, hodge(9))"),
    (4, "rank(hodge(9))"),
    (8, "chern(5, hodge(4))"),
)


def _run(argv: list[str], stdin: str = "") -> str:
    """What ``chowcalc <argv>`` prints to stdout, with `stdin` as its input."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            cli.main(argv)
    finally:
        sys.stdin = saved
    return out.getvalue()


def _verify_json(trunc: int) -> str:
    text = _run(["verify", "--trunc", str(trunc), "--format", "json"])
    return re.sub(r'\n *"millis": [^\n]*', "", text)


def _verify_text() -> str:
    return re.sub(r"^(\S+  \S+) +\d+\.\d ms", r"\1", _run(["verify", "--trunc", "4"]), flags=re.M)


def _eval() -> str:
    return "".join(
        f"eval --trunc {t} -- {e}\n" + _run(["eval", "--trunc", str(t), "--", e])
        for t, e in ROWS
    )


def _kappa_ring_tables() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "scripts" / "kappa_ring_tables.py"), run_name="__main__")
    return out.getvalue()


def _repl() -> str:
    return _run(["repl", "--trunc", "4"], (GOLDEN / "repl_input.txt").read_text())


# golden file -> the function that regenerates it
RENDER = {
    "verify_trunc4.json": lambda: _verify_json(4),
    "verify_trunc6.json": lambda: _verify_json(6),
    "verify_trunc8.json": lambda: _verify_json(8),
    "verify_trunc4.txt": _verify_text,
    "eval.txt": _eval,
    "kappa_ring_tables.txt": _kappa_ring_tables,
    "repl_transcript.txt": _repl,
}


@pytest.mark.parametrize("name", sorted(RENDER))
def test_output_matches_golden_file(name):
    assert RENDER[name]() == (GOLDEN / name).read_text()
