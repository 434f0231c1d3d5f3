"""The work a warm repl line does, counted by the Python functions it calls
under ``sys.setprofile``, not by timing it: a polynomial never reaches
``ABCMeta.__instancecheck__`` (which ``isinstance(x, Fraction)`` calls for
anything but an int or a Fraction), a monomial's normal form is one scalar
multiple of its table entry, and counts print from ints.  Total call counts
differ between Python versions, so none is pinned.
"""
import sys
from abc import ABCMeta
from collections import Counter
from fractions import Fraction

import pytest

from chowcalc import algebra
from chowcalc.evaluator import Evaluator, format_value

WATCHED = {
    ABCMeta.__instancecheck__.__code__: "instancecheck",
    algebra.linear_combination.__code__: "linear_combination",
    Fraction.__new__.__code__: "Fraction",
}


def _calls(ev, line):
    """The watched functions that running and printing `line` calls, with
    how often, and the printed answer."""
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in WATCHED:
            seen[WATCHED[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        out = format_value(ev.run(line))
    finally:
        sys.setprofile(None)
    return seen, out


@pytest.fixture(scope="module")
def warm():
    """An evaluator that has run every line once, so that the prelude, the
    ring pieces and the parser's memo are built."""
    ev = Evaluator()
    for line in LINES:
        ev.run(line)
    return ev


LINES = {
    "nf(k1^4, M6)": "36864/113 * k2^2",
    "nf(k1^2*k2^2, M6)": "0",
    "hilbert(M6, 6)": "(1, 1, 2, 1, 1, 0, 0)",
    "dim(G(3, 7))": "12",
    "schurdim([3, 2, 1], 4)": "64",
}


@pytest.mark.parametrize("line", sorted(LINES))
def test_a_warm_line_never_checks_a_polynomial_against_an_abc(warm, line):
    seen, out = _calls(warm, line)
    assert out == LINES[line]
    assert seen["instancecheck"] == 0


def test_a_monomial_normal_form_is_no_kernel_product(warm):
    seen, _ = _calls(warm, "nf(k1^4, M6)")
    assert seen["linear_combination"] == 0


@pytest.mark.parametrize("line", ["hilbert(M6, 6)", "dim(G(3, 7))", "schurdim([3, 2, 1], 4)"])
def test_a_count_is_computed_and_printed_from_ints(warm, line):
    seen, _ = _calls(warm, line)
    assert seen["Fraction"] == 0


def test_the_profile_sees_each_watched_function(warm):
    """The counters can fail: a line that divides builds a Fraction, a
    polynomial product runs the kernel, and a Fraction times a polynomial
    asks ``ABCMeta`` whether the polynomial is a Fraction."""
    seen, out = _calls(warm, "3/7 * k1^2 * k2")
    assert out == "3/7 * k1^2 * k2"
    assert seen["Fraction"] and seen["linear_combination"] and seen["instancecheck"]
