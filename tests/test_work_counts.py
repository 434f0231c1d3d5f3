"""The work a warm repl line does, counted by the Python functions it calls
under ``sys.setprofile``, not by timing it: a polynomial never reaches
``ABCMeta.__instancecheck__`` (which ``isinstance(x, Fraction)`` calls for
anything but an int or a Fraction), a monomial's normal form is one scalar
multiple of its table entry, and counts print from ints.  Likewise for two
checks run on cleared caches: ``grr-constants`` pushes e^(k psi) td forward
once per k, whatever the genus, and ``random-identities`` packs its random
classes without the public constructor.  Total call counts differ between
Python versions, so none is pinned.
"""
import sys
from abc import ABCMeta
from collections import Counter
from fractions import Fraction

import pytest

from test_faults import _clear_caches

from chowcalc import algebra, bundles, checks, grr
from chowcalc.algebra import GradedPoly, monomial_basis
from chowcalc.evaluator import Evaluator, format_value

WATCHED = {
    ABCMeta.__instancecheck__.__code__: "instancecheck",
    algebra.linear_combination.__code__: "linear_combination",
    Fraction.__new__.__code__: "Fraction",
}


def _profiled(run, watched):
    """What `run()` returns, and the functions in `watched` (code -> name)
    that it calls, with how often."""
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            seen[watched[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return seen, out


def _calls(ev, line):
    """The watched functions that running and printing `line` calls, with
    how often, and the printed answer."""
    return _profiled(lambda: format_value(ev.run(line)), WATCHED)


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


def test_grr_constants_pushes_forward_once_per_k():
    """Seven genera ask for omega and omega^2; the genus enters ch_0 alone."""
    watched = {
        grr.push_psi.__code__: "push_psi",
        bundles.chern_from_character.__code__: "chern_from_character",
        grr.hodge_bundle.__code__: "hodge_bundle",
    }
    _clear_caches()
    seen, (result,) = _profiled(lambda: checks.run_suite(("grr-constants",), 8), watched)
    assert result.status == "pass"
    assert seen["hodge_bundle"] == 7
    assert seen["push_psi"] == seen["chern_from_character"] == 2  # k = 1 and k = 2


RAND_POLY = next(
    c for c in checks._run_random.__code__.co_consts if getattr(c, "co_name", "") == "rand_poly"
)


def _inits_under_rand_poly():
    """Run random-identities on cleared caches; how many calls of
    ``GradedPoly.__init__`` have ``rand_poly`` on their stack, and how many
    ``rand_poly`` calls there are."""
    counts = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is RAND_POLY:
            counts["rand_poly"] += 1
        elif frame.f_code is GradedPoly.__init__.__code__:
            caller = frame.f_back
            while caller is not None and caller.f_code is not RAND_POLY:
                caller = caller.f_back
            counts["init under rand_poly"] += caller is not None

    _clear_caches()
    sys.setprofile(profile)
    try:
        (result,) = checks.run_suite(("random-identities",), 8)
    finally:
        sys.setprofile(None)
    assert result.status == "pass"
    return counts["init under rand_poly"], counts["rand_poly"]


def test_random_classes_are_packed_without_the_public_constructor():
    inits, draws = _inits_under_rand_poly()
    assert draws and not inits


def test_the_profile_sees_a_public_constructor_under_rand_poly(monkeypatch):
    """The counter can fail: drawn through the public constructor, every
    random class calls ``GradedPoly.__init__``."""

    def public(table, d, coeffs):
        return GradedPoly(table, dict(zip(monomial_basis(table, d), coeffs)))

    monkeypatch.setattr(GradedPoly, "homogeneous", staticmethod(public))
    inits, draws = _inits_under_rand_poly()
    assert inits == draws > 0
