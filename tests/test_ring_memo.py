"""The evaluator's memo of closed ring literals: a re-asked literal returns
the presentation built the first time, and everything read off it equals
what today's path gives, which builds every literal afresh in the whole
environment (``Evaluator._build_ring``) and stays the oracle."""
import pytest

from chowcalc import quotient
from chowcalc.algebra import GradedPoly, monomial_basis
from chowcalc.evaluator import EvalError, Evaluator, format_value
from chowcalc.expr import parse

# Artinian Gorenstein rings and their top degrees: weights 1 and 2,
# rational coefficients, ^, unary minus, and two to four variables.
CLOSED = (
    ("ring[x, y; 1, 1](x^3 - y^3, x*y)", 3),
    ("ring[k1,k2; 1,2](127*k1^3 - 2304*k1*k2, 113*k1^4 - 36864*k2^2)", 4),
    ("ring[a, b, c; 1, 1, 2](a^2 - 1/2*b^2 + c, -a*b + 3/4*c, c^2 - (a - b)^4)", 4),
    ("ring[a, b, c; 1, 1, 2](a^3 + b^2*a - c*b, -(b^3) + 2/3*a*c, c^2 - (a - b)^4 + 5*a^2*c)", 6),
    ("ring[x, y, z, w; 1, 1, 1, 1](x^2 + y*z - w^2, y^2 - 1/2*z*w, z^2 + z*w, w^2)", 4),
    ("ring[x, y, z; 1, 2, 2](x^4 - 7/5*y*z, y^2 + x^2*z, -z^2 + (x^2 - y)^2 - y*z)", 7),
)

# Each fails while its presentation is built, with this message.
FAILING = (
    ("hilbert(ring[x, y; 1, 1](x^2 - y), 3)", "hilbert: relations must be homogeneous"),
    ("hilbert(ring[x; 1](x - x), 2)", "hilbert: zero relation"),
    ("hilbert(ring[x; 1](x^(0 - 1)), 2)", "negative polynomial power"),
    ("hilbert(ring[x; 1](x^2 / 0), 2)", "division by zero"),
    ("hilbert(ring[x; 1](2), 2)", "ring relations must involve the ring variables"),
)


def _tables(pres, top):
    """Hilbert function through one past the top degree, the normal form of
    every monomial through the top degree, and every pairing into it."""
    h = quotient.hilbert_function(pres, top + 1)
    nfs = [
        quotient.normal_form(GradedPoly.monomial(pres.table, m), pres)
        for d in range(top + 1)
        for m in monomial_basis(pres.table, d)
    ]
    pairings = [quotient.pairing_matrix(pres, i, top).entries for i in range(top + 1)]
    return h, nfs, pairings


@pytest.mark.parametrize("literal, top", CLOSED)
def test_memoized_presentation_equals_the_unmemoized_one(literal, top):
    ev = Evaluator()
    oracle = ev._build_ring(parse(literal), ev.env)
    expected = _tables(oracle, top)
    assert expected[0][top:] == (1, 0)
    # fresh tables for the memoized presentation, not the oracle's cached ones
    quotient.graded_piece.cache_clear()
    memoized = ev.run(literal)
    assert ev.run(literal) is memoized
    assert memoized == oracle
    assert _tables(memoized, top) == expected


def test_a_re_asked_literal_is_the_identical_presentation():
    ev = Evaluator()
    literal = CLOSED[0][0]
    first = ev.run(literal)
    assert ev.run(f"hilbert({literal}, 4)") == ev.run(f"hilbert({literal}, 2)") + (1, 0)
    assert ev.run(literal) is first
    assert ev._closed_rings.cache_info().currsize == 1


def test_a_literal_reading_the_environment_follows_it():
    ev = Evaluator()
    literal = "nf(x^2, ring[x, y; 1, 1](x^2 - c*y^2, x*y))"
    ev.run("c = 3")
    assert format_value(ev.run(literal)) == "3 * y^2"
    ev.run("c = 5")
    assert format_value(ev.run(literal)) == "5 * y^2"
    assert format_value(ev.run("hilbert(ring[x; 1](x^dim(G(1, 3))), 3)")) == "(1, 1, 0, 0)"
    assert ev._closed_rings.cache_info().currsize == 0


@pytest.mark.parametrize("source, message", FAILING)
def test_a_failing_literal_fails_the_same_way_every_time(source, message):
    ev = Evaluator()
    for _ in range(2):
        with pytest.raises(EvalError) as exc:
            ev.run(source)
        assert str(exc.value) == message
    assert ev._closed_rings.cache_info().currsize == 0


def test_the_memo_is_bounded_and_stays_right_after_eviction():
    ev = Evaluator()
    bound = ev._closed_rings.cache_info().maxsize
    assert bound == 1024

    def ask(k):
        return format_value(ev.run(f"nf(x^2, ring[x, y; 1, 1](x^2 - {k}*y^2, x*y))"))

    for k in range(2, bound + 3):
        assert ask(k) == f"{k} * y^2"
        assert ev._closed_rings.cache_info().currsize <= bound
    assert ev._closed_rings.cache_info().currsize == bound
    assert ask(2) == "2 * y^2"  # the first literal, evicted by now
