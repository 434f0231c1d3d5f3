"""The memos of ring literals.  The evaluator's memo of closed literals,
``_closed_ring``, one for every evaluator: a re-asked literal returns the
presentation built the first time, at any truncation and in any session,
and everything read off it equals what today's path gives, which builds
every literal afresh in the whole environment (``Evaluator._build_ring``)
and stays the oracle; an open literal keeps None.  The memo is module
state, so a test that counts its entries clears it first.  The parser's
memo of statement and literal texts: a re-asked text is the identical tree;
``test_expr_reference.py`` parses every text cold, again, and after its
ring literals were kept, against the reference parser."""
import re

import pytest

from chowcalc import quotient
from chowcalc.algebra import GradedPoly, monomial_basis
from chowcalc.evaluator import EvalError, Evaluator, _closed_ring, format_value
from chowcalc.expr import ParseError, RingExpr, parse

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

# Each fails while its presentation is built, with this message.  A relation
# is judged by its value: a nonzero constant (a number or a constant
# polynomial) is refused, zero is the zero relation, and a value that is no
# polynomial is refused.  The last two literals are open (they read a name
# of the session, or a list).
FAILING = (
    ("hilbert(ring[x, y; 1, 1](x^2 - y), 3)", "hilbert: relations must be homogeneous"),
    ("hilbert(ring[x; 1](x - x), 2)", "hilbert: zero relation"),
    ("hilbert(ring[x; 1](0), 2)", "hilbert: zero relation"),
    ("hilbert(ring[x; 1](x^(0 - 1)), 2)", "negative polynomial power"),
    ("hilbert(ring[x; 1](x^2 / 0), 2)", "division by zero"),
    ("hilbert(ring[x; 1](2), 2)", "ring relations must involve the ring variables"),
    ("hilbert(ring[x; 1](x^0), 2)", "ring relations must involve the ring variables"),
    ("hilbert(ring[x; 1](x - x + 1), 2)", "ring relations must involve the ring variables"),
    ("hilbert(ring[x; 1](V), 2)", "ring relations must be polynomials"),
    ("hilbert(ring[x; 1]([1]), 2)", "ring relations must be polynomials"),
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
    _closed_ring.cache_clear()
    ev = Evaluator()
    literal = CLOSED[0][0]
    first = ev.run(literal)
    assert ev.run(f"hilbert({literal}, 4)") == ev.run(f"hilbert({literal}, 2)") + (1, 0)
    assert ev.run(literal) is first
    assert _closed_ring.cache_info().currsize == 1


def test_evaluators_at_any_truncation_share_a_closed_literal():
    _closed_ring.cache_clear()
    literal = "ring[x, y; 1, 1](x^2, y^2)"
    first = Evaluator(4).run(literal)
    ev = Evaluator(8)
    ev.run("x = 3")  # the literal's own x shadows the session's
    assert ev.run(literal) is first
    assert first == ev._build_ring(parse(literal), ev.env)
    assert format_value(ev.run(f"hilbert({literal}, 3)")) == "(1, 2, 1, 0)"
    assert _closed_ring.cache_info().currsize == 1


def test_a_literal_reading_the_environment_follows_it():
    _closed_ring.cache_clear()
    ev = Evaluator()
    literal = "nf(x^2, ring[x, y; 1, 1](x^2 - c*y^2, x*y))"
    ev.run("c = 3")
    assert format_value(ev.run(literal)) == "3 * y^2"
    ev.run("c = 5")
    assert format_value(ev.run(literal)) == "5 * y^2"
    assert _closed_ring(parse(literal).args[1]) is None
    called = "ring[x; 1](x^dim(G(1, 3)))"
    assert format_value(ev.run(f"hilbert({called}, 3)")) == "(1, 1, 0, 0)"
    assert _closed_ring(parse(called)) is None
    assert _closed_ring.cache_info().currsize == 2


@pytest.mark.parametrize("source, message", FAILING)
def test_a_failing_literal_fails_the_same_way_every_time(source, message):
    _closed_ring.cache_clear()
    ev = Evaluator()
    for _ in range(2):
        with pytest.raises(EvalError) as exc:
            ev.run(source)
        assert str(exc.value) == message
    open_literal = (source, message) in FAILING[-2:]
    # a closed literal that fails is never kept; an open one keeps None
    assert _closed_ring.cache_info().currsize == open_literal
    if open_literal:
        assert _closed_ring(parse(source).args[0]) is None


def test_the_memo_is_bounded_and_stays_right_after_eviction():
    _closed_ring.cache_clear()
    ev = Evaluator()
    bound = _closed_ring.cache_info().maxsize
    assert bound == 1024

    def ask(k):
        return format_value(ev.run(f"nf(x^2, ring[x, y; 1, 1](x^2 - {k}*y^2, x*y))"))

    for k in range(2, bound + 3):
        assert ask(k) == f"{k} * y^2"
        assert _closed_ring.cache_info().currsize <= bound
    assert _closed_ring.cache_info().currsize == bound
    assert ask(2) == "2 * y^2"  # the first literal, evicted by now


# -- the parser's memo of statement and literal texts ------------------------------

LITERAL = "ring[x, y; 1, 1](x^2, y^2)"


def test_one_literal_in_two_statements_is_one_tree():
    _closed_ring.cache_clear()
    first = parse(f"hilbert({LITERAL}, 3)").args[0]
    second = parse(f"pairing({LITERAL}, 1, 2)").args[0]
    assert isinstance(first, RingExpr) and second is first
    assert parse(f"a = {LITERAL}").value is first
    ev = Evaluator()
    assert format_value(ev.run(f"hilbert({LITERAL}, 3)")) == "(1, 2, 1, 0)"
    assert format_value(ev.run(f"pairing({LITERAL}, 1, 2)")) == "[[0, 1], [1, 0]]"
    assert _closed_ring.cache_info().currsize == 1


def test_a_re_asked_statement_is_the_identical_tree_and_adds_no_entry():
    parse.cache_clear()
    statement = f"h = hilbert({LITERAL}, 3)"
    first = parse(statement)
    assert parse.cache_info().currsize == 2  # the statement, and its literal as its own text
    assert parse(LITERAL) is first.value.args[0]
    parse("k1 + 1")
    assert parse(statement) is first and parse.cache_info().currsize == 3


def test_the_literal_memo_is_bounded_and_least_recently_used():
    parse.cache_clear()
    bound = parse.cache_info().maxsize
    assert bound == 1024
    texts = [f"ring[x; 1](x^{k})" for k in range(1, bound + 2)]
    trees = [parse(text) for text in texts[:bound]]
    assert parse.cache_info().currsize == bound  # a literal's text is its own statement
    # a hit makes texts[0] the most recent; the new statement evicts texts[1]
    assert parse(f"hilbert({texts[0]}, 2)").args[0] is trees[0]
    parse(texts[bound])  # evicts the least recent, texts[2]
    assert parse.cache_info().currsize == bound
    assert parse(texts[0]) is trees[0] and parse(texts[3]) is trees[3]
    for k in (1, 2):
        again = parse(texts[k])
        assert again is not trees[k] and again == trees[k]


def test_statement_and_literal_texts_share_one_bound_in_lru_order():
    parse.cache_clear()
    bound = parse.cache_info().maxsize
    asked = f"hilbert({LITERAL}, 3)"
    first = parse(asked)
    ring = first.args[0]
    fillers = [f"k1 + {k}" for k in range(bound - 2)]
    trees = [parse(text) for text in fillers]
    assert parse.cache_info().currsize == bound
    # the literal is found again and becomes the most recent; `asked` is evicted
    assert parse(f"pairing({LITERAL}, 1, 2)").args[0] is ring
    parse("k2 + 1")  # evicts the least recent filler, not the literal
    assert parse.cache_info().currsize == bound
    assert parse(LITERAL) is ring and parse(fillers[1]) is trees[1]
    assert parse(fillers[0]) is not trees[0]
    again = parse(asked)
    assert again is not first and again.args[0] is ring


def test_a_literal_nested_too_deeply_is_never_kept():
    parse.cache_clear()
    deep = "ring[x; 1](" + "(" * 300 + "x" + ")" * 300 + ")"
    for _ in range(2):
        with pytest.raises(RecursionError):
            parse(f"hilbert({deep}, 2)")
        assert parse.cache_info().currsize == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("k1 k2 {}", "trailing input 'k2' at position 3"),
        ("ring[{}; 1](x)", "unexpected token '[' at position 9 (expected one of: ;)"),
    ],
)
def test_a_literal_nested_too_deeply_leaves_an_error_as_it_was(text, message):
    """The parser fails before it reaches the literal, whose own parse
    overflows the stack."""
    deep = "ring[x; 1](" + "(" * 300 + "x" + ")" * 300 + ")"
    with pytest.raises(ParseError, match=re.escape(message) + "$"):
        parse(text.format(deep))


@pytest.mark.parametrize(
    "literal", ["ring[x, y; 1](x)", "ring[1; 1](x)", "ring[x 1](x)", "ring[x; 1](x +)"]
)
def test_a_literal_that_fails_is_never_kept(literal):
    parse.cache_clear()
    for _ in range(2):
        with pytest.raises(ParseError):
            parse(f"hilbert({literal}, 2)")
        assert parse.cache_info().currsize == 0


def test_a_kept_literal_leaves_an_error_as_it_was():
    parse.cache_clear()
    kept = parse("ring[x; 1](x)")
    for _ in range(2):
        with pytest.raises(ParseError) as exc:
            parse("ring[ring[x; 1](x); 1](x)")
        assert str(exc.value) == "unexpected token '[' at position 9 (expected one of: ;)"
        assert (exc.value.position, exc.value.expected) == (9, (";",))
        assert parse("ring[x; 1](x)") is kept and parse.cache_info().currsize == 1
