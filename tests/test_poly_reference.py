"""``GradedPoly`` against the Fraction-dict polynomial it replaced
(``_ref_poly.RefPoly``): every constructor and every chain of ``+ - neg * /``
gives the same terms in the same order, the same length and degrees, the
same hash and the same printed form, and equals, both ways, the polynomial
rebuilt from its terms.
"""
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _ref_poly import RefPoly, fraction_format
from chowcalc import algebra
from chowcalc.algebra import GradedPoly, VariableTable, format_poly

WTABLE = VariableTable(("a", "b", "c"), (1, 2, 3))
TABLES = (WTABLE, VariableTable(("x",), (2,)), VariableTable((), ()))

# Small exponents, and some at and past the 16-bit field boundary, so that
# operands are packed at different widths.
exponents = st.integers(0, 3) | st.sampled_from((2**15, 2**16, 2**40))
coefficients = (
    st.integers(-5, 5)
    | st.builds(Fraction, st.integers(-20, 20), st.sampled_from((1, 2, 3, 7, 65537)))
)
nonzero = coefficients.filter(bool)


@st.composite
def leaves(draw, table):
    """A (GradedPoly, RefPoly) pair from one of the constructors."""
    n = len(table)
    kind = draw(st.sampled_from(("zero", "one", "constant", "variable", "monomial", "terms")))
    if kind == "variable" and n:
        name = draw(st.sampled_from(table.names))
        return GradedPoly.variable(table, name), RefPoly.variable(table, name)
    if kind == "monomial":
        exps = draw(st.tuples(*[exponents] * n))
        c = draw(coefficients)
        return GradedPoly.monomial(table, exps, c), RefPoly.monomial(table, exps, c)
    if kind == "terms":
        terms = draw(st.dictionaries(st.tuples(*[exponents] * n), coefficients, max_size=5))
        return GradedPoly(table, terms), RefPoly(table, terms)
    if kind == "constant":
        c = draw(coefficients)
        return GradedPoly.constant(table, c), RefPoly.constant(table, c)
    if kind == "one":
        return GradedPoly.one(table), RefPoly.one(table)
    return GradedPoly.zero(table), RefPoly.zero(table)


OPS = {
    "add": lambda x, y, q: x + y,
    "sub": lambda x, y, q: x - y,
    "neg": lambda x, y, q: -x,
    "mul": lambda x, y, q: x * y,
    "scale": lambda x, y, q: x * q,
    "rscale": lambda x, y, q: q * x,
    "div": lambda x, y, q: x / q,
    "add_number": lambda x, y, q: x + q,
    "radd_number": lambda x, y, q: q + x,
    "sub_number": lambda x, y, q: x - q,
    "rsub_number": lambda x, y, q: q - x,
}


@st.composite
def programs(draw):
    """A table, and a pool of (GradedPoly, RefPoly) pairs: two to four
    constructor results, then up to six results of operations on earlier
    entries of the pool."""
    table = draw(st.sampled_from(TABLES))
    pool = draw(st.lists(leaves(table), min_size=2, max_size=4))
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(sorted(OPS)))
        i = draw(st.integers(0, len(pool) - 1))
        j = draw(st.integers(0, len(pool) - 1))
        q = draw(nonzero if op == "div" else coefficients)
        (p1, r1), (p2, r2) = pool[i], pool[j]
        pool.append((OPS[op](p1, p2, q), OPS[op](r1, r2, q)))
    return table, pool


def _assert_same(p, r):
    degs = r.degrees()
    assert len(p) == len(r) and p.is_zero() == (not len(r))
    assert p.is_homogeneous() == (len(degs) <= 1)
    if len(degs) == 1:
        assert p.degree() == degs.pop()
    else:
        with pytest.raises(ValueError, match="degree undefined"):
            p.degree()
    rebuilt = GradedPoly(r.table, dict(r.items()))
    assert p == rebuilt and rebuilt == p
    assert p != rebuilt + 1 and rebuilt + 1 != p
    assert list(p.items()) == list(r.items())
    assert all(type(c) is Fraction for _, c in p.items())
    assert hash(p) == hash(rebuilt) == r.hash_value()
    assert format_poly(p) == r.format() == fraction_format(p)


_x = (GradedPoly.variable(WTABLE, "a"), RefPoly.variable(WTABLE, "a"))
_half = (GradedPoly.constant(WTABLE, Fraction(1, 2)), RefPoly.constant(WTABLE, Fraction(1, 2)))
_wide = (GradedPoly.monomial(WTABLE, (2**16, 0, 1), 3), RefPoly.monomial(WTABLE, (2**16, 0, 1), 3))


@given(programs())
@example((WTABLE, [_x, _half, (_x[0] * _half[0], _x[1] * _half[1])]))
@example((WTABLE, [_x, _wide, (_x[0] + _wide[0], _x[1] + _wide[1])]))  # two widths
@example((WTABLE, [_half, _half, (_half[0] + _half[0], _half[1] + _half[1])]))  # 1/2 + 1/2
@example((WTABLE, [_x, _x, (_x[0] - _x[0], _x[1] - _x[1])]))  # cancels to zero
def test_polynomials_match_the_fraction_dict_reference(program):
    _, pool = program
    for p, r in pool:
        _assert_same(p, r)


# The field widths.  Exponents up to 31 pack 6 bits per field, 32 to 32767
# pack 16, and 32768 up pack more, so sums and products here meet operands
# of two widths.  Tables of 1, 4, 5 and 6 variables put the 6-bit keys
# inside one 30-bit int digit, at its edge and past it.
FLOOR_TABLES = tuple(VariableTable.indexed(("x", n)) for n in (1, 4, 5, 6))
floor_exponents = st.sampled_from((0, 1, 31, 32, 62, 63, 64, 32767, 32768))


@st.composite
def floor_triples(draw):
    """Three (GradedPoly, RefPoly) pairs over one table, with exponents at
    and around the steps of the field width."""
    table = draw(st.sampled_from(FLOOR_TABLES))
    terms = st.dictionaries(st.tuples(*[floor_exponents] * len(table)), coefficients, max_size=4)
    return [(GradedPoly(table, t), RefPoly(table, t)) for t in (draw(terms) for _ in range(3))]


def _floor_monomial(n, e):
    table = FLOOR_TABLES[0]
    return GradedPoly.monomial(table, (e,), n), RefPoly.monomial(table, (e,), n)


@given(floor_triples())
@example([_floor_monomial(1, 31), _floor_monomial(2, 32), _floor_monomial(3, 64)])
@example([_floor_monomial(1, 31), _floor_monomial(1, 31), _floor_monomial(-1, 63)])
@example([_floor_monomial(1, 32767), _floor_monomial(1, 1), _floor_monomial(1, 32768)])
def test_sums_products_and_equality_across_the_field_floor(triple):
    (a, ra), (b, rb), (c, rc) = triple
    results = [
        (a + b, ra + rb),
        (a - b, ra - rb),
        (a * b, ra * rb),
        (a * b * c, ra * rb * rc),
        (a * b + c, ra * rb + rc),
        # a content wider than its exponents need, equal to one packed at the floor
        ((a + c) - c, (ra + rc) - rc),
        (a * c - c * a + b, ra * rc - rc * ra + rb),
    ]
    for p, r in results:
        _assert_same(p, r)


def test_four_variable_products_up_to_exponent_31_have_one_digit_keys():
    """Every key below 2^30 is one digit of a CPython int."""
    table = VariableTable(("a1", "b1", "u", "v"), (1, 1, 1, 2))
    a, b = (
        GradedPoly(table, {e: i + 1 for i, e in enumerate(product((0, 1, top), repeat=4))})
        for top in (15, 16)
    )
    for p in (a, b, a * b, a * b - a, (a + 1) * (b - 1)):
        assert max(p._content[1]) < 2**30
    assert max((b * b)._content[1]) >= 2**30  # exponent 32 needs a 16-bit field


def test_field_widths_step_from_6_to_16_bits():
    assert [algebra._field_width(t) for t in (0, 31, 32, 32767, 32768)] == [6, 6, 16, 16, 17]


def test_operands_with_exponents_from_32_to_32767_are_not_repacked(monkeypatch):
    """They share the 16-bit width, so a sum, a product or `==` of two of
    them unpacks no key to repack it."""
    table = FLOOR_TABLES[1]
    a = GradedPoly(table, {(40, 1, 0, 2): 3, (0, 5, 7, 1): -1})
    b = GradedPoly(table, {(300, 0, 0, 0): 1, (2, 2, 2, 2): 5})
    monkeypatch.setattr(algebra, "_unpack", None)
    assert a + b != a * b and a - b == -(b - a)


@pytest.mark.parametrize("bad", [(1,), (1, 0, 0, 0), (1, -1, 0), (-2, 0, 0)])
def test_bad_exponent_vectors_raise_as_before(bad):
    for cls in (GradedPoly, RefPoly):
        with pytest.raises(ValueError, match="bad exponent vector"):
            cls(WTABLE, {(0, 0, 0): 1, bad: Fraction(1, 3)})
        with pytest.raises(ValueError, match="bad exponent vector"):
            cls.monomial(WTABLE, bad, 2)
        # a zero coefficient drops its term before the vector is checked
        assert len(cls(WTABLE, {bad: 0, (1, 0, 0): 2})) == 1


def test_division_by_zero_raises_as_before():
    for p in (GradedPoly.variable(WTABLE, "a"), RefPoly.variable(WTABLE, "a")):
        with pytest.raises(ZeroDivisionError):
            p / 0


# -- the fast paths against the general ones -----------------------------------------


def _width_rule(p):
    _, _, width, top, _ = p._content
    return width == algebra._field_width(top)


@st.composite
def monomials(draw):
    """A one-term polynomial with exponents 0..40, on either side of the
    6-to-16-bit field step at 31/32; some of unknown degree, left over after
    a cancellation."""
    table = draw(st.sampled_from(FLOOR_TABLES[:2] + TABLES[:2]))
    exps = draw(st.tuples(*[st.integers(0, 40)] * len(table)))
    p = GradedPoly.monomial(table, exps, draw(nonzero))
    if draw(st.booleans()):
        other = GradedPoly.monomial(table, tuple(e + 1 for e in exps), 1)
        p = (p + other) - other  # degree None in the content
    return p


@given(monomials(), st.integers(0, 12))
@example(GradedPoly.monomial(FLOOR_TABLES[0], (31,), -1), 2)  # 31 -> 62: 6 -> 16 bits
@example(GradedPoly.monomial(FLOOR_TABLES[0], (16,), Fraction(2, 3)), 2)  # 32: repacked
@example(GradedPoly.monomial(FLOOR_TABLES[0], (15,), 5), 2)  # 30: stays at 6 bits
@example(GradedPoly.constant(FLOOR_TABLES[1], Fraction(-3, 7)), 5)
@example(GradedPoly.monomial(FLOOR_TABLES[1], (40, 0, 3, 1), Fraction(1, 2)), 0)
@example(GradedPoly.monomial(FLOOR_TABLES[1], (40, 0, 3, 1), Fraction(1, 2)), 1)
def test_a_monomial_power_equals_repeated_products(p, k):
    """A one-term ``p ** k`` multiplies one key by k; the product of k
    copies goes through the kernel."""
    power = p**k
    product_ = reduce(mul, [p] * k, GradedPoly.one(p.table))
    assert power == product_ and product_ == power
    assert power._content[:4] == product_._content[:4]
    assert hash(power) == hash(product_)
    assert format_poly(power) == format_poly(product_) == fraction_format(product_)
    assert _width_rule(power) and _width_rule(product_)
    if p._content[4] is None and k > 1:
        assert power._content[4] is None
    elif k > 1:
        assert power._content[4] == product_._content[4] == k * p.degree()


printer_terms = st.dictionaries(
    st.tuples(*[st.integers(0, 40) | exponents] * 6), coefficients, max_size=5
)


@given(st.sampled_from(TABLES + FLOOR_TABLES), printer_terms, printer_terms, nonzero)
def test_the_printer_reads_the_content_as_the_fraction_printer_reads_terms(table, ta, tb, q):
    a, b = (GradedPoly(table, {e[: len(table)]: c for e, c in t.items()}) for t in (ta, tb))
    for p in (a, b, a + b, a - b * q, a * b, (a + 1) / q):
        assert format_poly(p) == fraction_format(p)
