from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chowcalc import algebra
from chowcalc.algebra import (
    ExactMatrix,
    GradedPoly,
    TableMismatchError,
    VariableTable,
    format_poly,
    linear_combination,
    monomial_basis,
    mul_trunc,
    rat,
    series_mul,
    series_quotient,
)
from chowcalc.bundles import FormalBundle, sequence_quotient
from chowcalc.evaluator import Evaluator, format_value
from chowcalc.geometry import surface_classes
from chowcalc.grr import exp_psi

KAPPA = VariableTable(("k1", "k2"), (1, 2))


def k(name):
    return GradedPoly.variable(KAPPA, name)


# -- monomial bases ------------------------------------------------------------


def test_monomial_basis_weights_1_2_degree_4():
    assert monomial_basis(KAPPA, 4) == ((4, 0), (2, 1), (0, 2))


def test_monomial_basis_degree_0_is_the_empty_monomial():
    assert monomial_basis(KAPPA, 0) == ((0, 0),)


def test_monomial_basis_degree_5():
    assert monomial_basis(KAPPA, 5) == ((5, 0), (3, 1), (1, 2))


def test_monomial_basis_cache_is_bounded():
    """Each ring literal with new variable names is a new table."""
    info = monomial_basis.cache_info
    assert info().maxsize == 1024
    ev = Evaluator()
    for i in range(3000):
        assert ev.run(f"hilbert(ring[x_{i}, y; 1, 2](x_{i}^3, y^2), 4)") == (1, 1, 2, 1, 1)
        assert info().currsize <= info().maxsize
    assert info().currsize == info().maxsize


def _series_count(weights, d):
    """Coefficient of t^d in prod_i 1/(1 - t^w_i), by exact convolution."""
    series = [Fraction(0)] * (d + 1)
    series[0] = Fraction(1)
    for w in weights:
        # multiply by 1/(1 - t^w): prefix sums with stride w
        for i in range(w, d + 1):
            series[i] += series[i - w]
    return series[d]


@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=9),
)
def test_monomial_basis_counts_match_generating_function(weights, d):
    table = VariableTable(tuple(f"x{i}" for i in range(len(weights))), tuple(weights))
    assert len(monomial_basis(table, d)) == _series_count(weights, d)


@given(st.integers(min_value=0, max_value=10))
def test_monomial_basis_is_strictly_descending_graded_lex(d):
    basis = monomial_basis(KAPPA, d)
    assert all(a > b for a, b in zip(basis, basis[1:]))
    assert all(KAPPA.degree(e) == d for e in basis)


def test_indexed_tables_follow_their_groups():
    table = VariableTable.indexed(("v", 2), ("lambda", 3))
    assert table.names == ("v1", "v2", "lambda1", "lambda2", "lambda3")
    assert table.weights == (1, 2, 1, 2, 3)
    assert VariableTable.indexed(("lambda", 3), ("v", 2)).names[:2] == ("lambda1", "lambda2")
    assert VariableTable.indexed() == VariableTable.indexed(("x", 0)) == VariableTable((), ())


# -- a polynomial of known degree from its coefficient vector ----------------------

MIXED_DENOMINATORS = (1, 2, 3, 7, 10007, 2**61 - 1)


@st.composite
def homogeneous_vectors(draw):
    """A table of 1 to 6 variables of weights 1 to 3, a degree from 0 to 40
    (as far as the basis has at most 300 monomials, so that one or two
    variables reach exponents past 31) and one coefficient per monomial:
    ints, Fractions, Fractions and ints over several denominators, or all
    zeros, with zeros among the others."""
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    n = len(weights)
    d = draw(st.integers(0, max(d for d in range(41) if comb(d + n - 1, n - 1) <= 300)))
    table = VariableTable(tuple(f"x{i}" for i in range(n)), tuple(weights))
    numerators = st.integers(-(10**6), 10**6)
    entries = {
        "int": st.just(0) | numerators,
        "fraction": st.just(Fraction(0)) | st.builds(Fraction, numerators, st.integers(1, 60)),
        "mixed": st.just(0) | numerators
        | st.builds(Fraction, numerators, st.sampled_from(MIXED_DENOMINATORS)),
        "zero": st.sampled_from((0, Fraction(0))),
    }[draw(st.sampled_from(("int", "fraction", "mixed", "zero")))]
    size = len(monomial_basis(table, d))
    return table, d, draw(st.lists(entries, min_size=size, max_size=size))


_PAIR = VariableTable(("x0", "x1"), (1, 1))


@given(homogeneous_vectors())
# degree 40 in two variables, but nonzero only on x0^20 x1^20: a 6-bit field
@example((_PAIR, 40, [0] * 20 + [Fraction(-5, 3)] + [0] * 20))
@example((_PAIR, 40, [0] * 20 + [7] + [0] * 19 + [1]))  # x1^40 keeps the 16-bit field
@example((VariableTable(("x0",), (2,)), 3, []))  # no monomial of odd degree
def test_homogeneous_packs_what_the_public_constructor_packs(case):
    table, d, coeffs = case
    packed = GradedPoly.homogeneous(table, d, coeffs)
    public = GradedPoly(table, dict(zip(monomial_basis(table, d), coeffs)))
    assert packed._content == public._content
    assert packed == public and hash(packed) == hash(public)


def test_homogeneous_takes_one_exact_coefficient_per_monomial():
    with pytest.raises(ValueError, match="3 monomials of degree 4, got 2 coefficients"):
        GradedPoly.homogeneous(KAPPA, 4, [1, 2])
    with pytest.raises(TypeError):
        GradedPoly.homogeneous(KAPPA, 4, [1, 0.5, 2])


# -- row reduction --------------------------------------------------------------


def _cofactor_det(rows):
    if len(rows) == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * Fraction(head) * _cofactor_det(minor)
    return total


def test_row_reduce_identity():
    identity = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    red = identity.row_reduce()
    assert red.rank == 3
    assert red.rref == identity


def test_row_reduce_degree_five_relations_have_rank_three():
    rows = [[127, -2304, 0], [0, 127, -2304], [113, 0, -36864]]
    assert _cofactor_det(rows) == 5271552  # nonzero, so full rank
    assert ExactMatrix(rows).row_reduce().rank == 3


def test_row_reduce_two_rows_not_proportional():
    r1, r2 = [127, -2304, 0], [113, 0, -36864]
    assert r1[0] * r2[1] != r1[1] * r2[0]  # cross-multiplication
    assert ExactMatrix([r1, r2]).row_reduce().rank == 2


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    entries = draw(
        st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return ExactMatrix(entries)


@given(matrices())
def test_row_reduce_is_idempotent(m):
    red = m.row_reduce()
    again = red.rref.row_reduce()
    assert again.rref == red.rref
    assert again.rank == red.rank


@given(matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(m, rng):
    rows = list(m.entries)
    rng.shuffle(rows)
    assert ExactMatrix(rows).rank() == m.rank()


def test_determinant_matches_cofactor_expansion():
    rows = [[2, 3, 5], [7, 11, 13], [17, 19, 23]]
    assert ExactMatrix(rows).determinant() == _cofactor_det(rows)


def _ref_determinant(m):
    """Determinant by its own forward elimination over Fractions: the
    reference for the value ``row_reduce`` reads off."""
    n = m.rows
    rows = [list(row) for row in m.entries]
    det = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


# Mostly zeros and small values, so that singular matrices and pivots that
# need a row swap are common.
_entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 7)])


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return ExactMatrix(rows)


@given(square_matrices())
@example(ExactMatrix([[0, 1], [1, 0]]))  # one swap
@example(ExactMatrix([[0, 0, 2], [0, 3, 0], [5, 0, 0]]))  # one swap, then none
@example(ExactMatrix([[1, 2], [2, 4]]))  # singular
@example(ExactMatrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]]))  # zero column
def test_determinant_matches_reference_elimination(m):
    det = m.determinant()
    assert det == _ref_determinant(m) == _cofactor_det(m.entries)
    assert (det == 0) == (m.rank() < m.rows)


def test_determinant_of_empty_matrix_is_one():
    assert ExactMatrix([]).determinant() == 1


def test_non_square_reduction_has_no_determinant():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    assert m.row_reduce().determinant is None
    with pytest.raises(ValueError):
        m.determinant()


# -- polynomial arithmetic -------------------------------------------------------


def test_kappa1_squared_has_degree_two():
    p = k("k1") * k("k1")
    assert p == GradedPoly.monomial(KAPPA, (2, 0))
    assert p.degree() == 2


def test_relation_times_kappa1_distributes():
    r1 = 127 * k("k1") ** 3 - 2304 * k("k1") * k("k2")
    assert r1 * k("k1") == 127 * k("k1") ** 4 - 2304 * k("k1") ** 2 * k("k2")


def test_relation_times_kappa2_lands_in_degree_five():
    r1 = 127 * k("k1") ** 3 - 2304 * k("k1") * k("k2")
    p = r1 * k("k2")
    assert p == 127 * k("k1") ** 3 * k("k2") - 2304 * k("k1") * k("k2") ** 2
    assert p.degree() == 5


def test_table_mismatch_raises():
    other = VariableTable(("x",), (1,))
    with pytest.raises(TableMismatchError):
        k("k1") + GradedPoly.variable(other, "x")


X = GradedPoly.variable(VariableTable(("x",), (1,)), "x")


# A float or a str would enter as a binary or parsed approximation, so every
# entry point that takes a coefficient refuses them.
@pytest.mark.parametrize(
    "build",
    [
        lambda: GradedPoly(X.table, {(1,): 0.1}),
        lambda: GradedPoly.homogeneous(X.table, 1, [0.1]),
        lambda: GradedPoly.homogeneous(X.table, 1, [0.0]),
        lambda: GradedPoly.constant(X.table, 0.5),
        lambda: GradedPoly.constant(X.table, "1/3"),
        lambda: X / 0.1,
        lambda: X * 0.5,
        lambda: 0.5 * X,
        lambda: X + 0.5,
        lambda: 0.5 + X,
        lambda: X - 0.5,
        lambda: 0.5 - X,
        lambda: rat(0.1),
        lambda: rat("1/3"),
        lambda: ExactMatrix([[0.1]]),
        lambda: 0.1 * surface_classes(1)["S"],
        lambda: exp_psi(0.5, 6, 1),
    ],
)
def test_a_float_or_str_coefficient_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_rat_takes_ints_bools_and_fractions():
    assert (rat(3), rat(True), rat(Fraction(1, 3))) == (3, 1, Fraction(1, 3))


TERMS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)),
    st.fractions(min_value=-20, max_value=20, max_denominator=8),
    max_size=5,
)


@given(TERMS, TERMS, TERMS)
def test_ring_axioms(a_terms, b_terms, c_terms):
    a = GradedPoly(KAPPA, a_terms)
    b = GradedPoly(KAPPA, b_terms)
    c = GradedPoly(KAPPA, c_terms)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == GradedPoly.zero(KAPPA)


@given(TERMS, TERMS)
def test_product_of_homogeneous_parts_is_homogeneous(a_terms, b_terms):
    a = GradedPoly(KAPPA, a_terms).homogeneous_component(2)
    b = GradedPoly(KAPPA, b_terms).homogeneous_component(3)
    prod = a * b
    if not prod.is_zero():
        assert prod.degree() == 5


@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.fractions(min_value=-100, max_value=100, max_denominator=50).filter(lambda x: x != 0),
)
def test_rational_arithmetic_is_exact(a, b):
    assert (a / b) * b == a


def test_format_poly_prints_rational_coefficients():
    p = Fraction(36864, 113) * k("k2") ** 2
    assert format_poly(p) == "36864/113 * k2^2"


def test_format_poly_edge_cases():
    zero = GradedPoly.zero(KAPPA)
    assert format_poly(zero) == "0"
    assert format_poly(GradedPoly.constant(KAPPA, -1)) == "-1"
    assert format_poly(-k("k1") + k("k2")) == "k2 - k1"
    assert format_poly(127 * k("k1") ** 3 - 2304 * k("k1") * k("k2")) == (
        "127 * k1^3 - 2304 * k1 * k2"
    )


@st.composite
def weighted_polys(draw):
    """1-3 variables of weights 1-3 and rational coefficients, zero,
    negative and constant terms included."""
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * n),
            st.fractions(min_value=-20, max_value=20, max_denominator=8),
            max_size=5,
        )
    )
    return GradedPoly(VariableTable(("x", "y", "z")[:n], tuple(weights)), terms)


@given(weighted_polys())
@example(127 * k("k1") ** 3 - 2304 * k("k1") * k("k2"))
@example(Fraction(36864, 113) * k("k2") ** 2 - k("k1") ** 4)
@example(GradedPoly.constant(KAPPA, Fraction(-7, 3)))
def test_formatted_polys_reparse_to_the_same_value(p):
    ev = Evaluator()
    ev.env.update({name: GradedPoly.variable(p.table, name) for name in p.table.names})
    assert ev.run(format_poly(p)) == p


def test_reading_back_a_printed_polynomial_unpacks_linearly_many_keys(monkeypatch):
    """Each `+` of the read-back asks whether its operands are numbers.  A
    constant is read off the content, so the keys that pass through
    `_unpack` stay linear in the number of terms: reading a mixed-degree
    partial sum's degrees at every `+` made them quadratic."""
    table = VariableTable(("a1", "b1", "u", "v"), (1, 1, 1, 2))
    basis = [e for d in range(9) for e in monomial_basis(table, d)]
    p = GradedPoly(table, {e: (-1) ** i * (i + 1) for i, e in enumerate(basis)})
    text = format_poly(p)
    ev = Evaluator()
    ev.env.update({name: GradedPoly.variable(table, name) for name in table.names})
    unpacked = []
    unpack = algebra._unpack

    def counting(keys, width, nvars):
        keys = list(keys)
        unpacked.append(len(keys))
        return unpack(keys, width, nvars)

    monkeypatch.setattr(algebra, "_unpack", counting)
    q = ev.run(text)
    monkeypatch.undo()
    assert len(p) == 295 and q == p
    assert sum(unpacked) <= 2 * len(p)


@pytest.mark.parametrize("src", ["M6", "ring[a, b, c; 1, 2, 3](a^3 - 2/3 * a * b, 5 * c^2 + b^3)"])
def test_formatted_rings_reevaluate_to_equal_presentations(src):
    ev = Evaluator()
    pres = ev.run(src)
    assert ev.run(format_value(pres)) == pres


# -- integer-content kernel against the plain Fraction loops ---------------------
#
# The references below are the straightforward Fraction-dict loops.  The kernel
# keeps their first-occurrence term order, so results are compared as ordered
# item lists: same terms, same values, same iteration order.

WTABLE = VariableTable(("a", "b", "c"), (1, 2, 3))
# Large pairwise-coprime denominators (primes and a product of two), so that
# the LCM of an operand's denominators is far from every single one of them.
DENOMINATORS = (1, 1, 2, 3, 7, 10007, 65537, 2**61 - 1, 999983 * 1000003)


def _ref_mul(a, b):
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return [(e, c) for e, c in terms.items() if c != 0]


def _ref_mul_trunc(a, b, max_degree):
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if WTABLE.degree(e1) + WTABLE.degree(e2) > max_degree:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return [(e, c) for e, c in terms.items() if c != 0]


def _ref_add(a, b):
    terms = dict(a.items())
    for e, c in b.items():
        terms[e] = terms.get(e, Fraction(0)) + c
    return [(e, c) for e, c in terms.items() if c != 0]


def _as_poly(items):
    return GradedPoly(WTABLE, dict(items))


def _assert_clean(p):
    for e, c in p.items():
        assert type(c) is Fraction and c != 0
        assert len(e) == len(WTABLE) and all(isinstance(x, int) and x >= 0 for x in e)


coefficients = st.builds(
    Fraction,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from(DENOMINATORS),
)
wterms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1)),
    coefficients,
    max_size=6,
)


@st.composite
def wpolys(draw):
    """Zero polynomials, constants, integer and general polynomials."""
    kind = draw(st.sampled_from(("general", "integer", "constant", "zero")))
    if kind == "zero":
        return GradedPoly.zero(WTABLE)
    if kind == "constant":
        return GradedPoly.constant(WTABLE, draw(coefficients))
    if kind == "integer":
        return GradedPoly(WTABLE, {e: c.numerator for e, c in draw(wterms).items()})
    return GradedPoly(WTABLE, draw(wterms))


@st.composite
def wpairs(draw):
    """Pairs of wpolys; in half of them b shares terms with -a, so that
    sums and products cancel exactly."""
    a = draw(wpolys())
    if draw(st.booleans()):
        # b = -a + (a few terms): a + b cancels all of a's terms but those
        # few, and for a = x + y, b = x - y the product's cross terms cancel.
        extra = draw(wterms)
        b = GradedPoly(WTABLE, {e: -c for e, c in a.items()}) + GradedPoly(WTABLE, extra)
    else:
        b = draw(wpolys())
    return a, b


def _x_plus_y(p, q):
    return GradedPoly(WTABLE, {(1, 0, 0): p, (0, 1, 0): q})


# (x + y)(x - y): the cross terms cancel to zero, with and without denominators.
@given(wpairs())
@example(
    (
        _x_plus_y(Fraction(1, 65537), Fraction(3, 10007)),
        _x_plus_y(Fraction(1, 65537), Fraction(-3, 10007)),
    )
)
@example((_x_plus_y(2, 3), _x_plus_y(2, -3)))
def test_product_matches_fraction_reference(pair):
    a, b = pair
    for p in (a * b, b * a):
        _assert_clean(p)
    assert list((a * b).items()) == _ref_mul(a, b)
    assert list((b * a).items()) == _ref_mul(b, a)


@given(wpairs(), st.integers(min_value=-1, max_value=12))
def test_mul_trunc_matches_fraction_reference(pair, max_degree):
    a, b = pair
    p = mul_trunc(a, b, max_degree)
    _assert_clean(p)
    assert list(p.items()) == _ref_mul_trunc(a, b, max_degree)
    assert p == (a * b).truncate(max_degree)


@given(wpairs())
def test_sum_and_difference_match_fraction_reference(pair):
    a, b = pair
    for p in (a + b, a - b, -a):
        _assert_clean(p)
    assert list((a + b).items()) == _ref_add(a, b)
    neg_b = _as_poly((e, -c) for e, c in b.items())
    assert list((a - b).items()) == _ref_add(a, neg_b)
    assert (a + (-a)).is_zero()


@given(wpolys(), coefficients | st.integers(-3, 3))
def test_scalar_product_matches_fraction_reference(p, q):
    expected = [(e, c * q) for e, c in p.items() if c * q != 0]
    for r in (p * q, q * p):
        _assert_clean(r)
        assert list(r.items()) == expected


@given(wpolys(), st.integers(min_value=0, max_value=3))
def test_power_matches_repeated_fraction_products(p, k):
    expected = GradedPoly.one(WTABLE)
    for _ in range(k):
        expected = _as_poly(_ref_mul(expected, p))
    r = p**k
    _assert_clean(r)
    assert r == expected  # square-and-multiply groups the factors differently


def test_power_matches_repeated_products_up_to_nine():
    binomial = _as_poly({(1, 0, 0): 1, (0, 1, 0): -2})
    with_denominators = _as_poly({(1, 0, 0): Fraction(1, 3), (0, 0, 1): Fraction(-5, 7)})
    for p in (GradedPoly.zero(WTABLE), GradedPoly.constant(WTABLE, Fraction(-2, 3)),
              with_denominators, binomial):
        expected = GradedPoly.one(WTABLE)
        for k in range(10):
            r = p**k
            _assert_clean(r)
            assert r == expected, k
            expected = expected * p
        with pytest.raises(ValueError, match="negative power"):
            p**-1


# Exponents at and around the 16-bit field boundary and far past it: the
# kernel packs an exponent vector into one int, with a field per variable,
# and a sum of two keys must never carry from one field into the next, also
# for keys that an earlier product packed.
big_exponents = st.sampled_from((0, 1, 2**15 - 1, 2**15, 2**16 - 1, 2**16, 2**40))
big_wpolys = st.dictionaries(
    st.tuples(big_exponents, big_exponents, big_exponents), coefficients, max_size=4
).map(_as_poly)


@given(big_wpolys, big_wpolys, big_wpolys)
@example(_as_poly({(2**15 - 1, 0, 1): 1}), _as_poly({(2**15 - 1, 0, 0): 1}),
         _as_poly({(2**15, 1, 0): 1, (0, 0, 1): 3}))
def test_products_of_large_exponents_never_carry(a, b, c):
    contents = [p._content for p in (a, b, c)]
    ab, bc = a * b, b * c
    assert list(ab.items()) == _ref_mul(a, b)
    assert list((ab * c).items()) == _ref_mul(_as_poly(_ref_mul(a, b)), c)
    assert list((a * bc).items()) == _ref_mul(a, _as_poly(_ref_mul(b, c)))
    assert list((ab * ab).items()) == _ref_mul(ab, ab)
    terms = [(Fraction(1, 3), a, b), (2, ab, c), (-1, a, bc), (1, c, c)]
    combination = linear_combination(WTABLE, terms)
    assert dict(combination.items()) == _ref_linear_combination(terms)
    assert (a + c == b) == (dict((a + c).items()) == dict(b.items()))
    # no operation above stored a repacked content on its operands
    assert all(p._content is q for p, q in zip((a, b, c), contents))
    for p in (a, ab, bc, combination):
        coefficients = dict(p.items())
        for e in [e for e, _ in (a * bc).items()] + list(coefficients):
            assert p.coefficient(e) == coefficients.get(e, 0)


def test_stored_content_leaves_equality_hashing_and_immutability_alone():
    a = _x_plus_y(Fraction(1, 3), 2)
    b = _x_plus_y(Fraction(1, 3), 2)
    list(a.items())  # reading the coefficients of a stores nothing on a
    assert a == b and b == a and hash(a) == hash(b)
    content = a._content
    for e in (2**15, 2**40):
        wide = _as_poly({(e, 0, 0): 1, (0, 0, 1): Fraction(1, 5)})
        # every operation packs a wider for itself and leaves a's content alone
        assert a != wide and a + wide != a and a * wide == wide * b
        assert a._content is content
        assert a == b and b == a and hash(a) == hash(b)
    product = a * b
    fresh = _as_poly(product.items())
    assert product == fresh and hash(product) == hash(fresh)
    with pytest.raises(AttributeError):
        a._content = None
    with pytest.raises(AttributeError):
        del product._content


def test_coefficient_is_zero_off_the_polynomial():
    p = _as_poly({(2, 0, 1): Fraction(3, 4), (0, 1, 0): -2})
    assert p.coefficient((2, 0, 1)) == Fraction(3, 4) and p.coefficient([0, 1, 0]) == -2
    for exps in ((1, 0, 0), (0, 0, 0), (2, 0), (2, 0, 1, 0), (), (3, -1, 1), (2**16, 0, 0)):
        assert p.coefficient(exps) == 0 and type(p.coefficient(exps)) is Fraction
    assert GradedPoly.zero(WTABLE).coefficient((0, 0, 0)) == 0


def test_public_constructor_validates_exponents():
    for bad in ((1,), (1, 0, 0), (1, -1)):
        with pytest.raises(ValueError, match="bad exponent vector"):
            GradedPoly(KAPPA, {bad: 1})


def test_public_constructor_drops_zeros_and_stores_fractions():
    p = GradedPoly(KAPPA, {(1, 0): 0, (0, 1): Fraction(0), (2, 0): 3, (0, 0): Fraction(1, 2)})
    assert list(p.items()) == [((2, 0), Fraction(3)), ((0, 0), Fraction(1, 2))]
    assert all(type(c) is Fraction for _, c in p.items())
    assert GradedPoly(KAPPA, {(1, 0): 0}).is_zero()


# -- the sum-of-products kernel and the series built on it -------------------------


def _ref_linear_combination(terms):
    """sum q * a * b by the Fraction-dict product reference above."""
    acc = {}
    for q, a, b in terms:
        for e, c in _ref_mul(a, b):
            acc[e] = acc.get(e, Fraction(0)) + q * c
    return {e: c for e, c in acc.items() if c != 0}


scalars = coefficients | st.integers(-3, 3) | st.just(Fraction(0))


@st.composite
def combinations(draw):
    """Lists of (q, a, b) with zero scalars and mixed denominators; in half of
    them one pair is repeated with -q, or with -a, so that it cancels exactly
    (operands shared between pairs, or not)."""
    terms = draw(st.lists(st.tuples(scalars, wpolys(), wpolys()), max_size=4))
    if terms and draw(st.booleans()):
        q, a, b = draw(st.sampled_from(terms))
        terms.append(draw(st.sampled_from([(-q, a, b), (q, -a, b)])))
    return terms


_a = _x_plus_y(Fraction(1, 65537), Fraction(3, 10007))
_b = _x_plus_y(Fraction(2, 7), Fraction(-1, 3))


@given(combinations())
@example([])
@example([(Fraction(5, 3), _a, _b), (Fraction(-5, 3), _a, _b)])  # cancels to zero
@example([(Fraction(1, 2), _a, _b), (Fraction(1, 2), -_a, _b), (0, _a, _a)])
@example([(Fraction(1, 3), _a, _a), (2, _a, _b), (Fraction(3, 7), _b, _b)])
def test_linear_combination_matches_fraction_reference(terms):
    p = linear_combination(WTABLE, terms)
    _assert_clean(p)
    assert dict(p.items()) == _ref_linear_combination(terms)
    assert p == linear_combination(WTABLE, iter(terms))  # a one-shot iterable


def test_linear_combination_checks_every_table():
    other = VariableTable(("x",), (1,))
    x = GradedPoly.variable(other, "x")
    a = GradedPoly.variable(WTABLE, "a")
    for terms in ([(1, a, x)], [(1, x, a)], [(0, x, x)], [(1, a, a), (1, x, x)]):
        with pytest.raises(TableMismatchError):
            linear_combination(WTABLE, terms)
    with pytest.raises(TableMismatchError):
        series_mul([a], [x], 2)


def _ref_series_mul(a, b, trunc):
    table = a[0].table
    out = [GradedPoly.zero(table) for _ in range(trunc + 1)]
    for i, ai in enumerate(a[: trunc + 1]):
        for j, bj in enumerate(b[: trunc + 1]):
            if i + j <= trunc:
                out[i + j] = out[i + j] + ai * bj
    return out


def _ref_series_inverse(a, trunc):
    table = a[0].table
    if a[0] != GradedPoly.one(table):
        raise ValueError("series inverse needs constant term 1")
    inv = [GradedPoly.one(table)] + [GradedPoly.zero(table) for _ in range(trunc)]
    for d in range(1, trunc + 1):
        acc = GradedPoly.zero(table)
        for i in range(1, d + 1):
            if i < len(a):
                acc = acc + a[i] * inv[d - i]
        inv[d] = -acc
    return inv


def _ref_series_quotient(t, s, trunc):
    """t / s as the product of t with the reference inverse of s: how
    Whitney quotients were computed before they divided directly."""
    return series_mul(t, _ref_series_inverse(s, trunc), trunc)


wseries = st.lists(wpolys(), min_size=1, max_size=4)


@given(wseries, wseries, st.integers(min_value=0, max_value=6))
def test_series_mul_matches_reference_loop(a, b, trunc):
    out = series_mul(a, b, trunc)
    assert len(out) == trunc + 1
    assert out == _ref_series_mul(a, b, trunc)


@given(wseries, st.integers(min_value=0, max_value=6))
def test_series_inverse_matches_reference_loop(a, trunc):
    one = GradedPoly.one(WTABLE)
    a = [one] + a[1:]
    inv = series_quotient([one], a, trunc)  # the inverse is the quotient of 1
    assert inv == _ref_series_inverse(a, trunc)
    assert series_mul(a, inv, trunc) == [one] + [GradedPoly.zero(WTABLE)] * trunc


def test_series_inverse_needs_constant_term_one():
    with pytest.raises(ValueError, match="constant term 1"):
        series_quotient([GradedPoly.one(WTABLE)], [GradedPoly.constant(WTABLE, 2)], 3)


@given(wseries, wseries, st.integers(min_value=0, max_value=6))
def test_series_quotient_matches_product_with_reference_inverse(t, s, trunc):
    s = [GradedPoly.one(WTABLE)] + s[1:]
    assert series_quotient(t, s, trunc) == _ref_series_quotient(t, s, trunc)


@st.composite
def exact_sequences(draw):
    """(total, sub) over WTABLE, sub of rank at most total's, truncations 1..4
    and random classes c_1..c_D, so that a rank below D has classes above it
    (a virtual class)."""

    def classes():
        return tuple(
            GradedPoly(WTABLE, {e: draw(scalars) for e in monomial_basis(WTABLE, i)})
            for i in range(1, draw(st.integers(1, 4)) + 1)
        )

    rank = draw(st.integers(0, 4))
    total = FormalBundle(rank, classes(), WTABLE)
    return total, FormalBundle(draw(st.integers(0, rank)), classes(), WTABLE)


def _full_bundle(rank, trunc):
    """Every monomial of degree i in c_i, with coefficient 1/i."""
    cs = [dict.fromkeys(monomial_basis(WTABLE, i), Fraction(1, i)) for i in range(1, trunc + 1)]
    return FormalBundle(rank, tuple(GradedPoly(WTABLE, c) for c in cs), WTABLE)


@given(exact_sequences())
@example((_full_bundle(3, 4), _full_bundle(1, 4)))
def test_sequence_quotient_matches_product_with_reference_inverse(pair):
    total, sub = pair
    q = sequence_quotient(total, sub)
    trunc = min(total.truncation, sub.truncation)
    assert q.rank == total.rank - sub.rank and q.truncation == trunc
    assert list(q.chern) == _ref_series_quotient(total.total_chern(), sub.total_chern(), trunc)[1:]


# -- kernel results hold integer content until a caller reads coefficients -------

# Sums of products whose exponents pass 16 bits, so that results are packed
# wider, or repacked wider for the next product.
big_combinations = st.lists(st.tuples(scalars, big_wpolys, big_wpolys), max_size=3)
_wide = _as_poly({(2**15, 0, 1): Fraction(1, 3), (1, 0, 0): 2})


@given(combinations() | big_combinations, st.integers(min_value=-1, max_value=12))
@example([(Fraction(5, 3), _a, _b), (Fraction(-5, 3), _a, _b)], 3)  # cancels to zero
@example([(Fraction(1, 2), _wide, _wide), (3, _wide, _a)], 2)  # exponents past 2**16
def test_kernel_results_read_like_polynomials_rebuilt_from_their_items(terms, max_degree):
    p = linear_combination(WTABLE, terms)
    rebuilt = GradedPoly(WTABLE, dict(linear_combination(WTABLE, terms).items()))
    assert len(p) == len(rebuilt) and p.is_zero() == rebuilt.is_zero()
    assert p.is_homogeneous() == rebuilt.is_homogeneous()
    if rebuilt.is_homogeneous() and not rebuilt.is_zero():
        assert p.degree() == rebuilt.degree()
    else:
        with pytest.raises(ValueError, match="degree undefined"):
            p.degree()
    assert p == rebuilt and rebuilt == p
    twice = linear_combination(WTABLE, [(2 * q, a, b) for q, a, b in terms])
    assert (p == twice) == p.is_zero()  # same numerators over half the LCM, for one
    assert hash(p) == hash(rebuilt)
    assert list(p.items()) == list(rebuilt.items())
    for e, c in rebuilt.items():
        assert p.coefficient(e) == c
    assert p.truncate(max_degree) == rebuilt.truncate(max_degree)
    assert format_poly(p) == format_poly(rebuilt)


def test_series_products_leave_their_intermediates_as_integer_content():
    a, b, c = (GradedPoly.variable(WTABLE, name) for name in WTABLE.names)
    one = GradedPoly.one(WTABLE)
    first = series_mul([one, a, b * Fraction(1, 2), c], [one, -a, b, 3 * c], 6)
    second = series_mul(first, first, 6)
    third = series_quotient(second, [one, a, b], 6)
    bundle = FormalBundle(3, tuple(third[1:]), WTABLE)  # reads every degree
    assert len(bundle.c(6)) == len(third[6]) > 0
