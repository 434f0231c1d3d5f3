import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowcalc.algebra import (
    ExactMatrix,
    GradedPoly,
    VariableTable,
    linear_combination,
    monomial_basis,
)
from chowcalc.quotient import (
    RingPresentation,
    SocleError,
    graded_piece,
    hilbert_function,
    ideal_degree_piece,
    is_poincare_duality,
    kappa1_power_presentation,
    m6_presentation,
    normal_form,
    pairing_matrix,
    socle_monomial,
)

M6 = m6_presentation()
T = M6.table
K1 = GradedPoly.variable(T, "k1")
K2 = GradedPoly.variable(T, "k2")


# -- the ideal degree by degree ---------------------------------------------------


def test_ideal_piece_degree_3_is_the_first_relation():
    assert ideal_degree_piece(M6, 3) == ExactMatrix([[127, -2304]])


def test_ideal_piece_degree_4():
    # k1 * r1 and r2; k2 * r1 lands in degree 5
    assert ideal_degree_piece(M6, 4) == ExactMatrix(
        [[127, -2304, 0], [113, 0, -36864]]
    )


def test_ideal_piece_degree_5():
    # multipliers: k1^2 and k2 on r1, k1 on r2
    assert ideal_degree_piece(M6, 5) == ExactMatrix(
        [[127, -2304, 0], [0, 127, -2304], [113, 0, -36864]]
    )


# -- Hilbert functions -------------------------------------------------------------


def test_m6_hilbert_function():
    assert hilbert_function(M6, 6) == (1, 1, 2, 1, 1, 0, 0)


def test_m6_vanishes_in_degrees_5_through_8():
    assert hilbert_function(M6, 8)[5:] == (0, 0, 0, 0)


def test_m6_total_dimension_is_six():
    assert sum(hilbert_function(M6, 8)) == 6


def test_genus_4_kappa_ring():
    assert hilbert_function(kappa1_power_presentation(4), 3) == (1, 1, 1, 0)


@pytest.mark.parametrize("g", range(2, 7))
def test_kappa1_rings_have_g_minus_1_ones(g):
    h = hilbert_function(kappa1_power_presentation(g), g + 2)
    assert h == (1,) * (g - 1) + (0,) * (g + 3 - (g - 1))


def test_free_algebra_hilbert():
    table = VariableTable(("k1",), (1,))
    free = RingPresentation(table, ())
    assert hilbert_function(free, 2) == (1, 1, 1)


# Rings with their first run of max-weight consecutive zero pieces.  Q[x,y] with
# weights 3, 3 is zero in degrees 1, 2, 4 and 5 and nonzero in between, so a
# shorter run proves nothing.
def _ring(weights, relations):
    table = VariableTable(tuple(f"x{i}" for i in range(len(weights))), weights)
    return RingPresentation(table, relations(*(GradedPoly.variable(table, n) for n in table.names)))


ZERO_RUNS = [
    (M6, 5),
    (_ring((3, 3), lambda x, y: (x**2, y**2)), 7),
    (_ring((2, 3), lambda x, y: (x**2, y**2)), 6),
    (_ring((1, 1, 2), lambda a, b, c: (a**2 - b**2 / 2, -a * b + c * 3 / 4, c**2 - (a - b) ** 4)), 5),
    (_ring((1, 1, 1, 1), lambda x, y, z, w: (x**2 + y * z - w**2, y**2 - z * w / 2, z**2 + z * w, w**2)), 5),
]


@pytest.mark.parametrize("pres, first_zero", ZERO_RUNS, ids=["M6", "w33", "w23", "w112", "w1111"])
def test_hilbert_function_builds_no_piece_past_the_first_zero_run(pres, first_zero):
    run = max(pres.table.weights)
    graded_piece.cache_clear()
    h = hilbert_function(pres, 12)
    assert graded_piece.cache_info().misses == first_zero + run  # degrees 0 .. first_zero + run - 1
    assert h[first_zero:] == (0,) * (13 - first_zero) and h[first_zero - 1] != 0


@pytest.mark.parametrize("pres, first_zero", ZERO_RUNS[:4], ids=["M6", "w33", "w23", "w112"])
def test_hilbert_function_equals_every_piece_built(pres, first_zero):
    top = first_zero + max(pres.table.weights) + 3
    assert hilbert_function(pres, top) == tuple(graded_piece(pres, d).dim for d in range(top + 1))


def test_hilbert_function_through_degree_0_is_the_unit():
    assert hilbert_function(M6, 0) == (1,)


def test_hilbert_function_of_m6_far_out_builds_seven_pieces():
    graded_piece.cache_clear()
    assert hilbert_function(M6, 200) == (1, 1, 2, 1, 1) + (0,) * 196
    assert graded_piece.cache_info().misses == 7


# -- normal forms --------------------------------------------------------------------


def test_normal_form_kappa1_cubed():
    assert normal_form(K1**3, M6) == Fraction(2304, 127) * K1 * K2


def test_normal_form_kappa1_fourth():
    assert normal_form(K1**4, M6) == Fraction(36864, 113) * K2**2


def test_normal_form_kappa1_squared_kappa2():
    # k1^2 k2 = (127/2304) k1^4 via k1*r1, then r2: 127*36864/(2304*113)
    assert Fraction(127 * 36864, 2304 * 113) == Fraction(2032, 113)
    assert normal_form(K1**2 * K2, M6) == Fraction(2032, 113) * K2**2


def test_normal_form_past_the_zero_run_builds_no_piece_there():
    # M6 is zero in degrees 5 and 6, and its largest weight is 2, so k1^200 is
    # zero with only the seven pieces of degree <= 6 built, not the 198 x 101
    # Macaulay matrix of degree 200; nonzero pieces keep their normal forms
    graded_piece.cache_clear()
    assert normal_form(K1**200, M6).is_zero()
    assert graded_piece.cache_info().misses == 7
    assert normal_form(K1**5 * K2, M6).is_zero()
    assert normal_form(K1**4, M6) == Fraction(36864, 113) * K2**2
    assert normal_form(K1**3, M6) == Fraction(2304, 127) * K1 * K2


def test_normal_form_past_the_zero_run_costs_no_memory_in_the_degree():
    # the zero proof reads the dimensions up to the zero run, not a tuple
    # padded to the degree (about 16 MB at degree 10^6)
    x = K1 ** 10**6
    normal_form(K1**4, M6)
    tracemalloc.start()
    try:
        assert normal_form(x, M6).is_zero()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_normal_form_is_idempotent_and_fixes_representatives():
    for p in (K1**3, K1**4, K1**2 * K2, K1 * K2, K2**2):
        nf = normal_form(p, M6)
        assert normal_form(nf, M6) == nf
        assert normal_form(p - nf, M6).is_zero()


def test_normal_form_is_linear():
    a, b = K1**4, K1**2 * K2
    lhs = normal_form(3 * a - 7 * b, M6)
    rhs = 3 * normal_form(a, M6) - 7 * normal_form(b, M6)
    assert lhs == rhs


def _random_homogeneous(degree, coeffs):
    basis = monomial_basis(T, degree)
    return GradedPoly(T, {e: c for e, c in zip(basis, coeffs)})


@given(
    st.integers(min_value=0, max_value=6),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
def test_normal_form_linearity_on_random_inputs(degree, acoeffs, bcoeffs, scalar):
    a = _random_homogeneous(degree, acoeffs)
    b = _random_homogeneous(degree, bcoeffs)
    lhs = normal_form(a + scalar * b, M6)
    rhs = normal_form(a, M6) + scalar * normal_form(b, M6)
    assert lhs == rhs


@given(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([0, 1]),
)
def test_relation_multiples_reduce_to_zero(extra_degree, which):
    rel = M6.relations[which]
    for exps in monomial_basis(T, extra_degree):
        assert normal_form(GradedPoly.monomial(T, exps) * rel, M6).is_zero()


def test_normal_form_difference_lies_in_ideal_row_space():
    p = K1**4
    diff = p - normal_form(p, M6)
    rows = list(ideal_degree_piece(M6, 4).entries)
    vec = _vector(diff, monomial_basis(T, 4))
    stacked = ExactMatrix(rows + [vec])
    assert stacked.rank() == ExactMatrix(rows).rank()


# -- pairings ---------------------------------------------------------------------


def test_pairing_degree_2():
    mat = pairing_matrix(M6, 2, 4)
    assert mat == ExactMatrix(
        [
            [Fraction(36864, 113), Fraction(2032, 113)],
            [Fraction(2032, 113), Fraction(1)],
        ]
    )
    assert 36864 * 113 - 2032 * 2032 == 36608
    assert mat.determinant() == Fraction(36608, 12769)


def test_pairing_degree_0_is_the_socle_unit():
    mat = pairing_matrix(M6, 0, 4)
    assert mat == ExactMatrix([[1]])


def test_pairing_degree_1_is_nonzero():
    mat = pairing_matrix(M6, 1, 4)
    assert mat == ExactMatrix([[Fraction(2032, 113)]])


def test_pairing_transpose_symmetry():
    for i in range(5):
        a = pairing_matrix(M6, i, 4)
        b = pairing_matrix(M6, 4 - i, 4)
        assert a.entries == tuple(zip(*b.entries))


def test_pairing_needs_one_dimensional_socle():
    with pytest.raises(SocleError):
        pairing_matrix(M6, 1, 2)  # degree-2 piece has dimension 2


# -- the normal-form table against the vector-loop references ---------------------


def _vector(p, basis):
    """Coefficient vector of p along basis."""
    return [p.coefficient(m) for m in basis]


def _ref_normal_form(x, pres):
    """Reduce the coefficient vector of x by each reduced row of the
    Macaulay matrix in turn."""
    if x.is_zero():
        return x
    basis = monomial_basis(pres.table, x.degree())
    red = ideal_degree_piece(pres, x.degree()).row_reduce()
    vec = _vector(x, basis)
    for row, col in zip(red.rref.entries, red.pivot_columns):
        f = vec[col]
        if f != 0:
            vec = [a - f * b for a, b in zip(vec, row)]
    return GradedPoly(pres.table, dict(zip(basis, vec)))


def _ref_quotient_basis(pres, d):
    pivots = set(ideal_degree_piece(pres, d).row_reduce().pivot_columns)
    return [m for i, m in enumerate(monomial_basis(pres.table, d)) if i not in pivots]


def _ref_pairing_matrix(pres, i, top):
    """One polynomial product and one normal form per entry."""
    socle = socle_monomial(pres, top)
    right = _ref_quotient_basis(pres, top - i)
    rows = []
    for a in _ref_quotient_basis(pres, i):
        row = []
        for b in right:
            prod = GradedPoly.monomial(pres.table, a) * GradedPoly.monomial(pres.table, b)
            row.append(_ref_normal_form(prod, pres).coefficient(socle))
        rows.append(row)
    return ExactMatrix(rows, cols=len(right))


@st.composite
def complete_intersections(draw, max_weight=2):
    """(ring, top degree): relation i is c*x_i^k_i plus terms of the same
    degree in x_(i+1..n), so the only common zero is the origin."""
    n = draw(st.integers(min_value=1, max_value=3))
    weights = draw(st.lists(st.integers(1, max_weight), min_size=n, max_size=n))
    powers = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    table = VariableTable(tuple(f"x{i}" for i in range(n)), tuple(weights))
    relations = []
    for i, (w, k) in enumerate(zip(weights, powers)):
        lead = tuple(k if j == i else 0 for j in range(n))
        terms = {lead: draw(st.integers(1, 9))}
        for m in monomial_basis(table, w * k):
            if m != lead and not any(m[:i + 1]):
                terms[m] = draw(st.integers(-9, 9))
        relations.append(GradedPoly(table, terms))
    top = sum(w * (k - 1) for w, k in zip(weights, powers))
    return RingPresentation(table, tuple(relations)), top


@settings(max_examples=40, deadline=None)
@given(complete_intersections(), st.data())
def test_normal_form_matches_vector_reduction(ring, data):
    pres, top = ring
    for d in range(top + 2):
        basis = monomial_basis(pres.table, d)
        piece = graded_piece(pres, d)
        assert list(piece.quotient_basis) == _ref_quotient_basis(pres, d)
        for m in basis:
            x = GradedPoly.monomial(pres.table, m)
            assert piece.normal_forms[m] == normal_form(x, pres) == _ref_normal_form(x, pres)
        coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(basis), max_size=len(basis)))
        scale = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
        x = GradedPoly(pres.table, dict(zip(basis, coeffs))) * scale
        assert normal_form(x, pres) == _ref_normal_form(x, pres)
    assert hilbert_function(pres, top + 1)[top:] == (1, 0)


def _general_normal_form(x, pres):
    """The sum over the terms of x of each coefficient times its monomial's
    table entry, as ``normal_form`` reduces an input of several terms."""
    table = graded_piece(pres, x.degree()).normal_forms
    one = GradedPoly.one(pres.table)
    return linear_combination(pres.table, ((c, table[m], one) for m, c in x.items()))


def _assert_one_term_normal_form(x, pres):
    got, general = normal_form(x, pres), _general_normal_form(x, pres)
    assert got == general and got._content == general._content
    assert hash(got) == hash(general)


scalars = st.integers(-9, 9).filter(bool) | st.fractions(max_denominator=50).filter(bool)


@given(st.integers(0, 8), st.integers(0, 4), scalars)
@example(4, 0, 1)  # nf(k1^4, M6)
@example(4, 0, Fraction(3, 7))
@example(2, 2, 1)  # in the ideal: zero
def test_a_one_term_normal_form_on_m6_is_the_general_sum(a, b, c):
    _assert_one_term_normal_form(c * K1**a * K2**b, M6)


@settings(max_examples=40, deadline=None)
@given(complete_intersections(), st.data())
def test_a_one_term_normal_form_is_the_general_sum(ring, data):
    pres, top = ring
    monomials = [m for d in range(top + 2) for m in monomial_basis(pres.table, d)]
    m = data.draw(st.sampled_from(monomials))
    _assert_one_term_normal_form(GradedPoly.monomial(pres.table, m, data.draw(scalars)), pres)


def _ci_series(weights, degrees, n):
    """t^0..t^n of prod(1 - t^d) / prod(1 - t^w), the Hilbert series of a
    complete intersection with relations of degrees d in generators of
    weights w."""
    c = [1] + [0] * n
    for d in degrees:
        c = [c[k] - (c[k - d] if k >= d else 0) for k in range(n + 1)]
    for w in weights:
        for k in range(w, n + 1):
            c[k] += c[k - w]
    return tuple(c)


# Q[x, y]/(x, y^2) with y of weight 2 is zero in degree 1 and not in degree 2.
@settings(max_examples=60, deadline=None)
@given(complete_intersections(max_weight=3))
@example((_ring((1, 2), lambda x, y: (x, y**2)), 2))
@example((_ring((1, 3, 2), lambda x, y, z: (x, y**2 - z**3, z**2)), 5))
def test_hilbert_function_of_a_complete_intersection_is_its_series(ring):
    pres, top = ring
    n = top + 2 * max(pres.table.weights) + 1  # through a zero run and past it
    degrees = [r.degree() for r in pres.relations]
    assert hilbert_function(pres, n) == _ci_series(pres.table.weights, degrees, n)


@settings(max_examples=40, deadline=None)
@given(complete_intersections())
def test_pairing_matrix_matches_per_entry_normal_forms(ring):
    pres, top = ring
    for i in range(top + 1):
        mat = pairing_matrix(pres, i, top)
        assert mat == _ref_pairing_matrix(pres, i, top)
        assert mat.rank() == mat.rows == mat.cols  # complete intersections are Gorenstein


def test_graded_piece_cache_is_bounded():
    bound = graded_piece.cache_info().maxsize
    assert bound is not None
    table = VariableTable(("x",), (1,))
    x = GradedPoly.variable(table, "x")
    for c in range(1, bound + 50):  # distinct rings Q[x]/(c*x^2)
        assert graded_piece(RingPresentation(table, (c * x**2,)), 2).dim == 0
    assert graded_piece.cache_info().currsize <= bound


# -- Gorenstein test -----------------------------------------------------------------


def test_m6_is_a_poincare_duality_ring():
    assert is_poincare_duality(M6, 4) is True
    assert hilbert_function(M6, 4) == (1, 1, 2, 1, 1)


def test_monomial_kappa_ring_genus_6_is_poincare():
    assert is_poincare_duality(kappa1_power_presentation(6), 4)


def test_complete_intersection_is_poincare():
    # Q[k1,k2]/(k1^3, k2^2) with weights (1,2) is a complete intersection,
    # hence Gorenstein with socle k1^2 k2 in degree 4.
    pres = RingPresentation(T, (K1**3, K2**2))
    assert hilbert_function(pres, 5) == (1, 1, 2, 1, 1, 0)
    assert is_poincare_duality(pres, 4)


def test_truncated_polynomial_ring_fails_duality():
    pres = kappa1_power_presentation(4)  # Q[k1]/(k1^3)
    assert is_poincare_duality(pres, 4) is False
    h = hilbert_function(pres, 4)
    assert h == (1, 1, 1, 0, 0)
    assert h != h[::-1]


def test_non_gorenstein_ring_fails_duality():
    # Q[k1,k2]/(k1^2, k1 k2): Hilbert (1,1,1,0,1,...) has a gap
    pres = RingPresentation(T, (K1**2, K1 * K2))
    assert hilbert_function(pres, 4) == (1, 1, 1, 0, 1)
    assert not is_poincare_duality(pres, 4)


def test_duality_needs_every_piece_above_top_to_vanish():
    # Q[x,y]/(x^2, xy) with weights (1, 10): the pieces in degrees 2..9 are
    # zero, but y survives in degree 10, so degree 1 is not the socle.
    t = VariableTable(("x", "y"), (1, 10))
    x, y = GradedPoly.variable(t, "x"), GradedPoly.variable(t, "y")
    pres = RingPresentation(t, (x**2, x * y))
    assert hilbert_function(pres, 10) == (1, 1) + (0,) * 8 + (1,)
    assert is_poincare_duality(pres, 1) is False


@pytest.mark.parametrize(
    "power, top, hilbert",
    [
        (3, 2, (1, 2, 1, 0)),  # x*y = 0 pairs R^1 with itself in rank 1 of 2
        (4, 3, (1, 2, 1, 1, 0)),  # R^1 x R^2 -> R^3 is 2 x 1, of full rank 1
    ],
)
def test_duality_needs_square_perfect_pairings(power, top, hilbert):
    # Q[x,y]/(xy, y^2, x^power): the top piece is 1-dimensional and the next is zero
    t = VariableTable(("x", "y"), (1, 1))
    x, y = GradedPoly.variable(t, "x"), GradedPoly.variable(t, "y")
    pres = RingPresentation(t, (x * y, y**2, x**power))
    assert hilbert_function(pres, top + 1) == hilbert
    assert is_poincare_duality(pres, top) is False


@settings(max_examples=40, deadline=None)
@given(complete_intersections(max_weight=3))
def test_complete_intersection_is_gorenstein_in_its_socle_degree_only(ring):
    # A complete intersection is Gorenstein with socle degree sum(d_i - w_i).
    pres, top = ring
    assert is_poincare_duality(pres, top) is True
    assert is_poincare_duality(pres, top + 1) is False
    if top >= 1:
        assert is_poincare_duality(pres, top - 1) is False


@pytest.mark.parametrize("top", range(-6, 0))
def test_duality_rejects_negative_top(top):
    with pytest.raises(ValueError, match="^need top >= 0$"):
        is_poincare_duality(M6, top)


def test_presentation_rejects_inhomogeneous_relations():
    with pytest.raises(ValueError):
        RingPresentation(T, (K1 + K2,))
