from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import prod

import _ref_bott
import _ref_lr
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowcalc.algebra import GradedPoly, VariableTable, monomial_basis, series_quotient
from chowcalc.bundles import BundleError, FormalBundle, dual, maroni_split_degrees, sym_power
from chowcalc.geometry import (
    SURFACE_TABLE,
    Grassmannian,
    _grass_table,
    canonical_quadrics,
    forms_dim,
    genus_of_class,
    h0_hirzebruch,
    hirzebruch_aut_dim,
    hirzebruch_index,
    hirzebruch_ring,
    hyperelliptic_dim,
    intersect,
    maroni_admissible,
    maroni_divisor_dim,
    maroni_k,
    plane_quintic_dim,
    stratum_dimensions,
    surface_classes,
    trigonal_class,
    trigonal_stratum_dim,
)
from chowcalc.quotient import (
    RingPresentation,
    hilbert_function,
    is_poincare_duality,
    normal_form,
    socle_monomial,
)
from chowcalc.schur import Partition, syt_count


# -- Hirzebruch surfaces: the Chow ring and its intersection form ---------------


def _esf(n):
    c = surface_classes(n)
    return c["E"], c["S"], c["F"]


def _canonical(n):
    e, _, f = _esf(n)
    return -2 * e - (n + 2) * f


def test_section_self_intersections():
    e, s, _ = _esf(2)
    assert intersect(2, e, e) == -2
    assert intersect(2, s, s) == 2
    for n in range(1, 5):
        e, s, f = _esf(n)
        assert intersect(n, s, e) == 0
        assert intersect(n, f, f) == 0
        assert intersect(n, e, f) == 1


def test_canonical_class_degree():
    # K.(K) = 8 on every Hirzebruch surface, and adjunction reads the same K:
    # genus(K) = 1 + (K.K + K.K)/2 = 9
    for n in range(4):
        K = _canonical(n)
        assert intersect(n, K, K) == 8
        assert genus_of_class(n, K) == 9


@pytest.mark.parametrize("n", range(6))
def test_hirzebruch_ring_is_a_surface(n):
    ring = hirzebruch_ring(n)
    assert hilbert_function(ring, 4) == (1, 2, 1, 0, 0)
    assert is_poincare_duality(ring, 2)
    assert socle_monomial(ring, 2) == (1, 1)  # E*F, the class of a point
    e, _, f = _esf(n)
    assert normal_form(e * e, ring) == -n * e * f
    assert hirzebruch_index(ring) == n
    # the same ideal written another way is the same surface
    rewritten = RingPresentation(SURFACE_TABLE, (e * e + n * e * f + f * f, 3 * f * f))
    assert hirzebruch_index(rewritten) == n


def test_intersect_matches_the_closed_form():
    """The point coefficient of x*y in A*(F_n) against the intersection form
    E^2 = -n, E.F = 1, F^2 = 0 on (aE + bF).(cE + dF), on 9450 pairs."""
    for n in range(6):
        e, _, f = _esf(n)
        for a in range(-3, 4):
            for b in range(-3, 6):
                for c in range(-2, 3):
                    for d in range(-2, 3):
                        expected = -n * a * c + a * d + b * c
                        assert intersect(n, a * e + b * f, c * e + d * f) == expected


def test_a_negative_index_is_the_surface_with_e_and_s_swapped():
    """In Q[E, F]/(F^2, E^2 - n*E*F) the class E has E^2 = n: F_(-n) is F_n,
    and aE + bF there is aS + bF on F_n, for intersections, genus and h0."""
    for n in range(1, 5):
        e, s, f = _esf(n)
        assert surface_classes(-n)["S"] == e - n * f
        for a in range(4):
            for b in range(-2, 4):
                here, there = a * e + b * f, a * s + b * f
                assert intersect(-n, here, f) == intersect(n, there, f) == a
                assert genus_of_class(-n, here) == genus_of_class(n, there)
                assert h0_hirzebruch(-n, here) == h0_hirzebruch(n, there)


def test_classes_live_on_one_table():
    for n in range(4):
        assert {c.table for c in surface_classes(n).values()} == {SURFACE_TABLE}
        assert trigonal_class(6, 0).table == SURFACE_TABLE


# -- adjunction --------------------------------------------------------------------


def test_genus_of_trigonal_class_f0():
    c = trigonal_class(6, 0)  # 3S + 4F on F_0
    assert intersect(0, c, c) == 24
    assert intersect(0, c, _canonical(0)) == -14
    assert genus_of_class(0, c) == 6


def test_genus_of_fiber_is_zero():
    assert genus_of_class(3, _esf(3)[2]) == 0


def test_genus_of_trigonal_class_f2():
    assert maroni_k(6, 2) == 1
    assert genus_of_class(2, trigonal_class(6, 2)) == 6


@pytest.mark.parametrize("g", range(4, 13))
def test_maroni_parity_and_adjunction(g):
    for n in range((g + 2) // 3 + 1):
        k = maroni_k(g, n)
        if maroni_admissible(g, n):
            assert k.denominator == 1
            assert genus_of_class(n, trigonal_class(g, n)) == g
        else:
            assert k.denominator == 2
            _, s, f = _esf(n)
            for kk in range(int(k) - 2, int(k) + 3):
                assert genus_of_class(n, 3 * s + kk * f) != g


@pytest.mark.parametrize("g, n", [(-1, 0), (3, 0), (6, -1), (6, 3), (7, 4)])
def test_maroni_k_rejects_invariants_out_of_range(g, n):
    with pytest.raises(ValueError, match="out of range"):
        maroni_k(g, n)
    assert not maroni_admissible(g, n)


def test_maroni_k_of_a_parity_failure_is_a_half_integer():
    assert maroni_k(7, 0) == Fraction(9, 2)
    assert maroni_k(6, 1) == Fraction(5, 2)
    assert not maroni_admissible(7, 0) and not maroni_admissible(6, 1)


def test_maroni_admissibility_is_one_rule():
    """maroni_k is defined, and integral, exactly where the trigonal twist
    model accepts the invariant."""
    for g in range(-1, 13):
        for n in range(-2, g + 2):
            try:
                integral = maroni_k(g, n).denominator == 1
            except ValueError:
                integral = False
            assert maroni_admissible(g, n) == integral
            if integral:
                k, a, b = maroni_split_degrees(g, n)
                assert k == maroni_k(g, n) and (a + 1) + (b + 1) == g
            else:
                with pytest.raises(BundleError, match="not admissible"):
                    maroni_split_degrees(g, n)


# -- section counts ---------------------------------------------------------------


def test_h0_of_moving_section():
    for n in range(5):
        assert h0_hirzebruch(n, _esf(n)[1]) == n + 2


def test_h0_trigonal_f0_is_20():
    assert h0_hirzebruch(0, trigonal_class(6, 0)) == 4 * 5 == 20


def test_h0_trigonal_f2():
    # pieces of degrees 7, 5, 3, 1: 8 + 6 + 4 + 2
    assert h0_hirzebruch(2, trigonal_class(6, 2)) == 20


@pytest.mark.parametrize("g", range(4, 13))
def test_h0_of_canonical_scroll_piece_is_g(g):
    for n in range((g + 2) // 3 + 1):
        if not maroni_admissible(g, n):
            continue
        k = int(maroni_k(g, n))
        _, s, f = _esf(n)
        cls = s + (n + k - 2) * f
        if k >= 2 or n + k >= 2:
            assert h0_hirzebruch(n, cls) == (2 * n + k - 1) + (n + k - 1) == g


def test_h0_rejects_negative_section_multiples():
    with pytest.raises(ValueError, match="a < 0"):
        h0_hirzebruch(1, -1 * _esf(1)[0])
    with pytest.raises(ValueError, match="integral class"):
        h0_hirzebruch(1, _esf(1)[1] / 2)


def test_h0_of_the_rigid_negative_section_is_1():
    # E on F_2 is a -2 curve: its only section vanishes on E itself
    assert h0_hirzebruch(2, _esf(2)[0]) == 1


def _euler_characteristic(n, d):
    """Riemann-Roch on F_n: chi(O(D)) = 1 + D.(D - K)/2."""
    return 1 + intersect(n, d, d - _canonical(n)) / 2


def test_h0_is_riemann_roch_when_no_piece_is_below_minus_1():
    """pi_* O(aE + bF) = sum over j = 0..a of O(b - j*n) on P^1, so h^1 = h^2
    = 0 and h^0 = chi exactly when every piece has degree b - j*n >= -1."""
    for n in range(6):
        e, _, f = _esf(n)
        for a in range(5):
            for b in range(a * n - 1, a * n + 6):
                assert h0_hirzebruch(n, a * e + b * f) == _euler_characteristic(n, a * e + b * f)


def test_h0_differs_from_riemann_roch_below_minus_1():
    e = _esf(2)[0]  # pieces O(0) and O(-2): h^1 = 1
    assert (h0_hirzebruch(2, e), _euler_characteristic(2, e)) == (1, 0)


# -- Grassmannians ------------------------------------------------------------------


def test_grass_dims():
    assert Grassmannian(4, 10).dim == 24
    assert Grassmannian(4, 10).dim + 16 == 40
    assert Grassmannian(3, 15).dim == 36


def test_grass_table_cache_is_bounded():
    """Each G(k, n) asked with a new k is a new table."""
    info = _grass_table.cache_info
    assert info().maxsize == 1024
    for k in range(1, 1101):
        assert len(Grassmannian(k, k + 1).table().names) == k
        assert info().currsize <= info().maxsize
    assert Grassmannian(1, 2).table() == VariableTable.indexed(("c", 1))  # evicted by now
    assert Grassmannian(1100, 1101).table() == VariableTable.indexed(("c", 1100))
    _grass_table.cache_clear()  # the kept tables hold about 600k names


def test_grass_hilbert_matches_box_partition_counts():
    for k, n in ((1, 4), (2, 4), (2, 5), (3, 6)):
        g = Grassmannian(k, n)
        h = hilbert_function(_grass_presentation(g), g.dim + 2)
        expected = tuple(grass_betti(k, n, d) for d in range(g.dim + 3))
        assert h == expected


def test_plucker_degrees_match_tableau_counts():
    # all of k <= 3, n <= 7
    for k in (1, 2, 3):
        for n in range(k + 1, 8):
            rect = Partition(((n - k),) * k)
            assert Grassmannian(k, n).plucker_degree() == syt_count(rect), (k, n)


def test_plucker_degree_g25_is_5():
    assert Grassmannian(2, 5).plucker_degree() == 5


def test_plucker_degree_g4_10_from_pieri():
    # the Grassmannian of Mukai's genus-6 bookkeeping; its point class (6^4)
    # has size 24
    assert Grassmannian(4, 10).plucker_degree() == syt_count(Partition((6, 6, 6, 6))) == 140229804


# -- references: Betti counts, the quotient ring, Laplace-expansion Giambelli --


def grass_betti(k, n, d):
    """Independent count of the degree-d Betti number: partitions inside a
    k x (n-k) box of size d."""

    def count(remaining, max_part, rows_left):
        if remaining == 0:
            return 1
        if rows_left == 0:
            return 0
        return sum(
            count(remaining - p, p, rows_left - 1) for p in range(min(max_part, remaining), 0, -1)
        )

    return count(d, n - k, k)


@lru_cache(maxsize=None)
def _grass_presentation(g):
    """Chern classes of the rank-k tautological subbundle modulo the
    vanishing of the quotient's classes in degrees n-k+1..n (the degreewise
    form of c(S) * c(Q) = 1)."""
    c = [g.chern_sub(i) for i in range(g.k + 1)]
    inv = series_quotient([GradedPoly.one(g.table())], c, g.n)
    return RingPresentation(g.table(), tuple(inv[d] for d in range(g.n - g.k + 1, g.n + 1)))


def _laplace_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        ((-1) ** j * head * _laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]])
         for j, head in enumerate(rows[0])),
        GradedPoly.zero(rows[0][0].table),
    )


def _giambelli_reference(g, lam):
    """Dual Jacobi-Trudi determinant in e_i = (-1)^i c_i, e_i = 0 for i > k."""
    table = g.table()
    conj = [sum(1 for p in lam.parts if p > j) for j in range(lam.parts[0])] if lam.parts else []
    if not conj:
        return GradedPoly.one(table)

    def e(i):
        return (-1) ** i * g.chern_sub(i) if 0 <= i <= g.k else GradedPoly.zero(table)

    m = len(conj)
    return _laplace_det([[e(conj[i] - i + j) for j in range(m)] for i in range(m)])


def _quotient_integral(g, x):
    """Normal form in the degreewise presentation, normalised by the point
    class."""
    pres = _grass_presentation(g)
    socle = socle_monomial(pres, g.dim)
    point = _giambelli_reference(g, Partition((g.n - g.k,) * g.k))
    unit = normal_form(point, pres).coefficient(socle)
    assert unit != 0
    return normal_form(x, pres).coefficient(socle) / unit


def _box_partitions(k, width):
    for size in range(k + 1):
        for parts in combinations_with_replacement(range(width, 0, -1), size):
            yield Partition(parts)


SMALL_GRASSMANNIANS = [(k, n) for n in range(2, 8) for k in range(1, n)]


@pytest.mark.parametrize("k,n", SMALL_GRASSMANNIANS)
def test_pieri_giambelli_matches_laplace_reference(k, n):
    g = Grassmannian(k, n)
    lams = list(_box_partitions(k, n - k))
    assert len(lams) == len(set(lams)) == sum(grass_betti(k, n, d) for d in range(g.dim + 1))
    for lam in lams:
        assert g.schubert_class(lam) == _giambelli_reference(g, lam), lam


@pytest.mark.parametrize("k,n", SMALL_GRASSMANNIANS)
def test_pieri_integral_matches_quotient_reference(k, n):
    g = Grassmannian(k, n)
    for exps in monomial_basis(g.table(), g.dim):
        x = GradedPoly.monomial(g.table(), exps, 3)
        assert g.integrate(x) == _quotient_integral(g, x), exps


@st.composite
def _top_degree_classes(draw):
    """G(k, n) with k <= 4 and n <= min(k + 5, 9), and up to three monomials
    of its top degree with coefficients in -5..5."""
    k = draw(st.integers(1, 4))
    g = Grassmannian(k, draw(st.integers(k + 1, min(k + 5, 9))))
    monomials = st.sampled_from(monomial_basis(g.table(), g.dim))
    terms = draw(st.dictionaries(monomials, st.integers(-5, 5), min_size=1, max_size=3))
    return g, GradedPoly(g.table(), terms)


@settings(max_examples=200, deadline=None)
@given(_top_degree_classes())
def test_integrate_matches_bott_residues(case):
    g, x = case
    assert g.integrate(x) == _ref_bott.integrate(g.k, g.n, x)


def test_degree_of_g25_by_bott_residues():
    g = Grassmannian(2, 5)  # the Grassmannian of the genus-6 Mukai model
    assert g.plucker_degree() == _ref_bott.integrate(2, 5, g.sigma1() ** g.dim) == 5


@pytest.mark.parametrize("n, d, lines", [(4, 3, 27), (5, 5, 2875)])
def test_lines_on_hypersurfaces_by_bott_residues(n, d, lines):
    """A general hypersurface of degree d = 2n - 5 in P^(n-1) holds
    c_top(Sym^d S^*) lines: 27 on a cubic surface, 2875 on a quintic
    threefold.  At a fixed point the roots of Sym^d S^* are the negated sums
    of d of the weights of S."""
    g = Grassmannian(2, n)
    zeros = (GradedPoly.zero(g.table()),) * (g.dim - 2)
    sub = FormalBundle(2, (g.chern_sub(1), g.chern_sub(2)) + zeros, g.table())
    by_calculus = g.integrate(sym_power(dual(sub), d).c(g.dim))
    by_roots = _ref_bott.localize(
        2, n, lambda w: prod(-sum(m) for m in combinations_with_replacement(w, d))
    )
    assert by_calculus == by_roots == lines


def test_schubert_duality_pairing():
    g = Grassmannian(2, 5)

    def complement(lam):
        padded = list(lam.parts) + [0] * (2 - lam.length)
        return Partition.of(*(3 - p for p in reversed(padded)))

    partitions = [
        Partition.of(*p)
        for p in [(), (1,), (2,), (1, 1), (3,), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
    ]
    for lam in partitions:
        dual = complement(lam)
        prod = g.schubert_class(lam) * g.schubert_class(dual)
        assert g.integrate(prod) == 1, lam


def test_schubert_pairing_against_lr_coefficients():
    g = Grassmannian(2, 5)
    # the pairing of complementary-degree classes equals the multiplicity of
    # the full rectangle in the LR product
    cases = [((2,), (2, 2)), ((1, 1), (2, 2)), ((2, 1), (2, 1)), ((3,), (3,))]
    rect = Partition((3, 3))
    for a, b in cases:
        lam, mu = Partition(a), Partition(b)
        expected = dict(_ref_lr.lr_product(lam, mu).terms).get(rect, 0)
        got = g.integrate(g.schubert_class(lam) * g.schubert_class(mu))
        assert got == expected, (a, b)


def test_schubert_duality_in_g36():
    g = Grassmannian(3, 6)
    rect = Partition((3, 3, 3))
    for parts in [(3, 2, 1), (2, 2, 2), (3, 3), (3, 1, 1)]:
        lam = Partition(parts)
        padded = list(lam.parts) + [0] * (3 - lam.length)
        dual = Partition.of(*(3 - p for p in reversed(padded)))
        prod = g.schubert_class(lam) * g.schubert_class(dual)
        assert g.integrate(prod) == 1 == dict(_ref_lr.lr_product(lam, dual).terms)[rect], parts


def test_multiply_in_the_schubert_basis():
    g = Grassmannian(2, 4)
    one = GradedPoly.one(g.table())
    # Pieri: sigma_1 * sigma_1 = sigma_2 + sigma_11, and sigma_2 * sigma_1 = sigma_21
    assert g.multiply(g.sigma1(), (1,)) == {(2,): 1, (1, 1): 1}
    assert g.multiply(g.sigma1(), (2,)) == {(2, 1): 1}
    # a mixed-degree class, signed per monomial: (3 + c1) * sigma_22 = 3 sigma_22
    assert g.multiply(3 * one + g.chern_sub(1), (2, 2)) == {(2, 2): 3}
    assert g.multiply(one - g.chern_sub(2), ()) == {(): 1, (1, 1): -1}
    with pytest.raises(ValueError):
        Grassmannian(3, 6).multiply(g.sigma1(), ())


def test_integrate_rejects_wrong_degree():
    g = Grassmannian(2, 5)
    with pytest.raises(ValueError):
        g.integrate(g.sigma1() ** 3)


# -- linear systems and counts ----------------------------------------------------------


def test_forms_dims():
    assert forms_dim(5, 2) == 21
    assert forms_dim(2, 4) == 15
    assert forms_dim(2, 6) == 28


def test_nodal_sextics_give_p15():
    # plane sextics modulo scale: 27 projective dimensions; four assigned
    # nodes impose three conditions each
    assert forms_dim(2, 6) - 1 - 4 * 3 == 15


def test_canonical_quadric_counts():
    assert [canonical_quadrics(g) for g in (6, 5, 4)] == [6, 3, 1]
    for g in range(3, 10):
        assert canonical_quadrics(g) == g * (g + 1) // 2 - (3 * g - 3)


def test_quadrics_vs_forms_consistency():
    assert forms_dim(5, 2) - canonical_quadrics(6) == 15 == 3 * 6 - 3


# -- strata ------------------------------------------------------------------------------


def test_aut_dimensions():
    assert hirzebruch_aut_dim(0) == 6
    for n in range(1, 5):
        assert hirzebruch_aut_dim(n) == n + 5


def test_genus6_strata():
    assert stratum_dimensions(6) == (15, 13, 12, 11, 10)


def test_genus6_stratum_ingredients():
    assert trigonal_stratum_dim(6, 0) == 20 - 1 - 6 == 13
    assert plane_quintic_dim() == 21 - 1 - 8 == 12
    assert hyperelliptic_dim(6) == 15 - 4 == 11


def test_maroni_divisor_dimension():
    assert maroni_divisor_dim() == 20 - 1 - 7 == 12


def test_genus5_strata():
    assert stratum_dimensions(5) == (12, 11, 9)
    assert Grassmannian(3, 15).dim - 24 == 12


def test_strata_only_for_known_genera():
    with pytest.raises(ValueError):
        stratum_dimensions(7)
