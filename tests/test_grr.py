from fractions import Fraction
from math import factorial

import pytest

from chowcalc.algebra import GradedPoly
from chowcalc.bundles import (
    FormalBundle,
    chern_character,
    dual,
    sequence_quotient,
    sym_power,
    twist,
    wedge_power,
)
from chowcalc.checks import _whitney_roundtrip
from chowcalc.evaluator import Evaluator
from chowcalc.grr import (
    PsiSeries,
    bernoulli,
    ch_pushforward_omega_power,
    exp_psi,
    hodge_bundle,
    hodge_model_bundle,
    kappa,
    kappa_ring,
    mukai_bundle,
    mukai_model_table,
    plucker_sequence_decomposition,
    psi,
    push_psi,
    pushforward_bundle,
    pushforward_rank,
    quadrics_bundle,
    todd_coefficient,
    todd_series,
)

D = 4
KT = kappa_ring(D)
K1, K2, K3, K4 = (kappa(D, i) for i in range(1, 5))


# -- Bernoulli numbers and the Todd series --------------------------------------


def test_bernoulli_against_classical_table():
    table = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        5: Fraction(0),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, value in table.items():
        assert bernoulli(n) == value


def test_todd_series_coefficients():
    assert [todd_coefficient(j) for j in range(5)] == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
    ]


# -- the pushforward map -------------------------------------------------------------


def _psi_power(g, j):
    zero = GradedPoly.zero(KT)
    return PsiSeries(g, tuple(zero for _ in range(j)) + (GradedPoly.one(KT),))


def test_push_psi_squared_is_kappa1():
    assert push_psi(_psi_power(6, 2)) == K1


def test_push_psi_is_degree_of_relative_dualizing_sheaf():
    assert push_psi(_psi_power(6, 1)) == GradedPoly.constant(KT, 10)
    assert push_psi(_psi_power(4, 1)) == GradedPoly.constant(KT, 6)


def test_push_of_constant_is_zero():
    assert push_psi(_psi_power(6, 0)).is_zero()


def test_push_is_linear_over_the_kappa_ring():
    zero = GradedPoly.zero(KT)
    series = PsiSeries(6, (zero, zero, K1 * 3, GradedPoly.one(KT)))
    assert push_psi(series) == 3 * K1 * K1 + K2


# psi^j pushes to kappa_(j-1), so a series pushes as its cut at psi^(D+1).
@pytest.mark.parametrize("trunc", range(1, 7))
def test_push_psi_drops_powers_past_the_truncation(trunc):
    om, td, p = exp_psi(2, 6, trunc), todd_series(6, trunc), psi(6, trunc)
    powers = p
    for _ in range(trunc + 1):
        powers = powers * p
    # a product stops at psi^(D+1), so the series past it are built by hand
    tail = tuple(j * kappa(trunc, 1) for j in range(1, 4))
    for product in (om * td, om * om * td, td * p * p, powers, om * powers - td):
        assert product.order == trunc + 1
        s = PsiSeries(product.genus, product.coeffs + tail)
        assert s.order > trunc + 1
        assert push_psi(s) == push_psi(PsiSeries(s.genus, s.coeffs[: trunc + 2]))


def _bernoulli_polynomial_series(k, n):
    """B_0(k)/0!, ..., B_n(k)/n!: the coefficients of t e^(kt) / (e^t - 1),
    as e^(kt) times the inverse of (e^t - 1)/t = sum t^j / (j + 1)!."""
    divisor = [Fraction(1, factorial(j + 1)) for j in range(n + 1)]
    inverse = [Fraction(1)]
    for d in range(1, n + 1):
        inverse.append(-sum(divisor[i] * inverse[d - i] for i in range(1, d + 1)))
    exp_k = [Fraction(k) ** j / factorial(j) for j in range(n + 1)]
    return [sum(exp_k[i] * inverse[d - i] for i in range(d + 1)) for d in range(n + 1)]


@pytest.mark.parametrize("k", (-1, 1, 2, 3))
@pytest.mark.parametrize("trunc", (2, 4, 8))
def test_omega_power_times_todd_is_the_bernoulli_polynomial_series(k, trunc):
    """Coefficient n of e^(k psi) td is B_n(k)/n! for every n <= D + 1, and
    the product stops there, where both factors stop."""
    s = exp_psi(k, 6, trunc) * todd_series(6, trunc)
    assert s.order == trunc + 1
    assert [c.as_scalar() for c in s.coeffs] == _bernoulli_polynomial_series(k, trunc + 1)


@pytest.mark.parametrize("trunc", range(1, 7))
def test_push_in_the_language_drops_powers_past_the_truncation(trunc):
    """In the language a psi product already stops at psi^(D+1), so the
    powers past the truncation are dropped by the product, before `push`
    sees them: D + 2 factors of psi push to 0, D + 1 to kappa_D."""
    ev = Evaluator(trunc)
    s = exp_psi(2, 6, trunc) * todd_series(6, trunc) * psi(6, trunc)
    assert s.order == trunc + 1
    assert ev.run("push(omega(2, 6) * td(6) * psi(6))") == push_psi(s)
    powers = " * ".join(["psi(6)"] * (trunc + 1))
    assert ev.run(f"push({powers})") == kappa(trunc, trunc)
    assert ev.run(f"push({powers} * psi(6))") == 0


def test_psi_series_arithmetic():
    one = GradedPoly.one(KT)
    zero = GradedPoly.zero(KT)
    a = PsiSeries(6, (one, one))  # 1 + psi
    b = PsiSeries(6, (one, -one))  # 1 - psi
    prod = a * b
    assert prod.coeffs == (one, zero, -one)  # 1 - psi^2
    assert (a + b).coeffs == (2 * one, zero)


# -- Chern characters of pushforwards ---------------------------------------------------


def test_hodge_character_constants():
    ch = ch_pushforward_omega_power(1, 6, D)
    assert ch[0].as_scalar() == 6
    assert ch[1] == K1 / 12
    assert ch[2].is_zero()  # even character components of the Hodge bundle vanish
    assert ch[3] == -K3 / 720
    assert ch[4].is_zero()


def test_psi3_coefficient_of_hodge_push_is_zero_by_hand():
    # e^psi * (1 - psi/2 + psi^2/12 + 0 psi^3): psi^3 coefficient is
    # 1/6 - 1/4 + 1/12 = 0
    assert Fraction(1, 6) - Fraction(1, 4) + Fraction(1, 12) == 0


@pytest.mark.parametrize("k", range(1, 6))
def test_ch1_of_omega_powers(k):
    # degree-2 coefficient of e^(k psi) td is (6k^2 - 6k + 1)/12
    ch = ch_pushforward_omega_power(k, 6, 2)
    assert ch[1] == Fraction(6 * k * k - 6 * k + 1, 12) * kappa(2, 1)


@pytest.mark.parametrize("k", range(2, 5))
def test_ch2_of_omega_powers(k):
    # psi^3 coefficient of e^(k psi) td is k(k-1)(2k-1)/12
    ch = ch_pushforward_omega_power(k, 6, D)
    assert ch[2] == Fraction(k * (k - 1) * (2 * k - 1), 12) * K2


def test_squared_dualizing_sheaf_constants():
    ch = ch_pushforward_omega_power(2, 6, D)
    assert ch[0].as_scalar() == 15
    assert ch[1] == Fraction(13, 12) * K1
    assert ch_pushforward_omega_power(2, 5, D)[0].as_scalar() == 12


@pytest.mark.parametrize("g", range(2, 9))
@pytest.mark.parametrize("k", range(1, 5))
def test_riemann_roch_rank_consistency(k, g):
    ch = ch_pushforward_omega_power(k, g, 2)
    expected = k * (2 * g - 2) - g + 1 + (1 if k == 1 else 0)
    assert ch[0].as_scalar() == expected == pushforward_rank(k, g)


# -- the Hodge bundle -----------------------------------------------------------------


def test_hodge_bundle_rank_and_classes():
    e = hodge_bundle(6, D)
    assert e.rank == 6
    assert e.c(1) == K1 / 12
    assert e.c(2) == K1 * K1 / 288


def test_hodge_c2_from_hand_newton_identity():
    # c2 = (ch1^2 - 2 ch2)/2 with ch2 = 0
    e = hodge_bundle(6, D)
    ch = chern_character(e)
    assert e.c(2) == (ch[1] * ch[1] - 2 * ch[2]) / 2 == (K1 / 12) ** 2 / 2


@pytest.mark.parametrize("g", range(2, 9))
def test_lambda1_is_kappa1_over_12_for_all_genera(g):
    assert hodge_bundle(g, D).c(1) == K1 / 12


def test_hodge_genus_2_has_rank_2():
    assert hodge_bundle(2, D).rank == 2


def test_odd_character_components_cancel_with_the_dual():
    e = hodge_bundle(6, D)
    ch = chern_character(e)
    chd = chern_character(dual(e))
    assert (ch[1] + chd[1]).is_zero()
    assert (ch[3] + chd[3]).is_zero()


# -- the quadrics bundle ----------------------------------------------------------------


def test_quadrics_bundle_ranks():
    assert quadrics_bundle(6, D).rank == 6
    assert quadrics_bundle(5, D).rank == 3
    assert quadrics_bundle(4, D).rank == 1


def test_quadrics_bundle_in_genus_3_is_the_hyperelliptic_divisor():
    """Rank 0 = 6 - 6, and c1 = c1(Sym^2 E) - c1(pi_* omega^2) = (g + 1) lambda -
    13 lambda = -9 lambda with lambda = kappa1/12: minus the class of the
    hyperelliptic locus in M_3, where Sym^2 E -> pi_* omega^2 fails to be onto."""
    q = quadrics_bundle(3, D)
    lam = K1 / 12
    assert q.rank == 0
    assert q.c(1) == (3 + 1) * lam - 13 * lam == -9 * lam == Fraction(-3, 4) * K1


@pytest.mark.parametrize("g", [2, 1, 0])
def test_quadrics_bundle_needs_genus_three(g):
    with pytest.raises(ValueError, match="need genus >= 3"):
        quadrics_bundle(g, D)


def test_quadrics_bundle_first_chern_class():
    # c1(Sym^2 E) - c1(push omega^2) = 7 lambda1 - 13 lambda1 = -6 lambda1
    g = quadrics_bundle(6, D)
    assert g.c(1) == -6 * (K1 / 12) == -K1 / 2


def test_quadrics_bundle_is_computable_to_top_degree():
    g = quadrics_bundle(6, D)
    assert all(g.c(i).is_homogeneous() or g.c(i).is_zero() for i in range(1, D + 1))
    sym2 = sym_power(hodge_bundle(6, D), 2)
    pw2 = pushforward_bundle(2, 6, D)
    # Whitney: c(G) * c(push omega^2) = c(Sym^2 E)
    for d in range(1, D + 1):
        acc = GradedPoly.zero(KT)
        for i in range(d + 1):
            acc = acc + g.c(i) * pw2.c(d - i)
        assert acc == sym2.c(d)


# -- the linear-forms sequence ------------------------------------------------------------


def test_plucker_decomposition_ranks():
    f = plucker_sequence_decomposition(D)
    table = mukai_model_table(D)
    middle = wedge_power(mukai_bundle(D), 2)
    eprime = twist(hodge_model_bundle(D), GradedPoly.variable(table, "ell"))
    assert (f.rank, eprime.rank, middle.rank) == (4, 6, 10)
    assert f.table == table and f.truncation == D


def _full_truncation_f(trunc):
    """F as first computed: c(wedge^2 V) / c(E (x) L') at the full
    truncation, keeping c_1..c_4 and padding with zeros."""
    table = mukai_model_table(trunc)
    middle = wedge_power(mukai_bundle(trunc), 2)
    eprime = twist(hodge_model_bundle(trunc), GradedPoly.variable(table, "ell"))
    q = sequence_quotient(middle, eprime)
    zero = GradedPoly.zero(table)
    cs = tuple(q.c(i) if i <= 4 else zero for i in range(1, trunc + 1))
    return FormalBundle(4, cs, table)


@pytest.mark.parametrize("trunc", range(9))
def test_f_matches_full_truncation_quotient(trunc):
    f = plucker_sequence_decomposition(trunc)
    assert f == _full_truncation_f(trunc)


def test_f1_leading_terms():
    f = plucker_sequence_decomposition(D)
    table = mukai_model_table(D)
    v1 = GradedPoly.variable(table, "v1")
    lam1 = GradedPoly.variable(table, "lambda1")
    ell = GradedPoly.variable(table, "ell")
    # c1(wedge^2 of rank 5) = 4 v1; c1(E') = lambda1 + 6 ell
    assert f.c(1) == 4 * v1 - lam1 - 6 * ell


def test_roundtrip_vanishing_at_higher_truncation():
    assert _whitney_roundtrip(4, 6)


def test_plucker_quadrics_bundle_is_wedge4():
    v = mukai_bundle(D)
    q = wedge_power(v, 4)
    assert q.rank == 5
    assert q.c(1) == 4 * v.c(1)


def test_sym2_of_rank5_first_chern_class():
    # each of the 5 roots appears in 6 of the 15 pairs, so c1(Sym^2 V) = 6 v1
    v = mukai_bundle(D)
    assert sym_power(v, 2).c(1) == 6 * v.c(1)


def test_genus5_net_of_quadrics_model():
    """The rank-5 model in genus 5: untwisting the Hodge bundle by a fifth
    root of its determinant gives a bundle with trivial first Chern class,
    and the quadric kernel has rank 3."""
    e5 = hodge_bundle(5, D)
    lam1 = e5.c(1)
    assert lam1 == K1 / 12
    v = twist(e5, -lam1 / 5)
    assert v.rank == 5
    assert v.c(1).is_zero()  # det V = O
    assert twist(v, lam1 / 5).c(1) == lam1  # V (x) L recovers E
    assert quadrics_bundle(5, D).rank == 3


def test_plane_quintic_model_untwists_by_a_quarter():
    """Plane quintics: Sym^2 of the rank-3 bundle is the Hodge bundle, and
    each of the 3 roots lies in 4 of the 6 pairs, so c1 comparison gives
    v1 = lambda1 / 4."""
    from chowcalc.algebra import VariableTable

    table = VariableTable(("v1", "v2", "v3"), (1, 2, 3))
    cs = tuple(GradedPoly.variable(table, f"v{i}") for i in (1, 2, 3))
    from chowcalc.bundles import FormalBundle

    v = FormalBundle(3, cs + (GradedPoly.zero(table),), table)
    s2 = sym_power(v, 2)
    assert s2.rank == 6  # the Hodge rank in genus 6
    assert s2.c(1) == 4 * v.c(1)
