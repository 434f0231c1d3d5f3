from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, prod

import _ref_bott
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowcalc.algebra import ExactMatrix, GradedPoly, VariableTable, monomial_basis
from chowcalc.bundles import (
    BundleError,
    FormalBundle,
    TwistSolution,
    bundle_from_line_classes,
    chern_character,
    chern_from_character,
    direct_sum,
    dual,
    free_bundle,
    maroni_split_degrees,
    sequence_quotient,
    solve_hyperelliptic_twist,
    solve_trigonal_twist,
    solve_unimodular_twist,
    sym_power,
    trivial_bundle,
    twist,
    universal_chern,
    wedge_power,
)
from chowcalc.geometry import Grassmannian, maroni_admissible

D = 4
TABLE = VariableTable(("w1", "w2", "t", "s"), (1, 2, 1, 1))
W1 = GradedPoly.variable(TABLE, "w1")
W2 = GradedPoly.variable(TABLE, "w2")
T = GradedPoly.variable(TABLE, "t")
S = GradedPoly.variable(TABLE, "s")
ZERO = GradedPoly.zero(TABLE)


def rank2_bundle(trunc=D):
    cs = [W1, W2] + [ZERO] * (trunc - 2)
    return FormalBundle(2, tuple(cs), TABLE)


def generic_bundle(rank, trunc=D, salt=1):
    cs = []
    for i in range(1, trunc + 1):
        acc = ZERO
        for j, exps in enumerate(monomial_basis(TABLE, i)):
            acc = acc + GradedPoly.monomial(TABLE, exps, ((salt + j) % 5) - 2)
        cs.append(acc)
    return FormalBundle(rank, tuple(cs), TABLE)


def test_chern_class_index_must_be_nonnegative():
    b = rank2_bundle()
    assert b.c(0) == GradedPoly.one(TABLE) and b.c(D + 1) == ZERO
    with pytest.raises(BundleError, match="index must be >= 0"):
        b.c(-1)


def test_an_inhomogeneous_class_is_rejected_by_its_own_message():
    with pytest.raises(BundleError, match="^c_2 must be homogeneous of degree 2$"):
        FormalBundle(2, (W1, W2 + T), TABLE)
    with pytest.raises(BundleError, match="^a line class must be homogeneous of degree 1$"):
        twist(rank2_bundle(), T + W2)


# -- dual -----------------------------------------------------------------------


def test_dual_flips_odd_signs():
    b = rank2_bundle()
    d = dual(b)
    assert d.c(1) == -W1 and d.c(2) == W2


def test_dual_is_an_involution():
    for salt in range(3):
        b = generic_bundle(5, salt=salt)
        assert dual(dual(b)) == b


def test_dual_of_rank_5():
    v = generic_bundle(5)
    assert dual(v).c(1) == -v.c(1)


# -- twist ----------------------------------------------------------------------


def test_twist_rank_2_root_expansion():
    # roots a, b with e1 = w1, e2 = w2: (1 + a + t)(1 + b + t)
    tw = twist(rank2_bundle(), T)
    assert tw.c(1) == W1 + 2 * T
    assert tw.c(2) == W2 + W1 * T + T**2


# The class of a line is homogeneous of degree 1, or zero, on the bundle's table.
def test_twist_takes_only_the_class_of_a_line():
    other = GradedPoly.variable(VariableTable(("u",), (1,)), "u")
    for bad, message in ((W2, "a line class must be homogeneous of degree 1"),
                         (other, "twist class over a different table")):
        with pytest.raises(BundleError, match=f"^{message}$"):
            twist(rank2_bundle(), bad)


def test_twist_by_zero_is_identity():
    b = rank2_bundle()
    assert twist(b, ZERO) == b


def test_twist_rank5_by_lambda1_over_5():
    # det-trivial rank 5 twisted by lambda1/5 has c1 = lambda1
    v = trivial_bundle(TABLE, 5, D)
    tw = twist(v, T / 5)
    assert tw.c(1) == T


def _closed_form_twist(b, t):
    """Independent oracle: c_j(B (x) L) = sum_i C(r-i, j-i) c_i t^(j-i),
    valid for honest bundles (c_i = 0 above the rank)."""
    cs = []
    for j in range(1, b.truncation + 1):
        acc = GradedPoly.zero(b.table)
        for i in range(0, min(j, b.rank) + 1):
            acc = acc + comb(b.rank - i, j - i) * b.c(i) * t ** (j - i)
        cs.append(acc)
    return cs


def test_twist_matches_closed_form():
    for b in (rank2_bundle(), generic_bundle(4, salt=4), generic_bundle(5, salt=5)):
        tw = twist(b, T + 2 * S)
        oracle = _closed_form_twist(b, T + 2 * S)
        assert list(tw.chern) == oracle


def test_twist_additivity():
    b = generic_bundle(4)
    lhs = twist(twist(b, T), S)
    rhs = twist(b, T + S)
    assert lhs == rhs


# -- symmetric and exterior powers --------------------------------------------------


def test_sym2_rank2_hand_expansion():
    s2 = sym_power(rank2_bundle(), 2)
    assert s2.rank == 3
    assert s2.c(1) == 3 * W1
    assert s2.c(2) == 2 * W1**2 + 4 * W2
    assert s2.c(3) == 4 * W1 * W2


def test_sym1_is_identity():
    # rank >= truncation, so all recorded classes are genuinely free
    b = generic_bundle(5)
    assert sym_power(b, 1) == b
    honest2 = rank2_bundle()
    assert sym_power(honest2, 1) == honest2


def test_sym_ranks_from_binomials():
    assert sym_power(generic_bundle(5), 2).rank == 15
    assert sym_power(generic_bundle(6), 2).rank == 21


@pytest.mark.parametrize("k", range(1, 7))
def test_sym_c1_closed_form_rank2(k):
    s = sym_power(rank2_bundle(), k)
    assert s.rank == k + 1
    assert s.c(1) == Fraction(k * (k + 1), 2) * W1


def test_sym_power_of_large_rank():
    v = generic_bundle(40)
    s = sym_power(v, 10)
    assert s.rank == comb(49, 10)
    assert s.c(1) == comb(49, 9) * v.c(1)


def test_wedge_top_is_determinant():
    b = generic_bundle(4)
    det = wedge_power(b, 4)
    assert det.rank == 1
    assert det.c(1) == b.c(1)


def test_wedge_zero_is_trivial():
    w0 = wedge_power(generic_bundle(3), 0)
    assert w0.rank == 1
    assert all(w0.c(i).is_zero() for i in range(1, D + 1))


def test_wedge4_rank5_equals_twisted_dual():
    v = generic_bundle(5)
    lhs = wedge_power(v, 4)
    rhs = twist(dual(v), v.c(1))
    assert lhs.rank == rhs.rank == 5
    assert all(lhs.c(i) == rhs.c(i) for i in range(1, D + 1))


def test_wedge_out_of_range():
    with pytest.raises(BundleError):
        wedge_power(generic_bundle(3), 4)


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize(
    "power, index_sets",
    [(sym_power, combinations_with_replacement), (wedge_power, combinations)],
    ids=["sym", "wedge"],
)
def test_powers_agree_with_explicit_split_bundles(power, index_sets, k):
    lines = [W1, T, S, W1 - T]
    split = bundle_from_line_classes(lines, D)
    explicit = bundle_from_line_classes(
        [sum((lines[i] for i in idx), ZERO) for idx in index_sets(range(4), k)], D
    )
    got = power(split, k)
    assert got.rank == explicit.rank
    assert list(got.chern) == list(explicit.chern)


# -- virtual classes: nonzero Chern classes above the rank -----------------------------


A_LINES = [W1, T, S]
U = W1 - T


def _split(classes):
    return bundle_from_line_classes(classes, D)


def _virtual():
    """x = A - L for split A of rank 3 and a line L; x has rank 2, c3, c4 != 0."""
    x = sequence_quotient(_split(A_LINES), _split([U]))
    assert x.rank == 2 and not x.c(3).is_zero() and not x.c(4).is_zero()
    return x


LINE_TABLE = VariableTable(("x", "s", "y"), (1, 1, 2))


@st.composite
def virtual_twists(draw):
    """(V, t): rank 0..2 and truncation 4..8, every class c_i nonzero (its
    x^i coefficient is), so the classes above the rank are too; t != 0."""
    rank, trunc = draw(st.integers(0, 2)), draw(st.integers(4, 8))
    cs = []
    for i in range(1, trunc + 1):
        terms = {m: draw(st.integers(-3, 3)) for m in monomial_basis(LINE_TABLE, i)}
        terms[(i, 0, 0)] = draw(st.sampled_from((-2, -1, 1, 2)))
        cs.append(GradedPoly(LINE_TABLE, terms))
    t = GradedPoly(LINE_TABLE, {(1, 0, 0): draw(st.integers(1, 3)), (0, 1, 0): draw(st.integers(-3, 3))})
    return FormalBundle(rank, tuple(cs), LINE_TABLE), t


@settings(max_examples=40, deadline=None)
@given(virtual_twists())
def test_twist_multiplies_the_character_by_e_to_the_class(case):
    """ch(V (x) L) = ch(V) e^t on the Chern character alone, with no binomial
    series of the classes above the rank."""
    b, t = case
    ch = chern_character(b)
    powers = [GradedPoly.one(LINE_TABLE)]  # t^k / k!
    for k in range(1, b.truncation + 1):
        powers.append(powers[-1] * t / k)
    zero = GradedPoly.zero(LINE_TABLE)
    expected = [sum((ch[n - k] * powers[k] for k in range(n + 1)), zero) for n in range(len(ch))]
    assert chern_character(twist(b, t)) == expected


def test_twist_of_virtual_class():
    tw = twist(_virtual(), S)
    oracle = sequence_quotient(_split([a + S for a in A_LINES]), _split([U + S]))
    assert tw == oracle


def test_sym2_of_virtual_class():
    # Sym^2 (A - L) = Sym^2 A - A (x) L
    sym2_a = _split([A_LINES[i] + A_LINES[j] for i in range(3) for j in range(i, 3)])
    a_l = _split([a + U for a in A_LINES])
    assert sym_power(_virtual(), 2) == sequence_quotient(sym2_a, a_l)


def test_wedge2_of_virtual_class():
    # wedge^2 (A - L) = wedge^2 A + L^2 - A (x) L
    wedge2_a = _split([A_LINES[i] + A_LINES[j] for i in range(3) for j in range(i + 1, 3)])
    a_l = _split([a + U for a in A_LINES])
    oracle = sequence_quotient(direct_sum(wedge2_a, _split([2 * U])), a_l)
    assert wedge_power(_virtual(), 2) == oracle


# -- Whitney sums and quotients -------------------------------------------------------


def test_whitney_sum_multiplies_total_classes():
    a, b = generic_bundle(3, salt=1), generic_bundle(4, salt=2)
    s = direct_sum(a, b)
    assert s.rank == 7
    assert s.c(1) == a.c(1) + b.c(1)
    assert s.c(2) == a.c(2) + a.c(1) * b.c(1) + b.c(2)


def test_quotient_recovers_summand():
    a, b = generic_bundle(3, salt=3), generic_bundle(4, salt=4)
    q = sequence_quotient(direct_sum(a, b), a)
    assert q.rank == b.rank
    assert list(q.chern) == list(b.chern)


def test_quotient_by_trivial_is_identity():
    b = generic_bundle(4)
    q = sequence_quotient(b, trivial_bundle(TABLE, 1, D))
    assert q.rank == 3
    assert list(q.chern) == list(b.chern)


def test_quotient_reports_exactness_violation():
    total = generic_bundle(3, salt=5)
    sub = FormalBundle(1, (T, ZERO, ZERO, ZERO), TABLE)
    # generic classes cannot come from a rank-2 quotient: c3 of the series
    # is nonzero, and the quotient class keeps it
    raw = sequence_quotient(total, sub)
    assert not raw.c(3).is_zero()


# -- Chern character -------------------------------------------------------------------


def test_character_of_line_is_exponential():
    line = FormalBundle(1, (T, ZERO, ZERO, ZERO), TABLE)
    ch = chern_character(line)
    assert ch[0].as_scalar() == 1
    assert ch[1] == T
    assert ch[2] == T**2 / 2
    assert ch[3] == T**3 / 6


def test_ch1_is_c1():
    for salt in range(3):
        b = generic_bundle(4, salt=salt)
        assert chern_character(b)[1] == b.c(1)


def test_ch2_newton_identity_rank2():
    b = rank2_bundle()
    ch = chern_character(b)
    assert ch[2] == (W1**2 - 2 * W2) / 2


def test_character_roundtrip_rank3_trunc5():
    table = VariableTable(("a", "b", "c", "d", "e"), (1, 2, 3, 4, 5))
    cs = tuple(GradedPoly.variable(table, n) for n in ("a", "b", "c"))
    b = FormalBundle(3, cs + (GradedPoly.variable(table, "d"),
                              GradedPoly.variable(table, "e")), table)
    back = chern_from_character(chern_character(b), 3)
    assert list(back.chern) == list(b.chern)


def test_chern_from_character_line():
    ch = [GradedPoly.one(TABLE), T, T**2 / 2, T**3 / 6, T**4 / 24]
    line = chern_from_character(ch, 1)
    assert line.c(1) == T
    assert line.c(2).is_zero() and line.c(3).is_zero()


def test_hand_newton_identity_for_c2():
    # c2 = (ch1^2 - 2 ch2)/2
    b = generic_bundle(5, salt=7)
    ch = chern_character(b)
    assert b.c(2) == (ch[1] * ch[1] - 2 * ch[2]) / 2


# -- twist solvers ------------------------------------------------------------------------


LAMBDA = VariableTable(("lambda1", "lambda2"), (1, 2))
L1, L2 = GradedPoly.variable(LAMBDA, "lambda1"), GradedPoly.variable(LAMBDA, "lambda2")


def test_hyperelliptic_twist_genus_2():
    assert solve_hyperelliptic_twist(2) == TwistSolution((("w1", L1),))


def test_hyperelliptic_twist_genus_6():
    assert solve_hyperelliptic_twist(6) == TwistSolution((("w1", L1 / 15),))


def test_universal_chern_cache_is_bounded():
    # one entry per genus of hyptwist; filling it needs genus ~1000, O(g^2) products each
    assert universal_chern.cache_info().maxsize == 1024


@pytest.mark.parametrize("g", range(2, 9))
def test_sym_rank_matches_hodge_rank(g):
    assert sym_power(rank2_bundle(), g - 1).rank == g


def test_unimodular_twist_rank_5():
    assert solve_unimodular_twist(5) == TwistSolution((("c1(L)", L1 / 5),))


@pytest.mark.parametrize("rank", range(1, 9))
def test_unimodular_twist_is_lambda1_over_the_rank(rank):
    assert solve_unimodular_twist(rank).classes == (("c1(L)", L1 / rank),)


def test_unimodular_twist_rejects_rank_0():
    with pytest.raises(BundleError, match="rank must be >= 1"):
        solve_unimodular_twist(0)


def trigonal(q, r, s):
    """The trigonal solution alpha1 = q lambda1, beta2 = r lambda1^2 + s lambda2."""
    note = "  (c1(M) = 0 * lambda1)"
    return TwistSolution((("alpha1", q * L1), ("beta2", r * L1 * L1 + s * L2)), note)


def test_trigonal_twist_genus6_maroni0():
    assert maroni_split_degrees(6, 0) == (4, 2, 2)
    assert solve_trigonal_twist(6, 0) == trigonal(Fraction(1, 3), Fraction(-1, 24), Fraction(1, 8))


def test_trigonal_twist_genus4():
    assert solve_trigonal_twist(4, 0) == trigonal(Fraction(1, 2), Fraction(-1, 8), Fraction(1, 2))


def test_trigonal_twist_maroni_divisor():
    assert maroni_split_degrees(6, 2)[1:] == (3, 1)
    assert solve_trigonal_twist(6, 2) == trigonal(Fraction(1, 2), Fraction(-1, 44), Fraction(1, 11))


def test_trigonal_twist_rank_bookkeeping():
    for g, n in ((4, 0), (5, 1), (6, 0), (6, 2), (7, 1), (8, 0)):
        _, a, b = maroni_split_degrees(g, n)
        assert (a + 1) + (b + 1) == g
        solve_trigonal_twist(g, n)  # checks the scroll's rank against g itself


TRIGONAL_PAIRS = [(g, n) for g in range(4, 15) for n in range(g) if maroni_admissible(g, n)]


# Hand-derived closed forms, an oracle apart from the scroll build: the scroll
# has c1 = (b+1) alpha1 and c2 = (C(a+2,3) + C(b+2,3)) beta2 + C(b+1,2) alpha1^2.
@pytest.mark.parametrize("g,n", TRIGONAL_PAIRS)
def test_trigonal_twist_matches_the_closed_forms(g, n):
    _, a, b = maroni_split_degrees(g, n)
    q = Fraction(1, b + 1)
    s = Fraction(1, comb(a + 2, 3) + comb(b + 2, 3))
    assert solve_trigonal_twist(g, n) == trigonal(q, -comb(b + 1, 2) * q * q * s, s)


def test_twist_solutions_print_through_format_poly():
    # a coefficient 1 or 0 is printed as every other polynomial prints it
    assert str(solve_trigonal_twist(4, 2)) == (
        "alpha1 = lambda1, beta2 = 1/4 * lambda2  (c1(M) = 0 * lambda1)"
    )
    assert str(solve_hyperelliptic_twist(2)) == "w1 = lambda1"
    assert str(solve_unimodular_twist(1)) == "c1(L) = lambda1"


def test_trigonal_twist_rejects_bad_parity():
    with pytest.raises(BundleError):
        solve_trigonal_twist(5, 0)
    with pytest.raises(BundleError):
        solve_trigonal_twist(6, 3)  # 3n > g + 2


# -- randomized invariants (derandomized hypothesis profile) ---------------------------------


@st.composite
def bundles_strategy(draw, min_rank=3, max_rank=5):
    rank = draw(st.integers(min_value=min_rank, max_value=max_rank))
    cs = []
    for i in range(1, D + 1):
        acc = ZERO
        for exps in monomial_basis(TABLE, i):
            acc = acc + GradedPoly.monomial(TABLE, exps, draw(st.integers(-3, 3)))
        cs.append(acc)
    return FormalBundle(rank, tuple(cs), TABLE)


LINE_CLASSES = st.builds(
    lambda a, b, c: a * W1 + b * T + c * S,
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(-2, 2),
)


@given(bundles_strategy(), bundles_strategy())
def test_property_whitney_quotient_roundtrip(a, b):
    q = sequence_quotient(direct_sum(a, b), a)
    assert q.rank == b.rank and list(q.chern) == list(b.chern)


@given(bundles_strategy(), LINE_CLASSES, LINE_CLASSES)
def test_property_twist_additivity(b, t1, t2):
    lhs = twist(twist(b, t1), t2)
    assert lhs == twist(b, t1 + t2)


@given(bundles_strategy())
def test_property_dual_involution_and_character_roundtrip(b):
    assert dual(dual(b)) == b
    back = chern_from_character(chern_character(b), b.rank)
    assert list(back.chern) == list(b.chern)


@given(bundles_strategy(min_rank=4, max_rank=5), LINE_CLASSES)
def test_property_character_is_additive_and_twist_multiplicative(b, t):
    # ch(twist) degree 1: ch1 + rank * t
    tw = twist(b, t)
    ch, ch_tw = chern_character(b), chern_character(tw)
    assert ch_tw[1] == ch[1] + b.rank * t


# -- classes above the rank ----------------------------------------------------------------


def test_classes_above_the_rank_are_kept():
    b = FormalBundle(1, (T, T**2, ZERO, ZERO), TABLE)
    assert b.rank == 1 and b.c(2) == T**2
    listed = FormalBundle(1, [T, T**2, ZERO, ZERO], TABLE)
    assert listed == b and hash(listed) == hash(b) and isinstance(listed.chern, tuple)


def test_values_are_immutable():
    m, b, h = ExactMatrix([[1, 2], [3, 4]]), rank2_bundle(), hash(W1)
    for value, name in ((W1, "table"), (W1, "_hash"), (m, "rows"), (b, "rank"), (b, "chern")):
        with pytest.raises(AttributeError):
            setattr(value, name, 7)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert W1.table == TABLE and hash(W1) == h and m.rows == 2 and b.rank == 2


# -- free bundles and the functors against Chern roots --------------------------------


def test_free_bundle_reads_its_classes_off_the_table():
    table = VariableTable.indexed(("a", 2), ("b", 3))
    a1, a2, b1, b2 = (GradedPoly.variable(table, name) for name in ("a1", "a2", "b1", "b2"))
    zero = GradedPoly.zero(table)
    assert free_bundle(4, table, "a", 4) == FormalBundle(4, (a1, a2, zero, zero), table)
    assert free_bundle(6, table, "b", 2) == FormalBundle(6, (b1, b2), table)  # cut at trunc
    assert free_bundle(1, table, "c", 1).chern == (zero,)


# each functor of the dual subbundle S^* of G(k, n), and the Chern roots of
# its value at a fixed point where S has the roots w
FUNCTORS = {
    "dual": (lambda s: dual(s), lambda w: [-a for a in w]),
    "sym2": (
        lambda s: sym_power(dual(s), 2),
        lambda w: [-(a + b) for a, b in combinations_with_replacement(w, 2)],
    ),
    "wedge2": (
        lambda s: wedge_power(dual(s), 2),
        lambda w: [-(a + b) for a, b in combinations(w, 2)],
    ),
    "twist": (lambda s: twist(dual(s), -s.c(1)), lambda w: [-a - sum(w) for a in w]),
}


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 6)])
def test_chern_numbers_of_bundle_functors_agree_with_roots(k, n):
    """Every top-degree product of Chern classes of S^*, Sym^2 S^*, wedge^2 S^*
    and S^* (x) O(1) (sigma1 = -c1(S)) on G(k, n), integrated by the Schubert
    calculus, equals its value by Bott's residue formula, where c_i at a fixed
    point is the i-th elementary function of the functor's roots.  A class
    above degree 4 enters: c_6 c_3(Sym^2 S^*) on G(3, 6) is 120."""
    g = Grassmannian(k, n)
    sub = free_bundle(k, g.table(), "c", g.dim)
    one = GradedPoly.one(g.table())
    for name, (functor, roots) in FUNCTORS.items():
        b = functor(sub)
        for exps in monomial_basis(VariableTable.indexed(("c", b.rank)), g.dim):
            number = prod((b.c(i) ** e for i, e in enumerate(exps, start=1)), start=one)
            by_roots = _ref_bott.localize(
                k, n, lambda w: prod(map(pow, _ref_bott.elementary(roots(w), b.rank)[1:], exps))
            )
            assert g.integrate(number) == by_roots, (name, exps)
