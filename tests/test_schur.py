import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

import _ref_lr
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chowcalc.schur import (
    Partition,
    SchurDecomposition,
    character,
    decompose_sym2_wedge2,
    dim_schur,
    lr_product,
    schur_polynomial,
    syt_count,
)


def P(*parts):
    return Partition.of(*parts)


# -- dimensions ---------------------------------------------------------------


def test_dim_schur_2_2_of_c5():
    # hook content by hand: (5*6*4*5)/(3*2*2*1) = 600/12 = 50
    assert 5 * 6 * 4 * 5 == 600
    assert dim_schur(P(2, 2), 5) == 50


def test_dim_schur_column_of_c5_is_binomial():
    assert dim_schur(P(1, 1, 1, 1), 5) == 5


def test_dim_schur_row_of_c5():
    assert dim_schur(P(2), 5) == 15


def test_dim_schur_vanishes_iff_too_many_rows():
    assert dim_schur(P(1, 1, 1), 2) == 0
    assert dim_schur(P(1, 1), 2) == 1
    for n in range(1, 6):
        for lam in (P(1, 1, 1), P(2, 1), P(3)):
            assert (dim_schur(lam, n) == 0) == (lam.length > n)


def _fraction_dim_schur(lam, n):
    """The hook content formula as dim_schur computed it before it
    multiplied ints: one Fraction factor per cell."""
    if lam.length > n:
        return 0
    num = Fraction(1)
    for i, j in lam.cells():
        num *= Fraction(n + j - i, lam.hook(i, j))
    assert num.denominator == 1
    return int(num)


def test_dim_schur_equals_the_fraction_product():
    """Every partition of size at most 8 on C^1..C^8, those with more rows
    than n included."""
    for lam in [P(), *(lam for size in range(1, 9) for lam in _partitions(size))]:
        for n in range(1, 9):
            got = dim_schur(lam, n)
            assert type(got) is int and got == _fraction_dim_schur(lam, n), (lam, n)


def test_partition_size_cap():
    # there is no size cap: partitions of any size construct, and
    # lr_product takes products of degree above 12
    assert Partition((7, 6)).size == 13
    pieri = {P(13 - j, j): 1 for j in range(7)}  # one box per column
    assert lr_product(P(7), P(6)) == SchurDecomposition.from_dict(pieri)
    assert (P(12), 1) in lr_product(P(6), P(6)).terms


def test_lr_product_of_degree_16():
    lam, mu = P(4, 3, 2, 1), P(3, 2, 1)
    product = lr_product(lam, mu)
    assert product == lr_product(mu, lam)
    n = 7
    rhs = sum(c * dim_schur(nu, n) for nu, c in product.terms)
    assert dim_schur(lam, n) * dim_schur(mu, n) == rhs


# -- standard tableaux -----------------------------------------------------------


def test_syt_3_3():
    assert syt_count(P(3, 3)) == 720 // 144 == 5


def test_syt_single_box_and_column():
    assert syt_count(P(1)) == 1
    assert syt_count(P(2, 2)) == 2


def _partitions_up_to(n):
    def go(total, largest):
        if total == 0:
            yield ()
            return
        for p in range(min(largest, total), 0, -1):
            for rest in go(total - p, p):
                yield (p,) + rest

    for size in range(1, n + 1):
        yield from go(size, size)


def syt_count_bruteforce(lam: Partition) -> int:
    """Independent SYT count by recursive removal of outer corners."""

    @lru_cache(maxsize=None)
    def go(parts: tuple[int, ...]) -> int:
        if not parts:
            return 1
        total = 0
        for i, p in enumerate(parts):
            if i + 1 < len(parts) and parts[i + 1] == p:
                continue  # not a corner
            smaller = list(parts)
            smaller[i] -= 1
            total += go(tuple(x for x in smaller if x))
        return total

    return go(lam.parts)


def test_syt_agrees_with_bruteforce_through_size_8():
    for parts in _partitions_up_to(8):
        lam = Partition(parts)
        assert syt_count(lam) == syt_count_bruteforce(lam), parts


# -- Littlewood-Richardson ---------------------------------------------------------


def test_pieri_s1_times_s1():
    assert lr_product(P(1), P(1)) == SchurDecomposition.from_dict({P(2): 1, P(1, 1): 1})


def test_pieri_s1_times_s2():
    assert lr_product(P(1), P(2)) == SchurDecomposition.from_dict({P(3): 1, P(2, 1): 1})


def test_s1_to_the_sixth_counts_standard_tableaux():
    # multiplicity of any shape in s1^n is its SYT count
    powers = {P(1): 1}
    for _ in range(5):
        next_powers = {}
        for lam, mult in powers.items():
            for nu, c in lr_product(lam, P(1)).terms:
                next_powers[nu] = next_powers.get(nu, 0) + mult * c
        powers = next_powers
    assert powers[P(3, 3)] == 5
    for lam, mult in powers.items():
        assert mult == syt_count(lam), lam


SMALL = [P(1), P(2), P(1, 1), P(2, 1), P(3), P(2, 2)]


@given(st.sampled_from(SMALL), st.sampled_from(SMALL), st.integers(min_value=1, max_value=5))
def test_lr_dimension_identity(lam, mu, n):
    lhs = dim_schur(lam, n) * dim_schur(mu, n)
    rhs = sum(c * dim_schur(nu, n) for nu, c in lr_product(lam, mu).terms)
    assert lhs == rhs


def test_lr_symmetry():
    for lam, mu in itertools.combinations(SMALL, 2):
        assert lr_product(lam, mu) == lr_product(mu, lam)


def test_lr_product_matches_the_tableau_rule():
    # the Schubert product against the LR tableau count, on every pair with
    # |lam| + |mu| <= 8 (the empty partition included) and two larger ones
    shapes = [P()] + [Partition(parts) for parts in _partitions_up_to(8)]
    pairs = [(lam, mu) for lam in shapes for mu in shapes if lam.size + mu.size <= 8]
    assert len(pairs) == 434
    a, b, c, d = P(4, 3, 2, 1), P(3, 2, 1), P(5, 3, 1), P(4, 2, 2)
    for lam, mu in pairs + [(a, b), (b, a), (c, d), (d, c)]:
        assert lr_product(lam, mu) == _ref_lr.lr_product(lam, mu), (lam, mu)


def test_lr_product_with_an_empty_factor():
    assert str(lr_product(P(), P())) == "S()"
    for lam in (P(1), P(3, 1), P(2, 2, 1), P(6)):
        assert lr_product(lam, P()) == lr_product(P(), lam) == SchurDecomposition.from_dict({lam: 1})


# -- the plethysm -------------------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 41))
def test_sym2_wedge2_decomposition(n):
    dec = decompose_sym2_wedge2(n)
    assert dec == SchurDecomposition.from_dict({P(2, 2): 1, P(1, 1, 1, 1): 1})
    assert sum(m * dim_schur(p, n) for p, m in dec.terms) == comb(comb(n, 2) + 1, 2)


def test_sym2_wedge2_dimensions_n5():
    dec = decompose_sym2_wedge2(5)
    assert [dim_schur(p, 5) for p, _ in dec.terms] == [5, 50]
    assert sum(m * dim_schur(p, 5) for p, m in dec.terms) == 55


def test_sym2_wedge2_leaves_50_quadrics_after_pluecker():
    # of the 55 quadrics on P^9, five cut out G(2,5); the rest restrict
    # nontrivially
    dec = decompose_sym2_wedge2(5)
    assert sum(m * dim_schur(p, 5) for p, m in dec.terms) - dim_schur(P(1, 1, 1, 1), 5) == 50


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_plethysm_reconstruction_oracle(n):
    """Independent check: the claimed Schur sum, reassembled from explicit
    SSYT polynomials, equals h2[e2] built directly from monomials, as the sum
    of the products of every unordered pair of weights of wedge^2, repeats
    included."""
    from chowcalc.algebra import GradedPoly
    from chowcalc.schur import _x_table

    table = _x_table(n)
    weights = [
        GradedPoly.monomial(table, [int(k in pair) for k in range(n)])
        for pair in itertools.combinations(range(n), 2)
    ]
    pairs = itertools.combinations_with_replacement(weights, 2)
    plethysm = sum((a * b for a, b in pairs), GradedPoly.zero(table))
    reconstructed = schur_polynomial(P(2, 2), n) + schur_polynomial(P(1, 1, 1, 1), n)
    assert plethysm == reconstructed


# -- characters, against code that shares nothing with the rule ----------------


def _partitions(n):
    return [Partition(parts) for parts in _partitions_up_to(n) if sum(parts) == n]


def _z(rho):
    """Size of the centraliser of a permutation of cycle type rho."""
    return prod(part**m * factorial(m) for part, m in Counter(rho.parts).items())


def _union(alpha, beta):
    return Partition(tuple(sorted(alpha.parts + beta.parts, reverse=True)))


def test_character_at_the_identity_counts_standard_tableaux():
    for n in range(1, 9):
        for lam in _partitions(n):
            assert character(lam, Partition((1,) * n)) == syt_count(lam), lam


def test_characters_are_orthonormal():
    for n in range(1, 7):
        for lam, mu in itertools.product(_partitions(n), repeat=2):
            inner = sum(
                Fraction(character(lam, rho) * character(mu, rho), _z(rho))
                for rho in _partitions(n)
            )
            assert inner == (lam == mu), (lam, mu)


def test_dim_schur_from_characters():
    # dim S_lam(C^m) = s_lam(1^m) = sum_rho chi^lam(rho) m^l(rho) / z_rho
    for n in range(1, 7):
        for lam in _partitions(n):
            for m in range(1, 7):
                dim = sum(
                    Fraction(character(lam, rho) * m**rho.length, _z(rho))
                    for rho in _partitions(n)
                )
                assert dim == dim_schur(lam, m), (lam, m)


def test_lr_product_from_characters():
    # c^nu_{lam mu} = sum over alpha, beta of
    #   chi^lam(alpha) chi^mu(beta) chi^nu(alpha u beta) / (z_alpha z_beta)
    chi = lru_cache(maxsize=None)(character)
    for a in range(1, 6):
        for b in range(1, 7 - a):
            for lam, mu in itertools.product(_partitions(a), _partitions(b)):
                expected = {}
                for nu in _partitions(a + b):
                    c = sum(
                        Fraction(
                            chi(lam, alpha) * chi(mu, beta) * chi(nu, _union(alpha, beta)),
                            _z(alpha) * _z(beta),
                        )
                        for alpha, beta in itertools.product(_partitions(a), _partitions(b))
                    )
                    assert c.denominator == 1
                    expected[nu] = int(c)
                assert lr_product(lam, mu) == SchurDecomposition.from_dict(expected), (lam, mu)


def test_character_needs_equal_sizes():
    with pytest.raises(ValueError):
        character(P(2, 1), P(2))


def test_needs_at_least_four_variables():
    with pytest.raises(ValueError):
        decompose_sym2_wedge2(3)
