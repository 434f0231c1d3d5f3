"""Formal vector bundles with truncated total Chern classes.

A bundle is a rank plus c_1..c_D, read as a class in the lambda-ring of
K-theory truncated in degree D.  Whitney sums and exact-sequence quotients
multiply and divide total Chern series; a quotient divides directly,
q_d = t_d - sum_(i>=1) s_i q_(d-i), without forming the inverse of the
subbundle's series first.  Symmetric and exterior powers go
through the Chern character: the Adams operation psi^j scales ch_d by j^d,
and Newton's recurrence n * h_n = sum_j (+-1)^(j-1) psi^j(ch) * h_(n-j)
(sign + for Sym, alternating for wedge) gives ch(Sym^n) or ch(wedge^n),
which `chern_from_character` turns back into Chern classes.  A twist by a
line of class t has a closed form, c(V (x) L) = sum_i c_i(V) (1 + t)^(r - i).
Every such sum of products is one call per degree to the series kernel in
``algebra`` (``series_mul``, ``series_quotient``, ``linear_combination``),
whose results hold integer content until their coefficients are read.

No Chern roots are introduced, so the cost does not grow with the rank;
Sym^k and wedge^k cost O(k^2) truncated series products.  Every operation
is functorial on the class, classes above the rank included (a virtual
difference A - L, or a model whose higher classes carry relations): they
enter every formula and are never dropped or checked.  Everything is exact.
A model of free classes is a ``free_bundle``, c_i the table's prefix_i or 0.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import geometry
from ._record import record
from .algebra import (
    GradedPoly,
    VariableTable,
    format_poly,
    linear_combination,
    series_mul,
    series_quotient,
)


class BundleError(ValueError):
    pass


@record
class FormalBundle:
    """Rank plus Chern classes c_1..c_D over one variable table, read as a
    lambda-ring class: classes above the rank may be nonzero (virtual
    classes, and formal models whose higher classes encode relations).
    Every operation reads all of c_1..c_D, so for x = A - L, Sym^2 x is
    Sym^2 A - A (x) L, not the power of a rank-r bundle with c_(r+1..) cut.
    """

    rank: int
    chern: tuple[GradedPoly, ...]
    table: VariableTable

    def __post_init__(self) -> None:
        chern = tuple(self.chern)
        if self.rank < 0:
            raise BundleError("rank must be >= 0")
        for i, c in enumerate(chern, start=1):
            if c.table != self.table:
                raise BundleError("chern classes over different tables")
            if not c.is_zero() and not (c.is_homogeneous() and c.degree() == i):
                raise BundleError(f"c_{i} must be homogeneous of degree {i}")
        object.__setattr__(self, "chern", chern)

    @property
    def truncation(self) -> int:
        return len(self.chern)

    def c(self, i: int) -> GradedPoly:
        """c_i as a polynomial; c_0 = 1, and 0 beyond the truncation order."""
        if i < 0:
            raise BundleError(f"Chern class index must be >= 0, got {i}")
        if i == 0:
            return GradedPoly.one(self.table)
        if 1 <= i <= len(self.chern):
            return self.chern[i - 1]
        return GradedPoly.zero(self.table)

    def total_chern(self) -> list[GradedPoly]:
        return [self.c(i) for i in range(self.truncation + 1)]


def trivial_bundle(table: VariableTable, rank: int, trunc: int) -> FormalBundle:
    return FormalBundle(rank, tuple(GradedPoly.zero(table) for _ in range(trunc)), table)


def free_bundle(rank: int, table: VariableTable, prefix: str, trunc: int) -> FormalBundle:
    """c_i is the table's variable prefix_i, or 0 where it has none, for i <= trunc."""
    cs = tuple(
        GradedPoly.variable(table, name) if name in table.names else GradedPoly.zero(table)
        for name in (f"{prefix}{i}" for i in range(1, trunc + 1))
    )
    return FormalBundle(rank, cs, table)


def bundle_from_line_classes(classes: list[GradedPoly], trunc: int) -> FormalBundle:
    """The direct sum of line bundles with the given first Chern classes."""
    if not classes:
        raise BundleError("need at least one line class")
    table = classes[0].table
    one = GradedPoly.one(table)
    total = [one]
    for r in classes:
        total = series_mul(total, [one, r], trunc)
    return FormalBundle(len(classes), tuple(total[1:]), table)


# -- bundle operations --------------------------------------------------------


def dual(b: FormalBundle) -> FormalBundle:
    """c_i -> (-1)^i c_i; an involution."""
    cs = tuple(c if i % 2 == 0 else -c for i, c in enumerate(b.chern, start=1))
    return FormalBundle(b.rank, cs, b.table)


def twist(b: FormalBundle, t1: GradedPoly) -> FormalBundle:
    """Tensor with the line L of class t1 = c_1(L), of degree 1 or zero:
    c(V (x) L) = sum_i c_i(V) (1 + t1)^(r - i), a binomial series when i > r."""
    if not t1.is_zero() and not (t1.is_homogeneous() and t1.degree() == 1):
        raise BundleError("a line class must be homogeneous of degree 1")
    if t1.table != b.table:
        raise BundleError("twist class over a different table")
    if t1.is_zero():
        return b
    powers = [GradedPoly.one(b.table)]  # t^0..t^D
    for _ in range(b.truncation):
        powers.append(powers[-1] * t1)
    cs = tuple(
        linear_combination(
            b.table, ((_binomial(b.rank - i, d - i), b.c(i), powers[d - i]) for i in range(d + 1))
        )
        for d in range(1, b.truncation + 1)
    )
    return FormalBundle(b.rank, cs, b.table)


def _binomial(n: int, m: int) -> int:
    """C(n, m) for any integer n and m >= 0: the t^m coefficient of (1 + t)^n."""
    return comb(n, m) if n >= 0 else (-1) ** m * comb(m - n - 1, m)


def sym_power(b: FormalBundle, k: int) -> FormalBundle:
    """Symmetric power, of rank C(r+k-1, k)."""
    if k < 0:
        raise BundleError("symmetric power exponent must be >= 0")
    rank = comb(b.rank + k - 1, k)
    return FormalBundle(rank, _power_classes(b, k, 1, rank), b.table)


def wedge_power(b: FormalBundle, k: int) -> FormalBundle:
    """Exterior power, of rank C(r, k)."""
    if not 0 <= k <= b.rank:
        raise BundleError(f"wedge exponent {k} out of range for rank {b.rank}")
    rank = comb(b.rank, k)
    return FormalBundle(rank, _power_classes(b, k, -1, rank), b.table)


def _power_classes(b: FormalBundle, k: int, sign: int, rank: int) -> tuple[GradedPoly, ...]:
    """c_1..c_D of Sym^k b (sign 1) or wedge^k b (sign -1), from
    n * h_n = sum_j sign^(j-1) psi^j(ch b) * h_(n-j) on Chern characters."""
    D = b.truncation
    ch = chern_character(b)
    h = [[GradedPoly.one(b.table)] + [GradedPoly.zero(b.table)] * D]
    for n in range(1, k + 1):  # psi^j(ch)_i = j^i ch_i
        h.append([
            linear_combination(b.table, [
                (Fraction(sign ** (j - 1) * j**i, n), ch[i], h[n - j][d - i])
                for j in range(1, n + 1) for i in range(d + 1)
            ])
            for d in range(D + 1)
        ])
    return chern_from_character(h[k], rank).chern


@lru_cache(maxsize=1024)  # keyed by hyptwist's genus, so bounded like graded_piece
def universal_chern(r: int, k: int, trunc: int) -> tuple[GradedPoly, ...]:
    """c_1..c_trunc of sym^k of a generic rank-r class, as polynomials in its
    classes e_1..e_trunc (free above the rank too)."""
    return sym_power(free_bundle(r, VariableTable.indexed(("e", trunc)), "e", trunc), k).chern


def direct_sum(a: FormalBundle, b: FormalBundle) -> FormalBundle:
    """Whitney sum: total Chern classes multiply."""
    if a.table != b.table:
        raise BundleError("direct sum over different tables")
    trunc = min(a.truncation, b.truncation)
    total = series_mul(a.total_chern(), b.total_chern(), trunc)
    return FormalBundle(a.rank + b.rank, tuple(total[1:]), a.table)


def sequence_quotient(total: FormalBundle, sub: FormalBundle) -> FormalBundle:
    """Quotient class of an exact sequence 0 -> sub -> total -> Q -> 0,
    via the Whitney formula c(Q) = c(total) / c(sub), of rank
    rank(total) - rank(sub); series terms beyond that rank are kept."""
    if total.table != sub.table:
        raise BundleError("bundles over different tables")
    if sub.rank > total.rank:
        raise BundleError("subbundle rank exceeds total rank")
    trunc = min(total.truncation, sub.truncation)
    q = series_quotient(total.total_chern(), sub.total_chern(), trunc)
    rank = total.rank - sub.rank
    return FormalBundle(rank, tuple(q[1:]), total.table)


# -- Chern character ----------------------------------------------------------


def chern_character(b: FormalBundle) -> list[GradedPoly]:
    """ch_0..ch_D via Newton's identities on the power sums p_k = k! ch_k,
    p_k = (-1)^(k-1) k c_k + sum_(0<i<k) (-1)^(i-1) c_i p_(k-i); ch_0 is the rank."""
    one = GradedPoly.one(b.table)
    ch = [GradedPoly.constant(b.table, b.rank)]
    for k in range(1, b.truncation + 1):
        terms = [(Fraction((-1) ** (k - 1), factorial(k - 1)), b.c(k), one)] + [
            (Fraction((-1) ** (i - 1) * factorial(k - i), factorial(k)), b.c(i), ch[k - i])
            for i in range(1, k)
        ]
        ch.append(linear_combination(b.table, terms))
    return ch


def chern_from_character(ch: list[GradedPoly], rank: int) -> FormalBundle:
    """Inverse of chern_character: recover c_1..c_D from ch_0..ch_D, by
    k c_k = sum_(i<=k) (-1)^(i-1) c_(k-i) i! ch_i."""
    table = ch[0].table
    if ch[0].as_scalar() != rank:
        raise BundleError("ch_0 must equal the rank")
    e = [GradedPoly.one(table)]
    for k in range(1, len(ch)):
        terms = [
            (Fraction((-1) ** (i - 1) * factorial(i), k), e[k - i], ch[i]) for i in range(1, k + 1)
        ]
        e.append(linear_combination(table, terms))
    return FormalBundle(rank, tuple(e[1:]), table)


# -- twist solvers for the canonical-embedding models -------------------------


@record
class TwistSolution:
    """The classes a twist solver finds, as (name, class) pairs, each class a
    polynomial in lambda1, lambda2, and the convention that fixes them."""

    classes: tuple[tuple[str, GradedPoly], ...]
    note: str = ""

    def __str__(self) -> str:
        return ", ".join(f"{name} = {format_poly(c)}" for name, c in self.classes) + self.note


# the Hodge classes every solution is written in, and the free classes the
# solvers read their coefficients off
_LAMBDA = VariableTable.indexed(("lambda", 2))
_FREE = VariableTable(("alpha1", "beta2"), (1, 2))


def solve_hyperelliptic_twist(g: int) -> TwistSolution:
    """Equate first Chern classes in Sym^(g-1) W = E for rank-2 W.

    The degree-1 coefficient of Sym^(g-1) on rank 2 is read off the
    universal formula, so the binomial C(g,2) is derived, not assumed.
    """
    if g < 2:
        raise BundleError("genus must be >= 2")
    lead = universal_chern(2, g - 1, 1)[0].coefficient((1,))  # coefficient of e1
    if lead != Fraction(g * (g - 1), 2):
        raise BundleError("symmetric power coefficient disagrees with root-sum count")
    return TwistSolution((("w1", GradedPoly.variable(_LAMBDA, "lambda1") / lead),))


def solve_unimodular_twist(rank: int) -> TwistSolution:
    """For rank-r V with c1(V) = 0 and V (x) L = E: a twist by a free class
    alpha1 has c1 = A alpha1, so c1(L) = lambda1 / A; a second twist at the
    solution is compared with lambda1."""
    if rank < 1:
        raise BundleError("rank must be >= 1")
    alpha1 = GradedPoly.variable(_FREE, "alpha1")
    generic = twist(trivial_bundle(_FREE, rank, 1), alpha1)
    lam1 = GradedPoly.variable(_LAMBDA, "lambda1")
    c1 = lam1 / generic.c(1).coefficient((1, 0))
    if twist(trivial_bundle(_LAMBDA, rank, 1), c1).c(1) != lam1:
        raise BundleError("twist solution failed verification")
    return TwistSolution((("c1(L)", c1),))


def maroni_split_degrees(g: int, n: int) -> tuple[int, int, int]:
    """(k, a, b) with k = geometry.maroni_k(g, n), a = 2n + k - 2, b = n + k - 2."""
    if not geometry.maroni_admissible(g, n):
        raise BundleError(f"Maroni invariant {n} not admissible for genus {g}")
    k = int(geometry.maroni_k(g, n))
    return k, 2 * n + k - 2, n + k - 2


def _scroll(a: int, b: int, alpha1: GradedPoly, beta2: GradedPoly) -> FormalBundle:
    """Sym^a V + L (x) Sym^b V for rank-2 V with c1(V) = 0, c2(V) = beta2,
    and c1(L) = alpha1."""
    table = alpha1.table
    v = FormalBundle(2, (GradedPoly.zero(table), beta2), table)
    return direct_sum(sym_power(v, a), twist(sym_power(v, b), alpha1))


def solve_trigonal_twist(g: int, n: int) -> TwistSolution:
    """Solve the degree-1 and degree-2 Chern-class comparisons of the scroll
    decomposition of a trigonal canonical embedding,
    Hodge (x) M = Sym^a V + L (x) Sym^b V with rank-2 V, c1(V) = 0,
    c2(V) = beta2 and c1(L) = alpha1.  The line M is an unknown the
    comparison cannot pin down; under the convention c1(M) = 0,
    alpha1 = q lambda1 and beta2 = r lambda1^2 + s lambda2 is a triangular
    system.

    By degree the scroll has c1 = A alpha1 and c2 = B beta2 + C alpha1^2, so
    one build with free alpha1, beta2 reads off q = 1/A, s = 1/B and
    r = -C q^2 s.  A second build at the solution is compared with
    Hodge (x) M, whose c1 and c2 are lambda1 and lambda2 when c1(M) = 0.
    """
    _, a, b = maroni_split_degrees(g, n)
    generic = _scroll(a, b, *(GradedPoly.variable(_FREE, name) for name in _FREE.names))
    q = 1 / generic.c(1).coefficient((1, 0))
    s = 1 / generic.c(2).coefficient((0, 1))
    r = -generic.c(2).coefficient((2, 0)) * q * q * s
    lam1, lam2 = (GradedPoly.variable(_LAMBDA, name) for name in _LAMBDA.names)
    alpha1, beta2 = q * lam1, r * lam1 * lam1 + s * lam2
    rhs = _scroll(a, b, alpha1, beta2)
    if rhs.rank != g or rhs.c(1) != lam1 or rhs.c(2) != lam2:
        raise BundleError("trigonal twist solution failed verification")
    return TwistSolution((("alpha1", alpha1), ("beta2", beta2)), "  (c1(M) = 0 * lambda1)")
