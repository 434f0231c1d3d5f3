"""Formal pushforward engine on the universal curve.

Classes on the universal curve are truncated series in psi = c1(omega)
with coefficients in the free kappa-ring Q[kappa_1..kappa_D]; the
fiberwise pushforward sends psi^j to kappa_(j-1) (with kappa_0 = 2g - 2)
and drops degree by one, so psi^j for j > D + 1 is dropped, like every
class above degree D.  A product of psi series is truncated at psi^(D+1)
too, like every class above the truncation, so a power of psi past it is
0; factors such as e^(k psi) and the Todd series are given only that far,
so a product's coefficients past it would not be determined.  Chern data
of the direct images of powers of the relative dualizing sheaf, and of the
Hodge bundle, follow from the Todd series of the relative tangent, whose
coefficients are Bernoulli numbers computed in-module.  The genus enters
them only where psi pushes to 2g - 2, which gives ch_0: ch_1..ch_D and the
Chern classes do not depend on g, and only ch_0 and the rank do (Mumford,
*Towards an enumerative geometry*, 1983, section 5: ch_a = B_(a+1)(k) /
(a+1)! kappa_a).  So e^(k psi) td is pushed forward once per (k, D), in a
bounded ``lru_cache``, whatever genus asks for it.

The genus-6 model carries Mukai's rank-5 bundle V, the Hodge bundle E and
a free twist ell over one table, v1..v5, lambda1..lambda_D and ell; V and E
are ``free_bundle`` on it.  ``plucker_sequence_decomposition`` returns
the rank-4 bundle F of the linear-forms sequence
0 -> F -> wedge^2 V -> E (x) L' -> 0, computed through its rank.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from ._record import record
from .algebra import GradedPoly, RationalLike, VariableTable, linear_combination, rat, series_mul
from .bundles import (
    BundleError,
    FormalBundle,
    chern_from_character,
    free_bundle,
    sequence_quotient,
    sym_power,
    twist,
    wedge_power,
)


@lru_cache(maxsize=None)
def kappa_ring(trunc: int) -> VariableTable:
    return VariableTable.indexed(("kappa", trunc))


def kappa(trunc: int, i: int) -> GradedPoly:
    return GradedPoly.variable(kappa_ring(trunc), f"kappa{i}")


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli numbers with B_1 = -1/2, via sum_j C(m+1, j) B_j = 0."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def todd_coefficient(j: int) -> Fraction:
    """psi^j coefficient of the Todd class of the relative tangent bundle,
    td(-psi) = psi / (e^psi - 1) = sum B_j psi^j / j!."""
    return bernoulli(j) / factorial(j)


@record
class PsiSeries:
    """Polynomial in psi with kappa-ring coefficients; coeffs[j] multiplies
    psi^j and psi itself counts one toward total degree."""

    genus: int
    coeffs: tuple[GradedPoly, ...]

    def __post_init__(self) -> None:
        if self.genus < 2:
            raise ValueError("genus must be >= 2")
        if not self.coeffs:
            raise ValueError("need at least the psi^0 coefficient")
        table = self.coeffs[0].table
        if any(c.table != table for c in self.coeffs):
            raise ValueError("coefficients over different tables")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def table(self) -> VariableTable:
        return self.coeffs[0].table

    def _check(self, other: "PsiSeries") -> None:
        if self.genus != other.genus or self.table != other.table:
            raise ValueError("incompatible psi series")

    def __add__(self, other: "PsiSeries") -> "PsiSeries":
        self._check(other)
        n = max(self.order, other.order)
        zero = GradedPoly.zero(self.table)
        a = self.coeffs + (zero,) * (n - self.order)
        b = other.coeffs + (zero,) * (n - other.order)
        return PsiSeries(self.genus, tuple(x + y for x, y in zip(a, b)))

    def __mul__(self, other: "PsiSeries | RationalLike | GradedPoly"):
        if isinstance(other, (GradedPoly, int, Fraction)):
            return PsiSeries(self.genus, tuple(c * other for c in self.coeffs))
        self._check(other)
        # psi^(D+1), the last power that push_psi reads, is the last one
        # that factors such as exp_psi and todd_series determine
        order = min(self.order + other.order, len(self.table) + 1)
        return PsiSeries(self.genus, tuple(series_mul(self.coeffs, other.coeffs, order)))

    __rmul__ = __mul__

    def __neg__(self) -> "PsiSeries":
        return self * -1

    def __sub__(self, other: "PsiSeries") -> "PsiSeries":
        return self + -other


def psi(g: int, trunc: int) -> PsiSeries:
    table = kappa_ring(trunc)
    return PsiSeries(g, (GradedPoly.zero(table), GradedPoly.one(table)))


def exp_psi(k: RationalLike, g: int, trunc: int) -> PsiSeries:
    """e^(k psi) up to psi^(trunc + 1)."""
    table = kappa_ring(trunc)
    kq = rat(k)
    coeffs = tuple(
        GradedPoly.constant(table, kq**j / factorial(j)) for j in range(trunc + 2)
    )
    return PsiSeries(g, coeffs)


def todd_series(g: int, trunc: int) -> PsiSeries:
    """Todd class of the relative tangent, as a psi series."""
    table = kappa_ring(trunc)
    coeffs = tuple(
        GradedPoly.constant(table, todd_coefficient(j)) for j in range(trunc + 2)
    )
    return PsiSeries(g, coeffs)


def push_psi(s: PsiSeries) -> GradedPoly:
    """Fiberwise pushforward: psi^j -> kappa_(j-1) for j >= 2, psi -> 2g - 2
    and psi^0 -> 0; psi^j for j > D + 1 is dropped, like every class above
    degree D.  Linear over the kappa-ring; drops degree by one."""
    table = s.table
    trunc = len(table)
    images = [GradedPoly.constant(table, 2 * s.genus - 2)]  # of psi^1, psi^2, ...
    images += [kappa(trunc, a) for a in range(1, trunc + 1)]
    return linear_combination(table, ((1, c, img) for c, img in zip(s.coeffs[1:], images)))


@lru_cache(maxsize=1024)  # keyed by the user's k, so bounded like graded_piece
def _pushed_omega_power(
    k: int, trunc: int
) -> tuple[GradedPoly, tuple[GradedPoly, ...], tuple[GradedPoly, ...]]:
    """The direct image of omega^k, pushed forward once for every genus:
    ch_0 at genus 2, and ch_1..ch_D and c_1..c_D, which hold at every genus.

    The genus enters the pushforward of e^(k psi) td only where psi pushes
    to 2g - 2, which gives ch_0 alone, so ch_0 at genus g is g - 1 times
    its value at genus 2.  Newton's identities read c_1..c_D off ch_1..ch_D
    alone, so they are those of the rank-0 class with the same ch_1..ch_D.
    """
    total = push_psi(exp_psi(k, 2, trunc) * todd_series(2, trunc))
    ch = [total.homogeneous_component(d) for d in range(trunc + 1)]
    classes = chern_from_character([GradedPoly.zero(total.table), *ch[1:]], 0).chern
    return ch[0], tuple(ch[1:]), classes


def ch_pushforward_omega_power(k: int, g: int, trunc: int) -> list[GradedPoly]:
    """ch_0..ch_trunc of the direct image of omega^k along the universal
    curve: the pushforward of e^(k psi) times the relative Todd class.
    ch_1..ch_trunc do not depend on g; ch_0, the psi coefficient pushed to
    2g - 2, is g - 1 times its value at genus 2.

    For k = 1 the derived pushforward differs from the sheaf pushforward by
    the trivial line R^1; ch_0 gains 1.  For k >= 2 the R^1 term vanishes.
    """
    if k < 1 or g < 2:
        raise ValueError("need k >= 1 and genus >= 2")
    ch0, higher, _ = _pushed_omega_power(k, trunc)
    ch0 = ch0 * (g - 1)
    return [ch0 + 1 if k == 1 else ch0, *higher]


def pushforward_rank(k: int, g: int) -> int:
    """Rank of the direct image of omega^k: k(2g-2) - g + 1, plus 1 if k = 1."""
    return k * (2 * g - 2) - g + 1 + (1 if k == 1 else 0)


def pushforward_bundle(k: int, g: int, trunc: int) -> FormalBundle:
    """The direct image of omega^k, of rank ``pushforward_rank(k, g)``; its
    classes do not depend on g (see ``_pushed_omega_power``)."""
    ch0 = ch_pushforward_omega_power(k, g, trunc)[0]
    rank = pushforward_rank(k, g)
    if ch0.as_scalar() != rank:
        raise BundleError("ch_0 must equal the rank")
    return FormalBundle(rank, _pushed_omega_power(k, trunc)[2], ch0.table)


def hodge_bundle(g: int, trunc: int) -> FormalBundle:
    """The rank-g Hodge bundle over the free kappa-ring; lambda_i := c_i.

    Its classes do not depend on g: only ch_0 and the rank do.  For
    g < trunc the classes above the rank are the raw pushforward output:
    they encode relations on the actual moduli space rather than vanishing
    identically, and are kept like every class of a bundle.
    """
    if g < 2:
        raise ValueError("genus must be >= 2")
    return pushforward_bundle(1, g, trunc)


def quadrics_bundle(g: int, trunc: int) -> FormalBundle:
    """Kernel of Sym^2 (Hodge) -> (direct image of omega^2): the bundle of
    quadrics through canonical curves, of rank (g-2)(g-3)/2."""
    if g < 3:
        raise ValueError("need genus >= 3")
    hodge = hodge_bundle(g, trunc)
    return sequence_quotient(sym_power(hodge, 2), pushforward_bundle(2, g, trunc))


# -- the Pluecker-sequence decomposition ---------------------------------------


@lru_cache(maxsize=None)
def mukai_model_table(trunc: int) -> VariableTable:
    """v_1..v_5 (Chern classes of the rank-5 bundle), lambda_1..lambda_trunc
    (Hodge classes), and the free twist parameter ell."""
    free = VariableTable.indexed(("v", 5), ("lambda", trunc))
    return VariableTable(free.names + ("ell",), free.weights + (1,))


def mukai_bundle(trunc: int) -> FormalBundle:
    return free_bundle(5, mukai_model_table(trunc), "v", trunc)


def hodge_model_bundle(trunc: int) -> FormalBundle:
    return free_bundle(6, mukai_model_table(trunc), "lambda", trunc)


def plucker_sequence_decomposition(trunc: int) -> FormalBundle:
    """F, the rank-4 bundle of linear forms in the exact sequence
    0 -> F -> wedge^2 V -> E (x) L' -> 0 on the locus where genus-6 canonical
    curves are quadric sections of G(2,5); E (x) L' is the Hodge bundle twisted
    by the free class ell, of rank 6, and the middle is the rank-10 second
    exterior power of the rank-5 bundle V.

    c_1..c_4 are those of c(wedge^2 V) / c(E (x) L'); c_i needs only the
    classes of degree <= i, so both sides are built at degree min(4, trunc).
    The classes above the rank are zero up to trunc (the raw division with
    free lambda's and ell does not vanish there), and the rank comes from
    the quotient, 10 - 6.
    """
    table = mukai_model_table(trunc)
    low = min(4, trunc)
    v = free_bundle(5, table, "v", low)
    eprime = twist(free_bundle(6, table, "lambda", low), GradedPoly.variable(table, "ell"))
    f = sequence_quotient(wedge_power(v, 2), eprime)
    zeros = (GradedPoly.zero(table),) * (trunc - low)
    return FormalBundle(f.rank, f.chern + zeros, table)
