"""Intersection theory of Hirzebruch surfaces and Grassmannians: section
counts, genus by adjunction, Pluecker degrees, and the dimension
bookkeeping for the strata of moduli of curves in genus 4..6.
The surface F_n is its Chow ring, `hirzebruch_ring(n)`, recognised in any
presentation by `hirzebruch_index`, and a divisor on it is a degree-1
polynomial in E and F whose intersections are read off that ring.
A Grassmannian class is a polynomial in the Chern classes c1..ck of the
tautological subbundle.  The dual Pieri rule on the Schubert basis (Fulton,
Young Tableaux, 9.4) gives the Schubert classes and one product,
`Grassmannian.multiply`, behind integrals and `schur.lr_product`; no
presentation of the Chow ring is built.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from ._record import record
from .algebra import GradedPoly, VariableTable, linear_combination
from .quotient import RingPresentation, hilbert_function, normal_form
from .schur import Partition


# -- Hirzebruch surfaces -------------------------------------------------------


SURFACE_TABLE = VariableTable(("E", "F"), (1, 1))
_E, _F = (GradedPoly.variable(SURFACE_TABLE, name) for name in SURFACE_TABLE.names)
_EE, _EF, _FF = _E * _E, _E * _F, _F * _F


@lru_cache(maxsize=64)
def hirzebruch_ring(n: int) -> RingPresentation:
    """A*(F_n) = Q[E, F]/(F^2, E^2 + n*E*F), E*F the point class (Fulton,
    Intersection Theory, Ex. 8.3.9).  One presentation per n is kept, so a
    query on F_n finds its `graded_piece` by identity, not by rehashing and
    comparing a new presentation."""
    return RingPresentation(SURFACE_TABLE, (_FF, _EE + n * _EF))


def hirzebruch_index(ring: object) -> int | None:
    """n if `ring` presents A*(F_n) for some n >= 0, else None (also for a
    value that is no ring).  With n = -(E*F coefficient of nf(E^2)), F^2 and
    E^2 + n*E*F in the ring's ideal put (F^2, E^2 + n*E*F) inside it, and
    equal Hilbert functions (1, 2, 1, 0, then zero) make the two equal."""
    if not isinstance(ring, RingPresentation) or ring.table != SURFACE_TABLE:
        return None
    if hilbert_function(ring, 3) != (1, 2, 1, 0):
        return None
    c = normal_form(_EE, ring).coefficient((1, 1))
    n = int(-c)
    if n < 0 or n != -c or not normal_form(_FF, ring).is_zero():
        return None
    return n if normal_form(_EE + n * _EF, ring).is_zero() else None


def surface_classes(n: int) -> dict[str, GradedPoly]:
    """The section E (E^2 = -n), the fiber F, and S := E + n*F (S^2 = n)."""
    return {"E": _E, "S": _E + n * _F, "F": _F}


def intersect(n: int, x: GradedPoly, y: GradedPoly) -> Fraction:
    """The intersection number on F_n: the point-class coefficient of x*y."""
    return normal_form(x * y, hirzebruch_ring(n)).coefficient((1, 1))


def genus_of_class(n: int, c: GradedPoly) -> Fraction:
    """Arithmetic genus by adjunction: 2g - 2 = C.(C + K), K = -2E - (n+2)F."""
    return 1 + intersect(n, c, c - 2 * _E - (n + 2) * _F) / 2


def h0_hirzebruch(n: int, c: GradedPoly) -> int:
    """h^0(F_n, O(aE + bF)) = sum_j max(0, b - j*n + 1) over j = 0..a.

    Pushing forward to the base splits the sections into line-bundle pieces
    of degrees b, b-n, ..., b-a*n.  Only a >= 0 with integral coefficients
    is supported; anything else raises.
    """
    a, b = c.coefficient((1, 0)), c.coefficient((0, 1))
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError("section count needs an integral class")
    if a < 0:
        raise ValueError("section count unsupported for a < 0")
    return sum(max(0, int(b) - j * n + 1) for j in range(int(a) + 1))


def maroni_k(g: int, n: int) -> Fraction:
    """Solve genus(3S + kF on F_n) = g for k; equals (g - 3n + 2)/2.

    Needs g >= 4 and 0 <= 3n <= g + 2, the range of the trigonal model.
    Within it, non-integrality of the result is exactly the parity
    obstruction for a trigonal genus-g curve with Maroni invariant n.
    """
    if g < 4 or n < 0 or 3 * n > g + 2:
        raise ValueError(
            f"Maroni invariant {n} out of range for genus {g}: need g >= 4 and 0 <= 3n <= g + 2"
        )
    return Fraction(g - 3 * n + 2, 2)


def maroni_admissible(g: int, n: int) -> bool:
    """True iff maroni_k(g, n) is defined and integral."""
    try:
        return maroni_k(g, n).denominator == 1
    except ValueError:
        return False


def trigonal_class(g: int, n: int) -> GradedPoly:
    k = maroni_k(g, n)
    if k.denominator != 1:
        raise ValueError(f"no integral class: parity of Maroni invariant {n} fails for genus {g}")
    return 3 * surface_classes(n)["S"] + int(k) * _F


def hirzebruch_aut_dim(n: int) -> int:
    """dim Aut(F_n): 6 = 2*dim PGL(2) for F_0 = P1 x P1, and n + 5 for n >= 1
    (fiberwise affine substitutions plus the base PGL(2) and the torus)."""
    return 6 if n == 0 else n + 5


# -- Grassmannians ------------------------------------------------------------


@record
class Grassmannian:
    """G(k, n): k-dimensional subspaces of an n-dimensional space."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.n:
            raise ValueError("need 1 <= k < n")

    @property
    def dim(self) -> int:
        return self.k * (self.n - self.k)

    def table(self) -> VariableTable:
        return _grass_table(self.k)

    def chern_sub(self, i: int) -> GradedPoly:
        """c_i of the tautological subbundle."""
        if not 0 <= i <= self.k:
            raise ValueError("index out of range")
        if i == 0:
            return GradedPoly.one(self.table())
        return GradedPoly.variable(self.table(), f"c{i}")

    def sigma1(self) -> GradedPoly:
        """The hyperplane Schubert class = c_1 of the dual subbundle."""
        return -self.chern_sub(1)

    def schubert_class(self, lam: Partition) -> GradedPoly:
        """Giambelli: the Schubert class as a polynomial in the Chern classes
        of the subbundle, the Schur polynomial of the dual subbundle's roots
        in e_i = (-1)^i c_i, found by eliminating with the dual Pieri rule."""
        if lam.length > self.k or (lam.parts and lam.parts[0] > self.n - self.k):
            raise ValueError(f"partition {lam} does not fit in G({self.k},{self.n})")
        return _giambelli(self, lam.parts)

    def multiply(self, x: GradedPoly, lam: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
        """x * sigma_lam as {nu: coefficient}, lam in the k x (n - k) box: each
        monomial acts by c_i = (-1)^i sigma_(1^i), so the dual Pieri steps count
        strips unsigned and the monomial's sign is (-1)^degree."""
        if x.table != self.table():
            raise ValueError("class over a different table")
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, q in x.items():
            classes = {lam: 1}
            for i in (j for j, e in enumerate(exps, start=1) for _ in range(e)):
                step: dict[tuple[int, ...], int] = {}
                for mu, count in classes.items():
                    for nu in _vertical_strips(mu, i, self.k, self.n - self.k):
                        step[nu] = step.get(nu, 0) + count
                classes = step
            q *= (-1) ** sum(j * e for j, e in enumerate(exps, start=1))
            for nu, count in classes.items():
                out[nu] = out.get(nu, 0) + q * count
        return {nu: c for nu, c in out.items() if c}

    def integrate(self, x: GradedPoly) -> Fraction:
        """Degree against the fundamental class (x of the top degree; a point
        integrates to 1): the point-class coefficient of x * sigma_()."""
        if not x.is_zero() and x.degree() != self.dim:
            raise ValueError(f"integrand degree {x.degree()} is not the dimension {self.dim}")
        return self.multiply(x, ()).get((self.n - self.k,) * self.k, Fraction(0))

    def plucker_degree(self) -> int:
        """Degree in the Pluecker embedding: the top self-intersection of the
        hyperplane class."""
        val = self.integrate(self.sigma1() ** self.dim)
        assert val.denominator == 1
        return int(val)


@lru_cache(maxsize=1024)  # keyed by the user's k, so bounded like graded_piece
def _grass_table(k: int) -> VariableTable:
    return VariableTable.indexed(("c", k))


def _vertical_strips(lam: tuple[int, ...], m: int, k: int, width: int):
    """Dual Pieri rule: sigma_lam * sigma_(1^m) is the sum of sigma_nu over the
    partitions nu in the k x width box made of lam and one box in each of m rows."""
    rows = lam + (0,) * (k - len(lam))
    # a row below the width takes a box if the row above is longer or takes one too
    for added in combinations([i for i in range(k) if rows[i] < width], m):
        if all(i == 0 or rows[i - 1] > rows[i] or i - 1 in added for i in added):
            yield tuple(p + (i in added) for i, p in enumerate(rows) if p or i in added)


def _giambelli(g: Grassmannian, lam: tuple[int, ...]) -> GradedPoly:
    """sigma_lam = e_m * sigma_mu - (sum of sigma_nu over the other vertical
    m-strips nu of mu), where mu is lam less its first column, of length m.
    Each such nu has a longer first column than lam, so the recursion ends."""
    one = GradedPoly.one(g.table())
    memo = {(): one}

    def sigma(lam: tuple[int, ...]) -> GradedPoly:
        if lam not in memo:
            m, mu = len(lam), tuple(p - 1 for p in lam if p > 1)
            terms = [((-1) ** m, g.chern_sub(m), sigma(mu))]
            others = _vertical_strips(mu, m, g.k, g.n - g.k)
            terms += [(-1, sigma(nu), one) for nu in others if nu != lam]
            memo[lam] = linear_combination(one.table, terms)
        return memo[lam]

    return sigma(lam)


# -- linear systems and stratum dimensions ------------------------------------


def forms_dim(m: int, d: int) -> int:
    """h^0(P^m, O(d)) = C(m + d, d)."""
    if m < 0 or d < 0:
        raise ValueError("need m, d >= 0")
    return comb(m + d, d)


def canonical_quadrics(g: int) -> int:
    """Number of independent quadrics through a canonical genus-g curve:
    g(g+1)/2 - (3g-3) = (g-2)(g-3)/2."""
    if g < 3:
        raise ValueError("need genus >= 3")
    return (g - 2) * (g - 3) // 2


def gl_dim(n: int) -> int:
    return n * n


def pgl_dim(n: int) -> int:
    return n * n - 1


# Hyperelliptic curves are presented by binary forms: the ambient parameter
# count used here is 2g+3 (the printed convention for the affine family of
# branch data), minus dim GL(2).
def hyperelliptic_dim(g: int) -> int:
    return (2 * g + 3) - gl_dim(2)


def bielliptic_dim(g: int) -> int:
    """Double covers of elliptic curves: 2g - 2 branch points moving."""
    return 2 * g - 2


def trigonal_stratum_dim(g: int, n: int) -> int:
    """Projectivised linear system on F_n modulo the surface automorphisms."""
    return h0_hirzebruch(n, trigonal_class(g, n)) - 1 - hirzebruch_aut_dim(n)


def plane_quintic_dim() -> int:
    return forms_dim(2, 5) - 1 - pgl_dim(3)


def stratum_dimensions(g: int) -> tuple[int, ...]:
    """Dimensions of the standard strata, recomputed from their quotient
    presentations.

    genus 6: (Brill-Noether general, trigonal, plane quintics,
              hyperelliptic, bi-elliptic) = (15, 13, 12, 11, 10)
    genus 5: (complete intersections of three quadrics, trigonal,
              hyperelliptic) = (12, 11, 9)
    """
    if g == 6:
        return (
            3 * g - 3,
            trigonal_stratum_dim(6, 0),
            plane_quintic_dim(),
            hyperelliptic_dim(6),
            bielliptic_dim(6),
        )
    if g == 5:
        return (
            Grassmannian(3, forms_dim(4, 2)).dim - pgl_dim(5),
            trigonal_stratum_dim(5, 1),
            hyperelliptic_dim(5),
        )
    raise ValueError("stratum table available for genus 5 and 6 only")


def maroni_divisor_dim() -> int:
    """The genus-6 trigonal curves of Maroni invariant 2, a divisor; in odd genus
    the next stratum is not one (in genus 7, n = 3 has dimension 13 against 15)."""
    return trigonal_stratum_dim(6, 2)
