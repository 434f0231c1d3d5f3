"""Finitely presented weighted-graded commutative Q-algebras.

Everything is computed degree by degree with exact linear algebra: the
degree-d piece of the ideal is spanned by monomial multiples of the
relations (the degree-d Macaulay matrix, Lazard 1983), and one row
reduction of it gives the normal form of every degree-d monomial.  Hilbert
functions, normal forms, socles and multiplication pairings are all read
off that table.  No Groebner bases are needed because every verification
has a known top degree.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Mapping

from ._record import record
from .algebra import ExactMatrix, GradedPoly, VariableTable, linear_combination, monomial_basis


@record
class RingPresentation:
    """Weighted polynomial ring modulo homogeneous relations."""

    table: VariableTable
    relations: tuple[GradedPoly, ...]

    def __post_init__(self) -> None:
        for r in self.relations:
            if r.table != self.table:
                raise ValueError("relation over a different variable table")
            if r.is_zero():
                raise ValueError("zero relation")
            if not r.is_homogeneous():
                raise ValueError("relations must be homogeneous")


@record
class GradedPiece:
    """Degree-d data: the quotient basis (the non-pivot monomials of the
    reduced Macaulay matrix) and the normal form of every monomial.  A
    quotient monomial is its own normal form; a pivot monomial maps to minus
    the rest of its reduced row.  The table is never mutated after it is
    built."""

    quotient_basis: tuple[tuple[int, ...], ...]
    normal_forms: Mapping[tuple[int, ...], GradedPoly]

    @property
    def dim(self) -> int:
        return len(self.quotient_basis)


def ideal_degree_piece(pres: RingPresentation, d: int) -> ExactMatrix:
    """Matrix whose rows are all monomial multiples of relations in degree d,
    written in the monomial_basis(d) coordinate order."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    basis = monomial_basis(pres.table, d)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for rel in pres.relations:
        deg = rel.degree()
        if deg > d:
            continue
        terms = rel.items()
        for mult in monomial_basis(pres.table, d - deg):
            row = [Fraction(0)] * len(basis)
            for exps, c in terms:
                row[index[tuple(map(add, mult, exps))]] = c
            rows.append(row)
    return ExactMatrix(rows, cols=len(basis))


# Bounded, so that a long repl over many rings cannot grow it without limit;
# 160 repl lines of mixed ring queries touch about 300 pieces.
@lru_cache(maxsize=1024)
def graded_piece(pres: RingPresentation, d: int) -> GradedPiece:
    basis = monomial_basis(pres.table, d)
    red = ideal_degree_piece(pres, d).row_reduce()
    pivots = set(red.pivot_columns)
    free = [j for j in range(len(basis)) if j not in pivots]
    table = {basis[j]: GradedPoly.monomial(pres.table, basis[j]) for j in free}
    for i, row in zip(red.pivot_columns, red.rref.entries):
        # a reduced row is zero in every other pivot column
        table[basis[i]] = GradedPoly(pres.table, {basis[j]: -row[j] for j in free})
    quotient = tuple(basis[j] for j in free)
    return GradedPiece(quotient, table)


def _piece_dims(pres: RingPresentation, max_d: int) -> list[int]:
    """Dimensions of the graded pieces from degree 0, through max_d or up to
    the first run of as many zero pieces as the largest variable weight:
    every later piece is zero and is not built, since a monomial of higher
    degree is a variable times a monomial of lower degree that is already zero."""
    run = max(pres.table.weights, default=1)
    dims: list[int] = []
    for d in range(max_d + 1):
        if len(dims) >= run and not any(dims[-run:]):
            break
        dims.append(graded_piece(pres, d).dim)
    return dims


def hilbert_function(pres: RingPresentation, max_d: int) -> tuple[int, ...]:
    """Dimensions of the graded pieces in degrees 0..max_d, zero after
    `_piece_dims` stops."""
    if max_d < 0:
        raise ValueError("max degree must be >= 0")
    dims = tuple(_piece_dims(pres, max_d))
    return dims + (0,) * (max_d + 1 - len(dims))


def normal_form(x: GradedPoly, pres: RingPresentation) -> GradedPoly:
    """Coset representative supported on the quotient basis of x's degree;
    zero, without building that piece, when `_piece_dims` proves it zero."""
    if x.table != pres.table:
        raise ValueError("polynomial over a different variable table")
    if x.is_zero():
        return x
    try:
        d = x.degree()
    except ValueError:  # x is not zero, so it is inhomogeneous
        raise ValueError("normal form requires a homogeneous input") from None
    if not any(_piece_dims(pres, d)[d:]):  # empty when the zero run came first
        return GradedPoly.zero(pres.table)
    table = graded_piece(pres, d).normal_forms
    if len(x) == 1:  # a monomial: a scalar multiple of its table entry
        [(m, c)] = x.items()
        return table[m] * c
    one = GradedPoly.one(pres.table)
    return linear_combination(pres.table, ((c, table[m], one) for m, c in x.items()))


class SocleError(ValueError):
    """The requested top graded piece is not 1-dimensional."""


def socle_monomial(pres: RingPresentation, top: int) -> tuple[int, ...]:
    piece = graded_piece(pres, top)
    if piece.dim != 1:
        raise SocleError(f"degree-{top} piece has dimension {piece.dim}, expected 1")
    return piece.quotient_basis[0]


def pairing_matrix(pres: RingPresentation, i: int, top: int) -> ExactMatrix:
    """Multiplication pairing R^i x R^(top-i) -> R^top = Q·socle.

    Entry (a, b) is the socle coefficient of the normal form of the product
    of the a-th degree-i and b-th degree-(top-i) quotient basis monomials,
    read off the degree-top normal-form table.
    """
    if not 0 <= i <= top:
        raise ValueError("need 0 <= i <= top")
    socle = socle_monomial(pres, top)
    table = graded_piece(pres, top).normal_forms
    left = graded_piece(pres, i).quotient_basis
    right = graded_piece(pres, top - i).quotient_basis
    rows = [[table[tuple(map(add, a, b))].coefficient(socle) for b in right] for a in left]
    return ExactMatrix(rows, cols=len(right))


def is_poincare_duality(pres: RingPresentation, top: int) -> bool:
    """True iff the ring is Gorenstein with socle in degree `top`: the top
    piece is 1-dimensional, the pieces in degrees top+1 .. top+w are zero (w
    the largest weight, so by the zero-run rule of `_piece_dims` every
    later piece is zero too), and every pairing R^i x R^(top-i) -> R^top is
    square and of full rank.  Square pairings make the Hilbert function
    symmetric on 0..top, so no separate symmetry test is needed."""
    if top < 0:
        raise ValueError("need top >= 0")
    h = hilbert_function(pres, top + max(pres.table.weights, default=1))
    if h[top] != 1 or any(h[top + 1 :]):
        return False
    for i in range(top + 1):
        mat = pairing_matrix(pres, i, top)
        if not mat.rows == mat.cols == mat.rank():
            return False
    return True


# -- stock presentations -----------------------------------------------------

KAPPA_M6_COEFFS = (127, -2304, 113, -36864)


def kappa_table() -> VariableTable:
    return VariableTable.indexed(("k", 2))


def m6_presentation(coeffs: tuple[int, int, int, int] = KAPPA_M6_COEFFS) -> RingPresentation:
    """Q[k1,k2]/(c0*k1^3 + c1*k1*k2, c2*k1^4 + c3*k2^2) with k1, k2 of
    weights 1, 2; the default coefficients give the genus-6 kappa ring."""
    t = kappa_table()
    c0, c1, c2, c3 = coeffs
    k1 = GradedPoly.variable(t, "k1")
    k2 = GradedPoly.variable(t, "k2")
    r1 = c0 * k1**3 + c1 * k1 * k2
    r2 = c2 * k1**4 + c3 * k2**2
    return RingPresentation(t, (r1, r2))


def kappa1_power_presentation(g: int) -> RingPresentation:
    """Q[k1]/(k1^(g-1)), the kappa ring in genus 2..5."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    t = VariableTable(("k1",), (1,))
    k1 = GradedPoly.variable(t, "k1")
    return RingPresentation(t, (k1 ** (g - 1),))
