"""Partitions, GL(n) representation dimensions, Littlewood-Richardson
products, symmetric-group characters, and the one plethysm this project
needs: Sym^2 of a second exterior power, computed by characters from its
power-sum expansion, so the answer is the same for every n >= 4.
Partitions of any size are allowed.  `lr_product` is a Schubert product on
a Grassmannian large enough to hold every term (`geometry`'s dual Pieri
rule), so the library multiplies Schur classes one way only.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from ._record import record
from .algebra import GradedPoly, VariableTable


@record
class Partition:
    """Weakly decreasing positive parts, of any size."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    @staticmethod
    def of(*parts: int) -> "Partition":
        """The partition with these parts, trailing zeros dropped."""
        end = len(parts)
        while end and parts[end - 1] == 0:
            end -= 1
        return Partition(tuple(parts[:end]))

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def arm(self, i: int, j: int) -> int:
        return self.parts[i] - (j + 1)

    def leg(self, i: int, j: int) -> int:
        return sum(1 for p in self.parts[i + 1 :] if p > j)

    def hook(self, i: int, j: int) -> int:
        return self.arm(i, j) + self.leg(i, j) + 1

    def cells(self):
        for i, p in enumerate(self.parts):
            for j in range(p):
                yield i, j

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def dim_schur(lam: Partition, n: int) -> int:
    """Dimension of the Schur functor S_lam applied to C^n (hook content
    formula); zero when lam has more than n rows."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if lam.length > n:
        return 0
    num = denom = 1
    for i, j in lam.cells():
        num *= n + j - i
        denom *= lam.hook(i, j)
    q, r = divmod(num, denom)
    assert r == 0
    return q


def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux (hook length formula)."""
    if not lam.parts:
        return 1
    denom = 1
    for i, j in lam.cells():
        denom *= lam.hook(i, j)
    q, r = divmod(factorial(lam.size), denom)
    assert r == 0
    return q


@record
class SchurDecomposition:
    """Multiset of (partition, multiplicity) pairs, sorted for determinism."""

    terms: tuple[tuple[Partition, int], ...]

    def __post_init__(self) -> None:
        if any(m < 1 for _, m in self.terms):
            raise ValueError("multiplicities must be >= 1")

    @staticmethod
    def from_dict(d: dict[Partition, int]) -> "SchurDecomposition":
        items = tuple(sorted(((p, m) for p, m in d.items() if m), key=lambda t: t[0].parts))
        return SchurDecomposition(items)

    def __str__(self) -> str:
        return " + ".join(
            (f"{m}*" if m > 1 else "") + f"S{p}" for p, m in self.terms
        ) or "0"


# -- Littlewood-Richardson ---------------------------------------------------


def lr_product(lam: Partition, mu: Partition) -> SchurDecomposition:
    """Littlewood-Richardson expansion of s_lam * s_mu: the Schubert product in
    G(k, k + w), k = l(lam) + l(mu) and w = lam_1 + mu_1, whose box holds every
    nu with c^nu_{lam mu} != 0 (Fulton, Young Tableaux, 9.4)."""
    # imported here because geometry imports this module for Partition
    from .geometry import Grassmannian

    if lam.parts[:1] < mu.parts[:1]:
        lam, mu = mu, lam  # the shorter first row gives the smaller Giambelli expansion
    k = max(1, lam.length + mu.length)
    g = Grassmannian(k, k + max(1, sum(lam.parts[:1]) + sum(mu.parts[:1])))
    out: dict[Partition, int] = {}
    for nu, c in g.multiply(g.schubert_class(mu), lam.parts).items():
        assert c.denominator == 1
        out[Partition(nu)] = int(c)
    return SchurDecomposition.from_dict(out)


# -- Schur polynomials, characters and the Sym^2(wedge^2) plethysm ------------


@lru_cache(maxsize=None)
def _x_table(n: int) -> VariableTable:
    return VariableTable(tuple(f"x{i+1}" for i in range(n)), (1,) * n)


@lru_cache(maxsize=None)
def schur_polynomial(lam: Partition, n: int) -> GradedPoly:
    """s_lam(x_1..x_n) as an explicit polynomial, by SSYT enumeration."""
    table = _x_table(n)
    terms: dict[tuple[int, ...], Fraction] = {}
    if lam.length > n:
        return GradedPoly.zero(table)

    rows = lam.length
    tableau: list[list[int]] = [[0] * lam.parts[i] for i in range(rows)]

    def fill(i: int, j: int) -> None:
        if i == rows:
            weight = [0] * n
            for row in tableau:
                for v in row:
                    weight[v - 1] += 1
            exps = tuple(weight)
            terms[exps] = terms.get(exps, Fraction(0)) + 1
            return
        ni, nj = (i, j + 1) if j + 1 < lam.parts[i] else (i + 1, 0)
        lo = tableau[i][j - 1] if j > 0 else 1
        if i > 0 and j < lam.parts[i - 1]:
            lo = max(lo, tableau[i - 1][j] + 1)
        for v in range(lo, n + 1):
            tableau[i][j] = v
            fill(ni, nj)

    fill(0, 0)
    return GradedPoly(table, terms)


def character(lam: Partition, rho: Partition) -> int:
    """chi^lam(rho), the irreducible character of S_n at cycle type rho, by the
    Murnaghan-Nakayama rule (Macdonald I.7): each part r of rho removes a border
    strip, moving one beta-number down by r, signed by the beta-numbers passed."""
    if lam.size != rho.size:
        raise ValueError("lam and rho must be partitions of the same size")

    def strip(beta: frozenset[int], parts: tuple[int, ...]) -> int:
        if not parts:
            return 1
        r, total = parts[0], 0
        for b in beta:
            if b >= r and b - r not in beta:
                passed = sum(1 for c in beta if b - r < c < b)
                total += (-1) ** passed * strip(beta - {b} | {b - r}, parts[1:])
        return total

    return strip(frozenset(p + lam.length - 1 - i for i, p in enumerate(lam.parts)), rho.parts)


# h2[f] = (f^2 + p2[f])/2 and e2 = (p1^2 - p2)/2, with p2[p_k] = p_2k, give
# h2[e2] = ((p1^2 - p2)^2/4 + (p2^2 - p4)/2)/2 = (p1^4 - 2p1^2p2 + 3p2^2 - 2p4)/8,
# listed as (rho, coefficient of p_rho in 8*h2[e2]).
_H2_E2 = (((1, 1, 1, 1), 1), ((2, 1, 1), -2), ((2, 2), 3), ((4,), -2))
_PARTITIONS_OF_4 = tuple(Partition(p) for p in ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)))


def decompose_sym2_wedge2(n: int) -> SchurDecomposition:
    """Schur expansion of Sym^2(wedge^2 C^n), i.e. the plethysm h2[e2], by
    characters: p_rho = sum_lam chi^lam(rho) s_lam over the five partitions lam
    of 4, each of at most 4 rows, so the answer is the same for every n >= 4."""
    if n < 4:
        raise ValueError("need n >= 4")
    out: dict[Partition, int] = {}
    for lam in _PARTITIONS_OF_4:
        mult, r = divmod(sum(c * character(lam, Partition(rho)) for rho, c in _H2_E2), 8)
        assert r == 0
        out[lam] = mult
    return SchurDecomposition.from_dict(out)
