"""Bott's residue formula on the Grassmannian G(k, n): an integral that
shares no code with the library's Schubert calculus or quotient rings.

A torus acts on C^n with distinct integer weights w_1..w_n.  The fixed
points of G(k, n) are the coordinate k-planes I.  At I the subbundle S has
the weights w_I as its Chern roots, and the tangent space Hom(S, Q) has the
weights w_j - w_i for i in I and j not in I.  For a class of top degree,

    integral = sum over I of (the class at I) / prod (w_j - w_i),

whatever the weights (Atiyah-Bott, Topology 23, 1984; Ellingsrud-Stromme,
J. Amer. Math. Soc. 9, 1996).  A polynomial in the Chern classes c1..ck of
S is read only through ``items()``.
"""
from fractions import Fraction
from itertools import combinations
from math import prod


def localize(k, n, at_point):
    """The sum over the fixed points I of at_point(roots of S at I) divided by
    the tangent weights at I, with the weights w_i = i^2."""
    w = [i * i for i in range(n)]
    total = Fraction(0)
    for plane in combinations(range(n), k):
        euler = prod(w[j] - w[i] for i in plane for j in range(n) if j not in plane)
        total += Fraction(at_point([w[i] for i in plane]), euler)
    return total


def elementary(roots, k):
    """e_0..e_k of the roots, from the product of (1 + r*t)."""
    e = [1] + [0] * k
    for r in roots:
        for j in range(k, 0, -1):
            e[j] += r * e[j - 1]
    return e


def integrate(k, n, poly):
    """The integral over G(k, n) of a polynomial in c1..ck of S."""

    def at_point(roots):
        e = elementary(roots, k)
        return sum(
            c * prod(e[j] ** x for j, x in enumerate(exps, start=1)) for exps, c in poly.items()
        )

    return localize(k, n, at_point)
