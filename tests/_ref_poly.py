"""The polynomial ``chowcalc.algebra.GradedPoly`` held before every
polynomial was born as integer content: a table and a dict from exponent
tuples to nonzero Fractions, in first-occurrence order, with every
operation a plain loop over that dict.  It is the oracle that
tests/test_poly_reference.py compares the constructors, ``+ - neg * /``,
the degree tests, the hash and the printer against; ``fraction_format`` is
the printer that read Fractions, the oracle of the one that reads the
integer content.
"""
from __future__ import annotations

from fractions import Fraction


class RefPoly:
    def __init__(self, table, terms):
        cleaned = {}
        for exps, c in terms.items():
            q = Fraction(c)
            if q == 0:
                continue
            if len(exps) != len(table) or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for table {table.names}")
            cleaned[tuple(exps)] = q
        self.table = table
        self.terms = cleaned

    @staticmethod
    def zero(table):
        return RefPoly(table, {})

    @staticmethod
    def one(table):
        return RefPoly(table, {(0,) * len(table): 1})

    @staticmethod
    def constant(table, c):
        return RefPoly(table, {(0,) * len(table): c})

    @staticmethod
    def variable(table, name):
        i = table.names.index(name)
        return RefPoly(table, {tuple(int(j == i) for j in range(len(table))): 1})

    @staticmethod
    def monomial(table, exps, c=1):
        return RefPoly(table, {tuple(exps): c})

    def items(self):
        return self.terms.items()

    def __len__(self):
        return len(self.terms)

    def degrees(self):
        return {self.table.degree(e) for e in self.terms}

    def _lift(self, other):
        return other if isinstance(other, RefPoly) else RefPoly.constant(self.table, other)

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in self._lift(other).terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return RefPoly(self.table, terms)

    __radd__ = __add__

    def __neg__(self):
        return RefPoly(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, RefPoly):
            return RefPoly(self.table, {e: c * other for e, c in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return RefPoly(self.table, terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return self * (1 / q)

    def hash_value(self):
        return hash((self.table, tuple(sorted(self.terms.items()))))

    def format(self):
        """The printer's rendering, graded-lex descending."""
        if not self.terms:
            return "0"
        order = sorted(self.terms.items(), key=lambda t: (self.table.degree(t[0]), t[0]))
        parts = []
        for exps, coeff in reversed(order):
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.table.names, exps)
                if e
            ]
            mag = abs(coeff)
            body = " * ".join(([str(mag)] if mag != 1 or not factors else []) + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)


def fraction_format(p):
    """The printer ``chowcalc.algebra.format_poly`` was before it read the
    integer content: the terms of a ``GradedPoly`` as Fractions, sorted
    graded-lex descending, each coefficient printed by ``str(Fraction)``."""
    if p.is_zero():
        return "0"
    degree = p.table.degree
    parts = []
    for exps, coeff in sorted(p.items(), key=lambda t: (degree(t[0]), t[0]), reverse=True):
        factors = []
        for name, e in zip(p.table.names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = " * ".join(factors)
        else:
            body = " * ".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)
