"""Exact arithmetic kernel: weighted multivariate polynomials over Q,
truncated graded series over them, and exact row reduction.

All values are immutable after construction and every operation is exact
rational arithmetic; there is no floating point anywhere in this package.

Every sum of products, sum q*a*b, goes through one kernel,
``linear_combination``; ``*``, the truncated series product and the series
quotient are built on it.  It uses the
content/primitive-part idea (von zur Gathen and Gerhard, *Modern Computer
Algebra*, section 6.2): each operand is scaled to integers by the LCM of
its denominators, integer numerators are accumulated over the LCM of all
the pairs' denominators, and every output term is divided once.  Per-term work is then integer
multiplication and addition instead of Fraction arithmetic, which reduces
by a gcd on every operation.

The kernel works on packed exponent vectors (Johnson 1974; Monagan and
Pearce, CASC 2007): an exponent vector is one int with a fixed bit field per
variable, so the product of two monomials is one integer addition and the
accumulator is keyed by ints.  Integer content is the representation of a
kernel result: a product holds only its content (the LCM of its
denominators, its packed keys with integer numerators, and the one degree
its terms share when that is known), and builds its exponent tuples and
Fractions the first time a caller reads coefficients.  Its length, zero and
degree tests and equality read the content, so chained products, powers,
series and the bundle classes built on them never build a Fraction.  A
polynomial from the public constructor holds Fractions and computes its
content at most once, when it is first multiplied.  Width rule:
a field has at least 16 bits and holds twice the largest exponent of its
polynomial, so a sum of two keys of one width never carries from one field
into the next.  A call packs all its operands at the widest width stored
among them, repacking the narrower ones, and a result whose exponents
outgrow that width is repacked wider before it is returned.

Results from internal operations are built with the trusted
``GradedPoly._from_clean``; the public constructor keeps full validation.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import lshift, mul
from typing import Iterable, Mapping, Sequence

from ._record import immutable, record

RationalLike = int | Fraction


def rat(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class TableMismatchError(ValueError):
    """Raised when combining polynomials over different variable tables."""


@record
class VariableTable:
    """Ordered variables with positive integer weights (graded degrees)."""

    names: tuple[str, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.weights):
            raise ValueError("names and weights must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")

    @staticmethod
    def make(pairs: Sequence[tuple[str, int]]) -> "VariableTable":
        return VariableTable(tuple(n for n, _ in pairs), tuple(w for _, w in pairs))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def degree(self, exponents: Sequence[int]) -> int:
        return sum(map(mul, exponents, self.weights))


@lru_cache(maxsize=None)
def monomial_basis(table: VariableTable, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of weighted degree exactly d, graded-lex descending.

    The first variable's exponent decreases first, so for weights (1, 2) and
    d = 4 the order is (4,0), (2,1), (0,2).
    """
    if d < 0:
        raise ValueError("degree must be >= 0")

    out: list[tuple[int, ...]] = []

    def go(i: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if i == len(table.weights):
            if remaining == 0:
                out.append(prefix)
            return
        w = table.weights[i]
        for e in range(remaining // w, -1, -1):
            go(i + 1, remaining - e * w, prefix + (e,))

    go(0, d, ())
    return tuple(out)


def _grlex_key(table: VariableTable, exps: tuple[int, ...]) -> tuple:
    return (table.degree(exps), exps)


class GradedPoly:
    """Multivariate polynomial with rational coefficients over a VariableTable.

    A polynomial is held as its terms, a dict from exponent tuples to nonzero
    Fractions, as its integer content (see ``_integer_content``), or as both.
    The public constructor stores terms; a product stores only content, and
    the terms are built from it the first time a caller reads coefficients.
    Length, zero and degree tests and equality read whichever form is there.
    Instances are immutable; the hash and the second form are filled in
    lazily, and neither takes part in equality.
    """

    __slots__ = ("table", "_terms", "_hash", "_content")
    __setattr__ = __delattr__ = immutable

    def __init__(self, table: VariableTable, terms: Mapping[tuple[int, ...], RationalLike]):
        cleaned: dict[tuple[int, ...], Fraction] = {}
        nvars = len(table)
        for exps, c in terms.items():
            q = rat(c)
            if q == 0:
                continue
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for table {table.names}")
            cleaned[tuple(exps)] = q
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_terms", cleaned)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_content", None)

    @staticmethod
    def _from_clean(
        table: VariableTable,
        terms: dict[tuple[int, ...], Fraction] | None,
        content: tuple | None = None,
    ) -> "GradedPoly":
        """Trusted constructor for internal results: every key of `terms` must
        already be a valid exponent tuple for `table` and every value a nonzero
        Fraction; `terms` is stored without validation or copying.  A kernel
        result passes None and its `content` instead."""
        p = object.__new__(GradedPoly)
        object.__setattr__(p, "table", table)
        object.__setattr__(p, "_terms", terms)
        object.__setattr__(p, "_hash", None)
        object.__setattr__(p, "_content", content)
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VariableTable) -> "GradedPoly":
        return GradedPoly._from_clean(table, {})

    @staticmethod
    def constant(table: VariableTable, c: RationalLike) -> "GradedPoly":
        q = rat(c)
        return GradedPoly._from_clean(table, {(0,) * len(table): q} if q else {})

    @staticmethod
    def one(table: VariableTable) -> "GradedPoly":
        return GradedPoly._from_clean(table, {(0,) * len(table): Fraction(1)})

    @staticmethod
    def variable(table: VariableTable, name: str) -> "GradedPoly":
        i = table.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(table)))
        return GradedPoly._from_clean(table, {exps: Fraction(1)})

    @staticmethod
    def monomial(table: VariableTable, exps: Sequence[int], c: RationalLike = 1) -> "GradedPoly":
        return GradedPoly(table, {tuple(exps): rat(c)})

    # -- inspection --------------------------------------------------------

    def _coefficients(self) -> dict[tuple[int, ...], Fraction]:
        """The terms, built from the integer content on first read."""
        terms = self._terms
        if terms is None:
            den, keyed, width, _, _ = self._content
            exps = _unpack(keyed, width, len(self.table))
            if den == 1:  # integer content, the common case: no gcd to take
                terms = dict(zip(exps, map(Fraction, keyed.values())))
            else:
                terms = {e: Fraction(n, den) for e, n in zip(exps, keyed.values())}
            object.__setattr__(self, "_terms", terms)
        return terms

    def _exponents(self) -> Iterable[tuple[int, ...]]:
        if self._terms is not None:
            return self._terms
        _, keyed, width, _, _ = self._content
        return _unpack(keyed, width, len(self.table))

    def _degrees(self) -> set[int]:
        """The weighted degrees of the terms, read off the content when it
        records the one degree they share."""
        c = self._content
        if c is not None and c[4] is not None:
            return {c[4]} if c[1] else set()
        degree = self.table.degree
        return {degree(e) for e in self._exponents()}

    def items(self) -> Iterable[tuple[tuple[int, ...], Fraction]]:
        return self._coefficients().items()

    def __len__(self) -> int:
        terms = self._terms
        return len(terms if terms is not None else self._content[1])

    def is_zero(self) -> bool:
        return not len(self)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self._coefficients().get(tuple(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * len(self.table))

    def as_scalar(self) -> Fraction:
        """The value of a constant polynomial; error if non-constant."""
        if any(any(exps) for exps in self._exponents()):
            raise ValueError("polynomial is not constant")
        return self.constant_term()

    def is_homogeneous(self) -> bool:
        return len(self._degrees()) <= 1

    def degree(self) -> int:
        """Weighted degree of a nonzero homogeneous polynomial."""
        degs = self._degrees()
        if len(degs) != 1:
            raise ValueError("degree undefined (zero or inhomogeneous polynomial)")
        return degs.pop()

    def max_degree(self) -> int:
        return max(self._degrees(), default=0)

    def homogeneous_component(self, d: int) -> "GradedPoly":
        degree = self.table.degree
        return GradedPoly._from_clean(
            self.table, {e: c for e, c in self.items() if degree(e) == d}
        )

    def truncate(self, max_degree: int) -> "GradedPoly":
        degree = self.table.degree
        return GradedPoly._from_clean(
            self.table, {e: c for e, c in self.items() if degree(e) <= max_degree}
        )

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """Graded-lex leading term (highest degree, then lex-largest exponents)."""
        terms = self._coefficients()
        if not terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(terms, key=lambda e: _grlex_key(self.table, e))
        return exps, terms[exps]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.items(), key=lambda t: _grlex_key(self.table, t[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "GradedPoly") -> None:
        if self.table != other.table:
            raise TableMismatchError(
                f"variable tables differ: {self.table.names} vs {other.table.names}"
            )

    def __add__(self, other: "GradedPoly | RationalLike") -> "GradedPoly":
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.constant(self.table, other)
        self._check(other)
        terms = dict(self.items())
        for e, c in other.items():
            if e in terms:
                s = terms[e] + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
            else:
                terms[e] = c
        return GradedPoly._from_clean(self.table, terms)

    __radd__ = __add__

    def __neg__(self) -> "GradedPoly":
        return GradedPoly._from_clean(self.table, {e: -c for e, c in self.items()})

    def __sub__(self, other: "GradedPoly | RationalLike") -> "GradedPoly":
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.constant(self.table, other)
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "GradedPoly":
        return GradedPoly.constant(self.table, other) - self

    def __mul__(self, other: "GradedPoly | RationalLike") -> "GradedPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return GradedPoly.zero(self.table)
            q = rat(other)
            return GradedPoly._from_clean(self.table, {e: c * q for e, c in self.items()})
        return linear_combination(self.table, ((1, self, other),))

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "GradedPoly":
        q = rat(other)
        if q == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return self * (1 / q)

    def __pow__(self, k: int) -> "GradedPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return GradedPoly.one(self.table)
        out = None
        base = self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.constant(self.table, other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if self.table is not other.table and self.table != other.table:
            return False
        if self._terms is not None and other._terms is not None:
            return self._terms == other._terms
        if len(self) != len(other):
            return False
        # Content is canonical at a given width: the LCM of the reduced
        # denominators, and one packed key per exponent tuple.
        a, b = _integer_content(self), _integer_content(other)
        if a[2] != b[2]:
            width = max(a[2], b[2])
            a, b = _integer_content(self, width), _integer_content(other, width)
        return a[0] == b[0] and a[1] == b[1]

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.table, tuple(sorted(self.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"GradedPoly({format_poly(self)})"


def mul_trunc(a: GradedPoly, b: GradedPoly, max_degree: int) -> GradedPoly:
    """Product with all terms of weighted degree > max_degree dropped."""
    return (a * b).truncate(max_degree)


def _field_width(top: int) -> int:
    """Bits per exponent field for exponents of at most `top`: twice `top`
    must fit in one field, so that a sum of two keys never carries from one
    field into the next, and no field is narrower than 16 bits."""
    return max(16, (2 * top).bit_length())


def _unpack(keys: Iterable[int], width: int, nvars: int) -> list[tuple[int, ...]]:
    """The exponent tuples of `keys`, packed `width` bits per field."""
    shifts = range(0, nvars * width, width)
    mask = (1 << width) - 1
    return [tuple([k >> s & mask for s in shifts]) for k in keys]


def _integer_content(p: GradedPoly, width: int = 0) -> tuple:
    """(L, {key: L*c}, width, top, degree) for p: L is the LCM of the
    denominators of p, each key is an exponent vector packed `width` bits
    per field (variable i in bits i*width and up), every exponent of p is at
    most `top`, with ``_field_width(top) <= width``, and `degree` is the
    weighted degree shared by every term, or None when that is not known.
    L is the LCM of the reduced denominators, so equal polynomials have equal
    contents at one width.  Stored on p, so it is computed once per
    polynomial; products store only the content of their results.  A stored
    content narrower than `width` is repacked at `width`; a new content is
    packed at `width`, or wider if p needs it."""
    c = p._content
    if c is None or c[2] < width:
        if c is None:
            terms = p._terms
            exps = terms.keys()
            den = lcm(*[q.denominator for q in terms.values()])
            nums = [q.numerator * (den // q.denominator) for q in terms.values()]
            degs = {p.table.degree(e) for e in exps}
            deg = degs.pop() if len(degs) == 1 else None
        else:
            den, keyed, narrow, _, deg = c
            exps = _unpack(keyed, narrow, len(p.table))
            nums = keyed.values()
        top = max(chain.from_iterable(exps), default=0)
        width = max(width, _field_width(top))
        shifts = range(0, len(p.table) * width, width)
        keyed = {sum(map(lshift, e, shifts)): n for e, n in zip(exps, nums)}
        c = (den, keyed, width, top, deg)
        object.__setattr__(p, "_content", c)
    return c


def _sum_products(
    table: VariableTable, pairs: list, den: int, width: int, top: int, deg: int | None
) -> GradedPoly:
    """sum s*a*b/den over the (s, a, b) in pairs, a and b given by the packed
    keys and numerators of their integer contents at `width`, with `top`
    bounding every exponent of the result and `deg` its degree if known: the
    one inner loop of every product and sum of products.  The result holds
    only its content, repacked wider when `width` cannot hold the next
    product of its exponents."""
    acc: dict[int, int] = {}
    for scale, na, nb in pairs:
        for k1, n1 in na.items():
            n1 *= scale
            for k2, n2 in nb.items():
                k = k1 + k2
                if k in acc:
                    acc[k] += n1 * n2
                else:
                    acc[k] = n1 * n2
    keyed = {k: n for k, n in acc.items() if n}
    if den != 1:
        g = gcd(den, *keyed.values())
        den //= g
        keyed = {k: n // g for k, n in keyed.items()}
    p = GradedPoly._from_clean(table, None, (den, keyed, width, top, deg))
    if _field_width(top) > width:
        _integer_content(p, _field_width(top))
    return p


def linear_combination(
    table: VariableTable, terms: Iterable[tuple[RationalLike, GradedPoly, GradedPoly]]
) -> GradedPoly:
    """sum q*a*b over the (q, a, b) in `terms`, all over `table`.  Each pair is
    scaled to integers by its own denominator, the numerators accumulate over
    the LCM of those denominators, and each output term is divided once."""
    triples = []
    width = 16
    for q, a, b in terms:
        for p in (a, b):
            if p.table is not table and p.table != table:
                msg = f"variable tables differ: {table.names} vs {p.table.names}"
                raise TableMismatchError(msg)
        if q:
            ca = a._content or _integer_content(a)
            cb = b._content or _integer_content(b)
            triples.append((q, ca, cb, a, b))
            width = max(width, ca[2], cb[2])
    if width > 16:  # one width for every operand, the widest stored among them
        triples = [
            (q, _integer_content(a, width), _integer_content(b, width), a, b)
            for q, _, _, a, b in triples
        ]
    pairs = []
    top = 0
    degs = set()
    for q, (da, na, _, ta, ga), (db, nb, _, tb, gb), _, _ in triples:
        if na and nb:
            pairs.append((q.numerator, q.denominator * da * db, na, nb))
            top = max(top, ta + tb)
            degs.add(None if ga is None or gb is None else ga + gb)
    den = lcm(*[d for _, d, _, _ in pairs])
    scaled = [(n * (den // d), na, nb) for n, d, na, nb in pairs]
    return _sum_products(table, scaled, den, width, top, degs.pop() if len(degs) == 1 else None)


def series_mul(a: Sequence[GradedPoly], b: Sequence[GradedPoly], trunc: int) -> list[GradedPoly]:
    """Coefficients 0..trunc of the product of two graded series, given by
    their coefficient lists (missing coefficients are zero)."""
    return [
        linear_combination(
            a[0].table, ((1, a[i], b[d - i]) for i in range(len(a)) if 0 <= d - i < len(b))
        )
        for d in range(trunc + 1)
    ]


def series_quotient(
    t: Sequence[GradedPoly], s: Sequence[GradedPoly], trunc: int
) -> list[GradedPoly]:
    """Coefficients 0..trunc of t/s for a series s with constant term 1, by
    q_d = t_d - sum_(i>=1) s_i q_(d-i): one sum of products per degree, and
    the inverse of s is the case t = [1] (missing coefficients are zero)."""
    table = s[0].table
    one = GradedPoly.one(table)
    if s[0] != one:
        raise ValueError("series division needs a divisor with constant term 1")
    q: list[GradedPoly] = []
    for d in range(trunc + 1):
        terms = [(1, t[d], one)] if d < len(t) else []
        terms += [(-1, s[i], q[d - i]) for i in range(1, min(d + 1, len(s)))]
        q.append(linear_combination(table, terms))
    return q


def format_poly(p: GradedPoly) -> str:
    """Render in the CLI expression grammar, e.g. ``36864/113 * k2^2``."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for exps, coeff in p.sorted_terms():
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


@record
class RowReduction:
    rank: int
    rref: "ExactMatrix"
    pivot_columns: tuple[int, ...]
    determinant: Fraction | None  # None unless the matrix is square


class ExactMatrix:
    """Dense matrix of Fractions with deterministic exact row reduction."""

    __slots__ = ("rows", "cols", "entries")
    __setattr__ = __delattr__ = immutable

    def __init__(self, entries: Sequence[Sequence[RationalLike]], cols: int | None = None):
        rows = [tuple(rat(x) for x in row) for row in entries]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = cols or 0
        if cols is not None and rows and cols != width:
            raise ValueError("cols does not match row width")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", tuple(rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.cols, self.entries))

    def row_reduce(self) -> RowReduction:
        """Reduced row echelon form.

        Pivot rule: scan columns left to right and take the first row (in
        current order) with a nonzero entry; exact arithmetic needs no
        magnitude heuristics.  For a square matrix the determinant is read
        off on the way: the product of the pivots, negated once per row swap,
        and 0 below full rank.
        """
        m = [list(row) for row in self.entries]
        pivots: list[int] = []
        det = Fraction(1) if self.is_square() else None
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if pivot_row is None:
                continue
            if det is not None:
                det *= m[pivot_row][c] if pivot_row == r else -m[pivot_row][c]
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == len(m):
                break
        if det is not None and r < self.rows:
            det = Fraction(0)
        return RowReduction(r, ExactMatrix(m, cols=self.cols), tuple(pivots), det)

    def rank(self) -> int:
        return self.row_reduce().rank

    def is_square(self) -> bool:
        return self.rows == self.cols

    def determinant(self) -> Fraction:
        """Exact determinant, read off ``row_reduce``."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        return self.row_reduce().determinant

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in row) for row in self.entries)
        return f"ExactMatrix[{body}]"
