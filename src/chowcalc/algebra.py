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
accumulator is keyed by ints.  Integer content is the only representation
of a polynomial: its common denominator (the LCM of its denominators), its
packed keys with integer numerators, the field width, a bound on its
exponents, and the one degree its terms share when that is known.  It is
written once, when the polynomial is built: the constructors build it
directly (an int coefficient never becomes a Fraction), and so do ``+``,
``-``, scalar ``*`` and ``/`` and the kernel; a power of a monomial is its
one key times k and its one coefficient to the k.  Nothing is cached beside
it: ``items`` builds the exponent tuples and Fractions on each call,
``coefficient`` looks up one packed key, and ``format_poly`` prints from the
content, one gcd per term, with no Fraction.  Width rule: a field holds
twice the largest exponent of its polynomial, so a sum of two keys of one
width never carries from one field into the next; every content has
``width == _field_width(top)``.  Exponents up to 31 take 6 bits: five
such fields fill one 30-bit CPython digit, so the keys of a table of at
most five variables, such as the kappa and surface tables, are one-digit
ints, which the kernel adds and hashes fastest.  Past 31 a field has at
least 16 bits, so exponents from 32 to 32767 share one width.  An
operation packs its operands at the one width it needs in a copy used for
that call alone (a sum or ``==`` of a polynomial with exponents up to 31
and one with larger exponents repacks the first); the kernel packs them
at its result's width.

Results from internal operations are built with the trusted
``GradedPoly._from_content``; the public constructor keeps full validation.
A polynomial of known degree d is built from its coefficient vector, one
coefficient per monomial of ``monomial_basis(table, d)`` in that order, by
``GradedPoly.homogeneous``: it checks the vector's length and the type of
each coefficient, and packs the nonzero ones onto keys kept per
(table, d) beside ``monomial_basis`` and bounded like it, so no exponent
vector is checked, packed or weighed.  Its content is the one the public
constructor builds from the same terms.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import gcd, lcm
from operator import lshift, mul
from typing import Iterable, Mapping, Sequence

from ._record import immutable, record

RationalLike = int | Fraction


def rat(x: RationalLike) -> Fraction:
    """x as a Fraction.  Only an int (bool included) or a Fraction is taken:
    a float or a str would bring in a binary or parsed approximation."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")


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
    def indexed(*groups: tuple[str, int]) -> "VariableTable":
        """prefix1..prefixm of weights 1..m for each (prefix, m), in order."""
        pairs = [(f"{prefix}{i}", i) for prefix, m in groups for i in range(1, m + 1)]
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


@lru_cache(maxsize=1024)  # keyed by the user's tables, so bounded like graded_piece
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


@lru_cache(maxsize=1024)  # beside monomial_basis, and bounded like it
def _basis_keys(table: VariableTable, d: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The keys of ``monomial_basis(table, d)``, in its order, packed at the
    width of its largest exponent; the largest exponent of each monomial;
    and that width."""
    basis = monomial_basis(table, d)
    tops = tuple(max(e, default=0) for e in basis)
    width = _field_width(max(tops, default=0))
    shifts = range(0, len(table) * width, width)
    return tuple(sum(map(lshift, e, shifts)) for e in basis), tops, width


class GradedPoly:
    """Multivariate polynomial with rational coefficients over a VariableTable.

    A polynomial is its table and its integer content (see ``_pack``): the
    LCM of its denominators, its packed exponent keys with integer
    numerators, the field width, a bound on its exponents and the one degree
    its terms share when that is known.  Every constructor and every
    operation builds that content directly, so an int coefficient never
    becomes a Fraction, and it is never replaced.  Instances are immutable:
    only the hash is filled in lazily, and it takes no part in equality.
    """

    __slots__ = ("table", "_content", "_hash")
    __setattr__ = __delattr__ = immutable

    def __init__(self, table: VariableTable, terms: Mapping[tuple[int, ...], RationalLike]):
        kept: dict[tuple[int, ...], int | Fraction] = {}
        nvars = len(table)
        for exps, c in terms.items():
            if not isinstance(c, (int, Fraction)):
                rat(c)  # raises the TypeError
            if c:
                if len(exps) != nvars:
                    raise ValueError(f"bad exponent vector {exps!r} for table {table.names}")
                kept[tuple(exps)] = c
        if min(chain.from_iterable(kept), default=0) < 0:
            exps = next(e for e in kept if min(e) < 0)
            raise ValueError(f"bad exponent vector {exps!r} for table {table.names}")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_content", _pack(table, kept))
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _from_content(table: VariableTable, content: tuple) -> "GradedPoly":
        """Trusted constructor for internal results: `content` must already be
        a canonical integer content for `table` (see ``_pack``)."""
        p = object.__new__(GradedPoly)
        object.__setattr__(p, "table", table)
        object.__setattr__(p, "_content", content)
        object.__setattr__(p, "_hash", None)
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VariableTable) -> "GradedPoly":
        return GradedPoly._from_content(table, (1, {}, _MIN_WIDTH, 0, None))

    @staticmethod
    def constant(table: VariableTable, c: RationalLike) -> "GradedPoly":
        c = c if isinstance(c, (int, Fraction)) else rat(c)
        if not c:
            return GradedPoly.zero(table)
        return GradedPoly._from_content(table, (c.denominator, {0: c.numerator}, _MIN_WIDTH, 0, 0))

    @staticmethod
    def one(table: VariableTable) -> "GradedPoly":
        return GradedPoly._from_content(table, (1, {0: 1}, _MIN_WIDTH, 0, 0))

    @staticmethod
    def variable(table: VariableTable, name: str) -> "GradedPoly":
        i = table.index(name)
        key = 1 << _MIN_WIDTH * i
        return GradedPoly._from_content(table, (1, {key: 1}, _MIN_WIDTH, 1, table.weights[i]))

    @staticmethod
    def monomial(table: VariableTable, exps: Sequence[int], c: RationalLike = 1) -> "GradedPoly":
        return GradedPoly(table, {tuple(exps): c})

    @staticmethod
    def homogeneous(table: VariableTable, d: int, coeffs: Sequence[RationalLike]) -> "GradedPoly":
        """The degree-d polynomial with coefficient coeffs[i] on the i-th
        monomial of ``monomial_basis(table, d)``: the content the public
        constructor builds from those terms, packed from the basis keys kept
        per (table, d), with no exponent vector to check, pack or weigh."""
        keys, tops, width = _basis_keys(table, d)
        if len(coeffs) != len(keys):
            raise ValueError(f"{len(keys)} monomials of degree {d}, got {len(coeffs)} coefficients")
        if set(map(type, coeffs)) <= {int}:  # the common case: no denominator to take
            den, keyed = 1, dict(compress(zip(keys, coeffs), coeffs))
        else:
            for c in coeffs:
                if not isinstance(c, (int, Fraction)):
                    rat(c)  # raises the TypeError
            kept = list(compress(zip(keys, coeffs), coeffs))
            den = lcm(*{c.denominator for _, c in kept})
            keyed = {k: c.numerator * (den // c.denominator) for k, c in kept}
        if not keyed:
            return GradedPoly.zero(table)
        top = max(compress(tops, coeffs))
        content = (den, keyed, width, top, d)
        # zero coefficients on the largest exponents can leave a narrower field
        return GradedPoly._from_content(table, _repacked(content, _field_width(top), len(table)))

    # -- inspection --------------------------------------------------------

    def _degrees(self) -> set[int]:
        """The weighted degrees of the terms, read off the content when it
        records the one degree they share."""
        _, keyed, width, _, deg = self._content
        if deg is not None:
            return {deg} if keyed else set()
        return set(map(self.table.degree, _unpack(keyed, width, len(self.table))))

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """The (exponents, nonzero Fraction) terms, built from the content."""
        den, keyed, width, _, _ = self._content
        exps = _unpack(keyed, width, len(self.table))
        if den == 1:  # integer content, the common case: no gcd to take
            return list(zip(exps, map(Fraction, keyed.values())))
        return [(e, Fraction(n, den)) for e, n in zip(exps, keyed.values())]

    def __len__(self) -> int:
        return len(self._content[1])

    def is_zero(self) -> bool:
        return not self._content[1]

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        """The coefficient of x^exps, read off one packed key.  It is 0 for a
        vector of the wrong length, with a negative entry, or with an entry
        above the exponent bound `top`, whose key could alias another term's."""
        den, keyed, width, top, _ = self._content
        if len(exps) != len(self.table) or any(not 0 <= e <= top for e in exps):
            return Fraction(0)
        key = sum(map(lshift, exps, range(0, len(exps) * width, width)))
        return Fraction(keyed.get(key, 0), den)

    def constant_term(self) -> Fraction:
        den, keyed, _, _, _ = self._content
        return Fraction(keyed.get(0, 0), den)

    def is_constant(self) -> bool:
        """True for a constant, zero included: no key but 0, the constant
        monomial, without unpacking a term."""
        return not any(self._content[1])

    def as_scalar(self) -> Fraction:
        """The value of a constant polynomial; error if non-constant."""
        if not self.is_constant():
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

    def _select(self, keep, deg: int | None) -> "GradedPoly":
        """The terms whose degree satisfies `keep`, of degree `deg` if known."""
        den, keyed, width, top, shared = self._content
        if shared is not None:
            return self if keep(shared) else GradedPoly.zero(self.table)
        degree = self.table.degree
        exps = _unpack(keyed, width, len(self.table))
        kept = {k: n for (k, n), e in zip(keyed.items(), exps) if keep(degree(e))}
        return GradedPoly._from_content(self.table, _reduced(den, kept, width, top, deg))

    def homogeneous_component(self, d: int) -> "GradedPoly":
        return self._select(lambda e: e == d, d)

    def truncate(self, max_degree: int) -> "GradedPoly":
        return self._select(lambda e: e <= max_degree, None)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "GradedPoly") -> None:
        if self.table is not other.table and self.table != other.table:
            raise TableMismatchError(
                f"variable tables differ: {self.table.names} vs {other.table.names}"
            )

    def _add(self, other: "GradedPoly | RationalLike", sign: int) -> "GradedPoly":
        """self + sign*other on the integer contents, over the LCM of their
        denominators, in the order of self's terms and then other's new ones."""
        if not isinstance(other, GradedPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GradedPoly.constant(self.table, other)
        self._check(other)
        (da, na, width, ta, ga), (db, nb, _, tb, gb) = _at_one_width(self, other)
        den = lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        acc = {k: n * sa for k, n in na.items()} if sa != 1 else dict(na)
        for k, n in nb.items():
            if k in acc:
                acc[k] += n * sb
            else:
                acc[k] = n * sb
        keyed = {k: n for k, n in acc.items() if n}
        deg = ga if not nb or ga == gb else gb if not na else None
        return GradedPoly._from_content(self.table, _reduced(den, keyed, width, max(ta, tb), deg))

    def __add__(self, other: "GradedPoly | RationalLike") -> "GradedPoly":
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "GradedPoly":
        den, keyed, width, top, deg = self._content
        return GradedPoly._from_content(
            self.table, (den, {k: -n for k, n in keyed.items()}, width, top, deg)
        )

    def __sub__(self, other: "GradedPoly | RationalLike") -> "GradedPoly":
        return self._add(other, -1)

    def __rsub__(self, other: RationalLike) -> "GradedPoly":
        return GradedPoly.constant(self.table, other) - self

    def __mul__(self, other: "GradedPoly | RationalLike") -> "GradedPoly":
        if isinstance(other, GradedPoly):
            return linear_combination(self.table, ((1, self, other),))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return GradedPoly.zero(self.table)
        den, keyed, width, top, deg = self._content
        num = other.numerator
        keyed = {k: n * num for k, n in keyed.items()}
        content = _reduced(den * other.denominator, keyed, width, top, deg)
        return GradedPoly._from_content(self.table, content)

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
        den, keyed, _, top, deg = self._content
        if len(keyed) == 1:
            # a monomial: its one key times k and its one coefficient to the
            # k, the key repacked first if top * k needs a wider field
            width = _field_width(top * k)
            [(key, n)] = _repacked(self._content, width, len(self.table))[1].items()
            content = (den**k, {key * k: n**k}, width, top * k, deg if deg is None else deg * k)
            return GradedPoly._from_content(self.table, content)
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
        if not isinstance(other, GradedPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GradedPoly.constant(self.table, other)
        if self.table is not other.table and self.table != other.table:
            return False
        if len(self) != len(other):
            return False
        # Content is canonical at a given width: the LCM of the reduced
        # denominators, and one packed key per exponent tuple.
        a, b = _at_one_width(self, other)
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


_MIN_WIDTH = 6  # bits per field up to exponent 31: see the module docstring
_WIDE_WIDTH = 16  # the least width past that, shared by exponents 32 to 32767


def _field_width(top: int) -> int:
    """Bits per exponent field for exponents of at most `top`: twice `top`
    must fit in one field, so that a sum of two keys never carries from one
    field into the next.  Exponents up to 31 take ``_MIN_WIDTH`` (6) bits;
    past that a field has at least ``_WIDE_WIDTH`` (16) bits, so that
    operands with exponents from 32 to 32767 share one width and are never
    repacked to meet each other."""
    width = (2 * top).bit_length()
    return _MIN_WIDTH if width <= _MIN_WIDTH else max(_WIDE_WIDTH, width)


def _unpack(keys: Iterable[int], width: int, nvars: int) -> list[tuple[int, ...]]:
    """The exponent tuples of `keys`, packed `width` bits per field."""
    shifts = range(0, nvars * width, width)
    mask = (1 << width) - 1
    return [tuple([k >> s & mask for s in shifts]) for k in keys]


def _pack(table: VariableTable, terms: Mapping[tuple[int, ...], int | Fraction]) -> tuple:
    """The integer content (L, {key: L*c}, width, top, degree) of the nonzero
    terms {exponents: c}: L is the LCM of the denominators, each key is an
    exponent vector packed `width` bits per field (variable i in bits
    i*width and up), every exponent is at most `top`, with
    ``width == _field_width(top)``, and `degree` is the weighted degree
    shared by every term, or None when that is not known.  L is the LCM of
    the reduced denominators, so equal polynomials have equal contents at
    one width; an int coefficient is its own numerator."""
    den = lcm(*{c.denominator for c in terms.values()})
    top = max(chain.from_iterable(terms), default=0)
    width = _field_width(top)
    shifts = range(0, len(table) * width, width)
    keyed = {
        sum(map(lshift, e, shifts)): c.numerator * (den // c.denominator)
        for e, c in terms.items()
    }
    weights = table.weights
    degs = {sum(map(mul, e, weights)) for e in terms}
    return (den, keyed, width, top, degs.pop() if len(degs) == 1 else None)


def _reduced(den: int, keyed: dict[int, int], width: int, top: int, deg: int | None) -> tuple:
    """The content of sum n*x^k/den over `keyed`, with den and the numerators
    divided by their gcd, so that den is the LCM of the reduced denominators."""
    if den != 1:
        g = gcd(den, *keyed.values())
        if g != 1:
            den //= g
            keyed = {k: n // g for k, n in keyed.items()}
    return (den, keyed, width, top, deg)


def _repacked(content: tuple, width: int, nvars: int) -> tuple:
    """`content` with its keys packed `width` bits per field: the content
    itself when it is packed so already, else a new content for the caller
    alone, never stored on a polynomial."""
    den, keyed, old, top, deg = content
    if old == width:
        return content
    shifts = range(0, nvars * width, width)
    exps = _unpack(keyed, old, nvars)
    repacked = {sum(map(lshift, e, shifts)): n for e, n in zip(exps, keyed.values())}
    return (den, repacked, width, top, deg)


def _at_one_width(a: GradedPoly, b: GradedPoly) -> tuple[tuple, tuple]:
    """The contents of a and b, packed at the wider of their two widths."""
    ca, cb = a._content, b._content
    width = max(ca[2], cb[2])
    return _repacked(ca, width, len(a.table)), _repacked(cb, width, len(a.table))


def linear_combination(
    table: VariableTable, terms: Iterable[tuple[RationalLike, GradedPoly, GradedPoly]]
) -> GradedPoly:
    """sum q*a*b over the (q, a, b) in `terms`, all over `table`: the one
    inner loop of every product and sum of products.  Each pair is scaled to
    integers by its own denominator, the numerators accumulate over the LCM
    of those denominators, and each output term is divided once.  Every
    operand is packed at the result's width, so sums of keys never carry."""
    pairs = []
    top = 0
    degs = set()
    for q, a, b in terms:
        for p in (a, b):
            if p.table is not table and p.table != table:
                msg = f"variable tables differ: {table.names} vs {p.table.names}"
                raise TableMismatchError(msg)
        (da, na, _, ta, ga), (db, nb, _, tb, gb) = a._content, b._content
        if q and na and nb:
            pairs.append((q.numerator, q.denominator * da * db, a._content, b._content))
            top = max(top, ta + tb)
            degs.add(None if ga is None or gb is None else ga + gb)
    width = _field_width(top)
    den = lcm(*[d for _, d, _, _ in pairs])
    acc: dict[int, int] = {}
    get = acc.get  # one probe of the accumulator per term
    for n, d, ca, cb in pairs:
        scale = n * (den // d)
        nb = list(_repacked(cb, width, len(table))[1].items())
        for k1, n1 in _repacked(ca, width, len(table))[1].items():
            n1 *= scale
            for k2, n2 in nb:
                k = k1 + k2
                acc[k] = get(k, 0) + n1 * n2
    keyed = {k: n for k, n in acc.items() if n}
    deg = degs.pop() if len(degs) == 1 else None
    return GradedPoly._from_content(table, _reduced(den, keyed, width, top, deg))


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
    """Render in the CLI expression grammar, e.g. ``36864/113 * k2^2``: terms
    in graded-lex order, highest degree and then lex-largest exponents first,
    each coefficient read off the integer content with one gcd."""
    den, keyed, width, _, _ = p._content
    if not keyed:
        return "0"
    names = p.table.names
    exps = _unpack(keyed, width, len(names))
    terms = sorted(zip(map(p.table.degree, exps), exps, keyed.values()), reverse=True)
    parts: list[str] = []
    for _, exps, n in terms:
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        g = gcd(n, den)
        mag = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
        if not factors:
            body = mag
        elif mag == "1":
            body = " * ".join(factors)
        else:
            body = " * ".join([mag] + factors)
        if not parts:
            parts.append(body if n > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if n > 0 else f"- {body}")
    return " ".join(parts)


@record
class RowReduction:
    rank: int
    rref: "ExactMatrix"
    pivot_columns: tuple[int, ...]
    determinant: Fraction | None  # None unless the matrix is square


@record
class ExactMatrix:
    """Dense matrix of Fractions with deterministic exact row reduction.
    `entries` are rows of rationals, kept as tuples of Fractions; `cols` is
    the width, needed only for a matrix without rows, and must agree with
    the rows when given."""

    entries: tuple[tuple[Fraction, ...], ...]
    cols: int | None = None

    def __post_init__(self) -> None:
        entries = tuple(tuple(rat(x) for x in row) for row in self.entries)
        width = len(entries[0]) if entries else self.cols or 0
        if any(len(row) != width for row in entries):
            raise ValueError("ragged rows")
        if self.cols not in (None, width):
            raise ValueError("cols does not match row width")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "cols", width)

    @property
    def rows(self) -> int:
        return len(self.entries)

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
