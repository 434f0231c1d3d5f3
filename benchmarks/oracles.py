"""Answer oracles for the chowcalc benchmark.

Every oracle is computed here, independently of the library: closed
formulas (complete-intersection Hilbert series, the hook-length degree of a
Grassmannian, the hook-content formula), literature values for the genus-6
kappa ring, and plain Fraction elimination for pairing matrices.  Each
``expect_*`` function returns a predicate on one answer line as the CLI
prints it.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable

Oracle = Callable[[str], bool]

# Literature values for R*(M_6) = Q[k1,k2]/(127 k1^3 - 2304 k1 k2,
# 113 k1^4 - 36864 k2^2): Hilbert function and the README normal form.
M6_HILBERT = (1, 1, 2, 1, 1)
M6_NF_K1_4 = "36864/113 * k2^2"

VERIFY_CHECKS = 12
VERIFY_FIELDS = frozenset(
    {"check_id", "anchor", "status", "computed", "expected", "provenance", "millis"}
)


def ci_hilbert(weights: tuple[int, ...], degrees: tuple[int, ...], upto: int) -> tuple[int, ...]:
    """Coefficients of prod(1 - t^d_i) / prod(1 - t^w_j) in degrees 0..upto."""
    num = [1] + [0] * (sum(degrees) + upto)
    for d in degrees:
        for i in range(len(num) - 1, d - 1, -1):
            num[i] -= num[i - d]
    for w in weights:
        for i in range(w, len(num)):
            num[i] += num[i - w]
    return tuple(num[: upto + 1])


def m6_hilbert(upto: int) -> tuple[int, ...]:
    return tuple(M6_HILBERT[d] if d < len(M6_HILBERT) else 0 for d in range(upto + 1))


def plucker_degree(k: int, n: int) -> int:
    """Degree of G(k, n) in its Pluecker embedding, by the hook-length formula
    (k(n-k))! * prod_{i<k} i! / (n-k+i)!."""
    num = factorial(k * (n - k)) * prod(factorial(i) for i in range(k))
    den = prod(factorial(n - k + i) for i in range(k))
    return num // den


def _hooks(parts: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(row, column, hook length) for every cell of a partition."""
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    return [(i, j, p - j + conj[j] - i - 1) for i, p in enumerate(parts) for j in range(p)]


def schur_dim(parts: tuple[int, ...], n: int) -> int:
    """dim of the GL_n representation S_lambda: prod (n + j - i) / hook."""
    cells = _hooks(parts)
    return prod(n + j - i for i, j, _ in cells) // prod(h for _, _, h in cells)


def syt_count(parts: tuple[int, ...]) -> int:
    return factorial(sum(parts)) // prod(h for _, _, h in _hooks(parts))


def parse_tuple(answer: str) -> tuple[Fraction, ...] | None:
    m = re.fullmatch(r"\((.*)\)", answer.strip())
    if not m:
        return None
    try:
        return tuple(Fraction(x) for x in m.group(1).split(",") if x.strip())
    except ValueError:
        return None


def parse_matrix(answer: str) -> list[list[Fraction]] | None:
    m = re.fullmatch(r"\[(.*)\]", answer.strip())
    if not m:
        return None
    try:
        return [
            [Fraction(x) for x in row.split(",")] for row in re.findall(r"\[([^\[\]]*)\]", m.group(1))
        ]
    except ValueError:
        return None


def rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def parse_schur_sum(answer: str) -> dict[tuple[int, ...], int] | None:
    out: dict[tuple[int, ...], int] = {}
    for term in answer.strip().split(" + "):
        m = re.fullmatch(r"(?:(\d+)\*)?S\(([\d,]*)\)", term)
        if not m:
            return None
        parts = tuple(int(p) for p in m.group(2).split(",") if p)
        out[parts] = out.get(parts, 0) + int(m.group(1) or 1)
    return out


# -- predicates ---------------------------------------------------------------


def expect_exact(text: str) -> Oracle:
    return lambda answer: answer.strip() == text


def expect_tuple(values: tuple[int, ...]) -> Oracle:
    return lambda answer: parse_tuple(answer) == tuple(Fraction(v) for v in values)


def expect_invertible_pairing(rows: int, cols: int) -> Oracle:
    """The pairing matrix has the Hilbert-function shape, is square and has
    full rank."""

    def check(answer: str) -> bool:
        m = parse_matrix(answer)
        return (
            m is not None
            and rows == cols == len(m)
            and all(len(r) == cols for r in m)
            and rank(m) == rows
        )

    return check


def expect_lr(lam: tuple[int, ...], mu: tuple[int, ...]) -> Oracle:
    """s_lam * s_mu: every term has size |lam|+|mu|, and two independent
    counts agree, GL_N dimensions (N = |lam|+|mu|) and standard tableaux."""
    n = sum(lam) + sum(mu)

    def check(answer: str) -> bool:
        terms = parse_schur_sum(answer)
        if not terms or any(sum(p) != n for p in terms):
            return False
        dims = sum(c * schur_dim(p, n) for p, c in terms.items())
        syts = sum(c * syt_count(p) for p, c in terms.items())
        return dims == schur_dim(lam, n) * schur_dim(mu, n) and syts == comb(
            n, sum(lam)
        ) * syt_count(lam) * syt_count(mu)

    return check


def verify_report(stdout: str) -> bool:
    """``verify --format json``: all checks pass and each record has exactly
    the seven pinned fields."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return False
    return (
        isinstance(report, list)
        and len(report) == VERIFY_CHECKS
        and all(isinstance(r, dict) and set(r) == VERIFY_FIELDS for r in report)
        and all(r["status"] == "pass" for r in report)
    )
