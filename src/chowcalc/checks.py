"""The verification suite: every identity the library is built to certify,
run exactly (tolerance zero) and reported deterministically.

Each check carries a self-contained statement of the identity it tests
("anchor") and a provenance tag: 'literature' for classical facts,
'derived-oracle' for values frozen from an independent hand or brute-force
computation, 'direct' for definitional bookkeeping.

A check returns the two values it compares, ``(computed, expected)``, as
library values: numbers, polynomials, bundles, Schur decompositions and
tuples of these.  ``run_suite`` alone decides the verdict, ``pass`` exactly
when ``computed == expected``, and prints both sides with the language's
printer ``format_value``, so a failing check shows where they differ.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from typing import Any, Callable

from . import bundles, geometry, grr, quotient, schur
from ._record import record
from .algebra import GradedPoly, VariableTable, format_poly, monomial_basis
from .evaluator import DEFAULT_TRUNCATION, Evaluator, format_value


@record
class CheckResult:
    check_id: str
    anchor: str
    provenance: str
    status: str  # 'pass' | 'fail' | 'error'
    computed: str
    expected: str
    millis: float

    def as_dict(self) -> dict:
        """The record's fields by name, with `millis` rounded to the microsecond."""
        fields = {name: getattr(self, name) for name in self.__annotations__}
        return fields | {"millis": round(self.millis, 3)}


@record
class Check:
    check_id: str
    anchor: str
    provenance: str
    run: Callable[[int], tuple[Any, Any]]  # truncation -> (computed, expected)


RANDOM_SEED = 20240601  # of the random-identities battery


class UnknownCheckError(ValueError):
    pass


_REGISTRY: list[Check] = []


def _check(check_id: str, anchor: str, provenance: str):
    def register(fn):
        _REGISTRY.append(Check(check_id, anchor, provenance, fn))
        return fn

    return register


def check_ids() -> tuple[str, ...]:
    return tuple(sorted(c.check_id for c in _REGISTRY))


def run_suite(
    only: tuple[str, ...] | None = None, trunc: int = DEFAULT_TRUNCATION
) -> list[CheckResult]:
    """Run the checks named in `only`, each once and in id order, or every
    check when `only` is None, at truncation order `trunc`; an empty
    selection is an UnknownCheckError."""
    # grr-constants reads kappa1 and ch2, so truncation 2 is the least order
    # at which every check is defined.
    if not isinstance(trunc, int) or trunc < 2:
        raise ValueError(f"truncation must be an integer >= 2, got {trunc!r}")
    by_id = {c.check_id: c for c in _REGISTRY}
    if only is None:
        selected = sorted(by_id)
    else:
        if not only:
            raise UnknownCheckError("no check selected")
        unknown = [cid for cid in only if cid not in by_id]
        if unknown:
            raise UnknownCheckError(f"unknown check(s): {', '.join(unknown)}")
        selected = sorted(set(only))
    results = []
    for cid in selected:
        chk = by_id[cid]
        start = time.perf_counter()
        try:
            computed, expected = chk.run(trunc)
            status = "pass" if computed == expected else "fail"
            computed, expected = format_value(computed), format_value(expected)
        except Exception as exc:  # a crash is a failed check, not a crashed suite
            status = "error"
            computed = f"{type(exc).__name__}: {exc}"
            expected = "no exception"
        elapsed = (time.perf_counter() - start) * 1000
        results.append(
            CheckResult(
                check_id=cid,
                anchor=chk.anchor,
                provenance=chk.provenance,
                status=status,
                computed=computed,
                expected=expected,
                millis=elapsed,
            )
        )
    return results


def format_text(results: list[CheckResult]) -> str:
    lines = []
    width = max((len(r.check_id) for r in results), default=0)
    for r in results:
        mark = {"pass": "PASS", "error": "ERROR"}.get(r.status, "FAIL")
        lines.append(f"{mark}  {r.check_id.ljust(width)}  {r.millis:8.1f} ms  {r.anchor}")
        if r.status != "pass":
            lines.append(f"      computed: {r.computed}")
            lines.append(f"      expected: {r.expected}")
    passed = sum(r.status == "pass" for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)


def format_json(results: list[CheckResult]) -> str:
    return json.dumps([r.as_dict() for r in results], indent=2, sort_keys=True)


def exit_code(results: list[CheckResult]) -> int:
    return 0 if all(r.status == "pass" for r in results) else 1


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def _m6_facts(pres: quotient.RingPresentation) -> tuple:
    """What the presentation and sensitivity checks compare: the Hilbert
    function through degree 8, whether the ring is Gorenstein with socle in
    degree 4 (every pairing into degree 4 perfect), and then the degree-2
    pairing determinant (None otherwise)."""
    gorenstein = quotient.is_poincare_duality(pres, 4)
    det = quotient.pairing_matrix(pres, 2, 4).determinant() if gorenstein else None
    return quotient.hilbert_function(pres, 8), gorenstein, det


# the facts of the genus-6 kappa ring
M6_FACTS = ((1, 1, 2, 1, 1, 0, 0, 0, 0), True, Fraction(36608, 12769))


@_check(
    "m6-presentation",
    "Q[k1,k2]/(127k1^3-2304k1k2, 113k1^4-36864k2^2), weights (1,2): Hilbert "
    "function (1,1,2,1,1) then zeros through degree 8, 1-dimensional socle in "
    "degree 4, all multiplication pairings perfect, degree-2 pairing "
    "determinant 36608/12769",
    "derived-oracle",
)
def _run_m6(trunc: int):
    return _m6_facts(quotient.m6_presentation()), M6_FACTS


@_check(
    "looijenga-vanishing",
    "the genus-6 kappa ring vanishes in degrees 5 through 8 (top degree is "
    "g - 2 = 4)",
    "literature",
)
def _run_looijenga(trunc: int):
    return quotient.hilbert_function(quotient.m6_presentation(), 8)[5:], (0, 0, 0, 0)


@_check(
    "low-genus-rings",
    "Q[k1]/(k1^(g-1)) has Hilbert function of g-1 ones then zeros, for "
    "g = 2..5",
    "literature",
)
def _run_low_genus(trunc: int):
    genera = range(2, 6)
    computed = tuple(
        quotient.hilbert_function(quotient.kappa1_power_presentation(g), g + 1) for g in genera
    )
    return computed, tuple((1,) * (g - 1) + (0, 0, 0) for g in genera)


@_check(
    "plucker-lemma",
    "Sym^2(wedge^2 C^5) = S_(2,2) + S_(1,1,1,1) with dimensions 50 + 5 = 55, "
    "and wedge^4 V = (dual V) (x) det V in all Chern degrees for rank-5 V",
    "derived-oracle",
)
def _run_plucker(trunc: int):
    parts = schur.Partition((2, 2)), schur.Partition((1, 1, 1, 1))
    v = grr.mukai_bundle(trunc)
    det_v = GradedPoly.variable(grr.mukai_model_table(trunc), "v1")
    return (
        (
            schur.decompose_sym2_wedge2(5),
            tuple(schur.dim_schur(p, 5) for p in parts),
            bundles.wedge_power(v, 4),
        ),
        (
            schur.SchurDecomposition.from_dict(dict.fromkeys(parts, 1)),
            (50, 5),
            bundles.twist(bundles.dual(v), det_v),
        ),
    )


@_check(
    "mukai-bookkeeping",
    "quadratic forms on P^5 span 21 = C(7,2) dimensions, 21 - 5 Pluecker "
    "quadrics leave a rank-16 residual bundle, dim G(4,10) + 16 = 40; the "
    "linear-forms sequence 0 -> F -> wedge^2 V -> E' -> 0 has ranks "
    "4 + 6 = 10 = C(5,2), and its quotient series vanishes identically "
    "beyond degree 4 for an honest rank-4 subbundle",
    "derived-oracle",
)
def _run_mukai(trunc: int):
    forms = geometry.forms_dim(5, 2)
    residual = forms - 5
    f = grr.plucker_sequence_decomposition(trunc)
    middle = bundles.wedge_power(grr.mukai_bundle(trunc), 2)
    ell = GradedPoly.variable(f.table, "ell")
    eprime = bundles.twist(grr.hodge_model_bundle(trunc), ell)
    computed = (
        forms,
        residual,
        geometry.Grassmannian(4, 10).dim + residual,
        (f.rank, eprime.rank, middle.rank),
        # the round trip at truncation 6 is visible past degree 4
        _whitney_roundtrip(f.rank, trunc),
        _whitney_roundtrip(f.rank, 6),
    )
    return computed, (21, 16, 40, (4, 6, 10), True, True)


def _whitney_roundtrip(rank: int, trunc: int) -> bool:
    """Whether a rank-`rank` sub with free classes f_1..f_4, summed with a
    free rank-6 class and divided by it again, comes back with its own
    classes and nothing beyond its rank, as it does exactly when no f_i
    with i <= trunc sits above the rank."""
    aux = VariableTable.indexed(("f", 4), ("g", trunc))
    sub = bundles.free_bundle(rank, aux, "f", trunc)
    quot = bundles.free_bundle(6, aux, "g", trunc)
    recovered = bundles.sequence_quotient(bundles.direct_sum(sub, quot), quot)
    above = all(c.is_zero() for c in recovered.chern[rank:])
    return recovered.rank == rank and recovered.chern == sub.chern and above


@_check(
    "canonical-quadrics",
    "quadrics through a canonical genus-g curve: g(g+1)/2 - (3g-3) = "
    "(g-2)(g-3)/2 = 6, 3, 1 for g = 6, 5, 4, with 3g-3 the pushforward rank "
    "of the squared dualizing sheaf",
    "literature",
)
def _run_quadrics(trunc: int):
    computed = tuple(
        (g, geometry.canonical_quadrics(g), g * (g + 1) // 2 - grr.pushforward_rank(2, g),
         grr.pushforward_rank(2, g))
        for g in (6, 5, 4)
    )
    return computed, tuple((g, q, q, 3 * g - 3) for g, q in ((6, 6), (5, 3), (4, 1)))


@_check(
    "maroni-adjunction",
    "on the Hirzebruch surface F_n the class 3S + kF has genus g exactly for "
    "k = (g - 3n + 2)/2; k is non-integral precisely when n and g have "
    "different parities (g = 4..12, 3n <= g + 2)",
    "derived-oracle",
)
def _run_maroni(trunc: int):
    cases = [(g, n, geometry.maroni_k(g, n)) for g in range(4, 13) for n in range((g + 2) // 3 + 1)]
    surface = {n: geometry.surface_classes(n) for _, n, _ in cases}
    # (g, n, k) for every integer k at which 3S + kF has genus g, among the
    # solution itself when it is integral and the integers near it otherwise
    reached = tuple(
        (g, n, kk)
        for g, n, k in cases
        for kk in ((int(k),) if k.denominator == 1 else range(int(k) - 2, int(k) + 3))
        if geometry.genus_of_class(n, 3 * surface[n]["S"] + kk * surface[n]["F"]) == g
    )
    return reached, tuple((g, n, k) for g, n, k in cases if geometry.maroni_admissible(g, n))


@_check(
    "strata-dimensions",
    "genus-6 strata have dimensions (15, 13, 12, 11, 10) = (general curves, "
    "trigonal, plane quintics, hyperelliptic, bi-elliptic), the genus-6 "
    "Maroni divisor has dimension 12, and the genus-5 strata are (12, 11, 9); "
    "each recomputed from its quotient presentation",
    "derived-oracle",
)
def _run_strata(trunc: int):
    computed = (
        geometry.stratum_dimensions(6),
        geometry.maroni_divisor_dim(),
        geometry.stratum_dimensions(5),
    )
    return computed, ((15, 13, 12, 11, 10), 12, (12, 11, 9))


@_check(
    "grr-constants",
    "pushforward constants on the universal curve: c1(Hodge) = kappa1/12; "
    "ch2(Hodge) = 0 (the even character components of the Hodge bundle "
    "vanish; via todd = 1 - psi/2 + psi^2/12 + 0 psi^3 the psi^3 coefficient "
    "of e^psi * todd is 1/6 - 1/4 + 1/12 = 0); ch1 of the pushed squared "
    "dualizing sheaf = 13 kappa1/12 with rank 3g - 3",
    "derived-oracle",
)
def _run_grr(trunc: int):
    k1 = grr.kappa(trunc, 1)
    genera = range(2, 9)
    hodge = [grr.hodge_bundle(g, trunc) for g in genera]
    ch2 = [grr.ch_pushforward_omega_power(2, g, trunc) for g in genera]
    six = genera.index(6)
    ch_hodge = bundles.chern_character(hodge[six])
    computed = (
        ch_hodge[1],
        ch_hodge[2],
        ch2[six][1],
        # lambda1 and the rank of the pushed squared dualizing sheaf, g = 2..8
        tuple(h.c(1) for h in hodge),
        tuple(ch[0] for ch in ch2),
    )
    expected = (k1 / 12, 0, Fraction(13, 12) * k1, (k1 / 12,) * 7, tuple(3 * g - 3 for g in genera))
    return computed, expected


@_check(
    "sym-power-calculus",
    "c(Sym^2 of rank 2) = (1, 3w1, 2w1^2 + 4w2, 4w1w2); equating first Chern "
    "classes in Sym^(g-1) W = Hodge gives w1 = lambda1/15 at g = 6; the "
    "rank-5 model with trivial determinant gives c1(L) = lambda1/5",
    "derived-oracle",
)
def _run_sym_calc(trunc: int):
    wtab = VariableTable.indexed(("w", 2))
    w1, w2 = (GradedPoly.variable(wtab, name) for name in wtab.names)
    computed = (
        bundles.sym_power(bundles.free_bundle(2, wtab, "w", 3), 2),
        bundles.solve_hyperelliptic_twist(6).classes[0][1].coefficient((1, 0)),
        bundles.solve_unimodular_twist(5).classes[0][1].coefficient((1, 0)),
    )
    sym2 = bundles.FormalBundle(3, (3 * w1, 2 * w1**2 + 4 * w2, 4 * w1 * w2), wtab)
    return computed, (sym2, Fraction(1, 15), Fraction(1, 5))


@_check(
    "sensitivity",
    "perturbing any single coefficient of the genus-6 presentation by one "
    "(e.g. 127 -> 128) breaks at least one of the presentation identities",
    "derived-oracle",
)
def _run_sensitivity(trunc: int):
    base = quotient.KAPPA_M6_COEFFS
    perturbed = [tuple(c + 1 if j == i else c for j, c in enumerate(base)) for i in range(4)]
    # the perturbations whose presentation keeps every fact of the genus-6 ring
    undetected = tuple(p for p in perturbed if _m6_facts(quotient.m6_presentation(p)) == M6_FACTS)
    return undetected, ()


@_check(
    "random-identities",
    "seeded random battery: Whitney sum and quotient roundtrips, twist "
    "additivity, dual involution, Chern character roundtrip, symmetric and "
    "exterior powers on explicit sums of line bundles, "
    "Littlewood-Richardson dimension identities, Pluecker degree = standard "
    "tableau count, printed polynomials read back as themselves",
    "derived-oracle",
)
def _run_random(trunc: int):
    """Each identity compares as its difference with zero: its two sides are
    random classes through degree `trunc`, too long to print.  A bundle's
    difference is that of its ranks and of its Chern classes."""
    rng = random.Random(RANDOM_SEED)
    table = VariableTable(("a1", "b1", "u", "v"), (1, 1, 1, 2))
    sides: list[tuple[Any, Any]] = []  # the two sides of each identity

    def rand_poly(d: int, bound: int) -> GradedPoly:
        """Integer coefficients in [-bound, bound] on the degree-d monomials."""
        return GradedPoly(table, {e: rng.randint(-bound, bound) for e in monomial_basis(table, d)})

    def rand_poly_deg1() -> GradedPoly:
        return rand_poly(1, 3)  # in a1, b1, u: v has weight 2

    def rand_bundle(rank: int) -> bundles.FormalBundle:
        cs = tuple(rand_poly(i, 2) for i in range(1, trunc + 1))
        return bundles.FormalBundle(rank, cs, table)

    def difference(x: Any, y: Any) -> Any:
        if isinstance(x, bundles.FormalBundle):
            top = max(len(x.chern), len(y.chern))
            return (x.rank - y.rank, *(difference(x.c(i), y.c(i)) for i in range(1, top + 1)))
        return 0 if x == y else x - y  # the same value, without subtracting long equal sides

    def zero(y: Any) -> Any:
        """The difference of an identity that holds, whose right side is y."""
        return (0,) * (1 + len(y.chern)) if isinstance(y, bundles.FormalBundle) else 0

    for _ in range(4):
        a = rand_bundle(rng.randint(4, 6))
        b = rand_bundle(rng.randint(4, 6))
        sides.append((bundles.sequence_quotient(bundles.direct_sum(a, b), a), b))
        t1, t2 = rand_poly_deg1(), rand_poly_deg1()
        sides.append((bundles.twist(bundles.twist(a, t1), t2), bundles.twist(a, t1 + t2)))
        sides.append((bundles.dual(bundles.dual(a)), a))
        rank3 = rand_bundle(3)
        sides.append((bundles.chern_from_character(bundles.chern_character(rank3), 3), rank3))

    # split bundles: operations agree with explicit products over line classes
    lines = [rand_poly_deg1() for _ in range(3)]
    split = bundles.bundle_from_line_classes(lines, trunc)
    wedge2 = [lines[0] + lines[1], lines[0] + lines[2], lines[1] + lines[2]]
    sym2 = [lines[i] + lines[j] for i in range(3) for j in range(i, 3)]
    sides.append((bundles.wedge_power(split, 2), bundles.bundle_from_line_classes(wedge2, trunc)))
    sides.append((bundles.sym_power(split, 2), bundles.bundle_from_line_classes(sym2, trunc)))

    # LR dimension identities
    small = [schur.Partition(p) for p in ((1,), (2,), (1, 1), (2, 1), (3,))]
    for _ in range(6):
        lam, mu = rng.choice(small), rng.choice(small)
        n = rng.randint(2, 5)
        terms = schur.lr_product(lam, mu).terms
        dims = schur.dim_schur(lam, n) * schur.dim_schur(mu, n)
        sides.append((dims, sum(m * schur.dim_schur(nu, n) for nu, m in terms)))

    for k, n in ((1, 4), (2, 4), (2, 5), (3, 6)):
        rect = schur.Partition((n - k,) * k)
        sides.append((geometry.Grassmannian(k, n).plucker_degree(), schur.syt_count(rect)))

    # the printer users see reads back through the language
    ev = Evaluator(trunc)
    ev.env.update({name: GradedPoly.variable(table, name) for name in table.names})
    for _ in range(4):
        scale = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = scale * sum((rand_poly(d, 5) for d in range(4)), GradedPoly.zero(table))
        sides.append((ev.run(format_poly(p)), p))

    return tuple(difference(x, y) for x, y in sides), tuple(zero(y) for _, y in sides)
