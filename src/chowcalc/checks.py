"""The verification suite: every identity the library is built to certify,
run exactly (tolerance zero) and reported deterministically.

Each check carries a self-contained statement of the identity it tests
("anchor") and a provenance tag: 'literature' for classical facts,
'derived-oracle' for values frozen from an independent hand or brute-force
computation, 'direct' for definitional bookkeeping.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from typing import Callable

from . import bundles, geometry, grr, quotient, schur
from ._record import record
from .algebra import GradedPoly, VariableTable, format_poly, monomial_basis
from .evaluator import DEFAULT_TRUNCATION, Evaluator


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
        return {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "status": self.status,
            "computed": self.computed,
            "expected": self.expected,
            "provenance": self.provenance,
            "millis": round(self.millis, 3),
        }


@record
class Check:
    check_id: str
    anchor: str
    provenance: str
    run: Callable[[int], tuple[bool, str, str]]  # truncation -> (ok, computed, expected)


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
            ok, computed, expected = chk.run(trunc)
            status = "pass" if ok else "fail"
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


def _m6_report(pres: quotient.RingPresentation) -> tuple[bool, str]:
    """Shared logic for the presentation check and the sensitivity check:
    Poincare duality in degree 4, plus the genus-6 Hilbert function and
    degree-2 pairing determinant."""
    report = quotient.is_poincare_duality(pres, 4)
    problems = []
    if report.hilbert != (1, 1, 2, 1, 1, 0, 0, 0, 0):
        problems.append(f"hilbert {report.hilbert}")
    if not report:
        problems.append(
            f"no Poincare duality in degree 4: socle dimension {report.socle_dimension}, "
            f"pairing ranks {report.pairing_ranks}"
        )
    else:
        det = quotient.pairing_matrix(pres, 2, 4).determinant()
        if det != Fraction(36608, 12769):
            problems.append(f"degree-2 pairing determinant {det}")
    return (not problems, "; ".join(problems) if problems else "all identities hold")


@_check(
    "m6-presentation",
    "Q[k1,k2]/(127k1^3-2304k1k2, 113k1^4-36864k2^2), weights (1,2): Hilbert "
    "function (1,1,2,1,1) then zeros through degree 8, 1-dimensional socle in "
    "degree 4, all multiplication pairings perfect, degree-2 pairing "
    "determinant 36608/12769",
    "derived-oracle",
)
def _run_m6(trunc: int):
    ok, msg = _m6_report(quotient.m6_presentation())
    return ok, msg, "Hilbert (1,1,2,1,1,0,0,0,0); det 36608/12769; perfect pairings"


@_check(
    "looijenga-vanishing",
    "the genus-6 kappa ring vanishes in degrees 5 through 8 (top degree is "
    "g - 2 = 4)",
    "literature",
)
def _run_looijenga(trunc: int):
    h = quotient.hilbert_function(quotient.m6_presentation(), 8)
    tail = h[5:]
    return tail == (0, 0, 0, 0), f"degrees 5..8 dims {tail}", "(0, 0, 0, 0)"


@_check(
    "low-genus-rings",
    "Q[k1]/(k1^(g-1)) has Hilbert function of g-1 ones then zeros, for "
    "g = 2..5",
    "literature",
)
def _run_low_genus(trunc: int):
    got = {}
    ok = True
    for g in range(2, 6):
        h = quotient.hilbert_function(quotient.kappa1_power_presentation(g), g + 1)
        expected = (1,) * (g - 1) + (0,) * (g + 2 - (g - 1))
        got[g] = h
        ok = ok and h == expected
    return ok, str(got), "g-1 ones then zeros for each g"


@_check(
    "plucker-lemma",
    "Sym^2(wedge^2 C^5) = S_(2,2) + S_(1,1,1,1) with dimensions 50 + 5 = 55, "
    "and wedge^4 V = (dual V) (x) det V in all Chern degrees for rank-5 V",
    "derived-oracle",
)
def _run_plucker(trunc: int):
    dec = schur.decompose_sym2_wedge2(5)
    expected_dec = schur.SchurDecomposition.from_dict(
        {schur.Partition((2, 2)): 1, schur.Partition((1, 1, 1, 1)): 1}
    )
    dims = (
        schur.dim_schur(schur.Partition((2, 2)), 5),
        schur.dim_schur(schur.Partition((1, 1, 1, 1)), 5),
    )
    v = grr.mukai_bundle(trunc)
    table = grr.mukai_model_table(trunc)
    lhs = bundles.wedge_power(v, 4)
    rhs = bundles.twist(bundles.dual(v), bundles.LineClass(GradedPoly.variable(table, "v1")))
    bundle_ok = lhs.rank == rhs.rank == 5 and all(
        lhs.c(i) == rhs.c(i) for i in range(1, trunc + 1)
    )
    ok = dec == expected_dec and dims == (50, 5) and bundle_ok
    return (
        ok,
        f"decomposition {dec}, dims {dims}, bundle identity {bundle_ok}",
        "S(1,1,1,1) + S(2,2), dims (50, 5), bundle identity True",
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
    total_dim = geometry.grass_dim(4, 10) + residual
    f = grr.plucker_sequence_decomposition(trunc)
    middle = bundles.wedge_power(grr.mukai_bundle(trunc), 2)
    ell = bundles.LineClass(GradedPoly.variable(f.table, "ell"))
    eprime = bundles.twist(grr.hodge_model_bundle(trunc), ell)
    vanishing = _whitney_roundtrip(f.rank, 6)  # visible past degree 4
    ok = (
        forms == 21
        and residual == 16
        and total_dim == 40
        and (f.rank, eprime.rank, middle.rank) == (4, 6, 10)
        and _whitney_roundtrip(f.rank, trunc)
        and vanishing
    )
    computed = (
        f"forms {forms}, residual rank {residual}, total space dim {total_dim}, "
        f"ranks {f.rank}+{eprime.rank}={middle.rank}, "
        f"vanishing beyond rank verified at truncation 6: {vanishing}"
    )
    return ok, computed, "21, 16, 40, 4+6=10, vanishing verified"


def _whitney_roundtrip(rank: int, trunc: int) -> bool:
    """Whether a rank-`rank` sub with free classes f_1..f_4, summed with a
    free rank-6 class and divided by it again, comes back with its own
    classes and nothing beyond its rank, as it does exactly when no f_i
    with i <= trunc sits above the rank."""
    aux = VariableTable.make(
        [(f"f{i}", i) for i in range(1, 5)] + [(f"g{i}", i) for i in range(1, trunc + 1)]
    )
    sub = bundles.FormalBundle(
        rank,
        tuple(
            GradedPoly.variable(aux, f"f{i}") if i <= 4 else GradedPoly.zero(aux)
            for i in range(1, trunc + 1)
        ),
        aux,
    )
    quot = bundles.FormalBundle(
        6, tuple(GradedPoly.variable(aux, f"g{i}") for i in range(1, trunc + 1)), aux
    )
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
    got = []
    ok = True
    for g, expected in ((6, 6), (5, 3), (4, 1)):
        count = geometry.canonical_quadrics(g)
        grr_rank = grr.pushforward_rank(2, g)
        sym_rank = g * (g + 1) // 2
        got.append((g, count, sym_rank - grr_rank))
        ok = ok and count == expected == sym_rank - grr_rank and grr_rank == 3 * g - 3
    return ok, str(got), "(6,6,6), (5,3,3), (4,1,1)"


@_check(
    "maroni-adjunction",
    "on the Hirzebruch surface F_n the class 3S + kF has genus g exactly for "
    "k = (g - 3n + 2)/2; k is non-integral precisely when n and g have "
    "different parities (g = 4..12, 3n <= g + 2)",
    "derived-oracle",
)
def _run_maroni(trunc: int):
    failures = []
    for g in range(4, 13):
        for n in range((g + 2) // 3 + 1):
            k = geometry.maroni_k(g, n)
            if geometry.maroni_admissible(g, n):
                if k.denominator != 1:
                    failures.append((g, n, "expected integral k"))
                    continue
                genus = geometry.genus_of_class(geometry.trigonal_class(g, n))
                if genus != g:
                    failures.append((g, n, f"genus {genus}"))
            else:
                if k.denominator == 1:
                    failures.append((g, n, "parity failure not detected"))
                    continue
                # no integer k nearby can reach genus g either
                for kk in range(int(k) - 2, int(k) + 3):
                    cls = 3 * geometry.section_S(n) + kk * geometry.fiber_F(n)
                    if geometry.genus_of_class(cls) == g:
                        failures.append((g, n, f"integer k={kk} reaches genus {g}"))
    return not failures, f"failures: {failures}" if failures else "all (g, n) agree", "no failures"


@_check(
    "strata-dimensions",
    "genus-6 strata have dimensions (15, 13, 12, 11, 10) = (general curves, "
    "trigonal, plane quintics, hyperelliptic, bi-elliptic), the genus-6 "
    "Maroni divisor has dimension 12, and the genus-5 strata are (12, 11, 9); "
    "each recomputed from its quotient presentation",
    "derived-oracle",
)
def _run_strata(trunc: int):
    g6 = geometry.stratum_dimensions(6)
    maroni = geometry.maroni_divisor_dim(6)
    g5 = geometry.stratum_dimensions(5)
    ok = g6 == (15, 13, 12, 11, 10) and maroni == 12 and g5 == (12, 11, 9)
    return (
        ok,
        f"g6 {g6}, maroni divisor {maroni}, g5 {g5}",
        "(15, 13, 12, 11, 10), 12, (12, 11, 9)",
    )


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
    hodge = grr.hodge_bundle(6, trunc)
    ch_hodge = bundles.chern_character(hodge)
    ch2 = grr.ch_pushforward_omega_power(2, 6, trunc)
    ranks_ok = all(
        grr.ch_pushforward_omega_power(2, g, trunc)[0].as_scalar() == 3 * g - 3
        for g in range(2, 9)
    )
    lam1_ok = all(grr.hodge_bundle(g, trunc).c(1) == k1 / 12 for g in range(2, 9))
    ok = (
        hodge.c(1) == k1 / 12
        and ch_hodge[1] == k1 / 12
        and ch_hodge[2].is_zero()
        and ch2[1] == Fraction(13, 12) * k1
        and ch2[0].as_scalar() == 15
        and ranks_ok
        and lam1_ok
    )
    computed = (
        f"c1(Hodge) = {format_poly(hodge.c(1))}, ch2(Hodge) = {format_poly(ch_hodge[2])}, "
        f"ch1(push omega^2) = {format_poly(ch2[1])}, rank = {ch2[0].as_scalar()}"
    )
    return ok, computed, "kappa1/12, 0, 13/12 kappa1, 15 (= 3g-3)"


@_check(
    "sym-power-calculus",
    "c(Sym^2 of rank 2) = (1, 3w1, 2w1^2 + 4w2, 4w1w2); equating first Chern "
    "classes in Sym^(g-1) W = Hodge gives w1 = lambda1/15 at g = 6; the "
    "rank-5 model with trivial determinant gives c1(L) = lambda1/5",
    "derived-oracle",
)
def _run_sym_calc(trunc: int):
    wtab = VariableTable(("w1", "w2"), (1, 2))
    w1 = GradedPoly.variable(wtab, "w1")
    w2 = GradedPoly.variable(wtab, "w2")
    w = bundles.FormalBundle(2, (w1, w2, GradedPoly.zero(wtab)), wtab)
    s2 = bundles.sym_power(w, 2)
    sym_ok = (
        s2.rank == 3
        and s2.c(1) == 3 * w1
        and s2.c(2) == 2 * w1**2 + 4 * w2
        and s2.c(3) == 4 * w1 * w2
    )
    hyp = bundles.solve_hyperelliptic_twist(6)
    uni = bundles.solve_unimodular_twist(5)
    ok = sym_ok and hyp.coefficient == Fraction(1, 15) and uni.coefficient == Fraction(1, 5)
    computed = (
        f"c(Sym^2) = ({format_poly(s2.c(1))}, {format_poly(s2.c(2))}, {format_poly(s2.c(3))}), "
        f"w1 = {hyp.coefficient} lambda1, c1(L) = {uni.coefficient} lambda1"
    )
    return ok, computed, "(3w1, 2w1^2+4w2, 4w1w2), 1/15, 1/5"


@_check(
    "sensitivity",
    "perturbing any single coefficient of the genus-6 presentation by one "
    "(e.g. 127 -> 128) breaks at least one of the presentation identities",
    "derived-oracle",
)
def _run_sensitivity(trunc: int):
    base = quotient.KAPPA_M6_COEFFS
    undetected = []
    for i in range(4):
        perturbed = tuple(c + 1 if j == i else c for j, c in enumerate(base))
        pres = quotient.m6_presentation(perturbed)
        ok, _ = _m6_report(pres)
        vanishing = quotient.hilbert_function(pres, 8)[5:] == (0, 0, 0, 0)
        if ok and vanishing:
            undetected.append(perturbed)
    return (
        not undetected,
        f"undetected perturbations: {undetected}" if undetected else "all 4 perturbations detected",
        "every single-coefficient perturbation detected",
    )


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
    rng = random.Random(RANDOM_SEED)
    table = VariableTable(("a1", "b1", "u", "v"), (1, 1, 1, 2))
    problems: list[str] = []

    def rand_poly(d: int, bound: int) -> GradedPoly:
        """Integer coefficients in [-bound, bound] on the degree-d monomials."""
        return GradedPoly(table, {e: rng.randint(-bound, bound) for e in monomial_basis(table, d)})

    def rand_poly_deg1() -> GradedPoly:
        return rand_poly(1, 3)  # in a1, b1, u: v has weight 2

    def rand_bundle(rank: int) -> bundles.FormalBundle:
        cs = tuple(rand_poly(i, 2) for i in range(1, trunc + 1))
        return bundles.FormalBundle(rank, cs, table)

    for trial in range(4):
        a = rand_bundle(rng.randint(4, 6))
        b = rand_bundle(rng.randint(4, 6))
        s = bundles.direct_sum(a, b)
        q = bundles.sequence_quotient(s, a)
        if q != bundles.FormalBundle(b.rank, b.chern, table):
            problems.append(f"whitney roundtrip failed on trial {trial}")
        t1, t2 = rand_poly_deg1(), rand_poly_deg1()
        tw = bundles.twist(bundles.twist(a, bundles.LineClass(t1)), bundles.LineClass(t2))
        tw2 = bundles.twist(a, bundles.LineClass(t1 + t2))
        if tw != tw2:
            problems.append(f"twist additivity failed on trial {trial}")
        if bundles.dual(bundles.dual(a)) != a:
            problems.append(f"dual involution failed on trial {trial}")
        rank3 = rand_bundle(3)
        back = bundles.chern_from_character(bundles.chern_character(rank3), 3)
        if any(back.c(i) != rank3.c(i) for i in range(1, trunc + 1)):
            problems.append(f"character roundtrip failed on trial {trial}")

    # split bundles: operations agree with explicit products over line classes
    lines = [rand_poly_deg1() for _ in range(3)]
    split = bundles.bundle_from_line_classes(lines, trunc)
    wedge2 = bundles.wedge_power(split, 2)
    explicit = bundles.bundle_from_line_classes(
        [lines[0] + lines[1], lines[0] + lines[2], lines[1] + lines[2]], trunc
    )
    if any(wedge2.c(i) != explicit.c(i) for i in range(1, trunc + 1)):
        problems.append("wedge^2 disagrees with the explicit split computation")
    sym2 = bundles.sym_power(split, 2)
    explicit_sym = bundles.bundle_from_line_classes(
        [lines[i] + lines[j] for i in range(3) for j in range(i, 3)], trunc
    )
    if any(sym2.c(i) != explicit_sym.c(i) for i in range(1, trunc + 1)):
        problems.append("sym^2 disagrees with the explicit split computation")

    # LR dimension identities
    small = [schur.Partition(p) for p in ((1,), (2,), (1, 1), (2, 1), (3,))]
    for _ in range(6):
        lam, mu = rng.choice(small), rng.choice(small)
        n = rng.randint(2, 5)
        lhs = schur.dim_schur(lam, n) * schur.dim_schur(mu, n)
        rhs = sum(
            m * schur.dim_schur(nu, n) for nu, m in schur.lr_product(lam, mu).terms
        )
        if lhs != rhs:
            problems.append(f"LR dimension identity failed for {lam} * {mu} at n={n}")

    for k, n in ((1, 4), (2, 4), (2, 5), (3, 6)):
        rect = schur.Partition(((n - k),) * k)
        if geometry.plucker_degree(k, n) != schur.syt_count(rect):
            problems.append(f"pluecker degree != SYT count for G({k},{n})")

    # the printer users see reads back through the language
    ev = Evaluator(trunc)
    ev.env.update({name: GradedPoly.variable(table, name) for name in table.names})
    for _ in range(4):
        scale = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = scale * sum((rand_poly(d, 5) for d in range(4)), GradedPoly.zero(table))
        if ev.run(format_poly(p)) != p:
            problems.append(f"{format_poly(p)!r} does not read back as itself")

    return (not problems, "; ".join(problems) if problems else "all identities hold", "no failures")
