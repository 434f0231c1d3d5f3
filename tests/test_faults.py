"""The fault catalogue: which checks of `chowcalc verify` catch which fault.

Each row plants one fault by monkeypatching one library function in every
module that binds it, runs `run_suite` at each listed truncation, and
compares the set of checks that do not pass with the row.  A change in which
check catches a fault shows as a diff here.  A fault no check catches keeps
its row, with an empty set, until a derived comparison catches it; its
witness, a small library call whose value the fault changes, shows that the
fault is planted all the same.
"""
from functools import _lru_cache_wrapper
from math import comb
from typing import Any, Callable, NamedTuple

import pytest

from chowcalc import algebra, bundles, checks, evaluator, geometry, grr, quotient, schur
from chowcalc.algebra import GradedPoly, VariableTable
from chowcalc.schur import Partition

MODULES = (algebra, bundles, checks, evaluator, geometry, grr, quotient, schur)

T = VariableTable(("x", "y"), (1, 2))
X = GradedPoly.variable(T, "x")
FIVE_LINES = bundles.bundle_from_line_classes([X] * 5, 5)  # c_5 = x^5
SURFACE_E, SURFACE_F = (GradedPoly.variable(geometry.SURFACE_TABLE, v) for v in ("E", "F"))


class Fault(NamedTuple):
    id: str
    module: Any
    name: str
    plant: Callable[[Callable], Callable]  # the original function -> the faulty one
    failing: dict[int, set[str]]  # truncation -> the checks that do not pass
    witness: Callable[[], Any]  # a value the fault changes


def _dual_unsigned_above_4(dual):
    def faulty(b):
        d = dual(b)
        return bundles.FormalBundle(d.rank, d.chern[:4] + b.chern[4:], d.table)

    return faulty


def _chern_from_character_cut_at_4(chern_from_character):
    def faulty(ch, rank):
        b = chern_from_character(ch, rank)
        cut = tuple(c * 0 for c in b.chern[4:])
        return bundles.FormalBundle(b.rank, b.chern[:4] + cut, b.table)

    return faulty


def _h0_drops_its_last_piece(h0_hirzebruch):
    def faulty(n, c):
        a, b = int(c.coefficient((1, 0))), int(c.coefficient((0, 1)))
        return h0_hirzebruch(n, c) - max(0, b - a * n + 1)

    return faulty


def _hirzebruch_relation_sign_flipped(hirzebruch_ring):
    def faulty(n):
        e, f = SURFACE_E, SURFACE_F
        return quotient.RingPresentation(geometry.SURFACE_TABLE, (f * f, e * e - n * e * f))

    return faulty


def _hilbert_stops_after_one_zero(hilbert_function):
    def faulty(pres, max_d):
        h = hilbert_function(pres, max_d)
        stop = h.index(0) + 1 if 0 in h else len(h)
        return h[:stop] + (0,) * (len(h) - stop)

    return faulty


def _strips_stack_no_two_boxes(vertical_strips):
    """The dual Pieri rule without its stacking clause: a row takes a box only
    below a longer row, so no strip puts two boxes in one column."""

    def faulty(lam, m, k, width):
        rows = lam + (0,) * (k - len(lam))
        for nu in vertical_strips(lam, m, k, width):
            grown = [i for i, p in enumerate(nu) if p > rows[i]]
            if all(i == 0 or rows[i - 1] > rows[i] for i in grown):
                yield nu

    return faulty


def _last_pair_dropped(linear_combination):
    def faulty(table, terms):
        terms = list(terms)
        return linear_combination(table, terms[:-1] if len(terms) >= 2 else terms)

    return faulty


def _multiply_unsigned(multiply):
    """Grassmannian.multiply without the (-1)^degree of each monomial."""

    def faulty(self, x, lam):
        out: dict = {}
        for exps, q in x.items():
            mono = GradedPoly.monomial(x.table, exps, q)
            for nu, c in multiply(self, mono, lam).items():
                out[nu] = out.get(nu, 0) + (-1) ** mono.degree() * c
        return {nu: c for nu, c in out.items() if c}

    return faulty


FAULTS = [
    Fault(
        "dim_schur off by one on three or more rows", schur, "dim_schur",
        lambda f: lambda lam, n: f(lam, n) + (lam.length >= 3),
        {4: {"plucker-lemma", "random-identities"}, 8: {"plucker-lemma", "random-identities"}},
        lambda: schur.dim_schur(Partition((1, 1, 1)), 3),
    ),
    Fault(
        "syt_count off by one from size 7", schur, "syt_count",
        lambda f: lambda lam: f(lam) + (lam.size >= 7),
        {4: {"random-identities"}, 8: {"random-identities"}},
        lambda: schur.syt_count(Partition((7,))),
    ),
    Fault(
        "h0_hirzebruch drops its last piece", geometry, "h0_hirzebruch",
        _h0_drops_its_last_piece,
        {4: {"strata-dimensions"}, 8: {"strata-dimensions"}},
        lambda: geometry.h0_hirzebruch(0, geometry.surface_classes(0)["E"]),
    ),
    Fault(
        "hirzebruch_ring relation reads E^2 - n*E*F", geometry, "hirzebruch_ring",
        _hirzebruch_relation_sign_flipped,
        {4: {"maroni-adjunction"}, 8: {"maroni-adjunction"}},
        lambda: geometry.intersect(2, SURFACE_E, SURFACE_E),  # -2 on F_2
    ),
    Fault(
        "maroni_divisor_dim returns 11", geometry, "maroni_divisor_dim",
        lambda f: lambda: 11,
        {4: {"strata-dimensions"}, 8: {"strata-dimensions"}},
        lambda: geometry.maroni_divisor_dim(),
    ),
    # tier-1 also catches it at truncation 4:
    # test_bundles.py::test_chern_numbers_of_bundle_functors_agree_with_roots[3-6]
    Fault(
        "chern_from_character drops c_5 and above", bundles, "chern_from_character",
        _chern_from_character_cut_at_4,
        {4: set(), 8: {"plucker-lemma", "random-identities"}},
        lambda: bundles.sym_power(FIVE_LINES, 1),
    ),
    Fault(
        "dual misses the sign above degree 4", bundles, "dual",
        _dual_unsigned_above_4,
        {4: set(), 8: {"plucker-lemma"}},
        lambda: bundles.dual(FIVE_LINES),
    ),
    # tier-1 also catches it:
    # test_bundles.py::test_twist_multiplies_the_character_by_e_to_the_class
    Fault(
        "_binomial takes C(m - n, m) for negative n", bundles, "_binomial",
        lambda f: lambda n, m: f(n, m) if n >= 0 else (-1) ** m * comb(m - n, m),
        {4: set(), 8: set()},
        # a rank-0 class with c_1 != 0, which twist reads above its rank
        lambda: bundles.twist(bundles.FormalBundle(0, (X, X * 0), T), X),
    ),
    # tier-1 also catches it: test_grr.py::test_push_psi_is_degree_of_relative_dualizing_sheaf
    Fault(
        "push_psi reads kappa_0 as 2g", grr, "push_psi",
        lambda f: lambda s: f(grr.PsiSeries(s.genus + 1, s.coeffs)),
        {4: {"grr-constants"}, 8: {"grr-constants"}},
        lambda: grr.push_psi(grr.psi(6, 4)),  # psi pushes to 2g - 2 = 10
    ),
    # tier-1 also catches it: test_geometry.py::test_multiply_in_the_schubert_basis
    Fault(
        "_vertical_strips stacks no two boxes of a strip", geometry, "_vertical_strips",
        _strips_stack_no_two_boxes,
        {4: {"random-identities"}, 8: {"random-identities"}},
        lambda: schur.lr_product(Partition((1, 1)), Partition((1, 1))),  # only S(2,1,1) is left
    ),
    # tier-1 also catches it:
    # test_grr.py::test_omega_power_times_todd_is_the_bernoulli_polynomial_series
    Fault(
        "bernoulli(6) has the wrong sign", grr, "bernoulli",
        lambda f: lambda n: -f(n) if n == 6 else f(n),
        {4: set(), 8: set()},
        lambda: grr.bernoulli(6),
    ),
    # tier-1 also catches it:
    # test_quotient.py::test_hilbert_function_of_a_complete_intersection_is_its_series
    Fault(
        "hilbert_function stops after one zero piece", quotient, "hilbert_function",
        _hilbert_stops_after_one_zero,
        {4: set(), 8: set()},
        # Q[x, y]/(x) with y of weight 2 is zero in every odd degree only
        lambda: quotient.hilbert_function(quotient.RingPresentation(T, (X,)), 2),
    ),
    # tier-1 also catches it: test_schur.py::test_lr_product_of_degree_16,
    # test_schur.py::test_lr_product_matches_the_tableau_rule,
    # test_schur.py::test_lr_product_from_characters and
    # test_golden.py::test_output_matches_golden_file[eval.txt]
    Fault(
        "lr_product sets every multiplicity to 1", schur, "lr_product",
        lambda f: lambda lam, mu: schur.SchurDecomposition(
            tuple((p, 1) for p, _ in f(lam, mu).terms)
        ),
        {4: set(), 8: set()},
        lambda: schur.lr_product(Partition((2, 1)), Partition((2, 1))),  # 2 * S(3,2,1)
    ),
    Fault(
        "linear_combination drops its last pair", algebra, "linear_combination",
        _last_pair_dropped,
        {t: {"grr-constants", "mukai-bookkeeping", "plucker-lemma", "random-identities",
             "sym-power-calculus"} for t in (4, 8)},
        lambda: algebra.linear_combination(T, [(1, X, X), (1, X, X)]),  # 2 * x^2
    ),
    Fault(
        "series_quotient negates q_5 and above", algebra, "series_quotient",
        lambda f: lambda t, s, trunc: [q if d < 5 else -q for d, q in enumerate(f(t, s, trunc))],
        {4: set(), 8: {"random-identities"}},
        lambda: algebra.series_quotient([X ** 0], [X ** 0, X], 5),  # q_5 = -x^5
    ),
    # an integral is no witness: every top-degree monomial on G(2, 4) has even degree
    Fault(
        "Grassmannian.multiply loses its per-monomial sign", geometry, "Grassmannian.multiply",
        _multiply_unsigned,
        {4: {"random-identities"}, 8: {"random-identities"}},
        lambda: geometry.Grassmannian(2, 4).multiply(geometry.Grassmannian(2, 4).chern_sub(1), ()),
    ),
]


def _clear_caches():
    """Empty every lru_cache of the library, so that no value computed
    without the fault hides it, and none computed with it outlives it."""
    for module in MODULES:
        for value in vars(module).values():
            if isinstance(value, _lru_cache_wrapper):
                value.cache_clear()


@pytest.fixture
def clean_caches():
    _clear_caches()
    yield
    _clear_caches()


def _plant(monkeypatch, fault):
    """Bind the faulty function under every name that binds the original, and
    on the class that owns it when the fault's name is `Class.method`."""
    owner, _, attr = fault.name.rpartition(".")
    holder = getattr(fault.module, owner) if owner else fault.module
    original = getattr(holder, attr)
    faulty = fault.plant(original)
    monkeypatch.setattr(holder, attr, faulty)
    for module in MODULES:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, faulty)


def _failing(trunc):
    return {r.check_id for r in checks.run_suite(None, trunc) if r.status != "pass"}


@pytest.mark.parametrize("fault", FAULTS, ids=[f.id for f in FAULTS])
def test_the_checks_that_catch_each_fault(monkeypatch, clean_caches, fault):
    sound = fault.witness()
    _clear_caches()
    _plant(monkeypatch, fault)
    assert fault.witness() != sound
    assert {t: _failing(t) for t in fault.failing} == fault.failing


def test_a_fault_is_planted_in_every_module_that_binds_it(monkeypatch):
    fault = next(f for f in FAULTS if f.name == "chern_from_character")
    _plant(monkeypatch, fault)
    assert grr.chern_from_character is bundles.chern_from_character


def test_every_check_passes_without_a_fault(clean_caches):
    assert _failing(4) == _failing(8) == set()
