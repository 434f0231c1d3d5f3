"""Acceptance suite: one test per release criterion, all exact (tolerance
zero).  Each test prints a single pass/fail line; the CLI `chowcalc verify`
runs the same identities as a standalone binary.
"""
import contextlib
from fractions import Fraction

from chowcalc import bundles, checks, geometry, grr, quotient, schur
from chowcalc.algebra import GradedPoly, VariableTable


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_01_m6_presentation():
    with criterion("m6-presentation"):
        m6 = quotient.m6_presentation()
        assert quotient.hilbert_function(m6, 8) == (1, 1, 2, 1, 1, 0, 0, 0, 0)
        assert quotient.graded_piece(m6, 4).dim == 1  # socle
        for i in range(5):
            mat = quotient.pairing_matrix(m6, i, 4)
            assert mat.rows == mat.cols and mat.rank() == mat.rows
        assert quotient.pairing_matrix(m6, 2, 4).determinant() == Fraction(36608, 12769)
        assert quotient.is_poincare_duality(m6, 4)


def test_02_looijenga_vanishing():
    with criterion("looijenga-vanishing"):
        h = quotient.hilbert_function(quotient.m6_presentation(), 8)
        assert h[5:] == (0, 0, 0, 0)


def test_03_low_genus_rings():
    with criterion("low-genus-rings"):
        for g in range(2, 6):
            pres = quotient.kappa1_power_presentation(g)
            h = quotient.hilbert_function(pres, g + 2)
            assert h[: g - 1] == (1,) * (g - 1)
            assert all(d == 0 for d in h[g - 1 :])


def test_04_plucker_lemma():
    with criterion("plucker-lemma"):
        dec = schur.decompose_sym2_wedge2(5)
        expected = schur.SchurDecomposition.from_dict(
            {schur.Partition((2, 2)): 1, schur.Partition((1, 1, 1, 1)): 1}
        )
        assert dec == expected
        assert schur.dim_schur(schur.Partition((2, 2)), 5) == 50
        assert schur.dim_schur(schur.Partition((1, 1, 1, 1)), 5) == 5
        assert sum(m * schur.dim_schur(p, 5) for p, m in dec.terms) == 55

        v = grr.mukai_bundle(4)
        table = grr.mukai_model_table(4)
        lhs = bundles.wedge_power(v, 4)
        rhs = bundles.twist(bundles.dual(v), GradedPoly.variable(table, "v1"))
        assert lhs.rank == rhs.rank == 5
        for i in range(1, 5):
            assert lhs.c(i) == rhs.c(i)


def test_05_mukai_bookkeeping():
    with criterion("mukai-bookkeeping"):
        assert geometry.forms_dim(5, 2) == 21
        assert 21 - 5 == 16  # residual quadrics after the Pluecker relations
        assert geometry.Grassmannian(4, 10).dim + 16 == 40
        # linear-forms sequence: rank 4 sub, rank 6 quotient, and the two sum
        # to the rank of the second exterior power of the rank-5 bundle
        f = grr.plucker_sequence_decomposition(4)
        ell = GradedPoly.variable(f.table, "ell")
        eprime = bundles.twist(grr.hodge_model_bundle(4), ell)
        middle = bundles.wedge_power(grr.mukai_bundle(4), 2)
        assert f.rank == 4 and eprime.rank == 6
        assert f.rank + eprime.rank == middle.rank == 10
        # components beyond the sub's rank vanish identically for consistent
        # input, visible at truncation 6
        assert checks._whitney_roundtrip(f.rank, 6)


def test_06_canonical_quadrics():
    with criterion("canonical-quadrics"):
        for g, expected in ((6, 6), (5, 3), (4, 1)):
            assert geometry.canonical_quadrics(g) == expected
            assert grr.pushforward_rank(2, g) == 3 * g - 3
            assert g * (g + 1) // 2 - (3 * g - 3) == expected
            assert grr.quadrics_bundle(g, 4).rank == expected


def test_07_maroni_adjunction():
    with criterion("maroni-adjunction"):
        for g in range(4, 13):
            for n in range((g + 2) // 3 + 1):
                k = geometry.maroni_k(g, n)
                if geometry.maroni_admissible(g, n):
                    assert k.denominator == 1
                    assert geometry.genus_of_class(n, geometry.trigonal_class(g, n)) == g
                else:
                    assert k.denominator != 1  # parity failure detected
                    classes = geometry.surface_classes(n)
                    for kk in range(int(k) - 2, int(k) + 3):
                        cls = 3 * classes["S"] + kk * classes["F"]
                        assert geometry.genus_of_class(n, cls) != g


def test_08_strata_dimensions():
    with criterion("strata-dimensions"):
        assert geometry.stratum_dimensions(6) == (15, 13, 12, 11, 10)
        assert geometry.maroni_divisor_dim() == 12
        assert geometry.stratum_dimensions(5) == (12, 11, 9)


def test_09_grr_constants():
    with criterion("grr-constants"):
        k1 = grr.kappa(4, 1)
        hodge = grr.hodge_bundle(6, 4)
        assert hodge.c(1) == k1 / 12  # lambda1 = kappa1/12
        ch = bundles.chern_character(hodge)
        # stated oracle: psi^3 coefficient of e^psi*(1 - psi/2 + psi^2/12 +
        # 0 psi^3) is 1/6 - 1/4 + 1/12 = 0, so ch2 vanishes
        assert Fraction(1, 6) - Fraction(1, 4) + Fraction(1, 12) == 0
        assert ch[2].is_zero()
        ch2 = grr.ch_pushforward_omega_power(2, 6, 4)
        assert ch2[1] == Fraction(13, 12) * k1
        for g in range(2, 9):
            assert grr.ch_pushforward_omega_power(2, g, 2)[0].as_scalar() == 3 * g - 3


def test_10_sym_power_calculus():
    with criterion("sym-power-calculus"):
        wtab = VariableTable(("w1", "w2"), (1, 2))
        w1 = GradedPoly.variable(wtab, "w1")
        w2 = GradedPoly.variable(wtab, "w2")
        w = bundles.FormalBundle(2, (w1, w2, GradedPoly.zero(wtab)), wtab)
        s2 = bundles.sym_power(w, 2)
        assert (s2.c(1), s2.c(2), s2.c(3)) == (3 * w1, 2 * w1**2 + 4 * w2, 4 * w1 * w2)
        (name, w1), = bundles.solve_hyperelliptic_twist(6).classes
        assert name == "w1" and w1.coefficient((1, 0)) == Fraction(1, 15)
        (name, c1), = bundles.solve_unimodular_twist(5).classes
        assert name == "c1(L)" and c1.coefficient((1, 0)) == Fraction(1, 5)


def test_11_sensitivity():
    with criterion("sensitivity"):
        base = quotient.KAPPA_M6_COEFFS
        for i in range(4):
            perturbed = tuple(c + 1 if j == i else c for j, c in enumerate(base))
            pres = quotient.m6_presentation(perturbed)
            h = quotient.hilbert_function(pres, 8)
            presentation_identities_hold = (
                h == (1, 1, 2, 1, 1, 0, 0, 0, 0)
                and quotient.pairing_matrix(pres, 2, 4).determinant()
                == Fraction(36608, 12769)
            )
            assert not presentation_identities_hold, perturbed


def test_12_property_suites():
    with criterion("property-suites"):
        # the hypothesis-backed suites live in the other test modules and run
        # derandomized; this criterion additionally runs the seeded battery
        # behind the CLI check
        results = checks.run_suite(("random-identities",))
        assert results[0].status == "pass", results[0].computed


def test_full_cli_suite_is_green():
    with criterion("cli-verify-exit-code"):
        results = checks.run_suite()
        assert checks.exit_code(results) == 0
        assert len(results) == 12
