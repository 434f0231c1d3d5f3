import io
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from chowcalc import expr
from chowcalc.algebra import GradedPoly
from chowcalc.cli import main
from chowcalc.evaluator import (
    FUNCTIONS,
    EvalError,
    Evaluator,
    format_value,
)
from chowcalc.expr import (
    BinOp,
    Call,
    Num,
    ParseError,
    RingExpr,
    Var,
    parse,
)
from chowcalc.geometry import SURFACE_TABLE
from chowcalc.grr import PsiSeries


# -- parsing -----------------------------------------------------------------------


def test_parse_quotient_of_sym_power():
    node = parse("sym(2, V) / F")
    assert node == BinOp("/", Call("sym", (Num(2), Var("V"))), Var("F"))


def test_parse_hilbert_query():
    node = parse(
        "hilbert(ring[k1,k2; 1,2](127*k1^3 - 2304*k1*k2, 113*k1^4 - 36864*k2^2), 6)"
    )
    assert isinstance(node, Call) and node.name == "hilbert"
    ring = node.args[0]
    assert isinstance(ring, RingExpr)
    assert ring.variables == ("k1", "k2") and ring.weights == (1, 2)
    assert len(ring.relations) == 2


def test_parse_wedge_call():
    node = parse("wedge(4, V)")
    assert node == Call("wedge", (Num(4), Var("V")))


def test_power_is_right_associative():
    ev = Evaluator()
    assert ev.run("2^3^2") == 512


def test_precedence_of_mul_over_add():
    ev = Evaluator()
    assert ev.run("2 + 3 * 4") == 14
    assert ev.run("(2 + 3) * 4") == 20


def test_unary_minus():
    ev = Evaluator()
    assert ev.run("-3 + 5") == 2
    assert ev.run("-(3 + 5)") == -8
    assert ev.run("-2^2") == -4  # -(2^2), standard parser convention


@pytest.mark.parametrize("src", ["psi(6) - psi(6)", "omega(2, 6) * td(6) - omega(2, 6) * td(6)"])
def test_psi_series_difference_with_itself_is_zero(src):
    assert format_value(Evaluator().run(src)) == "0"


def test_negated_psi_series_is_its_product_with_minus_one():
    ev = Evaluator()
    assert format_value(ev.run("-psi(6)")) == format_value(ev.run("psi(6) * (-1)")) == "(-1) * psi"


def test_parse_error_carries_position_and_expectations():
    with pytest.raises(ParseError) as err:
        parse("sym(2, ")
    assert err.value.position == 7
    with pytest.raises(ParseError) as err:
        parse("1 + * 2")
    assert err.value.position == 4
    assert "number" in err.value.expected


def test_parse_error_on_trailing_input():
    with pytest.raises(ParseError):
        parse("1 + 2 3")


def test_unknown_identifier_is_an_eval_error():
    ev = Evaluator()
    with pytest.raises(EvalError, match="unknown identifier"):
        ev.run("no_such_thing + 1")


def test_unknown_function_is_an_eval_error():
    ev = Evaluator()
    with pytest.raises(EvalError, match="unknown function"):
        ev.run("frobnicate(1)")


def test_type_error_for_overlong_wedge():
    ev = Evaluator()
    with pytest.raises(EvalError, match="out of range"):
        ev.run("wedge(6, V)")


def test_division_by_zero():
    ev = Evaluator()
    with pytest.raises(EvalError, match="division by zero"):
        ev.run("1 / 0")


@pytest.mark.parametrize(
    "src,printed",
    [
        ("h0(F[1], S) + 1", "4"),
        ("1 - h0(F[1], S)", "-2"),
        ("-h0(F[1], S)", "-3"),
        ("h0(F[1], S) * h0(F[1], F)", "6"),
        ("h0(F[1], S) ^ (0 - 1)", "1/3"),
        ("k1 + h0(F[1], S)", "k1 + 3"),
        ("dim(G(2, 5)) / 4", "3/2"),
        ("schurdim([2, 1], 4) / 3", "20/3"),
        ("-plucker(G(2, 5)) / 10", "-1/2"),
    ],
)
def test_arithmetic_on_section_counts(src, printed):
    value = Evaluator().run(src)
    assert isinstance(value, (Fraction, GradedPoly)) and format_value(value) == printed


def test_a_count_is_the_library_int():
    count = Evaluator().run("dim(G(2, 5))")
    assert type(count) is int and count == 6


@pytest.mark.parametrize(
    "src,message",
    [
        ("-V", "cannot negate a bundle"),
        ("V + 2", "cannot add a bundle and 2"),
        ("V - 1/2", "cannot subtract 1/2 from a bundle"),
        ("psi(6) * k1", "cannot multiply a psi series and a polynomial"),
        ("k1 / k1", "cannot divide a polynomial by a polynomial"),
        ("k1 ^ (1/2)", "cannot raise a polynomial to the power 1/2"),
        ("k1 / (k1 - k1)", "division by zero"),
        ("0 ^ (0 - 1)", "division by zero"),
        ("k1 ^ (0 - 1)", "negative polynomial power"),
        ("genus(F[1], S / 0)", "division by zero"),
        ("psi(6) / 0", "division by zero"),
        ("F / V", "subbundle rank exceeds total rank"),
        ("psi(6) + psi(5)", "incompatible psi series"),
        ("F[1] + 2", "cannot add a ring and 2"),
    ],
)
def test_operator_errors(src, message):
    with pytest.raises(EvalError) as err:
        Evaluator().run(src)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "src",
    ["h0(F[2], 3)", "F[-1]", "ring[x; 0](x)", "ring[x, x; 1, 1](x)", "0^(-1)", "chern(-1, V)"],
)
def test_malformed_input_is_an_eval_error(src):
    with pytest.raises(EvalError):
        Evaluator().run(src)


# Deep trees: the parser recurses on parentheses, unary minus and the
# right-associative ^; the evaluator recurses on the left-deep tree of +.
DEEP_INPUTS = [
    "(" * 300 + "1" + ")" * 300,
    "+".join(["1"] * 3000),
    "-" * 3000 + "1",
    "^".join(["1"] * 1000),
    "hilbert(" + "ring[x; 1](" * 500 + "x" + ")" * 500 + ", 2)",
]


@pytest.mark.parametrize(
    "src", DEEP_INPUTS, ids=["parens", "sum", "negations", "powers", "ring-literals"]
)
def test_deeply_nested_input_is_an_eval_error(src):
    ev = Evaluator()
    with pytest.raises(EvalError, match="^expression nested too deeply$"):
        ev.run(src)
    assert ev.run("1 + 1") == 2


def test_deeply_nested_definition_is_an_eval_error():
    with pytest.raises(EvalError, match="nested too deeply"):
        Evaluator().load_definitions("x = " + DEEP_INPUTS[0] + "\n")


@pytest.mark.parametrize(
    "innermost, depths, error",
    [("x", (800, 1600), RecursionError), ("x +", (10, 60), ParseError)],
    ids=["too-deep", "failing-innermost"],
)
def test_nested_literals_are_parsed_from_every_token_once(monkeypatch, innermost, depths, error):
    """Each literal of n nested ones is parsed as its own text first; when
    that fails, only the statement is parsed again from every token, not
    each enclosing literal, so the full-token parses do not grow with n."""
    tokenized = []
    tokenize = expr.tokenize
    monkeypatch.setattr(expr, "tokenize", lambda src: tokenized.append(src) or tokenize(src))
    counts = []
    for n in depths:
        text = "hilbert(" + "ring[x; 1](" * n + innermost + ")" * n + ", 2)"
        parse.cache_clear()
        tokenized.clear()
        with pytest.raises(error):
            parse(text)
        assert tokenized[-1] == text
        counts.append(len(tokenized))
    assert counts[0] == counts[1] <= 2


def test_quadrics_bundle_needs_genus_three():
    with pytest.raises(EvalError, match="quadricsbundle: need genus >= 3"):
        Evaluator().run("quadricsbundle(2)")


# An inhomogeneous class gets the bundle's own error, not the polynomial's
# "degree undefined".
@pytest.mark.parametrize(
    "src,message",
    [
        ("bundle(2; k1, k2) / bundle(1; k1+k2)", "^c_1 must be homogeneous of degree 1$"),
        ("twist(V, v1+v2)", "^twist: a line class must be homogeneous of degree 1$"),
    ],
)
def test_an_inhomogeneous_class_is_named_by_the_bundle(src, message):
    with pytest.raises(EvalError, match=message):
        Evaluator().run(src)


# A library error is named by the innermost call it was raised in; one
# raised outside any call is not named.
@pytest.mark.parametrize(
    "src,message",
    [
        ("rank(quadricsbundle(2))", "quadricsbundle: need genus >= 3"),
        ("rank(V / E)", "rank: bundles over different tables"),
        ("sym(2, sum(V, E))", "sum: direct sum over different tables"),
        ("V / E", "bundles over different tables"),
        ("schubert(G(2, 4), [3])", "schubert: partition (3) does not fit in G(2,4)"),
        ("h0(F[1], 1/2*S)", "h0: section count needs an integral class"),
        ("bundle(2; k1, [1])", "bundle classes must be polynomials (or 0)"),
        ("bundle(2; 0, 0)", "bundle classes must involve at least one variable"),
        ("F[1, 2]", "surface constructor takes one index: F[n]"),
        ("X[1]", "unknown indexed constructor 'X'"),
        ("F[1/2]", "F index must be an integer, got 1/2"),
        ("h0(F[-1], S)", "h0: Hirzebruch index must be >= 0"),
        ("nf(k1^4 + k1, M6)", "nf: normal form requires a homogeneous input"),
        ("hilbert(M6, -1)", "hilbert: max degree must be >= 0"),
    ],
)
def test_library_errors_name_the_innermost_call(src, message):
    with pytest.raises(EvalError) as err:
        Evaluator().run(src)
    assert str(err.value) == message


@pytest.mark.parametrize("src", ["hodge(1)", "psi(1)", "td(1)", "omega(2, 1)", "hyptwist(1)"])
def test_genus_guards_name_the_genus(src):
    name = src.split("(")[0]
    with pytest.raises(EvalError, match=rf"^{name}: genus must be >= 2$"):
        Evaluator().run(src)


# Only trailing zeros are dropped from a partition list: a zero before a
# nonzero part is an error, not a shorter partition.
@pytest.mark.parametrize(
    "src", ["schurdim([1, 0, 1], 3)", "schubert(G(3, 6), [1, 0, 1])", "lr([0, 1], [1])"]
)
def test_a_zero_before_a_nonzero_part_is_an_error(src):
    name = src.split("(")[0]
    with pytest.raises(EvalError, match=rf"^{name}: parts must be positive$"):
        Evaluator().run(src)
    assert Evaluator().run("schurdim([2, 1, 0], 3)") == 8


def test_guard_errors_surface_verbatim():
    ev = Evaluator()
    with pytest.raises(EvalError, match="need genus >= 3"):
        ev.run("quadrics(2)")
    with pytest.raises(EvalError, match="takes 1 argument"):
        ev.run("hodge(6, 4)")


# -- evaluation ---------------------------------------------------------------------------


def test_eval_dim_plus_16():
    assert Evaluator().run("dim(G(4, 10)) + 16") == 40


def test_eval_normal_form_prints_exactly():
    ev = Evaluator()
    assert format_value(ev.run("nf(k1^4, M6)")) == "36864/113 * k2^2"


def test_eval_genus_on_surface():
    assert Evaluator().run("genus(F[2], 3*S + 1*F)") == 6


def test_eval_hilbert_of_inline_ring():
    ev = Evaluator()
    value = ev.run(
        "hilbert(ring[k1, k2; 1, 2](127*k1^3 - 2304*k1*k2, 113*k1^4 - 36864*k2^2), 6)"
    )
    assert value == (1, 1, 2, 1, 1, 0, 0)


def test_eval_pairing_matrix():
    ev = Evaluator()
    assert format_value(ev.run("pairing(M6, 2, 4)")) == (
        "[[36864/113, 2032/113], [2032/113, 1]]"
    )


def test_assignment_extends_environment():
    ev = Evaluator()
    ev.run("x = dim(G(2, 5))")
    assert ev.run("x + 1") == 7


def test_definitions_file_loading():
    ev = Evaluator()
    ev.load_definitions(
        """
        # named values
        half = 1/2
        Vdual = dual(V)
        """
    )
    assert ev.run("half * 4") == 2
    assert ev.run("rank(Vdual)") == 5


# -- the prelude is built when a name first needs it ----------------------------------


@pytest.fixture
def preludes(monkeypatch):
    """The truncation of every prelude group built while the test runs."""
    from chowcalc import evaluator

    built = []
    real = evaluator.prelude

    def prelude(trunc, name):
        built.append(trunc)
        return real(trunc, name)

    monkeypatch.setattr(evaluator, "prelude", prelude)
    return built


@pytest.mark.parametrize("src", ["1+1", "plucker(G(2, 6))", "genus(F[2], 3*S + 1*F)"])
def test_a_line_without_prelude_names_builds_no_prelude(src, preludes):
    Evaluator(8).run(src)
    assert preludes == []


def test_the_random_battery_builds_no_prelude(preludes):
    from chowcalc.checks import run_suite

    (result,) = run_suite(("random-identities",), 4)
    assert result.status == "pass" and preludes == []


def test_the_prelude_is_built_once_per_evaluator(preludes):
    ev = Evaluator(4)
    assert ev.run("rank(E)") == 6 and ev.run("kappa1 - kappa1") == 0 and ev.run("rank(E)") == 6
    assert preludes == [4]  # E and the kappa_i are one group
    assert ev.run("rank(V)") == 5 and ev.run("rank(F)") == 4 and ev.run("v1 - v1") == 0
    assert preludes == [4, 4]


def test_each_prelude_group_binds_its_own_names():
    from chowcalc.evaluator import prelude

    assert set(prelude(4, "k2")) == {"M6", "k1", "k2"}
    assert set(prelude(4, "E")) == {"E", "kappa1", "kappa2", "kappa3", "kappa4"}
    mukai = {"V", "F", "v1", "v2", "v3", "v4", "v5", "ell"} | {f"lambda{i}" for i in range(1, 5)}
    assert set(prelude(4, "ell")) == mukai
    assert set(prelude(4, "w1")) == {"W", "w1", "w2"}
    assert prelude(4, "nope") == {}


@pytest.mark.parametrize(
    "src", ["nf(k1^4, M6)", "hilbert(M6, 6)", "nf(k1^5, M6)", "nf(k1*k2^2, M6)"]
)
def test_a_line_that_reads_m6_builds_no_bundle(src, monkeypatch):
    from chowcalc import grr

    def unwanted(*args):
        raise AssertionError("a genus-6 bundle was built for a line that reads only M6")

    for name in ("plucker_sequence_decomposition", "hodge_bundle", "mukai_bundle"):
        monkeypatch.setattr(grr, name, unwanted)
    Evaluator(8).run(src)


def test_an_assignment_shadows_the_prelude_before_and_after_it_is_built(preludes):
    ev = Evaluator(4)
    ev.run("E = 3")
    assert ev.run("E") == 3 and preludes == []
    assert ev.run("rank(V)") == 5 and preludes == [4]
    assert ev.run("E") == 3
    late = Evaluator(4)
    assert late.run("rank(E)") == 6
    late.run("E = 3")
    assert late.run("E") == 3 and preludes == [4, 4]


@pytest.mark.parametrize("name, rank", [("E", 6), ("V", 5), ("W", 2)])
def test_bundles_without_classes_print_only_their_rank(name, rank):
    assert format_value(Evaluator(trunc=0).run(name)) == f"bundle(rank {rank})"
    assert format_value(Evaluator(trunc=1).run(name)).startswith(f"bundle(rank {rank}; c1 = ")


# A class given as 0 is the zero class: the bundle keeps all four classes.
def test_a_zero_bundle_class_is_the_zero_class():
    b = Evaluator(4).run("bundle(2; k1, 0)")
    assert (b.rank, len(b.chern)) == (2, 4) and b.c(2).is_zero()


def test_eval_rationals_print_as_fractions():
    assert format_value(Evaluator().run("7/3")) == "7/3"
    assert format_value(Evaluator().run("4/2")) == "2"


# Exponents past 16 bits: the product kernel packs each exponent vector into
# one int, and a sum of two keys must never carry into the next variable.
@pytest.mark.parametrize(
    "src, printed",
    [("k1^2^3^4", "k1^2417851639229258349412352"), ("k1^40000 * k1^40000", "k1^80000")],
)
def test_cli_eval_prints_huge_exponents_exactly(src, printed, capsys):
    assert main(["eval", src]) == 0
    assert capsys.readouterr().out == printed + "\n"


# Decimal digits of any script are numbers; a digit that is not decimal, like
# a superscript, is a stray character with its position, not int()'s error.
@pytest.mark.parametrize(
    "src, code, out, err",
    [
        ("k1 + ٣", 0, "k1 + 3\n", ""),
        ("k1 + ²", 2, "", "error: unexpected character '²' at position 5\n"),
    ],
)
def test_cli_eval_reads_decimal_digits_of_any_script(src, code, out, err, capsys):
    assert main(["eval", "--", src]) == code
    assert capsys.readouterr() == (out, err)


def test_intersection_numbers():
    ev = Evaluator()
    assert ev.run("intersect(F[2], E, E)") == -2
    assert ev.run("intersect(F[2], S, S)") == 2
    assert ev.run("intersect(F[2], S, E)") == 0


# F[n] is its Chow ring Q[E, F]/(F^2, E^2 + n*E*F), so the ring functions
# take it and see its variables E and F; E*F is the point class.
@pytest.mark.parametrize("n", range(4))
def test_a_surface_is_its_chow_ring(n):
    ev = Evaluator()
    e, f = (GradedPoly.variable(SURFACE_TABLE, name) for name in ("E", "F"))
    assert ev.run(f"hilbert(F[{n}], 3)") == (1, 2, 1, 0)
    assert ev.run(f"nf(E^2, F[{n}])") == -n * e * f
    assert format_value(ev.run(f"pairing(F[{n}], 1, 2)")) == f"[[{-n}, 1], [1, 0]]"


def test_a_printed_surface_reads_back_as_the_surface():
    ev = Evaluator()
    text = format_value(ev.run("F[2]"))
    assert text == "ring[E, F; 1, 1](F^2, E^2 + 2 * E * F)"
    assert ev.run(f"genus({text}, 3*S + 1*F)") == 6


# Any presentation of the ring of some F_n, n >= 0, is a surface, however its
# relations are written: its ideal is that of F[n].
@pytest.mark.parametrize(
    "ring",
    [
        "ring[E, F; 1, 1](E^2 + 2*E*F, F^2)",
        "ring[E, F; 1, 1](F^2, 2*E^2 + 4*E*F)",
        "ring[E, F; 1, 1](F^2, E^2 + 2*E*F, E^3)",
        "ring[E, F; 1, 1](F^2, E^2 + 2*E*F + F^2)",
        "F[2]",
    ],
)
def test_a_ring_with_the_ideal_of_a_surface_is_that_surface(ring):
    assert Evaluator().run(f"genus({ring}, 3*S + 1*F)") == 6


def test_a_ring_with_the_ideal_of_f0_is_f0():
    ev = Evaluator()
    assert ev.run("genus(ring[E, F; 1, 1](E^2, F^2), E)") == 0
    assert ev.run("h0(ring[E, F; 1, 1](E^2, F^2), E + F)") == ev.run("h0(F[0], E + F)") == 4
    assert ev.run("intersect(ring[E, F; 1, 1](F^2, E^2 + 3*E*F + F^2), S, S)") == 3


# A ring whose ideal is that of no F_n, n >= 0, is refused.
@pytest.mark.parametrize(
    "ring",
    [
        "ring[E, F; 1, 1](E*F)",
        "M6",
        "ring[E, F; 1, 1](F^2, E^2 - E*F)",
        "ring[E, F; 1, 1](F^2, E^2 + 1/2*E*F)",
        "ring[E, F; 1, 1](E^2, E*F)",
        "ring[E, F; 1, 1](E*F, F^2, E^3)",  # E^2 spans degree 2: no E^2 + n*E*F is 0
    ],
)
def test_a_ring_that_is_no_surface_is_refused(ring):
    with pytest.raises(EvalError) as err:
        Evaluator().run(f"genus({ring}, E)")
    assert str(err.value) == "argument 1 of genus must be a surface F[n], got a ring"


def test_surface_class_products():
    ev = Evaluator()
    # inside h0/genus the letters E, S, F denote the surface's classes
    assert ev.run("h0(F[0], 3*S + 4*F)") == 20


# A divisor class is a polynomial of degree 1 in E and F: a product of two
# classes is a class of degree 2, and intersect gives the number.
def test_divisor_arithmetic_is_polynomial_arithmetic():
    ev = Evaluator()
    assert ev.run("intersect(F[1], S, 2*E - F)") == -1
    assert ev.run("genus(F[1], S / 2)") == Fraction(3, 8)
    assert ev.run("h0(F[2], E)") == 1  # E is a rigid -2 curve
    assert format_value(ev.run("genus(F[1], h0(F[1], F) * S)")) == "0"


@pytest.mark.parametrize(
    "src, which, got",
    [
        ("genus(F[1], S ^ 2)", "argument 2 of genus", "a polynomial"),
        ("intersect(F[1], S * F, S)", "argument 2 of intersect", "a polynomial"),
        ("intersect(F[1], S, E + 1)", "argument 3 of intersect", "a polynomial"),
        ("h0(F[1], k1)", "argument 2 of h0", "a polynomial"),
        ("h0(F[1], 3)", "argument 2 of h0", "3"),
    ],
)
def test_a_divisor_class_has_degree_1_on_the_surface_table(src, which, got):
    with pytest.raises(EvalError, match=f"^{which} must be a divisor class, got {got}$"):
        Evaluator().run(src)


# The zero class of the surface is a divisor, that of O, of genus 1 with one
# section; the number 0 is a number, like any constant.
@pytest.mark.parametrize("zero", ["S - S", "0 * E"])
def test_the_zero_class_counts_as_a_divisor(zero):
    ev = Evaluator()
    assert ev.run(f"genus(F[1], {zero})") == 1
    assert ev.run(f"h0(F[1], {zero})") == 1
    assert ev.run(f"intersect(F[2], E, {zero})") == 0


@pytest.mark.parametrize("number", ["0", "k1 - k1", "(S - S) + 0"])
def test_the_number_0_is_not_a_divisor(number):
    with pytest.raises(EvalError, match="^argument 2 of genus must be a divisor class, got 0$"):
        Evaluator().run(f"genus(F[1], {number})")


# A constant polynomial counts as a number, so it meets a polynomial of any
# table.
@pytest.mark.parametrize(
    "src, printed",
    [
        ("(k1 - k1 + 2) * w1", "2 * w1"),
        ("(k1 - k1 + 2) + w1", "w1 + 2"),
        ("nf(k1 - k1 + 2, ring[x; 1](x^2))", "2"),
        ("genus(F[1], (k1 - k1 + 2) * S)", "0"),
    ],
)
def test_a_constant_polynomial_counts_as_a_number(src, printed):
    assert format_value(Evaluator().run(src)) == printed


def test_presentation_header_errors_are_eval_errors():
    with pytest.raises(EvalError, match="weights must be >= 1"):
        Evaluator().run("ring[x; 0](x^2)")


def test_sequence_quotient_via_slash():
    ev = Evaluator()
    q = ev.run("sym(2, V) / F")
    assert format_value(ev.run("rank(sym(2, V) / F)")) == "11"
    assert q.rank == 11


# -- the function table -----------------------------------------------------------------

# Arguments that make a call of the right kinds; "S" is a divisor class in
# the scope of a surface.  Each argument is then swapped for each POOL value.
BASE_ARGS = {
    "int": "6",
    "partition": "[2, 1]",
    "bundle": "V",
    "G": "G(2, 4)",
    "ring": "M6",
    "surface": "F[1]",
    "divisor": "S",
    "psi": "psi(6)",
    "poly": "k1",
}
POOL = ["1/2", "-1", "V", "G(2, 4)", "M6", "F[1]", "psi(6)", "[2, 1]", "k1"]


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator()


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_every_function_checks_its_arity(name, evaluator):
    n = len(FUNCTIONS[name].kinds)
    for args in ([], ["1"] * (n + 1)):
        with pytest.raises(EvalError, match=f"^{name} takes {n} argument"):
            evaluator.run(f"{name}({', '.join(args)})")


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_every_function_is_total_on_the_pool(name, evaluator):
    base = [BASE_ARGS[kind] for kind in FUNCTIONS[name].kinds]
    calls = [base] + [base[:i] + [v] + base[i + 1 :] for i in range(len(base)) for v in POOL]
    for args in calls:
        try:
            evaluator.run(f"{name}({', '.join(args)})")
        except EvalError:
            pass


def _has_float(v):
    if isinstance(v, GradedPoly):
        return any(isinstance(c, float) for _, c in v.items())
    if isinstance(v, PsiSeries):
        return _has_float(v.coeffs)
    if isinstance(v, tuple):
        return any(_has_float(x) for x in v)
    return isinstance(v, float)


OPERANDS = POOL + ["0", "h0(F[1], S)", "k1 - k1 + 2"]


@pytest.mark.parametrize("op", ["neg", "+", "-", "*", "/", "^"])
def test_every_operator_is_total_on_the_pool(op, evaluator):
    if op == "neg":
        sources = [f"-({a})" for a in OPERANDS]
    else:
        sources = [f"({a}) {op} ({b})" for a in OPERANDS for b in OPERANDS]
    for src in sources:
        try:
            value = evaluator.run(src)
        except EvalError:
            continue
        assert not _has_float(value), src


# One value of each type a statement can make, with the types that no
# argument kind accepts: matrices, Schur decompositions and twist solutions.
VALUES = POOL + [
    "h0(F[1], S)",
    "k1 - k1 + 2",
    "pairing(M6, 2, 4)",
    "lr([1], [1])",
    "hyptwist(6)",
    "unitwist(5)",
    "tritwist(6, 0)",
    "[1/2, V]",
]


def test_errors_name_values_in_the_languages_words(evaluator):
    """An error names a number by its value and any other value by a phrase
    of the language, never by the class of the object behind it."""
    classes = {type(evaluator.run(v)).__name__ for v in VALUES} | {"int", "Fraction"}
    classes.remove("Grassmannian")  # the language's word too: "a Grassmannian G(k, n)"
    templates = ["-({})", "({}) + V", "V / ({})", "intersect(F[1], S, {})", "genus(F[1], S + ({}))"]
    messages = set()
    for src in (t.format(v) for t in templates for v in VALUES):
        try:
            evaluator.run(src)
        except EvalError as exc:
            messages.add(str(exc))
    assert "argument 3 of intersect must be a divisor class, got a matrix" in messages
    assert "cannot add a divisor class and a twist solution" in messages
    assert "cannot negate a Schur decomposition" in messages
    for message in messages:
        assert not classes & set(re.findall(r"\w+", message)), message


README = Path(__file__).resolve().parents[1] / "README.md"


def _run(argv, stdin, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == 0, argv
    return capsys.readouterr().out.strip()


def test_readme_expression_examples_print_what_they_say(monkeypatch, capsys):
    """Run every line of the first sh block under "The expression language".
    A comment that parses as an expression is the value the line prints; a
    comment "= expr" means the line prints what expr prints; any other
    comment describes the line, which must exit 0."""
    section = README.read_text().split("## The expression language", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    valued = set()
    for line in block.splitlines():
        command, _, comment = (s.strip() for s in line.partition("#"))
        if "|" in command:
            echo, repl = command.split("|")
            stdin, argv = shlex.split(echo)[1] + "\n", shlex.split(repl)[1:]
        else:
            stdin, argv = "", shlex.split(command)[1:]
        out = _run(argv, stdin, monkeypatch, capsys)
        if comment.startswith("= "):
            assert out == _run(["eval", comment[2:]], "", monkeypatch, capsys), line
            continue
        try:
            parse(comment)
        except ParseError:
            continue
        assert out == comment, line
        valued.add(argv[-1])
    assert {"dim(G(4, 10)) + 16", "nf(k1^4, M6)", "genus(F[2], 3*S + 1*F)",
            "integrate(G(2, 5), sigma1^6)"} <= valued


def test_readme_names_every_function():
    readme = README.read_text()
    missing = [
        name
        for name in FUNCTIONS
        if f"`{name}`" not in readme and not re.search(rf"\b{name}\(", readme)
    ]
    assert missing == []
