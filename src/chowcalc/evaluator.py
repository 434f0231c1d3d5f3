"""Evaluator for the CLI expression language.

Values are plain library objects: Fractions, graded polynomials, formal
bundles, ring presentations, Grassmannians, Hirzebruch classes, psi
series, Schur decompositions, and tuples of these.

Every function of the language is one row of the table ``FUNCTIONS``: the
kinds of its arguments, an optional scope argument, and a function of
``(trunc, *checked arguments)``.  ``Evaluator._call`` checks the arity and
each argument against ``_KINDS``, so every arity and type error reads the
same way.  The scope argument is evaluated first and binds names for the
other arguments: a surface ``F[n]`` binds its classes ``E``, ``S`` and
``F``, a Grassmannian ``G(k, n)`` binds ``c1..ck`` and ``sigma1``, and a
ring binds its variables.

Library code reports bad input with ``ValueError`` or ``ArithmeticError``.
These become ``EvalError`` in one place, ``Evaluator.run``, the statement
entry behind ``load_definitions`` and the CLI.  The message keeps the
library's text, after the name of the innermost function call that
failed.  Any ``RecursionError`` raised while a statement is parsed or run,
whether from deeply nested input or from recursive library code, becomes
one there too, with the message ``expression nested too deeply``.

A *closed* ring literal, whose relations use only numbers, its own
variables and arithmetic, means the same everywhere: an ``Evaluator`` keeps
its presentation in an LRU of 1024 literals keyed by the syntax tree, so a
re-asked literal returns the same object and the tables that
``quotient.graded_piece`` cached for it.  Any other literal is built afresh,
and a literal that fails is never kept.

A definitions file and a repl session share one comment rule,
``statements``: each line is cut at its first ``#``, and blank lines are
skipped.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from . import bundles, geometry, grr, quotient, schur
from .algebra import GradedPoly, VariableTable, format_poly, format_rational
from .expr import (
    Assign,
    BinOp,
    BundleExpr,
    Call,
    Expr,
    Index,
    ListExpr,
    Neg,
    Num,
    ParseError,
    RingExpr,
    Var,
    parse,
)


class EvalError(ValueError):
    pass


DEFAULT_TRUNCATION = 4


def statements(lines: Iterable[str]) -> Iterator[str]:
    """The statements of `lines`, one per line: each line cut at its first
    '#', stripped, and skipped if nothing is left.  Lazy, so a repl reads
    its next line only after the last one has run."""
    for line in lines:
        source = line.split("#", 1)[0].strip()
        if source:
            yield source


def prelude(trunc: int = DEFAULT_TRUNCATION) -> dict[str, Any]:
    """Standard environment: the genus-6 kappa presentation, the kappa ring
    variables, and the named bundles of the verification models."""
    env: dict[str, Any] = {}
    m6 = quotient.m6_presentation()
    env["M6"] = m6
    for name in m6.table.names:
        env[name] = GradedPoly.variable(m6.table, name)

    ktab = grr.kappa_ring(trunc)
    for name in ktab.names:
        env[name] = GradedPoly.variable(ktab, name)
    env["E"] = grr.hodge_bundle(6, trunc)

    mtab = grr.mukai_model_table(trunc)
    for name in mtab.names:
        env[name] = GradedPoly.variable(mtab, name)
    env["V"] = grr.mukai_bundle(trunc)
    env["F"] = grr.plucker_sequence_decomposition(trunc)

    wtab = VariableTable(("w1", "w2"), (1, 2))
    for name in wtab.names:
        env[name] = GradedPoly.variable(wtab, name)
    zero_w = GradedPoly.zero(wtab)
    w_classes = [GradedPoly.variable(wtab, "w1"), GradedPoly.variable(wtab, "w2")]
    w_classes += [zero_w] * max(0, trunc - 2)
    env["W"] = bundles.FormalBundle(2, tuple(w_classes[:trunc]), wtab)
    return env


# -- argument kinds --------------------------------------------------------------


def _rational(v: Any) -> Fraction | None:
    """v as a rational scalar (a constant polynomial counts), else None."""
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, GradedPoly) and v.max_degree() == 0:
        return v.constant_term()
    return None


def _integer(v: Any) -> int | None:
    q = _rational(v)
    return int(q) if q is not None and q.denominator == 1 else None


def _partition(v: Any) -> schur.Partition | None:
    if not isinstance(v, tuple):
        return None
    parts = [_integer(x) for x in v]
    return None if None in parts else schur.Partition.of(*parts)


def _instance(cls: type | tuple[type, ...]) -> Callable[[Any], Any]:
    return lambda v: v if isinstance(v, cls) else None


# kind -> (what the argument must be, checker returning the value or None)
_KINDS: dict[str, tuple[str, Callable[[Any], Any]]] = {
    "int": ("an integer", _integer),
    "partition": ("a partition like [3, 1]", _partition),
    "bundle": ("a bundle", _instance(bundles.FormalBundle)),
    "G": ("a Grassmannian G(k, n)", _instance(geometry.Grassmannian)),
    "ring": ("a ring", _instance(quotient.RingPresentation)),
    "surface": ("a surface F[n]", _instance(geometry.HirzebruchSurfaceHandle)),
    "divisor": ("a divisor class", _instance(geometry.HirzebruchClass)),
    "psi": ("a psi series", _instance(grr.PsiSeries)),
    "poly": ("a polynomial", _instance((int, Fraction, GradedPoly))),
}

# scope kind -> the names its value binds for the other arguments
_SCOPES: dict[str, Callable[[Any], dict[str, Any]]] = {
    "surface": lambda s: {
        "E": geometry.section_E(s.n),
        "S": geometry.section_S(s.n),
        "F": geometry.fiber_F(s.n),
    },
    "G": lambda g: {
        **{f"c{i}": g.chern_sub(i) for i in range(1, g.k + 1)},
        "sigma1": g.sigma1(),
    },
    "ring": lambda p: {name: GradedPoly.variable(p.table, name) for name in p.table.names},
}


def _describe(v: Any) -> str:
    return format_rational(v) if isinstance(v, Fraction) else type(v).__name__


def _int(v: Any, what: str) -> int:
    n = _integer(v)
    if n is None:
        raise EvalError(f"{what} must be an integer, got {_describe(v)}")
    return n


def _lift(x: Fraction | GradedPoly, table: VariableTable) -> GradedPoly:
    return x if isinstance(x, GradedPoly) else GradedPoly.constant(table, x)


# -- the function table ------------------------------------------------------------


class Function(NamedTuple):
    kinds: tuple[str, ...]
    scope: int | None  # index of the argument evaluated first, binding names
    fn: Callable[..., Any]  # (trunc, *checked arguments) -> value


FUNCTIONS: dict[str, Function] = {
    # geometry
    "genus": Function(("surface", "divisor"), 0, lambda t, s, x: geometry.genus_of_class(x)),
    "h0": Function(("surface", "divisor"), 0, lambda t, s, x: geometry.h0_hirzebruch(x)),
    "intersect": Function(
        ("surface", "divisor", "divisor"), 0, lambda t, s, x, y: geometry.intersect(x, y)
    ),
    "G": Function(("int", "int"), None, lambda t, k, n: geometry.Grassmannian(k, n)),
    "dim": Function(("G",), None, lambda t, g: Fraction(g.dim)),
    "integrate": Function(("G", "poly"), 0, lambda t, g, x: g.integrate(_lift(x, g.table()))),
    "schubert": Function(("G", "partition"), None, lambda t, g, lam: g.schubert_class(lam)),
    "plucker": Function(("G",), None, lambda t, g: Fraction(g.plucker_degree())),
    "forms": Function(("int", "int"), None, lambda t, m, d: Fraction(geometry.forms_dim(m, d))),
    "quadrics": Function(("int",), None, lambda t, g: Fraction(geometry.canonical_quadrics(g))),
    "strata": Function(
        ("int",), None, lambda t, g: tuple(Fraction(d) for d in geometry.stratum_dimensions(g))
    ),
    "maronik": Function(("int", "int"), None, lambda t, g, n: geometry.maroni_k(g, n)),
    # quotient rings
    "hilbert": Function(
        ("ring", "int"),
        None,
        lambda t, p, d: tuple(Fraction(x) for x in quotient.hilbert_function(p, d)),
    ),
    "nf": Function(("poly", "ring"), 1, lambda t, x, p: quotient.normal_form(_lift(x, p.table), p)),
    "pairing": Function(
        ("ring", "int", "int"), None, lambda t, p, i, top: quotient.pairing_matrix(p, i, top)
    ),
    # bundles
    "rank": Function(("bundle",), None, lambda t, b: Fraction(b.rank)),
    "dual": Function(("bundle",), None, lambda t, b: bundles.dual(b)),
    "twist": Function(
        ("bundle", "poly"),
        None,
        lambda t, b, x: bundles.twist(b, bundles.LineClass(_lift(x, b.table))),
    ),
    "sym": Function(("int", "bundle"), None, lambda t, k, b: bundles.sym_power(b, k)),
    "wedge": Function(("int", "bundle"), None, lambda t, k, b: bundles.wedge_power(b, k)),
    "sum": Function(("bundle", "bundle"), None, lambda t, a, b: bundles.direct_sum(a, b)),
    "ch": Function(("bundle",), None, lambda t, b: tuple(bundles.chern_character(b))),
    "chern": Function(("int", "bundle"), None, lambda t, i, b: b.c(i)),
    # pushforward engine
    "td": Function(("int",), None, lambda t, g: grr.todd_series(g, t)),
    "omega": Function(("int", "int"), None, lambda t, k, g: grr.exp_psi(k, g, t)),
    "psi": Function(("int",), None, lambda t, g: grr.psi(g, t)),
    "push": Function(("psi",), None, lambda t, s: grr.push_psi(s.truncate(t + 1))),
    "hodge": Function(("int",), None, lambda t, g: grr.hodge_bundle(g, t)),
    "pushbundle": Function(("int", "int"), None, lambda t, k, g: grr.pushforward_bundle(k, g, t)),
    "quadricsbundle": Function(("int",), None, lambda t, g: grr.quadrics_bundle(g, t)),
    # representation theory
    "syt": Function(("partition",), None, lambda t, lam: Fraction(schur.syt_count(lam))),
    "schurdim": Function(
        ("partition", "int"), None, lambda t, lam, n: Fraction(schur.dim_schur(lam, n))
    ),
    "lr": Function(("partition", "partition"), None, lambda t, a, b: schur.lr_product(a, b)),
    "sym2wedge2": Function(("int",), None, lambda t, n: schur.decompose_sym2_wedge2(n)),
    # twist solvers
    "hyptwist": Function(("int",), None, lambda t, g: bundles.solve_hyperelliptic_twist(g)),
    "unitwist": Function(("int",), None, lambda t, r: bundles.solve_unimodular_twist(r)),
    "tritwist": Function(("int", "int"), None, lambda t, g, n: bundles.solve_trigonal_twist(g, n)),
}


class Evaluator:
    def __init__(self, trunc: int = DEFAULT_TRUNCATION):
        if not isinstance(trunc, int) or trunc < 0:
            raise EvalError(f"truncation must be an integer >= 0, got {trunc!r}")
        self.trunc = trunc
        self.env: dict[str, Any] = prelude(trunc)
        # closed ring literal -> its presentation; bounded like graded_piece
        self._closed_rings = lru_cache(maxsize=1024)(lambda node: self._build_ring(node, {}))

    # -- entry points ------------------------------------------------------

    def run(self, source: str) -> Any:
        """Parse and run one statement; the one place errors become EvalError."""
        try:
            node = parse(source)
            if isinstance(node, Assign):
                value = self.env[node.name] = self.eval(node.value, self.env)
                return value
            return self.eval(node, self.env)
        except (EvalError, ParseError):
            raise
        except RecursionError:
            raise EvalError("expression nested too deeply") from None
        except (ValueError, ArithmeticError) as exc:
            name = _innermost_call(exc)
            raise EvalError(f"{name}: {exc}" if name else str(exc)) from exc

    def load_definitions(self, text: str) -> None:
        """Run a definitions file: one statement per line, '#' comments."""
        for source in statements(text.splitlines()):
            self.run(source)

    # -- core --------------------------------------------------------------

    def eval(self, node: Expr, env: Mapping[str, Any]) -> Any:
        if isinstance(node, Num):
            return Fraction(node.value)
        if isinstance(node, Var):
            if node.name not in env:
                raise EvalError(f"unknown identifier {node.name!r}")
            return env[node.name]
        if isinstance(node, Neg):
            return self._negate(self.eval(node.arg, env))
        if isinstance(node, BinOp):
            return self._binop(node, env)
        if isinstance(node, ListExpr):
            return tuple(self.eval(item, env) for item in node.items)
        if isinstance(node, RingExpr):
            return self._ring(node, env)
        if isinstance(node, BundleExpr):
            return self._bundle(node, env)
        if isinstance(node, Index):
            if node.name == "F":
                if len(node.args) != 1:
                    raise EvalError("surface constructor takes one index: F[n]")
                return geometry.HirzebruchSurfaceHandle(_int(self.eval(node.args[0], env), "F index"))
            raise EvalError(f"unknown indexed constructor {node.name!r}")
        if isinstance(node, Call):
            return self._call(node, env)
        raise EvalError(f"cannot evaluate node {node!r}")

    def _negate(self, v: Any) -> Any:
        if isinstance(v, (Fraction, GradedPoly, geometry.HirzebruchClass)):
            return -v
        if isinstance(v, grr.PsiSeries):
            return v * -1
        raise EvalError(f"cannot negate {type(v).__name__}")

    def _binop(self, node: BinOp, env: Mapping[str, Any]) -> Any:
        a = self.eval(node.left, env)
        b = self.eval(node.right, env)
        op = node.op
        if op == "+":
            return self._add(a, b)
        if op == "-":
            return self._add(a, self._negate(b))
        if op == "*":
            return self._mul(a, b)
        if op == "/":
            return self._div(a, b)
        if op == "^":
            return self._pow(a, b)
        raise EvalError(f"unknown operator {op!r}")

    def _coerce_pair(self, a: Any, b: Any) -> tuple[Any, Any]:
        if isinstance(a, GradedPoly) and isinstance(b, (int, Fraction)):
            return a, GradedPoly.constant(a.table, b)
        if isinstance(b, GradedPoly) and isinstance(a, (int, Fraction)):
            return GradedPoly.constant(b.table, a), b
        return a, b

    def _add(self, a: Any, b: Any) -> Any:
        a, b = self._coerce_pair(a, b)
        if isinstance(a, (Fraction, GradedPoly)) and type(a) is type(b):
            return a + b
        if isinstance(a, geometry.HirzebruchClass) and isinstance(b, geometry.HirzebruchClass):
            return a + b
        if isinstance(a, grr.PsiSeries) and isinstance(b, grr.PsiSeries):
            return a + b
        raise EvalError(f"cannot add {type(a).__name__} and {type(b).__name__}")

    def _mul(self, a: Any, b: Any) -> Any:
        if isinstance(a, geometry.HirzebruchClass) and isinstance(b, geometry.HirzebruchClass):
            return geometry.intersect(a, b)
        if isinstance(a, (int, Fraction)) and isinstance(b, geometry.HirzebruchClass):
            return Fraction(a) * b
        if isinstance(a, geometry.HirzebruchClass) and isinstance(b, (int, Fraction)):
            return Fraction(b) * a
        if isinstance(a, grr.PsiSeries) or isinstance(b, grr.PsiSeries):
            if isinstance(a, grr.PsiSeries) and isinstance(b, (grr.PsiSeries, Fraction, int)):
                return a * b
            if isinstance(b, grr.PsiSeries) and isinstance(a, (Fraction, int)):
                return b * a
            raise EvalError("psi series multiply only with scalars or psi series")
        a, b = self._coerce_pair(a, b)
        if isinstance(a, (Fraction, GradedPoly)) and type(a) is type(b):
            return a * b
        raise EvalError(f"cannot multiply {type(a).__name__} and {type(b).__name__}")

    def _div(self, a: Any, b: Any) -> Any:
        if isinstance(a, bundles.FormalBundle) and isinstance(b, bundles.FormalBundle):
            return bundles.sequence_quotient(a, b)
        if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
            if b == 0:
                raise EvalError("division by zero")
            return Fraction(a) / Fraction(b)
        if isinstance(a, GradedPoly):
            q = _rational(b)
            if q is None:
                raise EvalError(f"divisor must be a rational scalar, got {_describe(b)}")
            if q == 0:
                raise EvalError("division by zero")
            return a / q
        raise EvalError(f"cannot divide {type(a).__name__} by {type(b).__name__}")

    def _pow(self, a: Any, b: Any) -> Any:
        k = _int(b, "exponent")
        if isinstance(a, (int, Fraction)):
            if a == 0 and k < 0:
                raise EvalError("division by zero")
            return Fraction(a) ** k
        if isinstance(a, GradedPoly):
            if k < 0:
                raise EvalError("negative polynomial power")
            return a**k
        raise EvalError(f"cannot raise {type(a).__name__} to a power")

    def _ring(self, node: RingExpr, env: Mapping[str, Any]) -> quotient.RingPresentation:
        if _closed(node):
            return self._closed_rings(node)
        return self._build_ring(node, env)

    def _build_ring(self, node: RingExpr, env: Mapping[str, Any]) -> quotient.RingPresentation:
        table = VariableTable(node.variables, node.weights)
        child = dict(env)
        for name in node.variables:
            child[name] = GradedPoly.variable(table, name)
        rels = []
        for rel in node.relations:
            value = self.eval(rel, child)
            if isinstance(value, (int, Fraction)):
                raise EvalError("ring relations must involve the ring variables")
            rels.append(value)
        return quotient.RingPresentation(table, tuple(rels))

    def _bundle(self, node: BundleExpr, env: Mapping[str, Any]) -> bundles.FormalBundle:
        rank = _int(self.eval(node.rank, env), "bundle rank")
        raw = [self.eval(c, env) for c in node.classes]
        table = next((v.table for v in raw if isinstance(v, GradedPoly)), None)
        if table is None:
            raise EvalError("bundle classes must involve at least one variable")
        cs = []
        for v in raw:
            if isinstance(v, GradedPoly):
                cs.append(v)
            elif isinstance(v, (int, Fraction)) and v == 0:
                cs.append(GradedPoly.zero(table))
            else:
                raise EvalError("bundle classes must be polynomials (or 0)")
        while len(cs) < self.trunc:
            cs.append(GradedPoly.zero(table))
        return bundles.FormalBundle(rank, tuple(cs[: self.trunc]), table)

    def _call(self, node: Call, env: Mapping[str, Any]) -> Any:
        name = node.name
        if name not in FUNCTIONS:
            raise EvalError(f"unknown function {name!r}")
        kinds, scope, fn = FUNCTIONS[name]
        if len(node.args) != len(kinds):
            raise EvalError(f"{name} takes {len(kinds)} argument(s), got {len(node.args)}")
        args: list[Any] = [None] * len(kinds)
        for i in sorted(range(len(kinds)), key=lambda j: j != scope):
            value = self.eval(node.args[i], env)
            what, check = _KINDS[kinds[i]]
            args[i] = check(value)
            if args[i] is None:
                got = _describe(value)
                raise EvalError(f"argument {i + 1} of {name} must be {what}, got {got}")
            if i == scope:
                env = {**env, **_SCOPES[kinds[i]](args[i])}
        return fn(self.trunc, *args)


_CALL_CODE = Evaluator._call.__code__


def _closed(node: RingExpr) -> bool:
    """Whether `node` is closed (module docstring).  The walk keeps its own
    stack, so a deep tree is left for ``eval`` to reject as it does."""
    names = set(node.variables)
    stack: list[Expr] = list(node.relations)
    while stack:
        e = stack.pop()
        if isinstance(e, BinOp):
            stack += (e.left, e.right)
        elif isinstance(e, Neg):
            stack.append(e.arg)
        elif isinstance(e, Var):
            if e.name not in names:
                return False
        elif not isinstance(e, Num):
            return False
    return True


def _innermost_call(exc: BaseException) -> str | None:
    """The function name of the innermost ``_call`` the error passed through."""
    name = None
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code is _CALL_CODE:
            name = tb.tb_frame.f_locals["name"]
        tb = tb.tb_next
    return name


# -- printing -------------------------------------------------------------------


def format_value(v: Any) -> str:
    from .algebra import ExactMatrix

    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, GradedPoly):
        return format_poly(v)
    if isinstance(v, tuple):
        return "(" + ", ".join(format_value(x) for x in v) + ")"
    if isinstance(v, ExactMatrix):
        rows = ["[" + ", ".join(format_rational(x) for x in row) + "]" for row in v.entries]
        return "[" + ", ".join(rows) + "]"
    if isinstance(v, bundles.FormalBundle):
        cs = ", ".join(f"c{i+1} = {format_poly(c)}" for i, c in enumerate(v.chern))
        return f"bundle(rank {v.rank}; {cs})"
    if isinstance(v, grr.PsiSeries):
        parts = []
        for j, c in enumerate(v.coeffs):
            if c.is_zero():
                continue
            body = format_poly(c)
            if j == 0:
                parts.append(body)
            else:
                head = f"psi^{j}" if j > 1 else "psi"
                parts.append(f"({body}) * {head}" if len(c) > 1 or body not in ("1",) else head)
        return " + ".join(parts) if parts else "0"
    if isinstance(v, quotient.RingPresentation):
        return presentation_to_text(v)
    if isinstance(v, geometry.Grassmannian):
        return f"G({v.k}, {v.n})"
    if isinstance(v, geometry.HirzebruchClass):
        return str(v)
    if isinstance(v, geometry.HirzebruchSurfaceHandle):
        return f"F[{v.n}]"
    return str(v)


def presentation_to_text(pres: quotient.RingPresentation) -> str:
    vs = ", ".join(pres.table.names)
    ws = ", ".join(str(w) for w in pres.table.weights)
    rs = ", ".join(format_poly(r) for r in pres.relations)
    return f"ring[{vs}; {ws}]({rs})"
