"""Evaluator for the CLI expression language.

Values are plain library objects: numbers as the library returns them
(ints or Fractions), graded polynomials, formal bundles, ring presentations
(``F[n]`` is the Chow ring of F_n), Grassmannians, psi series, Schur
decompositions, and tuples of these.

Every function of the language is one row of the table ``FUNCTIONS``: the
kinds of its arguments, an optional scope argument, and a function of
``(trunc, *checked arguments)``.  ``Evaluator._call`` checks the arity and
each argument against ``_KINDS``, so every arity and type error reads the
same way.  The scope argument is evaluated first and binds names for the
other arguments: a surface, any presentation of the ring of some F_n
(``geometry.hirzebruch_index`` reads n off its ideal), binds its divisor
classes ``E``, ``S`` and ``F`` (degree 1 on ``geometry.SURFACE_TABLE``) and
passes on n, a Grassmannian ``G(k, n)`` binds ``c1..ck`` and ``sigma1``, and
a ring binds its variables.

Unary minus and the operators ``+ - * / ^`` are rows of ``OPERATORS``, read
by the same ``_KINDS``: the first row whose kinds accept the operands
applies, an int or a constant polynomial reads as a Fraction, and each
operator has one error, such as ``cannot add A and B``, for operands no row
accepts.

Library code reports bad input with ``ValueError`` or ``ArithmeticError``.
A function call turns one raised while it runs into ``EvalError``, its
message the library's text after the function's name; an enclosing call
passes the ``EvalError`` on unchanged, so the innermost call names the
error.  ``Evaluator.run``, the statement entry behind ``load_definitions``
and the CLI, turns one raised outside any call into ``EvalError`` with the
library's text alone.  Any ``RecursionError`` raised while a statement is
parsed or run, whether from deeply nested input or from recursive library
code, becomes one there too, with the message ``expression nested too
deeply``.  An error names a number by its value and any other value by
what it is, in the words of the argument kinds (``a bundle``).

A name is looked up in the environment of assignments and scopes first,
then in the standard ``prelude``.  The prelude is four groups of names,
and an ``Evaluator`` builds a group the first time it looks up one of its
names, then keeps it: a line that reads only ``M6`` never builds the
genus-6 bundles.

A *closed* ring literal, whose relations use only numbers, its own
variables and arithmetic, means the same everywhere: its own variables
shadow every other binding, and numbers and operator rows read no
truncation, prelude or environment.  So one memo serves every
``Evaluator``: ``_closed_ring``, an LRU of 1024 literals keyed by the
syntax tree, keeps a closed literal's presentation (and None for any other
literal), so a re-asked literal returns the same object and the tables
that ``quotient.graded_piece`` cached for it.  Any other literal is built
afresh in its environment, and a literal that fails is never kept.  The
key costs a lookup: ``expr.parse`` is an LRU of texts that parses each
literal as its own text, so a re-asked line or literal is the identical
tree, and a record keeps its hash, so a re-asked literal is found by
identity without walking its tree.  The parser's memo keeps trees, not
values: every statement is evaluated each time it runs.

A definitions file and a repl session share one comment rule,
``statements``: each line is cut at its first ``#``, and blank lines are
skipped.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, mul, neg, sub, truediv
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from . import bundles, geometry, grr, quotient, schur
from .algebra import ExactMatrix, GradedPoly, VariableTable, format_poly
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
    """The statements of a definitions file or a repl session, one per line:
    each line cut at its first '#', stripped, and skipped if nothing is left.
    Lazy, so a repl reads its next line only after the last one has run."""
    for line in lines:
        source = line.split("#", 1)[0].strip()
        if source:
            yield source


def prelude(trunc: int, name: str) -> dict[str, Any]:
    """The group of the standard environment that binds `name`, or {} if no
    group does: `M6`, the genus-6 kappa presentation, with its variables;
    the Hodge bundle `E` with the kappa ring variables; the Mukai model's `V`
    and `F` with the names of its table; or the generic rank-2 `W` with
    `w1`, `w2`.  Only that group is built."""
    if name == "M6" or name in quotient.kappa_table().names:
        m6 = quotient.m6_presentation()
        return {"M6": m6, **_variables(m6.table)}
    ktab = grr.kappa_ring(trunc)
    if name == "E" or name in ktab.names:
        return {"E": grr.hodge_bundle(6, trunc), **_variables(ktab)}
    mtab = grr.mukai_model_table(trunc)
    if name in ("V", "F") or name in mtab.names:
        return {
            "V": grr.mukai_bundle(trunc),
            "F": grr.plucker_sequence_decomposition(trunc),
            **_variables(mtab),
        }
    wtab = VariableTable.indexed(("w", 2))
    if name == "W" or name in wtab.names:
        return {"W": bundles.free_bundle(2, wtab, "w", trunc), **_variables(wtab)}
    return {}


def _variables(table: VariableTable) -> dict[str, GradedPoly]:
    return {name: GradedPoly.variable(table, name) for name in table.names}


# -- argument kinds --------------------------------------------------------------


def _rational(v: Any) -> Fraction | None:
    """v as a rational scalar (a constant polynomial counts), else None.  A
    polynomial is tested first: ``isinstance(v, Fraction)`` of anything else
    goes through ``ABCMeta.__instancecheck__``."""
    if isinstance(v, GradedPoly):
        return v.constant_term() if v.is_constant() else None
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    return None


def _integer(v: Any) -> int | None:
    if isinstance(v, int):
        return v
    q = _rational(v)
    return int(q) if q is not None and q.denominator == 1 else None


def _poly(v: Any) -> Fraction | GradedPoly | None:
    """v as a number if it is one, so a constant meets any table's polynomials."""
    q = _rational(v)
    return v if q is None and isinstance(v, GradedPoly) else q


def _divisor(v: Any) -> GradedPoly | None:
    """v as a class of degree 1 on the surface table; the zero class is one."""
    surface = isinstance(v, GradedPoly) and v.table == geometry.SURFACE_TABLE
    return v if surface and v.homogeneous_component(1) == v else None


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
    "surface": ("a surface F[n]", geometry.hirzebruch_index),
    "divisor": ("a divisor class", _divisor),
    "psi": ("a psi series", _instance(grr.PsiSeries)),
    "poly": ("a polynomial", _poly),
    "scalar": ("a rational number", _rational),
}

# scope kind -> the names its value binds for the other arguments
_SCOPES: dict[str, Callable[[Any], dict[str, Any]]] = {
    "surface": geometry.surface_classes,
    "G": lambda g: {
        **{f"c{i}": g.chern_sub(i) for i in range(1, g.k + 1)},
        "sigma1": g.sigma1(),
    },
    "ring": lambda p: _variables(p.table),
}


# what an error calls a value that no kind, or only "partition", accepts
_NOUNS: dict[type, str] = {
    tuple: "a list",
    ExactMatrix: "a matrix",
    schur.SchurDecomposition: "a Schur decomposition",
    bundles.TwistSolution: "a twist solution",
}


def _describe(v: Any) -> str:
    """How an error names `v`: a number by its value, anything else by its
    noun or by the phrase of the first kind that accepts it."""
    q = _rational(v)
    if q is not None:
        return str(q)
    if type(v) in _NOUNS:
        return _NOUNS[type(v)]
    return next(what for what, check in _KINDS.values() if check(v) is not None)


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
    "genus": Function(("surface", "divisor"), 0, lambda t, n, x: geometry.genus_of_class(n, x)),
    "h0": Function(("surface", "divisor"), 0, lambda t, n, x: geometry.h0_hirzebruch(n, x)),
    "intersect": Function(
        ("surface", "divisor", "divisor"), 0, lambda t, n, x, y: geometry.intersect(n, x, y)
    ),
    "G": Function(("int", "int"), None, lambda t, k, n: geometry.Grassmannian(k, n)),
    "dim": Function(("G",), None, lambda t, g: g.dim),
    "integrate": Function(("G", "poly"), 0, lambda t, g, x: g.integrate(_lift(x, g.table()))),
    "schubert": Function(("G", "partition"), None, lambda t, g, lam: g.schubert_class(lam)),
    "plucker": Function(("G",), None, lambda t, g: g.plucker_degree()),
    "forms": Function(("int", "int"), None, lambda t, m, d: geometry.forms_dim(m, d)),
    "quadrics": Function(("int",), None, lambda t, g: geometry.canonical_quadrics(g)),
    "strata": Function(("int",), None, lambda t, g: geometry.stratum_dimensions(g)),
    "maronik": Function(("int", "int"), None, lambda t, g, n: geometry.maroni_k(g, n)),
    # quotient rings
    "hilbert": Function(("ring", "int"), None, lambda t, p, d: quotient.hilbert_function(p, d)),
    "nf": Function(("poly", "ring"), 1, lambda t, x, p: quotient.normal_form(_lift(x, p.table), p)),
    "pairing": Function(
        ("ring", "int", "int"), None, lambda t, p, i, top: quotient.pairing_matrix(p, i, top)
    ),
    # bundles
    "rank": Function(("bundle",), None, lambda t, b: b.rank),
    "dual": Function(("bundle",), None, lambda t, b: bundles.dual(b)),
    "twist": Function(
        ("bundle", "poly"),
        None,
        lambda t, b, x: bundles.twist(b, _lift(x, b.table)),
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
    "push": Function(("psi",), None, lambda t, s: grr.push_psi(s)),
    "hodge": Function(("int",), None, lambda t, g: grr.hodge_bundle(g, t)),
    "pushbundle": Function(("int", "int"), None, lambda t, k, g: grr.pushforward_bundle(k, g, t)),
    "quadricsbundle": Function(("int",), None, lambda t, g: grr.quadrics_bundle(g, t)),
    # representation theory
    "syt": Function(("partition",), None, lambda t, lam: schur.syt_count(lam)),
    "schurdim": Function(("partition", "int"), None, lambda t, lam, n: schur.dim_schur(lam, n)),
    "lr": Function(("partition", "partition"), None, lambda t, a, b: schur.lr_product(a, b)),
    "sym2wedge2": Function(("int",), None, lambda t, n: schur.decompose_sym2_wedge2(n)),
    # twist solvers
    "hyptwist": Function(("int",), None, lambda t, g: bundles.solve_hyperelliptic_twist(g)),
    "unitwist": Function(("int",), None, lambda t, r: bundles.solve_unimodular_twist(r)),
    "tritwist": Function(("int", "int"), None, lambda t, g, n: bundles.solve_trigonal_twist(g, n)),
}


# -- the operator table ------------------------------------------------------------


def _power(x: Fraction | GradedPoly, k: int) -> Fraction | GradedPoly:
    if k < 0 and isinstance(x, GradedPoly):
        raise EvalError("negative polynomial power")
    return x**k


# operator ("neg" is unary minus) -> rows (kind of each operand, fn); the first
# row whose kinds accept the operands applies
OPERATORS: dict[str, tuple[tuple[Any, ...], ...]] = {
    "neg": (("poly", neg), ("psi", neg)),
    "+": (("poly", "poly", add), ("psi", "psi", add)),
    "-": (("poly", "poly", sub), ("psi", "psi", sub)),
    "*": (
        ("poly", "poly", mul),
        ("psi", "psi", mul),
        ("psi", "scalar", mul),
        ("scalar", "psi", mul),
    ),
    "/": (
        ("poly", "scalar", truediv),
        ("psi", "scalar", lambda x, q: x * (1 / q)),
        ("bundle", "bundle", bundles.sequence_quotient),
    ),
    "^": (("poly", "int", _power),),
}

# operator -> the one error when no row accepts its operands
_CANNOT = {
    "neg": "cannot negate {}",
    "+": "cannot add {} and {}",
    "-": "cannot subtract {1} from {0}",
    "*": "cannot multiply {} and {}",
    "/": "cannot divide {} by {}",
    "^": "cannot raise {} to the power {}",
}


def _operate(op: str, *values: Any) -> Any:
    for *kinds, fn in OPERATORS[op]:
        args = []
        for kind, v in zip(kinds, values):
            arg = _KINDS[kind][1](v)
            if arg is None:
                break
            args.append(arg)
        else:
            try:
                return fn(*args)
            except ZeroDivisionError:
                raise EvalError("division by zero") from None
    raise EvalError(_CANNOT[op].format(*map(_describe, values)))


class Evaluator:
    def __init__(self, trunc: int = DEFAULT_TRUNCATION):
        if not isinstance(trunc, int) or trunc < 0:
            raise EvalError(f"truncation must be an integer >= 0, got {trunc!r}")
        self.trunc = trunc
        self.env: dict[str, Any] = {}
        self._prelude: dict[str, Any] = {}  # the prelude groups built so far

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
        except (ValueError, ArithmeticError) as exc:  # raised outside any call
            raise EvalError(str(exc)) from exc

    def load_definitions(self, text: str) -> None:
        """Run a definitions file: one statement per line, '#' comments."""
        for source in statements(text.splitlines()):
            self.run(source)

    # -- core --------------------------------------------------------------

    def eval(self, node: Expr, env: Mapping[str, Any]) -> Any:
        if isinstance(node, Call):  # the root of most statements
            return self._call(node, env)
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            if node.name in env:
                return env[node.name]
            if node.name not in self._prelude:
                self._prelude.update(prelude(self.trunc, node.name))
                if node.name not in self._prelude:
                    raise EvalError(f"unknown identifier {node.name!r}")
            return self._prelude[node.name]
        if isinstance(node, BinOp):
            return _operate(node.op, self.eval(node.left, env), self.eval(node.right, env))
        if isinstance(node, RingExpr):
            return self._ring(node, env)
        if isinstance(node, Neg):
            return _operate("neg", self.eval(node.arg, env))
        if isinstance(node, ListExpr):
            return tuple([self.eval(item, env) for item in node.items])
        if isinstance(node, BundleExpr):
            return self._bundle(node, env)
        if isinstance(node, Index):
            if node.name == "F":
                if len(node.args) != 1:
                    raise EvalError("surface constructor takes one index: F[n]")
                n = _int(self.eval(node.args[0], env), "F index")
                if n < 0:  # a ValueError, so that an enclosing call names it
                    raise ValueError("Hirzebruch index must be >= 0")
                return geometry.hirzebruch_ring(n)
            raise EvalError(f"unknown indexed constructor {node.name!r}")
        raise EvalError(f"cannot evaluate node {node!r}")

    def _ring(self, node: RingExpr, env: Mapping[str, Any]) -> quotient.RingPresentation:
        ring = _closed_ring(node)
        return self._build_ring(node, env) if ring is None else ring

    def _build_ring(self, node: RingExpr, env: Mapping[str, Any]) -> quotient.RingPresentation:
        table = VariableTable(node.variables, node.weights)
        child = {**env, **_variables(table)}
        rels = []
        for rel in node.relations:
            value = _poly(self.eval(rel, child))
            if value is None:
                raise EvalError("ring relations must be polynomials")
            if not isinstance(value, GradedPoly) and value:
                raise EvalError("ring relations must involve the ring variables")
            rels.append(_lift(value, table))
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
        try:
            args: list[Any] = [None] * len(kinds)
            order = range(len(kinds))
            if scope is not None:
                order = [scope, *order[:scope], *order[scope + 1 :]]
            for i in order:
                value = self.eval(node.args[i], env)
                what, check = _KINDS[kinds[i]]
                args[i] = check(value)
                if args[i] is None:
                    got = _describe(value)
                    raise EvalError(f"argument {i + 1} of {name} must be {what}, got {got}")
                if i == scope:
                    env = {**env, **_SCOPES[kinds[i]](args[i])}
            return fn(self.trunc, *args)
        except EvalError:
            raise
        except (ValueError, ArithmeticError) as exc:
            raise EvalError(f"{name}: {exc}") from exc


@lru_cache(maxsize=1024)  # bounded like graded_piece
def _closed_ring(node: RingExpr) -> quotient.RingPresentation | None:
    """The presentation of `node` if it is closed (module docstring), else
    None.  The walk keeps its own stack, so a deep tree is left for ``eval``
    to reject as it does."""
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
                return None
        elif not isinstance(e, Num):
            return None
    return Evaluator()._build_ring(node, {})


# -- printing -------------------------------------------------------------------


def format_value(v: Any) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, GradedPoly):
        return format_poly(v)
    if isinstance(v, tuple):
        return "(" + ", ".join(map(format_value, v)) + ")"
    if isinstance(v, ExactMatrix):
        rows = ["[" + ", ".join(str(x) for x in row) + "]" for row in v.entries]
        return "[" + ", ".join(rows) + "]"
    if isinstance(v, bundles.FormalBundle):
        cs = ", ".join(f"c{i+1} = {format_poly(c)}" for i, c in enumerate(v.chern))
        return f"bundle(rank {v.rank}; {cs})" if cs else f"bundle(rank {v.rank})"
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
    return str(v)


def presentation_to_text(pres: quotient.RingPresentation) -> str:
    vs = ", ".join(pres.table.names)
    ws = ", ".join(str(w) for w in pres.table.weights)
    rs = ", ".join(format_poly(r) for r in pres.relations)
    return f"ring[{vs}; {ws}]({rs})"
