"""Evaluator for the CLI expression language.

Values are plain library objects: Fractions, graded polynomials, formal
bundles, ring presentations, Grassmannians, Hirzebruch classes, psi
series, Schur decompositions, and tuples of these.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping

from . import bundles, geometry, grr, quotient, schur
from .algebra import (
    GradedPoly,
    TableMismatchError,
    VariableTable,
    format_poly,
    format_rational,
)
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
    RingExpr,
    Var,
    parse,
)


class EvalError(ValueError):
    pass


DEFAULT_TRUNCATION = 4


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
    dec = grr.plucker_sequence_decomposition(trunc)
    env["F"] = bundles.FormalBundle(
        4,
        tuple(dec.f[i] if i < len(dec.f) else GradedPoly.zero(mtab) for i in range(trunc)),
        mtab,
        exact_rank=False,
    )

    wtab = VariableTable(("w1", "w2"), (1, 2))
    for name in wtab.names:
        env[name] = GradedPoly.variable(wtab, name)
    zero_w = GradedPoly.zero(wtab)
    w_classes = [GradedPoly.variable(wtab, "w1"), GradedPoly.variable(wtab, "w2")]
    w_classes += [zero_w] * max(0, trunc - 2)
    env["W"] = bundles.FormalBundle(2, tuple(w_classes[:trunc]), wtab)
    return env


def _scalar(v: Any, what: str = "argument") -> Fraction:
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, Fraction):
        return v
    if isinstance(v, GradedPoly):
        try:
            return v.as_scalar()
        except ValueError:
            pass
    raise EvalError(f"{what} must be a rational scalar, got {type(v).__name__}")


def _int(v: Any, what: str = "argument") -> int:
    q = _scalar(v, what)
    if q.denominator != 1:
        raise EvalError(f"{what} must be an integer, got {q}")
    return int(q)


def _partition(v: Any) -> schur.Partition:
    if isinstance(v, schur.Partition):
        return v
    if isinstance(v, tuple):
        return schur.Partition.of(*[_int(x, "partition part") for x in v])
    raise EvalError("expected a partition like [3, 1]")


def _line_class(v: Any, table_hint: VariableTable | None = None) -> bundles.LineClass:
    if isinstance(v, bundles.LineClass):
        return v
    if isinstance(v, GradedPoly):
        return bundles.LineClass(v)
    if isinstance(v, (int, Fraction)) and v == 0 and table_hint is not None:
        return bundles.LineClass(GradedPoly.zero(table_hint))
    raise EvalError("twist class must be a degree-1 polynomial")


class Evaluator:
    def __init__(self, trunc: int = DEFAULT_TRUNCATION):
        if not isinstance(trunc, int) or trunc < 0:
            raise EvalError(f"truncation must be an integer >= 0, got {trunc!r}")
        self.trunc = trunc
        self.env: dict[str, Any] = prelude(trunc)

    # -- entry points ------------------------------------------------------

    def run(self, source: str) -> Any:
        node = parse(source)
        if isinstance(node, Assign):
            value = self.eval(node.value, self.env)
            self.env[node.name] = value
            return value
        return self.eval(node, self.env)

    def load_definitions(self, text: str) -> None:
        from .expr import iter_statements

        for node in iter_statements(text):
            if isinstance(node, Assign):
                self.env[node.name] = self.eval(node.value, self.env)
            else:
                self.eval(node, self.env)

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
        raise EvalError(f"cannot negate {type(v).__name__}")

    def _binop(self, node: BinOp, env: Mapping[str, Any]) -> Any:
        a = self.eval(node.left, env)
        b = self.eval(node.right, env)
        op = node.op
        try:
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
        except TableMismatchError as exc:
            raise EvalError(str(exc)) from exc
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
            try:
                return bundles.sequence_quotient(a, b, assert_rank=False)
            except bundles.BundleError as exc:
                raise EvalError(str(exc)) from exc
        if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
            if b == 0:
                raise EvalError("division by zero")
            return Fraction(a) / Fraction(b)
        if isinstance(a, GradedPoly):
            q = _scalar(b, "divisor")
            if q == 0:
                raise EvalError("division by zero")
            return a / q
        raise EvalError(f"cannot divide {type(a).__name__} by {type(b).__name__}")

    def _pow(self, a: Any, b: Any) -> Any:
        k = _int(b, "exponent")
        if isinstance(a, (int, Fraction)):
            return Fraction(a) ** k
        if isinstance(a, GradedPoly):
            if k < 0:
                raise EvalError("negative polynomial power")
            return a**k
        raise EvalError(f"cannot raise {type(a).__name__} to a power")

    def _ring(self, node: RingExpr, env: Mapping[str, Any]) -> quotient.RingPresentation:
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
        try:
            return quotient.RingPresentation(table, tuple(rels))
        except ValueError as exc:
            raise EvalError(str(exc)) from exc

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
        try:
            return bundles.FormalBundle(rank, tuple(cs[: self.trunc]), table, exact_rank=False)
        except bundles.BundleError as exc:
            raise EvalError(str(exc)) from exc

    # -- function calls ------------------------------------------------------

    def _call(self, node: Call, env: Mapping[str, Any]) -> Any:
        name = node.name
        handler = getattr(self, f"_fn_{name}", None)
        if handler is None:
            raise EvalError(f"unknown function {name!r}")
        try:
            return handler(node.args, env)
        except EvalError:
            raise
        except (ValueError, ArithmeticError) as exc:
            # library guard errors surface verbatim as evaluation errors
            raise EvalError(f"{name}: {exc}") from exc

    def _args(self, args, env, n: int, what: str):
        if len(args) != n:
            raise EvalError(f"{what} takes {n} argument(s), got {len(args)}")
        return [self.eval(a, env) for a in args]

    # geometry ---------------------------------------------------------------

    def _surface_env(self, surface, env) -> dict[str, Any]:
        n = surface.n
        child = dict(env)
        child.update(
            E=geometry.section_E(n), S=geometry.section_S(n), F=geometry.fiber_F(n)
        )
        return child

    def _fn_genus(self, args, env):
        if len(args) != 2:
            raise EvalError("genus takes (surface, class)")
        surface = self.eval(args[0], env)
        if not isinstance(surface, geometry.HirzebruchSurfaceHandle):
            raise EvalError("first argument of genus must be a surface F[n]")
        cls = self.eval(args[1], self._surface_env(surface, env))
        if not isinstance(cls, geometry.HirzebruchClass):
            raise EvalError("second argument of genus must be a divisor class")
        return geometry.genus_of_class(cls)

    def _fn_h0(self, args, env):
        if len(args) != 2:
            raise EvalError("h0 takes (surface, class)")
        surface = self.eval(args[0], env)
        if not isinstance(surface, geometry.HirzebruchSurfaceHandle):
            raise EvalError("first argument of h0 must be a surface F[n]")
        cls = self.eval(args[1], self._surface_env(surface, env))
        return geometry.h0_hirzebruch(cls)

    def _fn_intersect(self, args, env):
        if len(args) != 3:
            raise EvalError("intersect takes (surface, class, class)")
        surface = self.eval(args[0], env)
        if not isinstance(surface, geometry.HirzebruchSurfaceHandle):
            raise EvalError("first argument of intersect must be a surface F[n]")
        child = self._surface_env(surface, env)
        x = self.eval(args[1], child)
        y = self.eval(args[2], child)
        if not isinstance(x, geometry.HirzebruchClass) or not isinstance(
            y, geometry.HirzebruchClass
        ):
            raise EvalError("intersect needs two divisor classes")
        return geometry.intersect(x, y)

    def _fn_G(self, args, env):
        k, n = (self._int_arg(a, env) for a in self._two(args, "G"))
        try:
            return geometry.Grassmannian(k, n)
        except ValueError as exc:
            raise EvalError(str(exc)) from exc

    def _fn_dim(self, args, env):
        (v,) = self._args(args, env, 1, "dim")
        if isinstance(v, geometry.Grassmannian):
            return Fraction(v.dim)
        raise EvalError("dim applies to a Grassmannian")

    def _fn_rank(self, args, env):
        (v,) = self._args(args, env, 1, "rank")
        if isinstance(v, bundles.FormalBundle):
            return Fraction(v.rank)
        raise EvalError("rank applies to a bundle")

    def _fn_integrate(self, args, env):
        if len(args) != 2:
            raise EvalError("integrate takes (grassmannian, class)")
        g = self.eval(args[0], env)
        if not isinstance(g, geometry.Grassmannian):
            raise EvalError("first argument of integrate must be G(k, n)")
        child = dict(env)
        for i in range(1, g.k + 1):
            child[f"c{i}"] = g.chern_sub(i)
        child["sigma1"] = g.sigma1()
        x = self.eval(args[1], child)
        if not isinstance(x, GradedPoly):
            raise EvalError("integrand must be a polynomial in the Chern classes")
        try:
            return g.integrate(x)
        except (ValueError, ArithmeticError) as exc:
            raise EvalError(str(exc)) from exc

    def _fn_schubert(self, args, env):
        if len(args) != 2:
            raise EvalError("schubert takes (grassmannian, partition)")
        g = self.eval(args[0], env)
        lam = _partition(self.eval(args[1], env))
        if not isinstance(g, geometry.Grassmannian):
            raise EvalError("first argument of schubert must be G(k, n)")
        try:
            return g.schubert_class(lam)
        except ValueError as exc:
            raise EvalError(str(exc)) from exc

    def _fn_plucker(self, args, env):
        (g,) = self._args(args, env, 1, "plucker")
        if not isinstance(g, geometry.Grassmannian):
            raise EvalError("plucker applies to a Grassmannian")
        return Fraction(g.plucker_degree())

    def _fn_forms(self, args, env):
        m, d = (self._int_arg(a, env) for a in self._two(args, "forms"))
        return Fraction(geometry.forms_dim(m, d))

    def _fn_quadrics(self, args, env):
        g = self._one(args, "quadrics")
        return Fraction(geometry.canonical_quadrics(self._int_arg(g, env)))

    def _fn_strata(self, args, env):
        g = self._one(args, "strata")
        try:
            return tuple(Fraction(d) for d in geometry.stratum_dimensions(self._int_arg(g, env)))
        except ValueError as exc:
            raise EvalError(str(exc)) from exc

    def _fn_maronik(self, args, env):
        g, n = (self._int_arg(a, env) for a in self._two(args, "maronik"))
        return geometry.maroni_k(g, n)

    # quotient rings -----------------------------------------------------------

    def _fn_hilbert(self, args, env):
        if len(args) != 2:
            raise EvalError("hilbert takes (ring, max degree)")
        pres = self.eval(args[0], env)
        if not isinstance(pres, quotient.RingPresentation):
            raise EvalError("first argument of hilbert must be a ring")
        d = self._int_arg(args[1], env)
        return tuple(Fraction(x) for x in quotient.hilbert_function(pres, d))

    def _fn_nf(self, args, env):
        if len(args) != 2:
            raise EvalError("nf takes (polynomial, ring)")
        pres = self.eval(args[1], env)
        if not isinstance(pres, quotient.RingPresentation):
            raise EvalError("second argument of nf must be a ring")
        child = dict(env)
        for name in pres.table.names:
            child[name] = GradedPoly.variable(pres.table, name)
        x = self.eval(args[0], child)
        if isinstance(x, (int, Fraction)):
            x = GradedPoly.constant(pres.table, x)
        if not isinstance(x, GradedPoly):
            raise EvalError("first argument of nf must be a polynomial")
        try:
            return quotient.normal_form(x, pres)
        except ValueError as exc:
            raise EvalError(str(exc)) from exc

    def _fn_pairing(self, args, env):
        if len(args) != 3:
            raise EvalError("pairing takes (ring, i, top)")
        pres = self.eval(args[0], env)
        if not isinstance(pres, quotient.RingPresentation):
            raise EvalError("first argument of pairing must be a ring")
        i = self._int_arg(args[1], env)
        top = self._int_arg(args[2], env)
        try:
            return quotient.pairing_matrix(pres, i, top)
        except ValueError as exc:
            raise EvalError(str(exc)) from exc

    # bundles -------------------------------------------------------------------

    def _bundle_arg(self, v, what: str) -> bundles.FormalBundle:
        if not isinstance(v, bundles.FormalBundle):
            raise EvalError(f"{what} must be a bundle, got {type(v).__name__}")
        return v

    def _fn_dual(self, args, env):
        (b,) = self._args(args, env, 1, "dual")
        return bundles.dual(self._bundle_arg(b, "dual argument"))

    def _fn_twist(self, args, env):
        b, t = self._args(args, env, 2, "twist")
        b = self._bundle_arg(b, "twist argument")
        try:
            return bundles.twist(b, _line_class(t, b.table))
        except bundles.BundleError as exc:
            raise EvalError(str(exc)) from exc

    def _fn_sym(self, args, env):
        k, b = self._args(args, env, 2, "sym")
        try:
            return bundles.sym_power(self._bundle_arg(b, "sym argument"), _int(k, "sym exponent"))
        except bundles.BundleError as exc:
            raise EvalError(str(exc)) from exc

    def _fn_wedge(self, args, env):
        k, b = self._args(args, env, 2, "wedge")
        try:
            return bundles.wedge_power(
                self._bundle_arg(b, "wedge argument"), _int(k, "wedge exponent")
            )
        except bundles.BundleError as exc:
            raise EvalError(str(exc)) from exc

    def _fn_sum(self, args, env):
        a, b = self._args(args, env, 2, "sum")
        try:
            return bundles.direct_sum(
                self._bundle_arg(a, "summand"), self._bundle_arg(b, "summand")
            )
        except bundles.BundleError as exc:
            raise EvalError(str(exc)) from exc

    def _fn_ch(self, args, env):
        (b,) = self._args(args, env, 1, "ch")
        return tuple(bundles.chern_character(self._bundle_arg(b, "ch argument")))

    def _fn_chern(self, args, env):
        i, b = self._args(args, env, 2, "chern")
        return self._bundle_arg(b, "chern argument").c(_int(i, "chern index"))

    # pushforward engine ----------------------------------------------------------

    def _fn_td(self, args, env):
        g = self._one(args, "td")
        return grr.todd_series(self._int_arg(g, env), self.trunc)

    def _fn_omega(self, args, env):
        k, g = (self._int_arg(a, env) for a in self._two(args, "omega"))
        return grr.exp_psi(k, g, self.trunc)

    def _fn_psi(self, args, env):
        g = self._one(args, "psi")
        return grr.psi(self._int_arg(g, env), self.trunc)

    def _fn_push(self, args, env):
        (s,) = self._args(args, env, 1, "push")
        if not isinstance(s, grr.PsiSeries):
            raise EvalError("push applies to a psi series")
        try:
            return grr.push_psi(s.truncate(self.trunc + 1))
        except ValueError as exc:
            raise EvalError(str(exc)) from exc

    def _fn_hodge(self, args, env):
        g = self._one(args, "hodge")
        return grr.hodge_bundle(self._int_arg(g, env), self.trunc)

    def _fn_pushbundle(self, args, env):
        k, g = (self._int_arg(a, env) for a in self._two(args, "pushbundle"))
        return grr.pushforward_bundle(k, g, self.trunc)

    def _fn_quadricsbundle(self, args, env):
        g = self._one(args, "quadricsbundle")
        return grr.quadrics_bundle(self._int_arg(g, env), self.trunc)

    # representation theory ---------------------------------------------------

    def _fn_syt(self, args, env):
        (lam,) = self._args(args, env, 1, "syt")
        return Fraction(schur.syt_count(_partition(lam)))

    def _fn_schurdim(self, args, env):
        lam, n = self._args(args, env, 2, "schurdim")
        return Fraction(schur.dim_schur(_partition(lam), _int(n, "dimension")))

    def _fn_lr(self, args, env):
        a, b = self._args(args, env, 2, "lr")
        return schur.lr_product(_partition(a), _partition(b))

    def _fn_sym2wedge2(self, args, env):
        n = self._one(args, "sym2wedge2")
        try:
            return schur.decompose_sym2_wedge2(self._int_arg(n, env))
        except ValueError as exc:
            raise EvalError(str(exc)) from exc

    # twist solvers -------------------------------------------------------------

    def _fn_hyptwist(self, args, env):
        g = self._one(args, "hyptwist")
        return bundles.solve_hyperelliptic_twist(self._int_arg(g, env))

    def _fn_unitwist(self, args, env):
        r = self._one(args, "unitwist")
        return bundles.solve_unimodular_twist(self._int_arg(r, env))

    def _fn_tritwist(self, args, env):
        g, n = (self._int_arg(a, env) for a in self._two(args, "tritwist"))
        try:
            return bundles.solve_trigonal_twist(g, n)
        except bundles.BundleError as exc:
            raise EvalError(str(exc)) from exc

    # helpers ---------------------------------------------------------------------

    def _one(self, args, what: str):
        if len(args) != 1:
            raise EvalError(f"{what} takes 1 argument, got {len(args)}")
        return args[0]

    def _two(self, args, what: str):
        if len(args) != 2:
            raise EvalError(f"{what} takes 2 arguments, got {len(args)}")
        return args

    def _int_arg(self, node, env) -> int:
        return _int(self.eval(node, env))


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


def presentation_to_lines(pres: quotient.RingPresentation) -> str:
    """Plain-text serialization: a header line, then one relation per line."""
    vs = ", ".join(pres.table.names)
    ws = ", ".join(str(w) for w in pres.table.weights)
    lines = [f"ring[{vs}; {ws}]"] + [format_poly(r) for r in pres.relations]
    return "\n".join(lines) + "\n"


def presentation_from_lines(text: str) -> quotient.RingPresentation:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("ring["):
        raise EvalError("presentation file must start with a 'ring[vars; weights]' header")
    src = lines[0] + "(" + ", ".join(lines[1:]) + ")"
    node = parse(src)
    return Evaluator().eval(node, {})
