"""Every record class of src/chowcalc against a frozen stdlib ``@dataclass``
twin with the same fields, defaults and ``__post_init__``: the twin is the
reference the ``_record`` helper must reproduce."""
import ast
import dataclasses
import importlib
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from chowcalc.algebra import ExactMatrix, GradedPoly, VariableTable
from chowcalc.expr import Call, Index, Num, Var
from chowcalc.schur import Partition

SRC = Path(__file__).resolve().parents[1] / "src" / "chowcalc"
T = VariableTable(("x", "y"), (1, 2))
X, Y = GradedPoly.variable(T, "x"), GradedPoly.variable(T, "y")
K = VariableTable(("k",), (1,))

# Two or more argument tuples per record class; each class's tuples differ.
SAMPLES = {
    "VariableTable": [(("a", "b"), (1, 2)), (("a",), (1,))],
    "RowReduction": [(1, ExactMatrix([[1]]), (0,), Fraction(1)), (0, ExactMatrix([[0]]), (), None)],
    "ExactMatrix": [(((1, 2), (3, 4)),), (((Fraction(1, 2),),),), ((), 3)],
    "FormalBundle": [(2, (X, Y), T), (2, (X, Y * 3), T), (0, (), K)],
    "TwistSolution": [((("w1", X),),), ((("a", X), ("b", X * X + Y)), "  (note)")],
    "CheckResult": [
        ("m6", "anchor", "direct", "pass", "1", "1", 1.5),
        ("m6", "anchor", "direct", "fail", "1", "2", 1.5),
    ],
    "Check": [("m6", "anchor", "direct", len), ("m6", "anchor", "literature", len)],
    "Num": [(1,), (2,)],
    "Var": [("x",), ("k1",)],
    "Neg": [(Num(1),), (Var("x"),)],
    "BinOp": [("+", Num(1), Var("x")), ("^", Num(1), Var("x"))],
    "Call": [("f", (Num(1),)), ("f", ()), ("g", (Num(1), Var("x")))],
    "Index": [("f", (Num(1),)), ("F", (Num(0),))],
    "ListExpr": [((Num(1), Num(2)),), ((),)],
    "RingExpr": [(("x",), (1,), (Num(1),)), (("x", "y"), (1, 2), ())],
    "BundleExpr": [(Num(2), (Var("x"),)), (Num(1), ())],
    "Assign": [("a", Num(1)), ("b", Num(1))],
    "Grassmannian": [(2, 4), (1, 3)],
    "PsiSeries": [(2, (X, Y)), (3, (X,))],
    "RingPresentation": [(T, (X * X - Y,)), (T, ())],
    "GradedPiece": [(((1, 0),), {(1, 0): X}), ((), {})],
    "Partition": [((2, 1),), ((1,),), ((),)],
    "SchurDecomposition": [(((Partition((2,)), 1),),), (((Partition((1, 1)), 2),),)],
}
# Arguments that each ``__post_init__`` rejects.
REJECTED = {
    "VariableTable": [(("a",), (1, 2)), (("a", "a"), (1, 1)), (("a",), (0,))],
    "ExactMatrix": [(((1, 2), (3,)),), (((1, 2),), 3)],
    "FormalBundle": [(-1, (), T), (1, (Y,), T), (1, (GradedPoly.variable(K, "k"),), T)],
    "Grassmannian": [(2, 2), (0, 3)],
    "PsiSeries": [(1, (X,)), (2, ()), (2, (X, GradedPoly.one(K)))],
    "RingPresentation": [(T, (X * 0,)), (T, (X + Y,)), (K, (X,))],
    "Partition": [((1, 2),), ((2, 0),)],
    "SchurDecomposition": [(((Partition((1,)), 0),),)],
}


def _record_classes():
    """(module, class name) for every ``@record`` class."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for deco in getattr(stmt, "decorator_list", ()):
                if getattr(deco, "id", None) == "record":
                    found.append((path.stem, stmt.name))
    return found


RECORDS = _record_classes()


def _class(module, name):
    return getattr(importlib.import_module(f"chowcalc.{module}"), name)


def _twin(cls):
    """The stdlib dataclass the record class stood for."""
    ns = vars(cls)
    fields = [
        (n, a, dataclasses.field(default=ns[n])) if n in ns else (n, a)
        for n, a in ns["__annotations__"].items()
    ]
    extra = {"__post_init__": ns["__post_init__"]} if "__post_init__" in ns else {}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=extra, frozen=True)


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # compared between record and twin
        return "raised", (type(exc), str(exc))


def _bare(sig):
    """The signature without annotations: the names, kinds and defaults."""
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return sig.replace(parameters=params, return_annotation=inspect.Signature.empty)


def test_every_record_class_has_samples():
    assert len(RECORDS) == 23
    assert sorted(name for _, name in RECORDS) == sorted(SAMPLES)
    checked = {name for module, name in RECORDS if "__post_init__" in vars(_class(module, name))}
    assert set(REJECTED) == checked


@pytest.mark.parametrize("module,name", RECORDS, ids=[r[1] for r in RECORDS])
def test_record_matches_its_dataclass_twin(module, name):
    cls = _class(module, name)
    twin = _twin(cls)
    assert _bare(inspect.signature(cls)) == _bare(inspect.signature(twin))
    samples = SAMPLES[name]
    records = [cls(*args) for args in samples]
    twins = [twin(*args) for args in samples]
    for rec, tw, args in zip(records, twins, samples):
        assert repr(rec) == repr(tw)
        again = cls(*args)
        assert rec == again and not rec != again
        assert _outcome(hash, rec) == _outcome(hash, tw)
        for field in vars(cls)["__annotations__"]:
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
            with pytest.raises(AttributeError):
                delattr(rec, field)
        assert rec == again
        by_name = cls(**dict(zip(vars(cls)["__annotations__"], args)))
        assert by_name == rec
        assert _outcome(cls, *args, unknown=1)[1][0] is TypeError
        assert _outcome(cls, *args, None, None, None)[1][0] is TypeError
    for i, (a, ta) in enumerate(zip(records, twins)):
        for b, tb in zip(records[i + 1:], twins[i + 1:]):
            assert (a == b, a != b) == (ta == tb, ta != tb) == (False, True)
        assert (a == ta) is False and a.__eq__(ta) is NotImplemented
    if all(args for args in samples):
        assert _outcome(cls)[1][0] is TypeError
    for args in REJECTED.get(name, ()):
        bad = _outcome(cls, *args)
        assert bad[0] == "raised" and bad == _outcome(twin, *args)


def test_records_of_different_classes_never_compare_equal():
    assert Call("f", (Num(1),)) != Index("f", (Num(1),))
    assert not Call("f", (Num(1),)) == Index("f", (Num(1),))


# -- the kept hash ----------------------------------------------------------------


class Counted:
    """A field that counts the calls of its ``__hash__``."""

    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 7


def test_a_record_hashes_its_fields_once():
    field = Counted()
    node = Var(field)
    assert hash(node) == hash(node) == hash((field,))
    assert field.calls == 2  # one for the record, one for the comparison tuple
    assert {node: 1}[node] == 1 and field.calls == 2


@pytest.mark.parametrize("module,name", RECORDS, ids=[r[1] for r in RECORDS])
def test_the_kept_hash_is_the_hash_of_the_fields(module, name):
    cls = _class(module, name)
    for args in SAMPLES[name]:
        rec = cls(*args)
        fields = tuple(getattr(rec, n) for n in vars(cls)["__annotations__"])
        for _ in range(2):  # computed, then kept
            assert _outcome(hash, rec) == _outcome(hash, fields)


def test_an_unhashable_field_raises_on_every_call():
    node = Num([1])
    for _ in range(3):
        with pytest.raises(TypeError, match="unhashable"):
            hash(node)
    assert node._record_hash is None
