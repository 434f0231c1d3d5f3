"""Record classes, in place of ``dataclasses``: importing ``dataclasses``
(which loads ``inspect``, ``dis`` and ``tokenize``) took 11-14 ms and building
the 30 record classes with it 37 ms of the 58-68 ms ``import chowcalc.cli``
took, most of a cold ``chowcalc eval`` (2-vCPU host, Python 3.11.7).

Rule: ``__init__`` is compiled, one small ``exec`` per class as in
``collections.namedtuple``, with the fields' real names and defaults, and
ends by calling ``__post_init__`` if the class has one; a generic
``__init__(*args, **kwargs)`` slows every construction, and a ``repl``
session builds tens of thousands of syntax-tree nodes.
``__eq__``, ``__hash__`` and ``__repr__`` (dataclass format) are closures
over one ``operator.attrgetter`` and compile nothing.

A record keeps its hash: the first ``hash()`` stores the hash of its fields
with ``object.__setattr__`` as ``_record_hash`` (a class attribute of None
until then), so a syntax tree that keys a memo is walked once, not on every
lookup.  A field that cannot be hashed raises ``TypeError`` on every call,
and nothing is kept.
"""
from operator import attrgetter


def immutable(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of immutable values, which are
    built with ``object.__setattr__``."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")


def record(cls):
    """Class decorator over the annotated fields and their class-level defaults:
    an immutable, hashable record."""
    ns = vars(cls)
    names = tuple(ns["__annotations__"])
    params = "".join(f", {n}=_ns[{n!r}]" if n in ns else f", {n}" for n in names)
    body = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    scope = {"_set": object.__setattr__, "_ns": ns}
    exec(f"def __init__(self{params}):\n{body}", scope)
    get = attrgetter(*names)
    if len(names) == 1:  # attrgetter of one name returns the bare value
        get = lambda self, one=get: (one(self),)
    fmt = "{}(" + ", ".join(f"{n}={{!r}}" for n in names) + ")"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __repr__(self):
        return fmt.format(type(self).__qualname__, *get(self))

    def __hash__(self):
        h = self._record_hash
        if h is None:
            h = hash(get(self))
            object.__setattr__(self, "_record_hash", h)
        return h

    cls.__init__, cls.__eq__, cls.__repr__ = scope["__init__"], __eq__, __repr__
    cls.__hash__, cls._record_hash = __hash__, None
    cls.__setattr__ = cls.__delattr__ = immutable
    return cls
