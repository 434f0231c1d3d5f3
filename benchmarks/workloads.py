"""Seeded input generators for the chowcalc benchmark workloads.

Each generator takes the seed as its argument and yields an endless stream
of operations; the program only ever sees the generated argument vector or
input line.  The seed changes coefficients, parameters and order, never the
mix: every ``session`` round and every ``eval-cold`` cycle holds the same
kinds of operation in the same numbers.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import count
from typing import Iterator

import oracles
from oracles import Oracle

DEFAULT_SEED = 1
HELD_OUT_SEED = 7


@dataclass(frozen=True)
class Op:
    kind: str  # "verify", "eval", "fresh" (new session ring) or "cheap"
    query: str  # what the operation asks, without its random parameters
    args: tuple[str, ...]  # CLI arguments of a fresh process, or (input line,)
    check: Oracle = field(compare=False, repr=False)


# -- verify ---------------------------------------------------------------------

VERIFY_ARGS = ("verify", "--trunc", "8", "--format", "json")


def verify_ops(seed: int) -> Iterator[Op]:
    """The paper's headline command; its input does not depend on the seed
    (the check battery seeds its own random identities)."""
    while True:
        yield Op("verify", "verify", VERIFY_ARGS, oracles.verify_report)


# -- eval-cold ------------------------------------------------------------------

EVAL_ARGS = ("eval", "--trunc", "8")
_M6_TEXT = "ring[k1,k2; 1,2](127*k1^3 - 2304*k1*k2, 113*k1^4 - 36864*k2^2)"

# One-liners that each take under ~25 ms in-process once the prelude is built.
EVAL_CORPUS: tuple[tuple[str, Oracle], ...] = (
    ("dim(G(4, 10)) + 16", oracles.expect_exact("40")),
    ("nf(k1^4, M6)", oracles.expect_exact(oracles.M6_NF_K1_4)),
    ("genus(F[2], 3*S + 1*F)", oracles.expect_exact("6")),
    (f"hilbert({_M6_TEXT}, 8)", oracles.expect_tuple(oracles.m6_hilbert(8))),
    ("integrate(G(2, 5), sigma1^6)", oracles.expect_exact("5")),
    ("hilbert(M6, 6)", oracles.expect_tuple(oracles.m6_hilbert(6))),
    ("nf(k1^5, M6)", oracles.expect_exact("0")),
    ("nf(k1*k2^2, M6)", oracles.expect_exact("0")),
    ("plucker(G(2, 6))", oracles.expect_exact(str(oracles.plucker_degree(2, 6)))),
    ("plucker(G(3, 6))", oracles.expect_exact(str(oracles.plucker_degree(3, 6)))),
    ("plucker(G(2, 7))", oracles.expect_exact(str(oracles.plucker_degree(2, 7)))),
    ("integrate(G(2, 4), sigma1^4)", oracles.expect_exact(str(oracles.plucker_degree(2, 4)))),
    ("lr([2, 1], [2, 1])", oracles.expect_lr((2, 1), (2, 1))),
    ("lr([3, 1], [2, 2])", oracles.expect_lr((3, 1), (2, 2))),
    ("schurdim([2, 1], 4)", oracles.expect_exact(str(oracles.schur_dim((2, 1), 4)))),
    ("schurdim([3, 2, 1], 5)", oracles.expect_exact(str(oracles.schur_dim((3, 2, 1), 5)))),
)


def eval_cold_ops(seed: int) -> Iterator[Op]:
    """Every corpus line once per cycle, in a seeded order."""
    rng = random.Random(seed)
    while True:
        for expr, check in rng.sample(EVAL_CORPUS, len(EVAL_CORPUS)):
            yield Op("eval", expr, EVAL_ARGS + (expr,), check)


# -- session --------------------------------------------------------------------

SESSION_ARGS = ("repl", "--trunc", "4")
# One repl process serves this many rounds.  The caches of a process grow
# with every fresh ring, so a fixed number of rounds per process keeps its
# peak memory independent of how many rounds a run gets through.
SESSION_ROUNDS = 8
_VARS = "xyzw"

# Fresh rings: (query, weights, relation degrees).  Relation i is
# c*x_i^(d_i/w_i) plus same-degree terms in x_(i+1..n), so the only common
# zero is the origin and the ring is a complete intersection of top degree
# sum(d_i - w_i).
FRESH_SHAPES = (
    ("hilbert", (1, 1, 1), (3, 3, 3)),
    ("hilbert", (1, 1, 1), (2, 3, 4)),
    ("hilbert", (1, 1, 2, 2), (2, 2, 4, 4)),
    ("hilbert", (1, 1, 1, 1), (2, 2, 2, 2)),
    ("pairing", (1, 1, 1), (4, 4, 4)),
    ("pairing", (1, 1, 1, 1), (2, 2, 2, 2)),
)
HILBERT_SHAPES = tuple(s for s in FRESH_SHAPES if s[0] == "hilbert")
# Cheap lines per round.  Each repeat re-asks the Hilbert function of an
# earlier ring of one fresh shape, two per shape; these eight lines sit in
# the middle of the latency ranking, so the median measures them.
CHEAP_SLOTS = tuple(("repeat", s) for s in HILBERT_SHAPES for _ in range(2)) + tuple(
    (kind, None) for kind in ("m6", "m6", "grass", "lr", "schurdim", "dim")
)
SESSION_ROUND = len(FRESH_SHAPES) + len(CHEAP_SLOTS)
SESSION_GRASS = ((2, 4), (2, 5), (2, 6), (3, 6), (3, 7), (4, 7))
SESSION_LR = (((2, 1), (2, 1)), ((3, 1), (2,)), ((2, 2), (1, 1)), ((3, 2, 1), (2, 1)))
SESSION_SCHURDIM = (((2, 1), 4), ((3, 1), 3), ((2, 2), 5), ((3, 2, 1), 4))


def _monomial(exps: tuple[int, ...], names: str) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def _same_degree(weights: tuple[int, ...], degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of weighted degree exactly `degree`."""
    if not weights:
        return [()] if degree == 0 else []
    w = weights[0]
    return [
        (e,) + rest
        for e in range(degree // w, -1, -1)
        for rest in _same_degree(weights[1:], degree - e * w)
    ]


def ci_ring(rng: random.Random, weights: tuple[int, ...], degrees: tuple[int, ...]) -> str:
    """A complete intersection with the given weights and relation degrees,
    in the ``ring[vars; weights](relations)`` syntax; every coefficient is a
    nonzero integer, so the rings of one shape have the same support."""
    names = _VARS[: len(weights)]
    rels = []
    for i, (w, d) in enumerate(zip(weights, degrees)):
        terms = [f"{rng.randint(1, 9)}*{names[i]}^{d // w}"]
        for exps in _same_degree(weights[i + 1 :], d):
            sign = rng.choice("+-")
            terms.append(f"{sign} {rng.randint(1, 9)}*{_monomial(exps, names[i + 1 :])}")
        rels.append(" ".join(terms))
    return f"ring[{', '.join(names)}; {', '.join(map(str, weights))}]({', '.join(rels)})"


def _fresh(rng, shape, seen) -> Op:
    query, weights, degrees = shape
    ring = ci_ring(rng, weights, degrees)
    top = sum(degrees) - sum(weights)
    if query == "hilbert":
        seen.setdefault(shape, []).append(ring)
        return Op("fresh", _name(shape), (f"hilbert({ring}, {top + 1})",),
                  oracles.expect_tuple(oracles.ci_hilbert(weights, degrees, top + 1)))
    h = oracles.ci_hilbert(weights, degrees, top)
    i = top // 2
    return Op("fresh", _name(shape), (f"pairing({ring}, {i}, {top})",),
              oracles.expect_invertible_pairing(h[i], h[top - i]))


def _name(shape) -> str:
    query, weights, degrees = shape
    return f"{query}{weights}{degrees}"


def _cheap(rng, slot, shape, seen) -> Op:
    if slot == "repeat":
        _, weights, degrees = shape
        ring = rng.choice(seen[shape])
        top = sum(degrees) - sum(weights)
        d = rng.randint(top - 1, top + 1)
        return Op("cheap", f"repeat {_name(shape)}", (f"hilbert({ring}, {d})",),
                  oracles.expect_tuple(oracles.ci_hilbert(weights, degrees, d)))
    if slot == "m6":
        form = rng.randrange(3)
        if form == 0:
            return Op("cheap", slot, ("nf(k1^4, M6)",), oracles.expect_exact(oracles.M6_NF_K1_4))
        if form == 1:
            d = rng.randint(4, 8)
            return Op("cheap", slot, (f"hilbert(M6, {d})",), oracles.expect_tuple(oracles.m6_hilbert(d)))
        a, b = rng.choice(((5, 0), (3, 1), (1, 2), (2, 2), (6, 0)))
        text = f"nf({_monomial((a, b), ('k1', 'k2'))}, M6)"
        return Op("cheap", slot, (text,), oracles.expect_exact("0"))
    if slot == "grass":
        k, n = rng.choice(SESSION_GRASS)
        dim = k * (n - k)
        text = rng.choice((f"plucker(G({k}, {n}))", f"integrate(G({k}, {n}), sigma1^{dim})"))
        return Op("cheap", slot, (text,), oracles.expect_exact(str(oracles.plucker_degree(k, n))))
    if slot == "lr":
        lam, mu = rng.choice(SESSION_LR)
        text = f"lr({list(lam)}, {list(mu)})"
        return Op("cheap", slot, (text,), oracles.expect_lr(lam, mu))
    if slot == "schurdim":
        lam, n = rng.choice(SESSION_SCHURDIM)
        return Op("cheap", slot, (f"schurdim({list(lam)}, {n})",),
                  oracles.expect_exact(str(oracles.schur_dim(lam, n))))
    k = rng.randint(1, 5)
    n = rng.randint(k + 1, 10)
    return Op("cheap", slot, (f"dim(G({k}, {n}))",), oracles.expect_exact(str(k * (n - k))))


def session_ops(seed: int) -> Iterator[Op]:
    """Rounds of 20 lines, 6 fresh rings and 14 cheap lines, in a seeded
    order.  Every SESSION_ROUNDS rounds run.py opens a new repl, so the
    rings re-asked are those of the current process only, and its first
    round asks its fresh Hilbert rings first."""
    rng = random.Random(seed)
    for n in count():
        if n % SESSION_ROUNDS == 0:
            seen: dict[tuple, list[str]] = {}
        slots = [("fresh", s) for s in FRESH_SHAPES] + [("cheap", s) for s in CHEAP_SLOTS]
        rng.shuffle(slots)
        if n % SESSION_ROUNDS == 0:
            slots.sort(key=lambda slot: slot[0] != "fresh" or slot[1][0] != "hilbert")
        for kind, slot in slots:
            yield _fresh(rng, slot, seen) if kind == "fresh" else _cheap(rng, *slot, seen)


WORKLOADS = {"verify": verify_ops, "eval-cold": eval_cold_ops, "session": session_ops}
