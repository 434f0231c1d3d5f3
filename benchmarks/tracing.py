"""Per-layer tracing for the chowcalc benchmark.

Run as a program, this file is a traced stand-in for ``python -m chowcalc``:

    python -u benchmarks/tracing.py OP_ID verify --trunc 8 --format json

It imports ``chowcalc.cli`` (timing the import), wraps the public functions
listed in ``TIMED`` in every chowcalc module that binds them, calls
``chowcalc.cli.main`` with the remaining arguments, and at exit writes one
line ``SPANS <json>`` to standard error.  Spans stay in memory until then.
OP_ID numbers the operation; in ``repl`` mode it is bumped for every line
read from standard input, so the spans of one line share an id.

Imported, it only provides the metric names and ``aggregate``, which turns
span dumps into per-layer metrics; it does not import chowcalc.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

SPANS_PREFIX = "SPANS "

# (layer metric, module, attribute) — a dotted attribute names a method.
TIMED = (
    ("algebra.row_reduce", "algebra", "ExactMatrix.row_reduce"),
    ("algebra.poly_mul", "algebra", "GradedPoly.__mul__"),
    ("algebra.poly_mul", "algebra", "GradedPoly.__rmul__"),
    ("algebra.poly_mul", "algebra", "mul_trunc"),
    ("quotient.graded_piece", "quotient", "graded_piece"),
    ("quotient.normal_form", "quotient", "normal_form"),
    ("quotient.pairing_matrix", "quotient", "pairing_matrix"),
    ("bundles.sym_power", "bundles", "sym_power"),
    ("bundles.wedge_power", "bundles", "wedge_power"),
    ("bundles.twist", "bundles", "twist"),
    ("bundles.sequence_quotient", "bundles", "sequence_quotient"),
    ("bundles.direct_sum", "bundles", "direct_sum"),
    ("bundles.chern_character", "bundles", "chern_character"),
    ("bundles.chern_from_character", "bundles", "chern_from_character"),
    ("grr.pushforward_bundle", "grr", "pushforward_bundle"),
    ("grr.push_psi", "grr", "push_psi"),
    ("grr.plucker_sequence_decomposition", "grr", "plucker_sequence_decomposition"),
    ("geometry.integrate", "geometry", "Grassmannian.integrate"),
    ("geometry.schubert_class", "geometry", "Grassmannian.schubert_class"),
    ("schur.lr_product", "schur", "lr_product"),
    ("schur.decompose_sym2_wedge2", "schur", "decompose_sym2_wedge2"),
    ("expr.parse", "expr", "parse"),
    ("evaluator.run", "evaluator", "Evaluator.run"),
    ("evaluator.prelude", "evaluator", "prelude"),
)
# lru_cache-wrapped functions whose hit ratio is reported.
CACHED = (
    ("algebra.monomial_basis", "algebra", "monomial_basis"),
    ("quotient.graded_piece", "quotient", "graded_piece"),
    ("bundles.universal_chern", "bundles", "universal_chern"),
    ("schur.schur_polynomial", "schur", "schur_polynomial"),
)
# Work counters that repeat exactly for a given seed.
COUNTERS = (
    ("algebra.row_reduce.cells", "count"),
    ("algebra.row_reduce.max_bits", "bits"),
    ("algebra.poly_mul.terms_out", "count"),
)
CHECK_IDS = (
    "canonical-quadrics",
    "grr-constants",
    "looijenga-vanishing",
    "low-genus-rings",
    "m6-presentation",
    "maroni-adjunction",
    "mukai-bookkeeping",
    "plucker-lemma",
    "random-identities",
    "sensitivity",
    "strata-dimensions",
    "sym-power-calculus",
)
# Only the prelude's self time is asked for; it has no calls counter.
_SELF_ONLY = {"evaluator.prelude"}
# Span name for the benchmark's own counter bookkeeping, kept out of every
# layer's self time.
_BOOKKEEPING = "trace.counters"


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    timed = dict.fromkeys(name for name, _, _ in TIMED)
    cached = [name for name, _, _ in CACHED]
    out: list[tuple[str, str]] = []
    for layer in timed:
        if layer not in _SELF_ONLY:
            out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.self_s", "s"))
        out += [(c, unit) for c, unit in COUNTERS if c.startswith(layer + ".")]
        if layer in cached:
            out.append((f"{layer}.hit_ratio", "ratio"))
    out += [(f"{c}.hit_ratio", "ratio") for c in cached if c not in timed]
    out.append(("cli.import_s", "s"))
    out += [(f"checks.{c}.ms", "ms") for c in CHECK_IDS]
    out += [("trace.ops", "count"), ("trace.wall_s", "s"), ("trace.overhead_frac", "ratio")]
    return out


def span_self_times(spans: list[list]):
    """Yield (name, op, self time) per span, where self time is the span's
    duration minus the time covered by its child spans.  A span is
    [id, name, start, end, parent id, op]; calls on one thread nest, so the
    children of a span never overlap."""
    covered: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        covered[parent] += end - start
    for sid, name, start, end, _, op in spans:
        yield name, op, (end - start) - covered[sid]


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time summed per span name."""
    out: dict[str, float] = defaultdict(float)
    for name, _, s in span_self_times(spans):
        out[name] += s
    return dict(out)


def aggregate(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the span dumps of one traced run."""
    calls: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    cache: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for dump in dumps:
        for sid, name, *_ in dump["spans"]:
            calls[name] += 1
        for name, s in self_times(dump["spans"]).items():
            selfs[name] += s
        for name, v in dump["counts"].items():
            counts[name] = max(counts[name], v) if name.endswith("max_bits") else counts[name] + v
        for name, (hits, misses) in dump["caches"].items():
            cache[name][0] += hits
            cache[name][1] += misses
    out: dict[str, float] = {}
    for layer in dict.fromkeys(name for name, _, _ in TIMED):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = selfs[layer]
    for name, _ in COUNTERS:
        out[name] = counts[name]
    for name, (hits, misses) in cache.items():
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for name, _, _ in CACHED:
        out.setdefault(f"{name}.hit_ratio", 0.0)
    out["cli.import_s"] = statistics.median(d["import_s"] for d in dumps) if dumps else 0.0
    return out


def inclusive_time(dumps: list[dict], name: str) -> float:
    """Total duration of the spans called `name`, children included; for a
    function that does not call itself."""
    return sum(end - start for d in dumps for _, n, start, end, _, _ in d["spans"] if n == name)


# -- traced child -------------------------------------------------------------


class _Tracer:
    def __init__(self, op_id: int):
        self.op = op_id
        self.spans: list[tuple] = []
        self.stack = [0]
        self.next_id = 1
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        spans, stack = self.spans, self.stack
        post = {
            "algebra.row_reduce": self._row_reduce_counts,
            "algebra.poly_mul": self._poly_mul_counts,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op))
            if post is not None:
                post(args, result, parent)
            return result

        return traced

    def _row_reduce_counts(self, args, result, parent) -> None:
        start = time.perf_counter()
        m = args[0]
        self.counts["algebra.row_reduce.cells"] += m.rows * m.cols
        bits = max(
            (max(x.numerator.bit_length(), x.denominator.bit_length())
             for row in result.rref.entries for x in row),
            default=0,
        )
        key = "algebra.row_reduce.max_bits"
        self.counts[key] = max(self.counts[key], bits)
        self._bookkeeping(start, parent)

    def _poly_mul_counts(self, args, result, parent) -> None:
        self.counts["algebra.poly_mul.terms_out"] += len(result)

    def _bookkeeping(self, start: float, parent: int) -> None:
        sid = self.next_id
        self.next_id += 1
        self.spans.append((sid, _BOOKKEEPING, start, time.perf_counter(), parent, self.op))

    def install(self) -> None:
        """Wrap every TIMED target, and rebind each name that a chowcalc
        module bound to it with ``from ... import``."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("chowcalc.")]
        wrapped: dict[int, object] = {}
        for name, mod_name, attr in TIMED:
            mod = sys.modules[f"chowcalc.{mod_name}"]
            owner, _, member = attr.rpartition(".")
            holder = getattr(mod, owner) if owner else mod
            orig = vars(holder)[member]
            new = wrapped.setdefault(id(orig), self.wrap(name, orig))
            setattr(holder, member, new)
            if not owner:
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, new)


class _CountingLines:
    """stdin stand-in that starts a new operation id for every line."""

    def __init__(self, tracer: _Tracer, stream):
        self.tracer = tracer
        self.stream = stream

    def __iter__(self):
        for line in self.stream:
            self.tracer.op += 1
            yield line


def main(argv: list[str]) -> int:
    op_id, cli_args = int(argv[0]), argv[1:]
    start = time.perf_counter()
    import chowcalc.cli

    import_s = time.perf_counter() - start
    cached = {
        name: getattr(sys.modules[f"chowcalc.{mod}"], attr) for name, mod, attr in CACHED
    }
    tracer = _Tracer(op_id - 1 if cli_args[:1] == ["repl"] else op_id)
    tracer.install()
    sys.stdin = _CountingLines(tracer, sys.stdin)
    try:
        code = chowcalc.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        caches = {}
        for name, fn in cached.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        dump = {
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "caches": caches,
            "import_s": import_s,
        }
        sys.stderr.write(SPANS_PREFIX + json.dumps(dump, separators=(",", ":")) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
