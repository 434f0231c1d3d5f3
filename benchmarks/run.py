"""Benchmark runner for the chowcalc CLI.

    python3 benchmarks/run.py --workload verify|eval-cold|session \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the CLI is started from ``src/`` as
``python -u -m chowcalc``, one process at a time, in a closed loop with one
client, all on one CPU.  Every answer is checked against an oracle in ``oracles.py``.

With ``--trace 0`` the run sets the CLI up several times, then issues
operations for S seconds and reports the end-to-end metrics: wall times
scaled to a reference machine speed by a probe timed right before and
after each operation and set-up (``Calibrated``).  With
``--trace 1`` it replays a fixed, seed-determined prefix of the same
operations twice, untraced and through ``tracing.py``, and reports the
per-layer metrics; their work counters repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same numbers for a reader.  README.md explains the workloads.
"""
from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHOWCALC = (sys.executable, "-u", "-m", "chowcalc")
TRACED = (sys.executable, "-u", str(HERE / "tracing.py"))

# Set-up is timed SETUP_REPEATS times before the operations, then once more
# every SETUP_EVERY_S seconds between them, so that its median spans the run.
SETUP_REPEATS = 5
SETUP_EVERY_S = 3.0
SETUP_ARGS = {"verify": ("verify", "--list"), "eval-cold": ("eval", "--trunc", "8", "1+1")}
SESSION_LINES = workloads.SESSION_ROUNDS * workloads.SESSION_ROUND
# Operations a traced run replays: about ten seconds of untraced work each.
TRACE_OPS = {"verify": 5, "eval-cold": 16, "session": SESSION_LINES}
# A run stops waiting for the program after this many seconds, so that it
# ends well inside three minutes.
HARD_LIMIT_S = 150.0

# About the time of `probe` on the reference machine (a 2-vCPU Intel Xeon VM,
# Python 3.11.7) when the host does not slow it, so that scaled times read
# close to wall times there.
REFERENCE_PROBE_S = 2e-4
PROBE_REPEATS = 3
PROBE_PAUSE_S = 5e-4

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Result:
    op: workloads.Op
    seconds: float
    ok: bool


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_fresh(argv: tuple[str, ...], deadline: float) -> tuple[int, str, str, float]:
    """One fresh process to completion: (exit code, stdout, stderr, seconds).
    A process still running at the deadline is killed and reported as -1."""
    start = time.perf_counter()
    try:
        p = subprocess.run(
            argv, capture_output=True, text=True, env=_env(), cwd=ROOT,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        return -1, "", "", time.perf_counter() - start
    return p.returncode, p.stdout, p.stderr, time.perf_counter() - start


class Session:
    """One long-lived ``repl`` process, asked one line at a time."""

    def __init__(self, argv: tuple[str, ...]):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_env(), cwd=ROOT, bufsize=0,
        )
        self.pending = b""

    def ask(self, line: str, deadline: float) -> str | None:
        """Send one line and return its answer line, or None if the process
        ended or the deadline passed first."""
        try:
            self.proc.stdin.write(line.encode() + b"\n")
        except BrokenPipeError:
            return None
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.pending:
            wait = deadline - time.perf_counter()
            if wait <= 0 or not select.select([fd], [], [], wait)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.pending += chunk
        answer, self.pending = self.pending.split(b"\n", 1)
        return answer.decode()

    def close(self, deadline: float) -> tuple[int, str]:
        """End the session and wait for it: (exit code, stderr).  A process
        still running at the deadline is killed.  ``communicate`` closes
        standard input, which ends the read-eval-print loop."""
        try:
            _, err = self.proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, err = self.proc.communicate()
        return self.proc.returncode, err.decode()


def run_op(op: workloads.Op, session: Session | None, deadline: float,
           traced_id: int | None = None) -> tuple[Result, str, str]:
    """Issue one operation: (result, stdout, stderr).  An operation fails on
    a nonzero exit, an ``error:`` line, or an answer the oracle rejects."""
    if session is not None:
        start = time.perf_counter()
        answer = session.ask(op.args[0], deadline)
        seconds = time.perf_counter() - start
        ok = answer is not None and not answer.startswith("error:") and op.check(answer)
        return Result(op, seconds, ok), answer or "", ""
    prog = CHOWCALC if traced_id is None else TRACED + (str(traced_id),)
    code, out, err, seconds = run_fresh(prog + op.args, deadline)
    ok = (
        code == 0
        and not any(line.startswith("error:") for line in (out + err).splitlines())
        and op.check(out if op.kind == "verify" else out.strip())
    )
    return Result(op, seconds, ok), out, err


# -- end-to-end metrics -----------------------------------------------------------


def _ranked(results: list[Result]) -> list[float]:
    """Latencies in ascending order; a failure ranks above every success."""
    return sorted(r.seconds if r.ok else math.inf for r in results)


def tail(results: list[Result]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (seconds, percentile, samples beyond).  With ten samples or fewer it is
    the fastest one.  A failure at that rank reads as the run's total time."""
    ranked = _ranked(results)
    idx = max(0, len(ranked) - 11)
    value = ranked[idx]
    if value == math.inf:
        value = sum(r.seconds for r in results)
    return value, 100.0 * (idx + 1) / len(ranked), len(ranked) - 1 - idx


def end_to_end(setup: list[float], results: list[Result], elapsed: float) -> dict[str, float]:
    p50 = statistics.median(_ranked(results))
    if p50 == math.inf:
        p50 = sum(r.seconds for r in results)
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_s": p50,
        "latency_tail_s": tail(results)[0],
        "throughput_ops_s": sum(r.ok for r in results) / elapsed,
        # ru_maxrss of waited-for children is the largest child's peak, in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def probe() -> float:
    """Seconds for a fixed piece of pure-Python work of the kind chowcalc
    does, Fraction arithmetic and a dict keyed by tuples: the fastest of
    PROBE_REPEATS tries, after a pause that lets a repl that has just
    answered go back to waiting for input."""
    time.sleep(PROBE_PAUSE_S)
    best = math.inf
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(1, i)
        table = {}
        for i in range(300):
            table[(i, i % 7)] = str(i)
        best = min(best, time.perf_counter() - start)
    return best


class Calibrated:
    """Factors that scale wall times to the reference machine speed.

    The host's speed swings by up to a factor of two, in episodes of a
    second to minutes, on both CPUs at once.  The runner times `probe` right
    before and after each timed piece, on the same CPU, and scales the
    piece's wall time by REFERENCE_PROBE_S over the mean of those two
    probes.  The probe is the benchmark's own code, so a change to chowcalc
    does not move it."""

    def __init__(self):
        self.last = probe()

    def factor(self) -> float:
        """The factor for a piece that began at the previous call (or at
        construction) and has just ended."""
        now = probe()
        factor = REFERENCE_PROBE_S / ((self.last + now) / 2)
        self.last = now
        return factor


def open_session(deadline: float) -> Session:
    """A fresh ``repl`` that has answered ``1+1``."""
    session = Session(CHOWCALC + workloads.SESSION_ARGS)
    answer = session.ask("1+1", deadline)
    if answer != "2":
        session.close(deadline)
        raise RuntimeError(f"repl answered {answer!r} to 1+1")
    return session


def time_setup(workload: str, deadline: float) -> float:
    """Wall time for a fresh CLI process, started with the workload's flags,
    to return its first answer."""
    if workload == "session":
        start = time.perf_counter()
        session = open_session(deadline)
        seconds = time.perf_counter() - start
        session.close(deadline)
        return seconds
    code, _, err, seconds = run_fresh(CHOWCALC + SETUP_ARGS[workload], deadline)
    if code != 0:
        raise RuntimeError(f"set-up exited with {code}: {err.strip()[-300:]}")
    return seconds


def measure(workload: str, seed: int,
            seconds: float) -> tuple[dict[str, float], list[Result], list[float]]:
    """Untraced run: set up, then issue operations for `seconds`, timing a
    set-up every SETUP_EVERY_S.  The session moves to a fresh repl every
    SESSION_LINES lines.  Returns the metrics, every result (with scaled
    seconds), and each operation's wall seconds as measured."""
    hard = time.perf_counter() + HARD_LIMIT_S
    clock = Calibrated()
    setup = [time_setup(workload, hard) * clock.factor() for _ in range(SETUP_REPEATS)]
    session = open_session(hard) if workload == "session" else None
    clock.factor()
    results: list[Result] = []
    wall: list[float] = []
    busy = 0.0  # scaled seconds of operations and repl restarts
    first = time.perf_counter()
    next_setup = first + SETUP_EVERY_S
    try:
        for i, op in enumerate(workloads.WORKLOADS[workload](seed)):
            now = time.perf_counter()
            if now >= min(first + seconds, hard):
                break
            if now >= next_setup:
                setup.append(time_setup(workload, hard) * clock.factor())
                next_setup += SETUP_EVERY_S
            start = time.perf_counter()
            if session is not None and i and i % SESSION_LINES == 0:
                session.close(hard)
                session = open_session(hard)
            result, _, _ = run_op(op, session, hard)
            piece = time.perf_counter() - start
            factor = clock.factor()
            busy += piece * factor
            results.append(Result(op, result.seconds * factor, result.ok))
            wall.append(result.seconds)
            if session is not None and session.proc.poll() is not None:
                break
    finally:
        if session is not None:
            session.close(hard)
    return end_to_end(setup, results, busy), results, wall


# -- traced run -------------------------------------------------------------------


def _dumps(err: str) -> list[dict]:
    prefix = tracing.SPANS_PREFIX
    return [json.loads(line[len(prefix):]) for line in err.splitlines() if line.startswith(prefix)]


def trace(workload: str, seed: int) -> tuple[dict[str, float], list[Result], list[str]]:
    """Replay TRACE_OPS operations untraced and traced.  Returns the
    per-layer metrics, every result, and lines on the layer split."""
    hard = time.perf_counter() + HARD_LIMIT_S
    ops = list(islice(workloads.WORKLOADS[workload](seed), TRACE_OPS[workload]))
    plain: list[Result] = []
    traced: list[Result] = []
    dumps: list[dict] = []
    check_ms: dict[str, list[float]] = {c: [] for c in tracing.CHECK_IDS}
    if workload == "session":
        for prog, out in ((CHOWCALC, plain), (TRACED + ("0",), traced)):
            session = Session(prog + workloads.SESSION_ARGS)
            try:
                out += [run_op(op, session, hard)[0] for op in ops]
            finally:
                dumps += _dumps(session.close(hard)[1])
    else:
        for i, op in enumerate(ops):
            result, out, _ = run_op(op, None, hard)
            plain.append(result)
            if op.kind == "verify" and result.ok:
                for record in json.loads(out):
                    check_ms.setdefault(record["check_id"], []).append(record["millis"])
            result, _, err = run_op(op, None, hard, traced_id=i)
            traced.append(result)
            dumps += _dumps(err)
    metrics = tracing.aggregate(dumps)
    for check in tracing.CHECK_IDS:
        metrics[f"checks.{check}.ms"] = statistics.median(check_ms[check]) if check_ms[check] else 0.0
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    metrics["trace.ops"] = len(ops)
    metrics["trace.wall_s"] = traced_s
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    return metrics, plain + traced, layer_split(workload, ops, traced, dumps)


def layer_split(workload: str, ops: list, traced: list[Result], dumps: list[dict]) -> list[str]:
    """Shares of traced wall time that the workload was chosen to load."""
    self_by_op: dict[tuple[str, int], float] = {}
    for dump in dumps:
        for name, op, s in tracing.span_self_times(dump["spans"]):
            key = (name.split(".")[0] if name.startswith("bundles.") else name, op)
            self_by_op[key] = self_by_op.get(key, 0.0) + s

    def share(names: tuple[str, ...], kinds: tuple[str, ...]) -> str:
        idx = [i for i, op in enumerate(ops) if op.kind in kinds]
        wall = sum(traced[i].seconds for i in idx)
        part = sum(self_by_op.get((n, i), 0.0) for n in names for i in idx)
        return f"{part / wall:.1%} of {wall:.2f} s"

    if workload == "verify":
        return [
            f"split bundles+poly_mul self time: {share(('bundles', 'algebra.poly_mul'), ('verify',))}",
            f"split row_reduce self time: {share(('algebra.row_reduce',), ('verify',))}",
        ]
    if workload == "eval-cold":
        wall = sum(r.seconds for r in traced)
        part = tracing.inclusive_time(dumps, "evaluator.prelude") + sum(d["import_s"] for d in dumps)
        return [f"split prelude (with children) + import: {part / wall:.1%} of {wall:.2f} s"]
    return [
        f"split row_reduce self time on fresh rings: {share(('algebra.row_reduce',), ('fresh',))}",
        f"split row_reduce self time on cheap lines: {share(('algebra.row_reduce',), ('cheap',))}",
    ]


# -- entry point ------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chowcalc" / "cli.py").is_file():
        print(f"error: no chowcalc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "chowcalc"), quiet=1)
    # One CPU for this runner and every chowcalc process it starts: the work
    # is one process at a time, and a session line's round trip then never
    # waits for an idle virtual CPU to wake, which made the median of
    # millisecond lines swing by a third between runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        metrics, results, notes = trace(args.workload, args.seed)
        units = dict(tracing.per_layer_metrics())
    else:
        metrics, results, wall = measure(args.workload, args.seed, args.seconds)
        units = dict(END_TO_END)
        _, pct, beyond = tail(results)
        notes = [
            f"latency_tail_s is p{pct:.1f}: {beyond} of {len(results)} samples beyond it",
            f"as measured, unscaled: latency_p50_s {_fmt(statistics.median(wall))} s",
        ]
    failed = sum(not r.ok for r in results)
    for name, unit in units.items():
        print(f"{name} {_fmt(metrics[name])} {unit}")
    print(f"failed_frac {_fmt(failed / len(results))} ({failed} of {len(results)} operations)")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
