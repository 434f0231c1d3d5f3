"""Command-line interface.  ``chowcalc --help`` prints:

    usage: chowcalc verify [--only ID,...] [--format text|json] [--trunc D] [--list]
           chowcalc eval [--defs FILE] [--trunc D] EXPR
           chowcalc repl [--defs FILE] [--trunc D]

      verify              run the verification suite
      eval                evaluate one expression
      repl                batch read-eval-print on stdin
      --only ID,...       comma-separated check ids
      --format text|json  report format (default text)
      --trunc D           truncation order (default 4)
      --list              list check ids and exit
      --defs FILE         definitions file (name = expr, one per line)
      EXPR                the expression

and ``chowcalc <command> --help`` the lines of one command.  Flags may come
before or after EXPR, and ``--flag=value`` reads as ``--flag value``.  A
unique prefix names its flag (``--tr 8``), and the last of a repeated flag
wins.  ``--`` ends the flags, so ``chowcalc eval -- -k1`` evaluates -k1.  An
argument that reads as a negative number, or holds a space, is a value or
EXPR (``--trunc -1``, ``eval -5``); any other argument that starts with
``-`` is a flag, so ``chowcalc eval -k1`` is a usage error.  The grammar and
its error messages are argparse's on these flags, read from the table
``GRAMMAR`` without importing argparse, which took about half of the
package's own start-up; tests/_ref_cli.py keeps the argparse parser as the
reference.

Exit codes: 0 all selected checks pass / expression evaluated; 1 some check
failed; 2 usage, parse, or evaluation error; 141 (128 + SIGPIPE, the code a
shell gives a process ended by a broken pipe) standard output was closed
before every answer was written, as in ``chowcalc repl | head -1``.
Configuration comes only from flags; environment variables are never
consulted, so runs are reproducible.

``run`` is the program entry (``python -m chowcalc`` and the ``chowcalc``
script): it flushes the answer and ends the process at once, without the
interpreter's teardown, which would free every object one at a time after
the answer is already out.  ``main`` returns the exit code instead, for
callers in the same process.

Only ``verify`` imports the check battery (``chowcalc.checks``), and only a
JSON report imports ``json``: ``eval`` and ``repl`` start without either.
"""
from __future__ import annotations

import os
import sys

from .evaluator import DEFAULT_TRUNCATION, EvalError, Evaluator, format_value, statements
from .expr import ParseError


# The grammar, which ``_parse`` reads and the help prints: each command's
# summary and its arguments in order, a flag ("--name") or eval's one
# positional, each as (converter, default, metavar, summary).  A converter is
# int, str or a tuple of choices; a flag without one takes no value and is
# True when given.  A parsed argument is named without its dashes.
_TRUNC = (int, DEFAULT_TRUNCATION, "D", f"truncation order (default {DEFAULT_TRUNCATION})")
_DEFS = (str, None, "FILE", "definitions file (name = expr, one per line)")
GRAMMAR = {
    "verify": ("run the verification suite", {
        "--only": (str, None, "ID,...", "comma-separated check ids"),
        "--format": (("text", "json"), "text", "text|json", "report format (default text)"),
        "--trunc": _TRUNC,
        "--list": (None, False, "", "list check ids and exit"),
    }),
    "eval": ("evaluate one expression", {
        "--defs": _DEFS, "--trunc": _TRUNC, "expression": (str, None, "EXPR", "the expression"),
    }),
    "repl": ("batch read-eval-print on stdin", {"--defs": _DEFS, "--trunc": _TRUNC}),
}
_HELP = ("-h", "--help")


def _usage(commands) -> str:
    lines = []
    for command in commands:
        words = [f"chowcalc {command}"]
        for name, (_, _, metavar, _) in GRAMMAR[command][1].items():
            if name[0] != "-":
                words.append(metavar)
            else:
                words.append(f"[{name} {metavar}]" if metavar else f"[{name}]")
        lines.append(" ".join(words))
    return "usage: " + "\n       ".join(lines)


def _help(commands) -> str:
    rows = {command: GRAMMAR[command][0] for command in commands}
    for command in commands:
        for name, (_, _, metavar, summary) in GRAMMAR[command][1].items():
            rows[f"{name} {metavar}".rstrip() if name[0] == "-" else metavar] = summary
    return _usage(commands) + "\n\n" + "\n".join(f"  {k:<18}  {v}" for k, v in rows.items())


def _fail(command: str | None, message: str):
    """Write the usage and argparse's wording of a usage error, and exit 2."""
    prog = f"chowcalc {command}" if command else "chowcalc"
    sys.stderr.write(f"{_usage([command] if command else GRAMMAR)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _check_choice(command: str | None, name: str, value: str, choices) -> None:
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        _fail(command, f"argument {name}: invalid choice: {value!r} (choose from {listed})")


def _option(arg: str, flags) -> tuple | None:
    """How argparse reads `arg` where `flags` and -h/--help are known: None
    for a value or a positional, else the flag and its value after '=' (None
    without one), with the flag None for a flag the grammar lacks."""
    if arg[:1] != "-" or arg in ("-", "--"):
        return None
    name, eq, value = arg.partition("=")
    if name in flags or name in _HELP:
        return name, value if eq else None
    if arg[1] != "-":  # one dash: -h and what follows it
        if arg[1] == "h":
            return "-h", arg[2:]
    else:
        matches = [flag for flag in (*flags, "--help") if flag.startswith(name)]
        if len(matches) == 1:
            return matches[0], value if eq else None
    # a negative number, as argparse reads it (-\d+ or -\d*\.\d+), or an
    # argument with a space, is a value
    whole, dot, fraction = arg[1:].partition(".")
    if ((whole + fraction).isdecimal() and (fraction or not dot)) or " " in arg:
        return None
    return None, None


def _parse(argv: list[str]) -> dict:
    """The values `argv` gives the arguments of ``GRAMMAR``, with "command"
    naming the command.  A usage error writes the usage and the error to
    standard error and raises SystemExit(2), and -h or --help writes the
    help to standard output and raises SystemExit(0), at the argument where
    argparse did."""
    command, flags, values, wanted, extra = None, {}, {}, [], []
    free = False  # after --, every argument is a positional
    taken = False  # the last argument was a positional's value
    rest = iter(argv)
    for arg in rest:
        if arg == "--" and command and not free:
            # dropped before EXPR or right after it, as argparse let EXPR
            # take it, and otherwise an unrecognized argument
            if not (wanted or taken):
                extra.append(arg)
            free = True
            continue
        option = None if free else _option(arg, flags)
        taken = option is None and bool(wanted)
        if option is None:
            if command is None:
                _check_choice(None, "command", arg, GRAMMAR)
                command, flags = arg, GRAMMAR[arg][1]
                values = {"command": command}
                values.update((name.lstrip("-"), spec[1]) for name, spec in flags.items())
                wanted = [name for name in flags if name[0] != "-"]
            elif wanted:
                values[wanted.pop(0)] = arg
            else:
                extra.append(arg)
            continue
        flag, value = option
        if flag is None:
            extra.append(arg)
            continue
        if flag in _HELP:
            if value is not None:
                _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(_help([command] if command else GRAMMAR) + "\n")
            raise SystemExit(0)
        convert = flags[flag][0]
        if convert is None:
            if value is not None:
                _fail(command, f"argument {flag}: ignored explicit argument {value!r}")
            value = True
        else:
            if value is None:  # the next argument, which must not be a flag or --
                value = next(rest, "--")
                if value == "--" or _option(value, flags) is not None:
                    _fail(command, f"argument {flag}: expected one argument")
            if convert is int:
                try:
                    value = int(value)
                except ValueError:
                    _fail(command, f"argument {flag}: invalid int value: {value!r}")
            elif convert is not str:
                _check_choice(command, flag, value, convert)
        values[flag.lstrip("-")] = value
    if command is None:
        _fail(None, "the following arguments are required: command")
    if wanted:
        _fail(command, "the following arguments are required: " + ", ".join(wanted))
    if extra:
        _fail(command, "unrecognized arguments: " + " ".join(extra))
    return values


def _cmd_verify(args) -> int:
    from . import checks

    if args["list"]:
        print("\n".join(checks.check_ids()))
        return 0
    only = args["only"]
    selection = None if only is None else tuple(s.strip() for s in only.split(",") if s.strip())
    try:
        results = checks.run_suite(selection, args["trunc"])
    except ValueError as exc:  # a bad truncation or selection
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(checks.format_json(results) if args["format"] == "json" else checks.format_text(results))
    return checks.exit_code(results)


def _make_evaluator(args) -> Evaluator:
    ev = Evaluator(trunc=args["trunc"])
    if args["defs"]:
        with open(args["defs"]) as f:
            ev.load_definitions(f.read())
    return ev


def _cmd_eval(args) -> int:
    try:
        ev = _make_evaluator(args)
        value = ev.run(args["expression"])
    except (ParseError, EvalError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_value(value))
    return 0


def _cmd_repl(args) -> int:
    try:
        ev = _make_evaluator(args)
    except (ParseError, EvalError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = 0
    for line in statements(sys.stdin):
        try:
            text = format_value(ev.run(line))
        except (ParseError, EvalError) as exc:
            text = f"error: {exc}"
            status = 2
        # One write per answer: print writes the newline separately, which
        # unbuffered output sends to the reader as a second chunk.
        sys.stdout.write(text + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    # Answers are exact: an integer of any length is read and printed whole.
    # The interpreter-wide limit on integer strings (none before 3.10.7) is
    # lifted for the command only, so the caller's own str(int) keeps it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run_command(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run_command(argv: list[str] | None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    return {"verify": _cmd_verify, "eval": _cmd_eval, "repl": _cmd_repl}[args["command"]](args)


BROKEN_PIPE = 141


def run() -> None:
    """Run ``main`` on the command line, flush its output and end the
    process with its exit code, skipping interpreter teardown.  A closed
    standard output ends it quietly with BROKEN_PIPE."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = BROKEN_PIPE
    try:
        sys.stderr.flush()
    except BrokenPipeError:
        code = BROKEN_PIPE
    os._exit(code)
