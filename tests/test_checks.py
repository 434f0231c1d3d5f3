import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from chowcalc import checks
from chowcalc.cli import main
from chowcalc.evaluator import DEFAULT_TRUNCATION

README = Path(__file__).resolve().parents[1] / "README.md"


def test_suite_passes_completely():
    results = checks.run_suite()
    assert all(r.status == "pass" for r in results), checks.format_text(results)
    assert len(results) == 12


def test_suite_order_is_deterministic():
    a = [r.check_id for r in checks.run_suite()]
    b = [r.check_id for r in checks.run_suite()]
    assert a == b == sorted(a)


def test_subset_selection():
    results = checks.run_suite(("m6-presentation", "looijenga-vanishing"))
    assert [r.check_id for r in results] == ["looijenga-vanishing", "m6-presentation"]


def test_unknown_check_rejected():
    with pytest.raises(checks.UnknownCheckError):
        checks.run_suite(("no-such-check",))


def test_duplicate_selection_runs_once():
    results = checks.run_suite(("m6-presentation", "m6-presentation"))
    assert [r.check_id for r in results] == ["m6-presentation"]


def test_empty_selection_rejected():
    with pytest.raises(checks.UnknownCheckError, match="no check selected"):
        checks.run_suite(())


def test_whitney_roundtrip_fails_for_a_dishonest_sub():
    # rank 3 with a nonzero f4: the recovered class has c4 above its rank
    assert checks._whitney_roundtrip(4, 6)
    assert not checks._whitney_roundtrip(3, 6)
    assert not checks._whitney_roundtrip(3, 4)


def test_mukai_bookkeeping_fails_on_a_wrong_rank(monkeypatch):
    from chowcalc import bundles, grr

    real = grr.plucker_sequence_decomposition

    def rank3(trunc):
        f = real(trunc)
        return bundles.FormalBundle(3, f.chern, f.table)

    monkeypatch.setattr(grr, "plucker_sequence_decomposition", rank3)
    (result,) = checks.run_suite(("mukai-bookkeeping",))
    assert result.status == "fail"
    assert result.computed == "(21, 16, 40, (3, 6, 10), False, False)"
    assert result.expected == "(21, 16, 40, (4, 6, 10), True, True)"


# A check returns the values it compares, so a wrong value in the library
# shows on the computed side of a failing check, whatever the check prints.
def _doubled_c1(b):
    from chowcalc import bundles

    return bundles.FormalBundle(b.rank, (2 * b.chern[0],) + b.chern[1:], b.table)


def _wrong_lambda1_at_genus_3(monkeypatch):
    from chowcalc import grr

    real = grr.hodge_bundle

    def hodge_bundle(g, trunc):
        return _doubled_c1(real(g, trunc)) if g == 3 else real(g, trunc)

    monkeypatch.setattr(grr, "hodge_bundle", hodge_bundle)


def _whitney_fails_at_trunc(monkeypatch):
    real = checks._whitney_roundtrip
    monkeypatch.setattr(
        checks, "_whitney_roundtrip", lambda rank, trunc: trunc == 6 and real(rank, trunc)
    )


def _sym2_of_wrong_rank(monkeypatch):
    from chowcalc import bundles

    real = bundles.sym_power

    def sym_power(b, k):
        s = real(b, k)
        return bundles.FormalBundle(s.rank + 1, s.chern, s.table) if k == 2 else s

    monkeypatch.setattr(bundles, "sym_power", sym_power)


def _character_inverse_doubles_c1(monkeypatch):
    from chowcalc import bundles

    real = bundles.chern_from_character
    monkeypatch.setattr(
        bundles, "chern_from_character", lambda ch, rank: _doubled_c1(real(ch, rank))
    )


@pytest.mark.parametrize(
    "check_id, mutate, shows",
    [
        ("grr-constants", _wrong_lambda1_at_genus_3, "(1/12 * kappa1, 1/6 * kappa1, "),
        ("mukai-bookkeeping", _whitney_fails_at_trunc, "(4, 6, 10), False, True)"),
        ("sym-power-calculus", _sym2_of_wrong_rank, "(bundle(rank 4; "),
        # the character round trip of the first trial, as a difference from zero
        ("random-identities", _character_inverse_doubles_c1, "(0, -a1 - 2 * b1 + 2 * u, 0, "),
    ],
    ids=["grr-constants", "mukai-bookkeeping", "sym-power-calculus", "random-identities"],
)
def test_a_wrong_value_fails_its_check_and_shows(monkeypatch, check_id, mutate, shows):
    mutate(monkeypatch)
    (result,) = checks.run_suite((check_id,), trunc=8)
    assert result.status == "fail"
    assert result.computed != result.expected
    assert shows in result.computed


def test_every_check_returns_the_values_it_compares():
    for check in checks._REGISTRY:
        computed, expected = check.run(4)
        assert computed == expected
        assert not isinstance(computed, (bool, str)) and not isinstance(expected, (bool, str))


def test_machine_readable_schema():
    results = checks.run_suite(("m6-presentation",))
    payload = json.loads(checks.format_json(results))
    assert isinstance(payload, list) and len(payload) == 1
    entry = payload[0]
    assert set(entry) == {
        "check_id",
        "anchor",
        "status",
        "computed",
        "expected",
        "provenance",
        "millis",
    }
    assert entry["status"] == "pass"
    assert entry["provenance"] in ("literature", "derived-oracle", "direct")
    assert entry["anchor"]


def test_every_check_carries_an_anchor_and_provenance():
    for result in checks.run_suite():
        assert result.anchor.strip()
        assert result.provenance in ("literature", "derived-oracle", "direct")


def test_suite_passes_at_higher_truncation():
    results = checks.run_suite(("grr-constants", "mukai-bookkeeping", "plucker-lemma"), trunc=5)
    assert all(r.status == "pass" for r in results), checks.format_text(results)


def test_format_text_marks_errors_apart_from_disagreements():
    def result(cid, status):
        return checks.CheckResult(cid, "anchor", "direct", status, "computed", "expected", 1.0)

    lines = checks.format_text(
        [result("a", "pass"), result("b", "fail"), result("c", "error")]
    ).splitlines()
    marks = [line.split()[0] for line in lines if not line.startswith(" ")]
    assert marks == ["PASS", "FAIL", "ERROR", "1/3"]


# The suite's one setting is its truncation order; 2 is the least it takes.
@pytest.mark.parametrize("trunc", [0, 1, -1, "4"])
def test_suite_config_rejects_bad_truncation(trunc):
    with pytest.raises(ValueError, match=rf"^truncation must be an integer >= 2, got {trunc!r}$"):
        checks.run_suite(trunc=trunc)


@pytest.mark.parametrize("trunc", [2, 3])
def test_suite_passes_at_its_least_truncation(trunc):
    results = checks.run_suite(None, trunc)
    assert [r.status for r in results] == ["pass"] * 12, checks.format_text(results)


def test_exit_codes():
    results = checks.run_suite()
    assert checks.exit_code(results) == 0
    first = results[0]
    failed = checks.CheckResult(
        first.check_id, first.anchor, first.provenance, "fail", "1", "2", first.millis
    )
    assert checks.exit_code([failed] + results[1:]) == 1


# -- CLI ------------------------------------------------------------------------


def test_cli_verify_exit_zero(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "12/12 checks passed" in out


def test_cli_verify_json(capsys):
    assert main(["verify", "--only", "strata-dimensions", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["check_id"] == "strata-dimensions"


def test_cli_verify_unknown_check(capsys):
    assert main(["verify", "--only", "bogus"]) == 2


def test_cli_verify_duplicate_only_runs_once(capsys):
    assert main(["verify", "--only", "m6-presentation,m6-presentation", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["check_id"] for e in payload] == ["m6-presentation"]
    assert main(["verify", "--only", "m6-presentation,m6-presentation"]) == 0
    assert capsys.readouterr().out.endswith("1/1 checks passed\n")


@pytest.mark.parametrize("only", [",", "", " , "])
def test_cli_verify_empty_only_is_a_usage_error(only, capsys):
    assert main(["verify", "--only", only]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no check selected\n" and captured.out == ""


def test_cli_verify_defaults_to_text_at_the_default_truncation(capsys):
    # random-identities prints one entry per degree, so its report shows the truncation
    reports = []
    for flags in ([], ["--trunc", str(DEFAULT_TRUNCATION), "--format", "text"]):
        assert main(["verify", "--only", "random-identities", *flags]) == 0
        reports.append(re.sub(r" +\d+\.\d ms", "", capsys.readouterr().out))
    assert reports[0] == reports[1]


# The CLI grammar reads each flag before any check runs, so a bad value, or a
# flag verify no longer takes (a config file), is a usage message.
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--trunc", "abc"], "argument --trunc: invalid int value: 'abc'"),
        (["--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["--config", "x.cfg"], "unrecognized arguments: --config x.cfg"),
    ],
)
def test_cli_verify_rejects_unreadable_flags(flags, message, capsys):
    assert main(["verify", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: chowcalc")
    assert message in captured.err


def test_readme_verify_examples_exit_0(capsys):
    """Run every line of the sh block under "The verification suite"."""
    section = README.read_text().split("## The verification suite", 1)[1]
    lines = section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    assert lines
    for line in lines:
        argv = shlex.split(line.split("#", 1)[0])
        assert argv[:2] == ["chowcalc", "verify"], line
        assert main(argv[1:]) == 0, line


def test_cli_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert "m6-presentation" in out and len(out) == 12


# Run under -S: a site that preloads modules (here certifi's pathlib) would
# hide a command that imports them.
IMPORT_PROBE = """
import io, sys
from chowcalc import cli
SLOW = ("argparse", "gettext", "locale", "json", "pathlib")
for argv in (["eval", "1+1"], ["repl"], ["verify", "--list"],
             ["verify", "--only", "m6-presentation", "--format", "json"]):
    sys.stdin, sys.stdout = io.StringIO(""), io.StringIO()
    code = cli.main(argv)
    first = sys.stdout.getvalue().split("\\n")[0]
    sys.stdin, sys.stdout = sys.__stdin__, sys.__stdout__
    loaded = [m for m in SLOW if m in sys.modules]
    print(argv[0], code, first, "chowcalc.checks" in sys.modules, *loaded)
"""


def test_cli_eval_does_not_import_the_check_battery():
    """eval and repl start without the check battery, no command imports
    an argument parser or pathlib, and only a JSON report imports json."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "eval 0 2 False",
        "repl 0  False",
        "verify 0 canonical-quadrics True",
        "verify 0 [ True json",
    ]


def test_cli_eval(capsys):
    assert main(["eval", "dim(G(4, 10)) + 16"]) == 0
    assert capsys.readouterr().out.strip() == "40"


def test_cli_eval_parse_error(capsys):
    assert main(["eval", "1 + * 2"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_eval_with_defs(tmp_path, capsys):
    defs = tmp_path / "defs.txt"
    defs.write_text("Vdual = dual(V)\n")
    assert main(["eval", "--defs", str(defs), "rank(Vdual)"]) == 0
    assert capsys.readouterr().out.strip() == "5"


@pytest.mark.parametrize("command", [["eval", "1+1"], ["repl"]])
def test_cli_defs_file_not_utf8(tmp_path, monkeypatch, capsys, command):
    import io

    defs = tmp_path / "defs.bin"
    defs.write_bytes(bytes(range(128, 256)))
    monkeypatch.setattr("sys.stdin", io.StringIO("1+1\n"))
    assert main([command[0], "--defs", str(defs), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_cli_usage_error_exits_2(capsys):
    assert main(["no-such-subcommand"]) == 2


def test_cli_repl_batch(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("dim(G(2, 5))\nnf(k1^3, M6)\n"))
    assert main(["repl"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["6", "2304/127 * k1 * k2"]


# One comment rule for the repl and --defs: each line is cut at its first '#'.
COMMENTED = "# heading\nx = 2 # def\n\n  # indented\n1 + 1  # two # three\n"


def test_cli_repl_cuts_comments_like_defs(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(COMMENTED + "x^3 # cube\n"))
    assert main(["repl"]) == 0
    assert capsys.readouterr().out.splitlines() == ["2", "2", "8"]


def test_cli_defs_cut_comments_like_repl(tmp_path, capsys):
    defs = tmp_path / "defs.txt"
    defs.write_text(COMMENTED)
    assert main(["eval", "--defs", str(defs), "x^3"]) == 0
    assert capsys.readouterr().out == "8\n"


def test_cli_repl_answers_each_line_before_reading_the_next(monkeypatch, capsys):
    def lines():  # supports iteration only, like a live pipe
        yield "1+1\n"
        assert capsys.readouterr().out == "2\n"
        yield "# comment\n"
        yield "2+2\n"

    monkeypatch.setattr("sys.stdin", lines())
    assert main(["repl"]) == 0
    assert capsys.readouterr().out == "4\n"


@pytest.mark.parametrize(
    "src", ["h0(F[2], 3)", "F[-1]", "ring[x; 0](x)", "ring[x, x; 1, 1](x)", "0^(-1)"]
)
def test_cli_eval_reports_evaluation_errors(src, capsys):
    assert main(["eval", src]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_cli_eval_reports_deep_nesting(capsys):
    assert main(["eval", "(" * 300 + "1" + ")" * 300]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: expression nested too deeply\n" and captured.out == ""


def test_cli_repl_continues_after_an_evaluation_error(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("h0(F[2], 3)\n1+1\n"))
    assert main(["repl"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0].startswith("error: ") and out[1] == "2"


@pytest.mark.parametrize("trunc", ["0", "1", "-1"])
def test_cli_verify_rejects_truncation_below_two(trunc, capsys):
    assert main(["verify", "--trunc", trunc]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: truncation must be an integer >= 2, got {trunc}\n"
    assert captured.out == ""


def test_cli_eval_rejects_negative_truncation(capsys):
    assert main(["eval", "--trunc", "-3", "1+1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_cli_eval_accepts_truncation_zero(capsys):
    assert main(["eval", "--trunc", "0", "1+1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_repl_rejects_negative_truncation(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("1+1\n"))
    assert main(["repl", "--trunc", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_kappa_ring_tables_script():
    script = Path(__file__).resolve().parents[1] / "scripts" / "kappa_ring_tables.py"
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(script)], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert "hilbert through degree 8: (1, 1, 2, 1, 1, 0, 0, 0, 0)" in lines
    assert "degree-2 pairing determinant: 36608/12769" in lines
