import argparse
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qscreen import serre
from qscreen.cli import build_parser, main
from qscreen.rootdata import MAX_INPUT_BITS

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes_and_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sl2", "--suite",
                       "relations", "--depth", "3")
    assert code == 0
    assert "all identities hold" in out


def test_verify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "osp1_2", "--suite",
                       "all", "--depth", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    suites = [rep["suite"] for rep in payload["reports"]]
    assert suites == ["relations", "coproduct", "hopf-axioms"]
    for rep in payload["reports"]:
        for rec in rep["identities"]:
            assert rec["status"] == "pass"
            assert rec["counterexample"] is None


def test_verify_detects_injected_fault(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sl2", "--suite",
                       "relations", "--depth", "3", "--format", "json",
                       "--inject-fault", "flip_raising_prefactor")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    failing = [rec for rep in payload["reports"]
               for rec in rep["identities"] if rec["status"] == "fail"]
    assert failing and failing[0]["counterexample"]["basis"].startswith("U(")


def test_verify_workers_match_serial(capsys):
    code1, out1, _ = run(capsys, "verify", "--algebra", "sl2_1", "--suite",
                         "relations", "--depth", "3", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "--algebra", "sl2_1", "--suite",
                         "relations", "--depth", "3", "--format", "json",
                         "--workers", "3")
    assert code1 == code2 == 0
    assert json.loads(out1) == json.loads(out2)


def test_verify_at_concrete_weight(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sl3", "--suite",
                       "relations", "--depth", "3", "--weight", "1/2,3")
    assert code == 0
    assert "weight: 1/2,3" in out


def test_act_is_deterministic(capsys):
    args = ("act", "--algebra", "sl2", "--word", "E1 F1 F1", "--start", "1")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "U(" in out1


def test_act_known_value(capsys):
    code, out, _ = run(capsys, "act", "--algebra", "sl2", "--word", "E1 F1")
    assert code == 0
    assert out.strip() == "E1 F1 · U() = (z1^-1 - z1)/(q - q^-1)·U()"


def test_act_reduces_exact_quotients_at_a_concrete_weight(capsys):
    code, out, _ = run(capsys, "act", "--algebra", "sl3", "--word", "E2 F2",
                       "--start", "1,2", "--weight", "2,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {"U(1,2)": "-1"}
    # at generic weight an exact quotient is kept, as in a generic scan
    code, out, _ = run(capsys, "act", "--algebra", "osp1_2", "--word", "E1 F1",
                       "--start", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {
        "U(1)": "(-z1^-1 + q^-1·z1^-1 - q·z1 + z1)/(q^(1/2) - q^(-1/2))"}


def test_act_json(capsys):
    code, out, _ = run(capsys, "act", "--algebra", "sl2", "--word", "K1-",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == {"U()": "z1"}


def test_env_var_sets_format(capsys, monkeypatch):
    monkeypatch.setenv("QSCREEN_FORMAT", "json")
    code, out, _ = run(capsys, "act", "--algebra", "sl2", "--word", "K1")
    assert code == 0
    assert json.loads(out)["result"] == {"U()": "z1^-1"}


@pytest.mark.parametrize("value", ["xml", "JSON", ""])
def test_bad_env_format_fails_before_any_work(capsys, monkeypatch, value):
    """argparse does not check a default against `choices`, so `main`
    rejects a QSCREEN_FORMAT other than text or json itself."""
    from qscreen import cli

    def never(*args, **kwargs):
        raise AssertionError("ran before QSCREEN_FORMAT was checked")

    monkeypatch.setenv("QSCREEN_FORMAT", value)
    # an explicit --format wins over the environment
    code, out, _ = run(capsys, "act", "--algebra", "sl2", "--word", "K1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {"U()": "z1^-1"}
    monkeypatch.setattr(cli, "apply_word", never)
    code, out, err = run(capsys, "act", "--algebra", "sl2", "--word", "K1")
    assert (code, out) == (2, "")
    assert err == (f"error: QSCREEN_FORMAT must be one of text|json, "
                   f"not {value!r}\n")


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--algebra", "sl2", "--suite",
                       "relations", "--depth", "2", "--format", "json",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["status"] == "pass"


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_output_exits_two(capsys, tmp_path, target):
    code, out, err = run(capsys, "verify", "--algebra", "sl2", "--depth", "2",
                         "--output", str(tmp_path / target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--algebra", "sl3", "--suite", "all", "--depth", "4"),
    ("serre-scan", "--algebra", "sl3", "--multidegree", "2,1",
     "--specialize", "1,7"),
    ("act", "--algebra", "sl2", "--word", "E1 F1"),
], ids=lambda argv: argv[0])
def test_unwritable_output_fails_before_any_work(capsys, monkeypatch,
                                                 tmp_path, argv):
    from qscreen import cli

    def never(*args, **kwargs):
        raise AssertionError("ran before --output was checked")

    for name in ("run_suite", "singular_scan", "apply_word"):
        monkeypatch.setattr(cli, name, never)
    code, out, err = run(capsys, *argv, "--output",
                         str(tmp_path / "missing" / "report.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --output")


@pytest.mark.parametrize("specialize", [
    ["--specialize", "1"], ["--specialize", "1,2,3"],
    ["--specialize", "generic"], ["--specialize", "1,7", "--specialize", ""],
    ["--specialize", "1,banana"],
])
def test_bad_specialize_fails_before_the_scan(capsys, monkeypatch,
                                              specialize):
    from qscreen import cli

    def never(*args, **kwargs):
        raise AssertionError("scanned before --specialize was checked")

    monkeypatch.setattr(cli, "singular_scan", never)
    for weight in ("generic", "1,7"):
        code, out, err = run(capsys, "serre-scan", "--algebra", "sl3",
                             "--multidegree", "2,1", "--weight", weight,
                             *specialize)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err


def test_failing_command_leaves_output_untouched(capsys, tmp_path):
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report\n")
    fresh = tmp_path / "fresh.json"
    for target in (kept, fresh):
        code, _, err = run(capsys, "verify", "--algebra", "sl2", "--weight",
                           "1,banana", "--output", str(target))
        assert code == 2
        assert err.startswith("error:")
    assert kept.read_text() == "earlier report\n"
    assert not fresh.exists()


def test_act_rejects_start_deeper_than_depth(capsys):
    code, _, err = run(capsys, "act", "--algebra", "sl2", "--word", "E1",
                       "--start", "1,1,1,1", "--depth", "2")
    assert code == 2
    assert err.startswith("error:")
    code, out, _ = run(capsys, "act", "--algebra", "sl2", "--word", "E1",
                       "--start", "1,1", "--depth", "2")
    assert code == 0 and "U(1)" in out


def test_serre_scan_json(capsys):
    code, out, _ = run(capsys, "serre-scan", "--algebra", "sl2_1",
                       "--multidegree", "0,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["basis"] == [{"F2 F2": "1"}]
    assert payload["residual_checks"] == [{"E1": "0", "E2": "0"}]


def test_serre_scan_specialize_reports_vanishing(capsys):
    code, out, _ = run(capsys, "serre-scan", "--algebra", "sl3",
                       "--multidegree", "2,1", "--format", "json",
                       "--specialize", "1,2", "--specialize", "1,7")
    assert code == 0
    payload = json.loads(out)
    statuses = {s["weight"]: s["status"] for s in payload["specializations"]}
    assert statuses == {"1,2": "denominator-vanishes", "1,7": "ok"}


def test_serre_scan_at_concrete_weight(capsys):
    # generically F1 F1 is not singular ...
    code, out, _ = run(capsys, "serre-scan", "--algebra", "sl2",
                       "--multidegree", "2", "--format", "json")
    assert json.loads(out)["dimension"] == 0
    # ... but at alpha . lambda = 1 (root coordinate 1/2) it is: the classic
    # degree-two singular vector of the weight-one module
    code, out, _ = run(capsys, "serre-scan", "--algebra", "sl2",
                       "--multidegree", "2", "--weight", "1/2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["basis"] == [{"F1 F1": "1"}]
    assert payload["residual_checks"] == [{"E1": "0"}]


def test_braid_known_phase(capsys):
    code, out, _ = run(capsys, "braid", "--algebra", "sl2_1",
                       "--weight1", "1,2", "--weight2", "1/2,1",
                       "--seq1", "2", "--seq2", "2")
    assert code == 0
    assert out.strip() == "phase = -q^(1/2)"


def test_braid_requires_concrete_weights(capsys):
    code, _, err = run(capsys, "braid", "--algebra", "sl2",
                       "--weight1", "generic", "--weight2", "1")
    assert code == 2
    assert "concrete" in err


def test_usage_errors_exit_two(capsys):
    cases = [
        ("act", "--algebra", "sl2", "--word", "G9"),
        ("act", "--algebra", "sl2", "--word", "E5"),
        ("act", "--algebra", "nonsense", "--word", "E1"),
        ("verify", "--algebra", "sl2", "--depth", "13"),
        ("verify", "--algebra", "sl2", "--depth", "0"),
        ("verify", "--algebra", "sl2", "--weight", "1,banana"),
        ("serre-scan", "--algebra", "sl2", "--multidegree", "1,1"),
        ("serre-scan", "--algebra", "sl2", "--multidegree", "-1"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


@pytest.mark.parametrize("argv", [
    ("serre-scan", "--algebra", "sl2", "--multidegree", "3", "--depth", "1"),
    ("verify", "--algebra", "sl2", "--suite", "bogus"),
    ("serre-scan", "--algebra", "sl2"),
])
def test_argparse_errors_start_with_error(capsys, argv):
    """An unknown flag, a bad choice and a missing option are reported like
    every other usage error, with no usage banner first."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.startswith("error:") and "usage:" not in err


@pytest.mark.parametrize("argv, flag", [
    (("verify", "--algebra", "osp1_2", "--weight2", "-5/2"), "--weight2"),
    (("verify", "--algebra", "sl3", "--weight", "-1/2,3"), "--weight"),
    (("act", "--algebra", "sl2", "--word", "F1", "--weight", "-1/2"),
     "--weight"),
    (("serre-scan", "--algebra", "sl3", "--multidegree", "2,1",
      "--specialize", "-1,2"), "--specialize"),
    (("braid", "--algebra", "sl2", "--weight1", "-7/4", "--weight2", "1"),
     "--weight1"),
])
def test_negative_weight_as_separate_token_names_the_equals_form(
        capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err == (f"error: argument {flag}: expected one argument (write a "
                   f"weight that starts with '-' after '=', as in "
                   f"{flag}=-5/2)\n")
    # the form the message names parses
    k = argv.index(flag)
    attached = argv[:k] + (f"{flag}={argv[k + 1]}",) + argv[k + 2:]
    value = getattr(build_parser().parse_args(attached), flag[2:])
    assert value in (argv[k + 1], [argv[k + 1]])


def test_other_missing_values_get_no_weight_hint(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--algebra", "sl2", "--depth"])
    assert capsys.readouterr().err == (
        "error: argument --depth: expected one argument\n")


def test_scan_script_reports_bad_algebra_like_the_cli(tmp_path):
    """`scripts/scan_singular_vectors.py` turns a missing config file, a
    config file that is not UTF-8 and an unknown algebra name into
    `error:` and exit 2, no traceback."""
    root = README.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{}")
    for algebra, words in (("nope.json", "No such file"),
                           (str(latin), "invalid JSON"),
                           ("e8", "unknown algebra 'e8'")):
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "scan_singular_vectors.py"),
             "--algebra", algebra], capture_output=True, text=True, env=env)
        assert proc.returncode == 2, algebra
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and words in proc.stderr
        assert "Traceback" not in proc.stderr



def test_scan_script_exits_1_on_a_nonzero_residual(monkeypatch, capsys):
    """Like `serre-scan`, the scan script exits 1 when a residual check of
    a printed kernel does not vanish."""
    path = README.parent / "scripts" / "scan_singular_vectors.py"
    spec = importlib.util.spec_from_file_location("scan_singular_vectors", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv = ["--algebra", "sl2_1", "--max-total", "2"]
    assert script.main(argv) == 0
    assert "NONZERO" not in capsys.readouterr().out
    monkeypatch.setattr("qscreen.serre.residual_checks",
                        lambda *args: {"E1": "1"})
    assert script.main(argv) == 1
    assert "residuals of vector 1: NONZERO E1=1" in capsys.readouterr().out


def test_scan_script_rejects_a_max_total_below_1(capsys):
    """A --max-total below 1 scans no multidegree, so the scan script exits
    2 with `error:` rather than reporting that it found nothing."""
    path = README.parent / "scripts" / "scan_singular_vectors.py"
    spec = importlib.util.spec_from_file_location("scan_singular_vectors", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for argv in (["--max-total", "0"], ["--algebra", "sl2", "--max-total", "-3"]):
        with pytest.raises(SystemExit) as exc:
            script.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "--max-total" in captured.err
        assert "total singular combinations found" not in captured.out


def test_verification_script_rejects_a_depth_below_1(capsys):
    """A depth below 1 sweeps no state, so the suites script exits 2 with
    `error:` rather than reporting every suite as passed."""
    path = README.parent / "scripts" / "run_verification_suites.py"
    spec = importlib.util.spec_from_file_location("run_verification_suites",
                                                  path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for argv in (["--depth", "0"], ["--tensor-depth", "-1"]):
        with pytest.raises(SystemExit) as exc:
            script.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and argv[0] in captured.err
        assert "overall" not in captured.out


def test_concrete_scan_specializes_a_generic_kernel_unchecked(monkeypatch,
                                                              capsys):
    """With a concrete --weight, --specialize specializes the kernel of a
    separate generic scan, whose own residuals are never computed: one
    check for the concrete kernel and one for its specialization."""
    calls = []
    checks = serre.residual_checks

    def spy(*args):
        calls.append(args)
        return checks(*args)

    monkeypatch.setattr(serre, "residual_checks", spy)
    code, out, _ = run(capsys, "serre-scan", "--algebra", "sl3",
                       "--multidegree", "2,2", "--weight=1,7",
                       "--specialize=1,3", "--format", "text")
    assert code == 0 and len(calls) == 2
    assert out == """\
algebra: sl3  multidegree: [2, 2]  weight: 1,7
kernel dimension: 1
  vector 1:
    F1 F1 F2 F2: 1
    F1 F2 F1 F2: -q - q^-1
    F2 F1 F2 F1: q + q^-1
    F2 F2 F1 F1: -1
  residuals of vector 1: ok E1=0 E2=0
specialized at (1,3): ok
"""


def test_depth_override(capsys):
    code, _, _ = run(capsys, "verify", "--algebra", "sl2", "--suite",
                     "relations", "--depth", "13", "--force-depth")
    assert code == 0


def test_config_file_path(capsys, tmp_path):
    cfg = tmp_path / "alg.json"
    cfg.write_text(json.dumps({"rank": 1, "gram": [[2]], "odd": []}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--suite",
                       "relations", "--depth", "2")
    assert code == 0

    cfg.write_text("{not json")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2


def test_readme_config_example_runs(capsys, tmp_path):
    readme = README.read_text()
    example = readme.split("**Algebra config**")[1].split("```json\n")[1]
    example = example.split("```")[0]
    cfg = tmp_path / "alg.json"
    cfg.write_text(example)
    code, out, err = run(capsys, "verify", "--config", str(cfg), "--suite",
                         "relations", "--depth", "2", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["reports"][0]["algebra"] == "my_algebra"


def test_malformed_config_contents(capsys, tmp_path):
    cfg = tmp_path / "alg.json"
    cfg.write_text(json.dumps({"rank": 2, "gram": [[2, 0], [1, 2]]}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "symmetric" in err

    # a file that is not UTF-8, given by --config or as an --algebra path
    cfg.write_bytes(b"\xff\xfe" + json.dumps({"gram": [[2]]}).encode())
    for flag in ("--config", "--algebra"):
        code, out, err = run(capsys, "verify", flag, str(cfg))
        assert (code, out) == (2, ""), flag
        assert err.startswith("error: invalid JSON in ") and "utf-8" in err
        assert "Traceback" not in err


def test_config_with_malformed_values_exits_2(capsys, tmp_path):
    cfg = tmp_path / "alg.json"
    for bad in ({"odd": [1.5]}, {"odd": [True]}, {"odd": "12"}, {"odd": [0]},
                {"rank": 2.5}, {"gram": [["1e5000"]]}):
        cfg.write_text(json.dumps({"gram": [[2, -1], [-1, 0]], **bad}))
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert (code, out) == (2, ""), bad
        assert err.startswith("error:"), bad


def assert_usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2, argv
    assert out == ""
    assert err.startswith("error:"), argv
    assert "Traceback" not in err


@pytest.mark.parametrize("weight", ["1", "1,2,3"])
def test_verify_rejects_weight_of_wrong_length(capsys, weight):
    assert_usage_error(capsys, "verify", "--algebra", "sl3", "--suite",
                       "relations", "--depth", "2", "--weight", weight)
    assert_usage_error(capsys, "verify", "--algebra", "sl3", "--suite",
                       "coproduct", "--depth", "2", "--weight2", weight)


@pytest.mark.parametrize("weight", ["1", "1,2,3"])
def test_act_rejects_weight_of_wrong_length(capsys, weight):
    assert_usage_error(capsys, "act", "--algebra", "sl3", "--word", "E1 F1",
                       "--weight", weight)


@pytest.mark.parametrize("weight", ["1", "1,2,3"])
def test_serre_scan_rejects_weight_of_wrong_length(capsys, weight):
    assert_usage_error(capsys, "serre-scan", "--algebra", "sl3",
                       "--multidegree", "2,1", "--weight", weight)
    assert_usage_error(capsys, "serre-scan", "--algebra", "sl3",
                       "--multidegree", "2,1", "--specialize", weight)


@pytest.mark.parametrize("weight", ["1", "1,2,3"])
def test_braid_rejects_weight_of_wrong_length(capsys, weight):
    # a one-coordinate sl3 weight used to print a wrong `phase = 1`, exit 0
    assert_usage_error(capsys, "braid", "--algebra", "sl3",
                       "--weight1", weight, "--weight2", "1,2")
    assert_usage_error(capsys, "braid", "--algebra", "sl3",
                       "--weight1", "1,2", "--weight2", weight)


# 10^5000: 5,001 digits, more than CPython turns into text by default
BIG = "1e5000"


@pytest.mark.parametrize("argv", [
    ("act", "--algebra", "sl2", "--word", "K1", "--weight", BIG),
    ("braid", "--algebra", "sl2", "--weight1", BIG, "--weight2", "1"),
    ("serre-scan", "--algebra", "sl2", "--multidegree", "1", "--weight", BIG),
    ("verify", "--algebra", "sl2", "--weight", BIG),
], ids=lambda argv: argv[0])
def test_oversized_weight_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: bad weight '{BIG}': numerator or denominator "
                   f"exceeds {MAX_INPUT_BITS} bits\n")


def test_config_int_too_long_to_read_exits_2(capsys, tmp_path):
    # json.load itself refuses an int literal of more than 4300 digits
    cfg = tmp_path / "big.json"
    cfg.write_text('{"gram": [[1' + "0" * 5000 + "]]}")
    assert_usage_error(capsys, "verify", "--config", str(cfg))


def test_values_just_under_the_input_bound_run(capsys, tmp_path):
    top = 2 ** MAX_INPUT_BITS - 1
    code, out, err = run(capsys, "act", "--algebra", "sl2", "--word", "K1",
                         "--weight", str(top))
    assert (code, err) == (0, "")
    assert out == f"K1 · U() = q^{2 * top}·U()\n"
    assert_usage_error(capsys, "act", "--algebra", "sl2", "--word", "K1",
                       "--weight", f"1/{top + 1}")
    cfg = tmp_path / "alg.json"
    cfg.write_text(json.dumps({"gram": [[f"{top}/{top - 1}"]]}))
    code, out, err = run(capsys, "verify", "--config", str(cfg),
                         "--depth", "2")
    assert (code, err) == (0, ""), err


def test_act_prints_a_cancelled_result_as_zero(capsys):
    # at weight 1/2 both removal terms of E1 U(1,1) cancel
    argv = ("act", "--algebra", "sl2", "--word", "E1", "--start", "1,1",
            "--weight", "1/2")
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "E1 · U(1,1) = 0\n")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert '"result": {}' in out
    assert json.loads(out)["result"] == {}


def test_verify_accepts_hopf_axioms_suite_name(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sl2", "--suite",
                       "hopf-axioms", "--depth", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [rep["suite"] for rep in payload["reports"]] == ["hopf-axioms"]
    code, alias, _ = run(capsys, "verify", "--algebra", "sl2", "--suite",
                         "hopf", "--depth", "2", "--format", "json")
    assert code == 0
    assert json.loads(alias) == payload


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_rejects_workers_below_one(capsys, workers):
    code, out, err = run(capsys, "verify", "--algebra", "sl2", "--suite",
                         "relations", "--depth", "2", f"--workers={workers}")
    assert code == 2
    assert err.startswith("error:") and "--workers" in err
    assert out == ""


def test_verify_all_with_workers_matches_serial(capsys):
    argv = ("verify", "--algebra", "sl2_1", "--suite", "all", "--depth", "2",
            "--format", "json", "--inject-fault", "flip_raising_prefactor")
    serial = run(capsys, *argv)
    workers = run(capsys, *argv, "--workers", "2")
    assert serial == workers
    suites = [rep["suite"] for rep in json.loads(workers[1])["reports"]]
    assert suites == ["relations", "coproduct", "hopf-axioms"]


def test_verify_with_workers_starts_no_process():
    """A fresh `verify --workers 4` prints the serial report and imports
    neither the process pool nor `multiprocessing` (`-X importtime` lists
    every module the process imports on stderr)."""
    argv = [sys.executable, "-X", "importtime", "-m", "qscreen.cli",
            "verify", "--algebra", "sl3", "--suite", "relations", "--depth",
            "3", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    serial = subprocess.run(argv, capture_output=True, text=True, env=env)
    workers = subprocess.run(argv + ["--workers", "4"], capture_output=True,
                             text=True, env=env)
    assert serial.returncode == workers.returncode == 0
    assert workers.stdout == serial.stdout
    assert json.loads(workers.stdout)["status"] == "pass"
    modules = [line.rpartition("|")[2].strip()
               for line in workers.stderr.splitlines()]
    assert "qscreen.hopf" in modules
    assert [m for m in modules if m.startswith(
        ("multiprocessing", "concurrent.futures.process"))] == []


def test_cli_import_leaves_the_process_pool_unloaded():
    """A fresh `import qscreen.cli` loads neither the process pool nor
    `multiprocessing`."""
    probe = "import sys, qscreen.cli; print('\\n'.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=True)
    modules = proc.stdout.split()
    assert "qscreen.cli" in modules
    assert [m for m in modules
            if m.startswith(("multiprocessing", "concurrent.futures.process"))] == []


def test_serre_scan_specializes_with_the_scan_faults(capsys):
    # The faulted kernel is checked against the faulted operator it came
    # from, at the specialized weight as at the generic one.
    code, out, _ = run(capsys, "serre-scan", "--algebra", "sl2_1",
                       "--multidegree", "1,2", "--inject-fault",
                       "flip_raising_prefactor", "--specialize", "3,5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual_checks"] == [{"E1": "0", "E2": "0"}]
    assert [s["status"] for s in payload["specializations"]] == ["ok"]


def test_serre_scan_exits_one_on_nonzero_specialized_residual(capsys,
                                                             monkeypatch):
    from qscreen import cli

    def nonzero(result, weight):
        return {"weight": weight.label, "status": "residual-nonzero",
                "basis": [], "residual_checks": [{"E1": "1", "E2": "0"}]}

    monkeypatch.setattr(cli, "specialize_scan", nonzero)
    code, out, _ = run(capsys, "serre-scan", "--algebra", "sl3",
                       "--multidegree", "2,1", "--specialize", "1,7")
    assert code == 1
    assert out.endswith("specialized at (1,7): residual-nonzero\n")


COMMON_OPTIONS = ["--algebra", "--config", "--format", "--help",
                  "--inject-fault", "--output", "-h"]
OPTION_SURFACE = {
    "verify": sorted(COMMON_OPTIONS + ["--depth", "--force-depth", "--suite",
                                       "--weight", "--weight2", "--workers"]),
    "act": sorted(COMMON_OPTIONS + ["--depth", "--force-depth", "--word",
                                    "--start", "--weight"]),
    "serre-scan": sorted(COMMON_OPTIONS + ["--force-depth", "--multidegree",
                                           "--weight", "--specialize"]),
    "braid": sorted(COMMON_OPTIONS + ["--weight1", "--weight2", "--seq1",
                                      "--seq2"]),
}


def options(parser):
    return sorted(s for action in parser._actions for s in action.option_strings)


def test_option_surface_is_pinned():
    """Every option string each subcommand accepts, so a new option shows
    up here as a test diff.  `serre-scan` takes no `--depth`, and `braid`
    neither `--depth` nor `--force-depth`: each would be ignored."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert options(parser) == ["--help", "-h"]
    assert {name: options(p) for name, p in sub.choices.items()} == \
        OPTION_SURFACE


PARSE_ONLY = [
    ["--help"], [], ["bogus"], ["bogus", "--help"],
    ["verify", "--help"], ["act", "--help"], ["serre-scan", "--help"],
    ["braid", "--help"],
    ["act"], ["serre-scan", "--algebra", "sl3"], ["braid", "--weight1", "1"],
    ["verify", "--algebra", "sl2", "--bogus"],
    ["serre-scan", "--multi", "2,1", "--depth", "2"],
    ["verify", "--format", "xml"],
    ["verify", "--workers", "two"],
    ["serre-scan", "--algebra", "sl2", "--multidegree", "2", "--specialize"],
    ["act", "--algebra", "sl2", "--start", "1"],
]


@pytest.mark.parametrize("argv", PARSE_ONLY,
                         ids=lambda argv: " ".join(argv) or "no-args")
def test_main_parses_like_the_full_parser(capsys, argv):
    """`main` builds only the named subcommand's arguments; every help and
    every parse error still reads as the full parser's."""
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as via_main:
        main(argv)
    got = capsys.readouterr()
    assert (via_main.value.code, got.out, got.err) == \
        (full.value.code, expected.out, expected.err)
    assert expected.out or expected.err


def test_main_builds_one_parser_for_a_subcommand(capsys, monkeypatch):
    """A subcommand argv costs one parser: that subcommand's, with its row
    of the pinned option surface."""
    from qscreen import cli

    built = []

    class Spy(cli.Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, "Parser", Spy)
    for argv in (["verify", "--algebra", "sl2", "--depth", "1"],
                 ["act", "--algebra", "sl2", "--word", "K1"],
                 ["serre-scan", "--algebra", "sl2", "--multidegree", "2"],
                 ["braid", "--algebra", "sl2", "--weight1", "1",
                  "--weight2", "1"]):
        built.clear()
        assert main(argv) == 0
        capsys.readouterr()
        (parser,) = built
        assert parser.prog == f"qscreen {argv[0]}"
        assert options(parser) == OPTION_SURFACE[argv[0]]


def readme_examples() -> list[list[str]]:
    """The argv of every `qscreen ...` line in the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("qscreen ")]


@pytest.mark.parametrize("argv", readme_examples(),
                         ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_readme_examples_run_as_documented(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == (1 if "--inject-fault" in argv else 0), err
    if argv[0] == "act" and "--weight" in argv:
        assert json.loads(out)["result"]["U(1,2)"] == "-1"
