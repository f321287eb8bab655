import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from opcalc.cli import COMMANDS, GRAMMAR_HELP, main
from opcalc.dsl import parse_operator
from opcalc.operators import Delta

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "opcalc.schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_schema(doc):
    jsonschema.validate(doc, SCHEMA)


def test_apply(capsys):
    code, out, _ = run(capsys, "apply", "J", "x^2")
    assert code == 0 and out.strip() == "1/3*x^3"
    code, out, _ = run(capsys, "apply", "--format", "json", "J", "x^2")
    doc = json.loads(out)
    assert doc["result"] == "1/3*x^3"
    check_schema(doc)


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "apply", "Q squared", "x")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "apply", "J", "y^2")
    assert code == 2


def test_expand_xd_golden(capsys):
    code, out, _ = run(capsys, "expand-xd", "J", "-N", "4")
    assert code == 0
    assert out == (GOLDEN / "expand_xd_J_N4.txt").read_text()


def test_expand_xb_golden(capsys):
    code, out, _ = run(capsys, "expand-xb", "J", "--basis", "Delta", "-N", "3")
    assert code == 0
    assert out == (GOLDEN / "expand_xb_J_Delta_N3.txt").read_text()


def test_check_dx_golden_and_exit_codes(capsys):
    args = ("check-dx", "J", "--t", "-1..2", "-n", "12", "--format", "json")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == (GOLDEN / "check_dx_J.json").read_text()
    doc = json.loads(out)
    check_schema(doc)
    assert not doc["all_polynomial"]
    code, _, _ = run(capsys, *args, "--strict")
    assert code == 3


@pytest.mark.parametrize(
    "extra, want", [((), 0), (("--strict",), 3), (("--format", "json", "--strict"), 3)]
)
def test_closed_stdout_keeps_the_exit_code_without_a_traceback(extra, want):
    # The read end is closed before the child starts, so its first write
    # to standard output fails with EPIPE, as under `| head -1`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = ["check-dx", "J", "--t", "-1..2", "-n", "12", *extra]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "opcalc.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == want
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr


def test_check_dx_accepts(capsys):
    code, out, _ = run(
        capsys, "check-dx", "E(1)", "--t", "-6..2", "-n", "12", "--strict",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    check_schema(doc)
    assert doc["all_polynomial"]


def test_expand_dx_golden(capsys):
    code, out, _ = run(
        capsys, "expand-dx", "E(1)", "--t", "-10..0", "-n", "14", "--slack", "3",
        "--format", "json",
    )
    assert code == 0
    assert out == (GOLDEN / "expand_dx_E1.json").read_text()
    check_schema(json.loads(out))


def test_expand_dx_negative_verdict(capsys):
    code, out, _ = run(capsys, "expand-dx", "J", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "not-dx"
    check_schema(doc)
    code, _, _ = run(capsys, "expand-dx", "J", "--strict")
    assert code == 3


def test_d_expand(capsys):
    code, out, _ = run(capsys, "d-expand", "Delta", "-N", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc)
    assert doc["coefficients"] == ["0", "1", "1/2", "1/6", "1/24"]
    assert doc["shift_invariant"] is True
    code, out, _ = run(capsys, "d-expand", "X", "--strict", "--format", "json")
    assert code == 3
    assert json.loads(out)["shift_invariant"] is False


def test_d_expand_computes_each_row_once(capsys, monkeypatch):
    # d_expand and the shift-invariance check read one table of Q x^0..x^8
    calls = []
    apply = Delta.apply
    monkeypatch.setattr(Delta, "apply", lambda self, p: calls.append(p) or apply(self, p))
    code, _, _ = run(capsys, "d-expand", "Delta", "-N", "8")
    assert code == 0 and len(calls) == 9


def test_normal_order_golden(capsys):
    code, out, _ = run(capsys, "normal-order", "DX", "2", "2")
    assert code == 0
    assert out == (GOLDEN / "normal_order_DX_2_2.txt").read_text()
    code, out, _ = run(capsys, "normal-order", "XD", "2", "2", "--format", "json")
    doc = json.loads(out)
    check_schema(doc)
    assert doc["terms"][1]["coef"] == "-4"


def test_counterexample_golden(capsys):
    code, out, _ = run(capsys, "counterexample", "2")
    assert code == 0
    assert out == (GOLDEN / "counterexample_2.txt").read_text()
    code, out, _ = run(capsys, "counterexample", "5", "--format", "json")
    doc = json.loads(out)
    check_schema(doc)
    assert doc["bound_holds"] is True


def test_umbral_sequences_golden(capsys):
    code, out, _ = run(capsys, "umbral", "--delta", "Delta", "--what", "sequences", "-N", "3")
    assert code == 0
    assert out == (GOLDEN / "umbral_sequences_Delta_N3.txt").read_text()


def test_umbral_json_kinds(capsys):
    for what in ("sequences", "op-xd", "op-dx", "shift-xd", "shift-dx", "inverse"):
        code, out, _ = run(
            capsys, "umbral", "--delta", "Delta", "--what", what, "-N", "4",
            "--format", "json",
        )
        assert code == 0, what
        check_schema(json.loads(out))


def test_umbral_op_dx_ineligible(capsys):
    code, out, _ = run(
        capsys, "umbral", "--delta", "series:2*t", "--what", "op-dx", "-N", "4",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "not-dx"
    code, _, _ = run(
        capsys, "umbral", "--delta", "series:2*t", "--what", "op-dx", "--strict"
    )
    assert code == 3


def test_truncation_exit_4(capsys):
    # umbral machinery with a hopeless budget
    code, _, err = run(
        capsys, "umbral", "--delta", "Delta", "--what", "shift-dx", "-N", "8",
        "--budget", "3",
    )
    assert code == 4 and err


def test_reorder(capsys):
    code, out, _ = run(
        capsys, "reorder", "--series", "t^2", "--poly", "x^2",
        "--direction", "fD_pX_to_XD", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    check_schema(doc)
    assert doc["pairs"][0] == {"poly_in_X": "x^2", "series_in_D": "D^2"}


def test_format_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("OPCALC_FORMAT", "json")
    code, out, _ = run(capsys, "counterexample", "1")
    assert code == 0
    assert json.loads(out)["S"] == "3"


def test_invalid_format_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("OPCALC_FORMAT", "xml")
    with pytest.raises(SystemExit) as exc:
        main(["apply", "D", "x^2"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "opcalc: error: invalid OPCALC_FORMAT 'xml'" in out.err
    # An explicit --format wins over the environment.
    code, out, _ = run(capsys, "apply", "D", "x^2", "--format", "json")
    assert code == 0 and json.loads(out)["result"] == "2*x"


def test_outputs_byte_stable(capsys):
    first = run(capsys, "expand-xb", "J", "--basis", "Delta", "-N", "3")
    second = run(capsys, "expand-xb", "J", "--basis", "Delta", "-N", "3")
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("expand-xd", "D", "-N", "-1"),
        ("expand-xb", "J", "--order", "-2"),
        ("d-expand", "Delta", "-N", "-3"),
        ("check-dx", "J", "-n", "-1"),
        ("expand-dx", "E(1)", "--slack", "-1"),
        ("umbral", "--budget", "-4"),
        ("umbral", "-N", "-1"),
        ("normal-order", "DX", "-1", "2"),
        ("normal-order", "XD", "2", "-1"),
        ("counterexample", "-5"),
    ],
)
def test_negative_sizes_are_usage_errors(capsys, argv):
    for fmt in ("text", "json"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", fmt])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "must be nonnegative" in out.err


# Every CLI document, byte for byte: (golden stem, argv, exit code).  Each
# invocation runs with --format text and --format json; the golden file is
# <stem>.txt or <stem>.json.
GOLDEN_CASES = [
    ("apply_J_x2", ("apply", "J", "x^2"), 0),
    ("apply_series_x3", ("apply", "series(t^2 - 1/3*t^3)", "x^3"), 0),
    ("d_expand_Delta_N4", ("d-expand", "Delta", "-N", "4"), 0),
    ("d_expand_X_N3_strict", ("d-expand", "X", "-N", "3", "--strict"), 3),
    ("expand_xd_J_N4", ("expand-xd", "J", "-N", "4"), 0),
    ("expand_xb_J_Delta_N3", ("expand-xb", "J", "--basis", "Delta", "-N", "3"), 0),
    ("expand_xb_DX_D_N3", ("expand-xb", "D X", "--basis", "D", "-N", "3"), 0),
    ("expand_xb_J_series_N3", ("expand-xb", "J", "--basis", "series:t+t^2", "-N", "3"), 0),
    ("check_dx_J", ("check-dx", "J", "--t", "-1..2", "-n", "12"), 0),
    ("check_dx_E1_strict", ("check-dx", "E(1)", "--t", "-6..2", "-n", "12", "--strict"), 0),
    ("expand_dx_E1", ("expand-dx", "E(1)", "--t", "-10..0", "-n", "14", "--slack", "3"), 0),
    ("expand_dx_J_not_dx", ("expand-dx", "J"), 0),
    ("expand_dx_J_not_dx_strict", ("expand-dx", "J", "--strict"), 3),
    ("normal_order_DX_2_2", ("normal-order", "DX", "2", "2"), 0),
    ("normal_order_DX_0_0", ("normal-order", "DX", "0", "0"), 0),
    ("normal_order_XD_2_2", ("normal-order", "XD", "2", "2"), 0),
    ("normal_order_XD_3_1", ("normal-order", "XD", "3", "1"), 0),
    ("umbral_sequences_Delta_N3", ("umbral", "--delta", "Delta", "--what", "sequences", "-N", "3"), 0),
    ("umbral_op_xd_Delta_N4", ("umbral", "--delta", "Delta", "--what", "op-xd", "-N", "4"), 0),
    ("umbral_op_dx_Delta_N4", ("umbral", "--delta", "Delta", "--what", "op-dx", "-N", "4"), 0),
    ("umbral_op_dx_2t_N4", ("umbral", "--delta", "series:2*t", "--what", "op-dx", "-N", "4"), 0),
    ("umbral_op_dx_2t_N4_strict",
     ("umbral", "--delta", "series:2*t", "--what", "op-dx", "-N", "4", "--strict"), 3),
    ("umbral_shift_xd_Delta_N4", ("umbral", "--delta", "Delta", "--what", "shift-xd", "-N", "4"), 0),
    ("umbral_shift_dx_Delta_N4", ("umbral", "--delta", "Delta", "--what", "shift-dx", "-N", "4"), 0),
    ("umbral_shift_dx_series_N3",
     ("umbral", "--delta", "series:t+t^2", "--what", "shift-dx", "-N", "3"), 0),
    ("umbral_inverse_Delta_N4", ("umbral", "--delta", "Delta", "--what", "inverse", "-N", "4"), 0),
    ("umbral_inverse_D", ("umbral", "--delta", "D", "--what", "inverse", "--budget", "6"), 0),
    ("counterexample_2", ("counterexample", "2"), 0),
    ("counterexample_5", ("counterexample", "5"), 0),
    ("reorder_t2_x2_XD", ("reorder", "--series", "t^2", "--poly", "x^2"), 0),
    ("reorder_series_cubic_DX",
     ("reorder", "--series", "t - 1/3*t^3", "--poly", "x^3 + 1", "--direction", "pX_fD_to_DX"), 0),
    ("reorder_zero_poly", ("reorder", "--series", "t", "--poly", "0"), 0),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("stem, argv, code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_cli_golden(capsys, stem, argv, code, fmt):
    got = run(capsys, *argv, "--format", fmt)
    golden = GOLDEN / f"{stem}.{'json' if fmt == 'json' else 'txt'}"
    assert got == (code, golden.read_text(), "")
    if fmt == "json":
        check_schema(json.loads(got[1]))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("check-dx", "J", "--t", "3..1"), "empty t range"),
        (("check-dx", "J", "--t", "nope"), "bad t range"),
    ],
)
def test_bad_t_range_is_a_usage_error(capsys, argv, message):
    for fmt in ("text", "json"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", fmt])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and message in out.err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_dx_refuses_a_t_range_without_zero(capsys, fmt):
    code, out, err = run(capsys, "expand-dx", "E(1)", "--t", "1..3", "--format", fmt)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "must contain 0" in err


ZERO_DENOMINATORS = [
    ("apply", "D", "1/0"),
    ("apply", "E(1/0)", "x"),
    ("apply", "1/0*D", "x"),
    ("apply", "sub(1/0*x)", "x"),
    ("umbral", "--delta", "series:t+1/0*t^2"),
    ("reorder", "--series=1/0", "--poly=x"),
    ("expand-xb", "J", "--basis", "series:t+1/0*t^2"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", ZERO_DENOMINATORS, ids=" ".join)
def test_zero_denominator_is_a_parse_error(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("opcalc: parse error: ")
    assert "nonzero denominator" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [("umbral", "--delta", "series:t+1/0*t^2"), ("expand-xb", "J", "--basis", "series:t+1/0*t^2")],
    ids=" ".join,
)
def test_series_spec_error_positions_count_from_the_argument_start(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "opcalc: parse error: at position 11: expected nonzero denominator\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("basis", ["series:t^2", "series:0", "series:1+t"])
def test_basis_of_order_other_than_one_is_a_parse_error(capsys, basis, fmt):
    code, out, err = run(capsys, "expand-xb", "J", "--basis", basis, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == (
        f"opcalc: parse error: basis {basis!r} must have order exactly 1: "
        "zero constant term and nonzero t coefficient\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("delta", ["D", "Delta", "series:t+t^2"])
def test_zero_budget_blames_the_truncation(capsys, delta, fmt):
    code, out, err = run(capsys, "umbral", "--delta", delta, "--budget", "0", "--format", fmt)
    assert (code, out) == (4, "")
    assert err == "opcalc: symbol truncated at 0 cannot certify order exactly 1\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("operator, position", [("sub(0)", 4), ("D sub( x - x)", 7)])
def test_zero_substitution_is_a_parse_error(capsys, operator, position, fmt):
    code, out, err = run(capsys, "apply", operator, "x", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"opcalc: parse error: at position {position}: expected nonzero polynomial\n"


def test_grammar_help_examples_parse():
    examples = re.findall(r'^  "(.+?)" ', GRAMMAR_HELP, re.MULTILINE)
    assert len(examples) == 4
    for text in examples:
        parse_operator(text)


def test_zero_window_still_reports_window_too_small(capsys):
    code, out, err = run(capsys, "check-dx", "J", "-n", "0", "--slack", "3")
    assert code == 4 and out == "" and "cannot support slack" in err


# argparse's help and error text, byte for byte: (golden stem, argv, exit
# code).  Each case exits through SystemExit and prints to one stream, stdout
# when the code is 0 and stderr otherwise; golden/usage/<stem>.txt holds that
# stream.  argparse lays text out differently from one Python minor version to
# the next, so the files hold only on the minor that generated them.
USAGE = GOLDEN / "usage"
USAGE_PYTHON = (3, 11)
USAGE_CASES = [
    ("help", ("--help",), 0),
    *((f"help_{verb}", (verb, "--help"), 0) for verb in COMMANDS),
    ("version", ("--version",), 0),
    ("no_arguments", (), 2),
    ("unknown_verb", ("frobnicate", "D"), 2),
    ("apply_unrecognized_argument", ("apply", "D", "x", "--bogus"), 2),
    ("apply_missing_positional", ("apply",), 2),
    ("umbral_bad_choice", ("umbral", "--what", "nope"), 2),
    ("check_dx_bad_range", ("check-dx", "J", "--t", "3..1"), 2),
    ("check_dx_trailing_t", ("check-dx", "J", "--t"), 2),
]


@pytest.mark.skipif(
    sys.version_info[:2] != USAGE_PYTHON,
    reason="argparse help layout changes between Python minor versions; "
    "the usage goldens were generated on Python %d.%d" % USAGE_PYTHON,
)
@pytest.mark.parametrize("stem, argv, code", USAGE_CASES, ids=[c[0] for c in USAGE_CASES])
def test_usage_golden(capsys, monkeypatch, stem, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("OPCALC_FORMAT", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    text = (USAGE / f"{stem}.txt").read_text()
    assert (exc.value.code, out.out, out.err) == ((0, text, "") if code == 0 else (code, "", text))


def test_every_verb_has_a_help_golden():
    helps = {path.stem.removeprefix("help_") for path in USAGE.glob("help_*.txt")}
    assert helps == set(COMMANDS)
