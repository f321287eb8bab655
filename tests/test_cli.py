import json
from pathlib import Path

import pytest

from opcalc.cli import main

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "opcalc.schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_schema(doc):
    if jsonschema is not None:
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


def test_zero_window_still_reports_window_too_small(capsys):
    code, out, err = run(capsys, "check-dx", "J", "-n", "0", "--slack", "3")
    assert code == 4 and out == "" and "cannot support slack" in err
