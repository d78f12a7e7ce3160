"""Command-line interface: spec files, exit codes, reports, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import diskmod.oracle
from diskmod import SpecFileError, base_curvature, HARDY, poly
from diskmod.cli import canonical_problem_text, main, parse_problem

SPEC_A = """\
[moduleA]
base = hardy
theta1 = poly:[1]
theta2 = poly:[0,1]
"""

SPEC_ISO = SPEC_A + """
[moduleB]
base = hardy
theta1 = poly:[2,1]
theta2 = poly:[0,2,1]
"""

SPEC_CROSS = SPEC_A + """
[moduleB]
base = bergman
theta1 = poly:[1]
theta2 = poly:[0,1]
"""

SPEC_WEIGHTS = """\
[moduleA]
base = bergman(alpha=1)
theta1 = poly:[1]
theta2 = poly:[0,1]

[moduleB]
base = bergman(alpha=2)
theta1 = poly:[1]
theta2 = poly:[0,1]
"""

SPEC_FAIL = """\
[moduleA]
base = hardy
theta1 = poly:[0,1]
theta2 = poly:[0,0,1]
"""

SPEC_FAIL_PAIR = SPEC_FAIL + """
[moduleB]
base = hardy
theta1 = poly:[1]
theta2 = poly:[0,1]
"""

# two modules with three rational components between them
SPEC_RATIONAL = """\
[moduleA]
base = hardy
theta1 = rat:[1]/[1,-0.5]
theta2 = poly:[0,1]

[moduleB]
base = bergman
theta1 = rat:[1,0.2]/[1,0.4]
theta2 = rat:[0,1]/[1,-0.3]
"""

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def stdout_report(text):
    """The JSON report that ends standard output, after the human lines."""
    return json.loads(text[text.index("\n{") + 1:])


def assert_failed_at_origin(report):
    """moduleA of SPEC_FAIL fails at the common zero 0 of z and z^2."""
    witness = report["corona"]["moduleA"]["failed"]["witness"]
    assert abs(complex(witness["re"], witness["im"])) < 1e-3


# --- spec-file parsing ----------------------------------------------------


def test_parse_problem_defaults():
    prob = parse_problem(SPEC_A)
    assert prob.module_b is None
    assert prob.grid.r_max == 0.8 and prob.grid.n_r == 24 and prob.grid.n_theta == 48
    assert prob.tol == 1e-6 and prob.oracle_degree == 120


def test_parse_problem_full_sections():
    text = SPEC_ISO + """
[grid]
r_max = 0.7
n_r = 10
n_theta = 20

[tolerances]
tol = 1e-7
target_gap = 1e-8
oracle_degree = 90
"""
    prob = parse_problem(text)
    assert prob.grid.n_r == 10
    assert prob.tol == 1e-7
    assert prob.target_gap == 1e-8
    assert prob.oracle_degree == 90
    # every key of both sections, in schema order, floats by repr
    assert canonical_problem_text(prob).endswith(
        "[grid]\nr_max = 0.7\nn_r = 10\nn_theta = 20\n\n"
        "[tolerances]\ntol = 1e-07\ntarget_gap = 1e-08\noracle_degree = 90\n"
    )


def test_parse_round_trips_on_canonical_form():
    for text in (SPEC_A, SPEC_ISO, SPEC_CROSS, SPEC_WEIGHTS):
        prob = parse_problem(text)
        canon = canonical_problem_text(prob)
        assert parse_problem(canon) == prob
        assert canonical_problem_text(parse_problem(canon)) == canon


def test_parse_rejects_unknown_key():
    with pytest.raises(SpecFileError) as info:
        parse_problem(SPEC_A + "thetaX = poly:[1]\n")
    assert "thetaX" in str(info.value)
    assert info.value.line == 5


def test_parse_rejects_unknown_section():
    with pytest.raises(SpecFileError):
        parse_problem(SPEC_A + "\n[extras]\nfoo = 1\n")


def test_parse_rejects_missing_module():
    with pytest.raises(SpecFileError):
        parse_problem("[grid]\nr_max = 0.5\n")


def test_parse_reports_line_and_column_of_bad_literal():
    with pytest.raises(SpecFileError) as info:
        parse_problem("[moduleA]\nbase = hardy\ntheta1 = poly:[1..5]\ntheta2 = poly:[0,1]\n")
    assert info.value.line == 3
    assert "1..5" in str(info.value)


@pytest.mark.parametrize(
    "lines",
    ["[tolerances]\ntol = inf", "[grid]\nn_r = abc", "[grid]\nr_max = 1.5"],
    ids=["tol-inf", "n-r-abc", "r-max-1.5"],
)
def test_parse_reports_line_of_bad_value_once(lines):
    with pytest.raises(SpecFileError) as info:
        parse_problem(SPEC_A + lines + "\n")
    assert info.value.line == 6
    assert str(info.value).count("line 6") == 1


def readme_problem_block():
    """The ``ini`` example of the README's problem-file section, verbatim."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("```ini\n") + len("```ini\n")
    return text[start : text.index("```", start)]


def test_parse_readme_problem_block(tmp_path):
    block = readme_problem_block()
    assert "# or bergman" in block  # trailing comments on value lines
    prob = parse_problem(block)
    assert prob.module_a.base == HARDY
    assert prob.module_b.theta.theta2 == poly([0, 2, 1])
    assert (prob.grid.r_max, prob.grid.n_r, prob.grid.n_theta) == (0.8, 24, 48)
    assert (prob.tol, prob.target_gap, prob.oracle_degree) == (1e-6, 1e-6, 120)
    path = write(tmp_path, "readme.spec", block)
    assert main(["decide", path, "--out", str(tmp_path / "report.json")]) == 0


def test_parse_comment_after_section_header_and_value():
    text = SPEC_A.replace("[moduleA]", "[moduleA]   # the first module").replace(
        "hardy", "hardy#no space"
    )
    assert parse_problem(text) == parse_problem(SPEC_A)
    # line and column of an error still count from the raw line
    bad = "[moduleA]\nbase = hardy\ntheta1 = poly:[1..5]   # bad\ntheta2 = poly:[0,1]\n"
    with pytest.raises(SpecFileError) as info:
        parse_problem(bad)
    assert (info.value.line, info.value.column) == (3, 9)
    with pytest.raises(SpecFileError) as info:
        parse_problem(SPEC_A + "  # note\n  thetaX = poly:[1]  # unknown\n")
    assert (info.value.line, info.value.column) == (6, 3)


# --- subcommands ----------------------------------------------------------


def test_corona_command_certifies(tmp_path, capsys):
    path = write(tmp_path, "a.spec", SPEC_A)
    out = str(tmp_path / "report.json")
    assert main(["corona", path, "--out", out]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["corona"]["moduleA"]["epsilon"] >= 1e-6
    text = capsys.readouterr().out
    assert "epsilon" in text


def test_corona_command_honors_target_gap(tmp_path, capsys):
    text = SPEC_A + "\n[tolerances]\ntarget_gap = 0.5\n"
    path = write(tmp_path, "a.spec", text)
    out = str(tmp_path / "report.json")
    assert main(["corona", path, "--out", out]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["corona"]["moduleA"]["epsilon"] >= 0.5


def test_corona_command_failure_witness(tmp_path, capsys):
    path = write(tmp_path, "fail.spec", SPEC_FAIL)
    assert main(["corona", path]) == 2
    out = capsys.readouterr().out
    assert "FAILED" in out and out.splitlines()[0].endswith("(common zero)")
    report = stdout_report(out)
    assert_failed_at_origin(report)
    assert report["corona"]["moduleA"]["failed"]["common_zero"] is True


def test_corona_command_failure_below_target_without_common_zero(tmp_path, capsys):
    # z - 0.5 and z - 0.501 share no zero, but u = 5e-7 at 0.5005 is below
    # the default target 1e-6: a failure of the descent, not a common zero
    text = "[moduleA]\nbase = hardy\ntheta1 = poly:[-0.5,1]\ntheta2 = poly:[-0.501,1]\n"
    path = write(tmp_path, "near.spec", text)
    assert main(["corona", path]) == 2
    out = capsys.readouterr().out
    line = out.splitlines()[0]
    assert line.startswith("corona moduleA: BELOW TARGET witness=") and "common zero" not in line
    failed = stdout_report(out)["corona"]["moduleA"]["failed"]
    assert failed["common_zero"] is False
    assert abs(complex(failed["witness"]["re"], failed["witness"]["im"]) - 0.5005) < 1e-6


def test_corona_command_reports_depth_exceeded(tmp_path, capsys):
    # the sharp dip of test_corona: u = |z - 1/2|^2 + 2.5e-15 clears the
    # target 2e-16 only on boxes finer than maximal depth, and stays above
    # ten times the target there
    text = (
        "[moduleA]\nbase = hardy\ntheta1 = poly:[-0.5,1]\ntheta2 = poly:[5e-8]\n"
        "\n[tolerances]\ntarget_gap = 2e-16\n"
    )
    path = write(tmp_path, "dip.spec", text)
    assert main(["corona", path]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("corona moduleA: DEPTH EXCEEDED best_bound=")
    failed = stdout_report(out)["corona"]["moduleA"]["failed"]
    assert failed["depth_exceeded"] is True
    assert 0.0 < failed["best_bound"] <= 2.5e-15
    assert failed["value"] >= 10 * 2e-16
    assert abs(complex(failed["witness"]["re"], failed["witness"]["im"]) - 0.5) < 1e-6


def test_corona_command_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.spec", "[moduleA]\nbase = hardy\ntheta1 = poly:[oops]\ntheta2 = poly:[1]\n")
    with pytest.raises(SystemExit) as info:
        main(["corona", path])
    assert info.value.code == 1
    assert "oops" in capsys.readouterr().err


def _module_a(theta1="poly:[1]", theta2="poly:[0,1]", base="hardy"):
    return f"[moduleA]\nbase = {base}\ntheta1 = {theta1}\ntheta2 = {theta2}\n"


@pytest.mark.parametrize(
    "text, flags, message",
    [
        (SPEC_A + "[moduleA]\n", [], "line 5: duplicate section [moduleA]"),
        (
            _module_a().replace("theta1 = ", "theta1 "), [],
            "line 3, column 1: expected 'key = value', got 'theta1 poly:[1]'",
        ),
        ("base = hardy\n" + SPEC_A, [], "line 1: key outside any section"),
        (
            _module_a().replace("hardy\n", "hardy\nbase = hardy\n"), [],
            "line 3: duplicate key 'base' in section [moduleA]",
        ),
        ("[moduleA]\nbase = hardy\ntheta1 = poly:[1]\n", [], "section [moduleA] is missing key 'theta2'"),
        (
            _module_a(base="bergman(alpha=x)"), [],
            "line 2, column 7: bad module kind 'bergman(alpha=x)': "
            "could not convert string to float: 'x'",
        ),
        (
            _module_a("poly:[0]", "poly:[0]"), [],
            "line 3: multiplier pair must not be identically zero",
        ),
        (
            _module_a("poly:[1j]"), [],
            "line 3, column 9: bad coefficient '1j': use 'i' for the imaginary unit",
        ),
        (_module_a("poly:[1,,2]"), [], "line 3, column 9: empty coefficient"),
        (_module_a("poly:[1e400]"), [], "line 3, column 9: non-finite coefficient '1e400'"),
        (_module_a("rat:[1]/[0]"), [], "line 3, column 9: denominator is identically zero"),
        (
            SPEC_A, ["--grid", "0.5,x,8"],
            "error: bad --grid value: invalid literal for int() with base 10: 'x'",
        ),
    ],
    ids=[
        "duplicate-section", "no-equals", "key-outside-section", "duplicate-key",
        "missing-theta2", "bad-alpha", "zero-pair", "python-imaginary", "empty-coefficient",
        "non-finite-coefficient", "zero-denominator", "bad-grid-flag",
    ],
)
def test_spec_file_errors_exit_one_with_location(tmp_path, capsys, text, flags, message):
    path = write(tmp_path, "bad.spec", text)
    with pytest.raises(SystemExit) as info:
        main(["corona", path, *flags])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(message + "\n")


def test_missing_file_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["corona", "/nonexistent/f.spec"])
    assert info.value.code == 1


def test_curvature_command_constant_pair_matches_base(tmp_path):
    text = """\
[moduleA]
base = hardy
theta1 = poly:[1]
theta2 = poly:[1]
"""
    path = write(tmp_path, "c.spec", text)
    out = str(tmp_path / "field.csv")
    assert main(["curvature", path, "--out", out]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    for re, im, val in rows:
        assert val == pytest.approx(base_curvature(HARDY, complex(re, im)), rel=1e-12)
    assert (tmp_path / "field.gp").exists()


def test_curvature_script_beside_extensionless_csv_in_dotted_dir(tmp_path):
    path = write(tmp_path, "a.spec", SPEC_A)
    folder = tmp_path / "a.b"
    folder.mkdir()
    out = str(folder / "field")
    assert main(["curvature", path, "--grid", "0.5,2,3", "--out", out]) == 0
    assert (folder / "field").exists()
    script = (folder / "field.gp").read_text()
    assert f"splot '{out}'" in script
    assert not (tmp_path / "a.gp").exists()


def gnuplot_strings(script):
    """The single-quoted strings of a gnuplot script, with '' read as '."""
    return [s.replace("''", "'") for s in re.findall(r"'((?:[^']|'')*)'", script)]


def test_curvature_script_quotes_a_path_with_an_apostrophe(tmp_path):
    path = write(tmp_path, "a.spec", SPEC_A)
    folder = tmp_path / "it's"
    folder.mkdir()
    out = str(folder / "field.csv")
    assert main(["curvature", path, "--grid", "0.5,2,3", "--out", out]) == 0
    strings = gnuplot_strings((folder / "field.gp").read_text())
    assert out in strings
    assert "curvature" in strings


def test_curvature_report_times_the_csv_write(tmp_path, capsys):
    path = write(tmp_path, "a.spec", SPEC_A)
    assert main(["curvature", path, "--out", str(tmp_path / "f.csv")]) == 0
    timing = stdout_report(capsys.readouterr().out)["timing"]
    assert set(timing) == {"certify_seconds", "field_seconds", "csv_write_seconds", "seconds"}
    for stage in ("certify_seconds", "field_seconds", "csv_write_seconds"):
        assert 0 <= timing[stage] <= timing["seconds"]


@pytest.mark.parametrize(
    "command, spec, code",
    [("corona", SPEC_A, 0), ("decide", SPEC_ISO, 0), ("verify", SPEC_A, 0), ("decide", SPEC_FAIL_PAIR, 2)],
)
def test_report_times_the_certification(tmp_path, command, spec, code):
    path = write(tmp_path, "a.spec", spec)
    out = tmp_path / "r.json"
    assert main([command, path, "--out", str(out)]) == code
    timing = json.loads(out.read_text())["timing"]
    assert set(timing) == {"certify_seconds", "seconds"}
    assert 0 <= timing["certify_seconds"] <= timing["seconds"]


def test_curvature_command_value_near_origin(tmp_path):
    path = write(tmp_path, "a.spec", SPEC_A)
    out = str(tmp_path / "field.csv")
    assert main(["curvature", path, "--out", out]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    radii = np.hypot(rows[:, 0], rows[:, 1])
    nearest = rows[np.argmin(radii)]
    assert nearest[2] == pytest.approx(-2.0, abs=1e-2)


def test_curvature_command_certification_failure(tmp_path, capsys):
    path = write(tmp_path, "fail.spec", SPEC_FAIL)
    assert main(["curvature", path, "--out", str(tmp_path / "x.csv")]) == 2
    report = stdout_report(capsys.readouterr().out)
    assert_failed_at_origin(report)
    assert "curvature" not in report
    assert not (tmp_path / "x.csv").exists()


def test_decide_isomorphic_exit_zero(tmp_path):
    path = write(tmp_path, "iso.spec", SPEC_ISO)
    assert main(["decide", path, "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["verdict"]["outcome"] == "Isomorphic"
    assert report["verdict"]["max_deviation"] <= 1e-9


def test_decide_cross_base_exit_three(tmp_path):
    path = write(tmp_path, "cross.spec", SPEC_CROSS)
    assert main(["decide", path, "--out", str(tmp_path / "r.json")]) == 3
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["verdict"]["detail"] == "Theorem 4.7"


def test_decide_weight_mismatch_exit_three(tmp_path):
    path = write(tmp_path, "w.spec", SPEC_WEIGHTS)
    assert main(["decide", path, "--out", str(tmp_path / "r.json")]) == 3
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["verdict"]["detail"] == "Theorem 4.5"


def test_decide_needs_two_modules(tmp_path, capsys):
    path = write(tmp_path, "a.spec", SPEC_A)
    assert main(["decide", path]) == 1


def test_decide_certification_failure_writes_report(tmp_path):
    path = write(tmp_path, "fail.spec", SPEC_FAIL_PAIR)
    out = tmp_path / "r.json"
    assert main(["decide", path, "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert_failed_at_origin(report)
    assert report["corona"]["moduleB"]["epsilon"] > 0
    assert "verdict" not in report


def test_decide_inconclusive_exit_four(tmp_path):
    text = SPEC_A + """
[moduleB]
base = hardy
theta1 = poly:[1]
theta2 = poly:[0,1.000002]
"""
    path = write(tmp_path, "inc.spec", text)
    assert main(["decide", path, "--out", str(tmp_path / "r.json")]) == 4


def test_verify_command_all_green(tmp_path, capsys):
    path = write(tmp_path, "a.spec", SPEC_A)
    assert main(["verify", path, "--out", str(tmp_path / "v.json")]) == 0
    report = json.loads((tmp_path / "v.json").read_text())
    checks = report["oracle"]["moduleA"]
    assert sorted(checks) == [
        "curvature_identity", "dim_ker", "eigenvector_residual", "multiplier_min_singular_value",
    ]
    assert all(entry["ok"] for entry in checks.values())
    assert checks["dim_ker"]["values"] == [1, 1, 1, 1, 1]
    assert checks["curvature_identity"]["tol"] == 1e-8
    assert checks["curvature_identity"]["max_rel_err"] <= 1e-13


def spec_alpha(alpha):
    return f"[moduleA]\nbase = bergman(alpha={alpha})\ntheta1 = poly:[1]\ntheta2 = poly:[0,1]\n"


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""

    def reject(name):
        raise ValueError(f"{name} in a report")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("degree, code", [(300, 5), (600, 0)])
def test_verify_curvature_identity_sees_truncation(tmp_path, capsys, degree, code):
    # at |w| = 0.7 the kernel vector of alpha 300 peaks near degree 288, so
    # degree 300 cuts off much of its mass and degree 600 almost none
    path = write(tmp_path, "a300.spec", spec_alpha(300))
    out = tmp_path / "v.json"
    assert main(["verify", path, "--oracle-degree", str(degree), "--out", str(out)]) == code
    check = json.loads(out.read_text())["oracle"]["moduleA"]["curvature_identity"]
    assert check["ok"] is (code == 0)


def test_verify_multiplier_entry_says_unproved(tmp_path, capsys):
    # {(2+z)^9, 0.5 + z^10} on Hardy, exact integer coefficients: the
    # certified epsilon lies below the rounding margin of the Cholesky proof,
    # so the entry fails as unproved (target <= slack), not as refuted
    power = ",".join(str(math.comb(9, j) * 2 ** (9 - j)) for j in range(10))
    text = f"[moduleA]\nbase = hardy\ntheta1 = poly:[{power}]\ntheta2 = poly:[0.5{',0' * 9},1]\n"
    out = tmp_path / "v.json"
    assert main(["verify", write(tmp_path, "k9.spec", text), "--out", str(out)]) == 5
    entry = strict_json(out.read_text())["oracle"]["moduleA"]["multiplier_min_singular_value"]
    assert sorted(entry) == ["epsilon", "ok", "slack", "target"]
    assert entry["ok"] is False
    assert entry["target"] <= entry["slack"]


def test_verify_error_in_its_own_step_exits_five_without_a_report(tmp_path, capsys):
    # (2+z)^13 {1, z} on Hardy, exact integer coefficients, certifies; at
    # degree 120 its Gram matrix G is too ill-conditioned to prove positive
    # definite, so the oracle raises, main prints the error and exits 5, and
    # the report is not written
    power = ",".join(str(math.comb(13, j) * 2 ** (13 - j)) for j in range(14))
    text = f"[moduleA]\nbase = hardy\ntheta1 = poly:[{power}]\ntheta2 = poly:[0,{power}]\n"
    out = tmp_path / "v.json"
    path = write(tmp_path, "k13.spec", text)
    assert main(["verify", path, "--oracle-degree", "120", "--out", str(out)]) == 5
    captured = capsys.readouterr()
    assert captured.out.startswith("corona moduleA: epsilon=0.424787 depth=5 boxes=473\n")
    assert captured.err == (
        "error: G = N^H N at degree 120 is too ill-conditioned to prove positive definite "
        "in double precision: G[0, 0] = 6.711e+07 against a margin of 1.208e+00\n"
    )
    assert not out.exists()


def test_verify_report_is_strict_json_at_large_alpha(tmp_path, capsys):
    # the closed-form kernel overflows at alpha 2000; the truncated frame
    # fails the curvature check with a finite error instead of a NaN
    path = write(tmp_path, "a2000.spec", spec_alpha(2000))
    out = tmp_path / "v.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", path, "--oracle-degree", "120", "--out", str(out)]) == 5
    check = strict_json(out.read_text())["oracle"]["moduleA"]["curvature_identity"]
    assert check["ok"] is False


def test_verify_counts_kernels_where_the_monomial_norms_underflow(tmp_path, capsys):
    # the monomial norms of alpha 2000 underflow from about degree 250 on; the
    # band pencil counts what the truncated operator has, which a degree
    # this small for the base puts below 1 at the outer points
    path = write(tmp_path, "a2000.spec", spec_alpha(2000))
    out = tmp_path / "v.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", path, "--oracle-degree", "300", "--out", str(out)]) == 5
    check = strict_json(out.read_text())["oracle"]["moduleA"]["dim_ker"]
    assert check == {"values": [1, 1, 1, 0, 0], "ok": False}
    assert all(type(v) is int for v in check["values"])


def test_verify_builds_two_gram_bands_per_module(tmp_path, capsys, monkeypatch):
    # G for the kernel counts, whose diagonals also give route 1 its traces,
    # and H for the multiplier bound
    calls = []
    gram_band = diskmod.oracle._gram_band

    def recording_gram_band(*args, **kwargs):
        calls.append(kwargs.get("columns", False))
        return gram_band(*args, **kwargs)

    monkeypatch.setattr(diskmod.oracle, "_gram_band", recording_gram_band)
    path = write(tmp_path, "iso.spec", SPEC_ISO)
    assert main(["verify", path, "--out", str(tmp_path / "v.json")]) == 0
    assert calls == [False, True] * 2


# theta1 = 1 / (1 - 0.999 z), whose Taylor coefficients decay like 0.999^k;
# the oracle works with the cleared numerators {1, z - 0.999 z^2}, which
# define the same quotient
SPEC_POLE = """\
[moduleA]
base = hardy
theta1 = rat:[1]/[1,-0.999000999000999]
theta2 = poly:[0,1]
"""


@pytest.mark.parametrize("text", [SPEC_RATIONAL, SPEC_POLE], ids=["rational", "pole"])
def test_verify_passes_rational_modules(tmp_path, capsys, text):
    out = tmp_path / "v.json"
    assert main(["verify", write(tmp_path, "rat.spec", text), "--out", str(out)]) == 0
    for checks in strict_json(out.read_text())["oracle"].values():
        assert sorted(checks) == [
            "curvature_identity", "dim_ker", "eigenvector_residual", "multiplier_min_singular_value",
        ]
        assert all(entry["ok"] is True for entry in checks.values())


def test_verify_uncertified_stops_before_oracle(tmp_path, capsys):
    path = write(tmp_path, "fail.spec", SPEC_FAIL)
    assert main(["verify", path]) == 2
    out = capsys.readouterr().out
    assert "verify" not in out.replace("corona", "")
    report = stdout_report(out)
    assert_failed_at_origin(report)
    assert "oracle" not in report


def test_grid_override_flag(tmp_path):
    path = write(tmp_path, "a.spec", SPEC_A)
    out = str(tmp_path / "f.csv")
    assert main(["curvature", path, "--grid", "0.5,3,4", "--out", out]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (12, 3)


@pytest.mark.parametrize("command", ["corona", "curvature", "decide", "verify"])
def test_deterministic_reports(tmp_path, capsys, command):
    path = write(tmp_path, "iso.spec", SPEC_ISO)
    out = tmp_path / ("field.csv" if command == "curvature" else "r.json")
    runs = []
    for _ in range(2):
        assert main([command, path, "--out", str(out)]) == 0
        if command == "curvature":
            report = stdout_report(capsys.readouterr().out)
            csv = out.read_bytes()
        else:
            report = json.loads(out.read_text())
            csv = None
        report.pop("timing")
        runs.append((json.dumps(report, sort_keys=True), csv))
    assert runs[0] == runs[1]


# --- checked values and outputs ------------------------------------------


NON_FINITE = "must be finite and positive"


@pytest.mark.parametrize(
    "line, message",
    [
        ("tol = inf", NON_FINITE),
        ("tol = nan", NON_FINITE),
        ("target_gap = inf", NON_FINITE),
        ("target_gap = nan", NON_FINITE),
        # the finite-difference step of older files is no longer a key
        ("fd_step = inf", "line 12, column 1: unknown key 'fd_step' in section [tolerances]"),
    ],
    ids=["tol = inf", "tol = nan", "target_gap = inf", "target_gap = nan", "fd_step = inf"],
)
def test_non_finite_tolerance_in_file_exits_one(tmp_path, capsys, line, message):
    path = write(tmp_path, "iso.spec", SPEC_ISO + f"\n[tolerances]\n{line}\n")
    with pytest.raises(SystemExit) as info:
        main(["decide", path])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


UNKNOWN_FD_STEP = "unrecognized arguments: --fd-step"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decide", "--tol", "0"], "{path}: tol "),
        (["decide", "--tol", "-1"], "{path}: tol "),
        # the finite-difference step is no longer an option: argparse's
        # usage error, whatever its value and whatever the grid
        (["verify", "--fd-step", "0"], UNKNOWN_FD_STEP),
        (["verify", "--oracle-degree", "10"], "{path}: oracle_degree "),
        (["verify", "--fd-step", "0.5"], UNKNOWN_FD_STEP),
        (["verify", "--grid", "0.8,4,8", "--fd-step", "0.25"], UNKNOWN_FD_STEP),
        (["verify", "--grid", "0.2,4,8", "--fd-step", "0.35"], UNKNOWN_FD_STEP),
    ],
    ids=[
        "tol-0", "tol-negative", "fd-step-0", "oracle-degree-10",
        "fd-step-0.5", "fd-step-0.25-r-max-0.8", "fd-step-0.35-r-max-0.2",
    ],
)
def test_bad_flag_value_exits_one_before_certifying(tmp_path, capsys, argv, message):
    path = write(tmp_path, "iso.spec", SPEC_ISO)
    command, *flag = argv
    with pytest.raises(SystemExit) as info:
        main([command, path, *flag])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: " + message.format(path=path))


def test_flags_do_not_reach_the_next_call(tmp_path, capsys):
    # the argument parser is built once per process
    path = write(tmp_path, "iso.spec", SPEC_ISO)
    out = tmp_path / "r.json"
    main(["decide", path, "--tol", "1e-4", "--grid", "0.5,4,8", "--out", str(out)])
    first = json.loads(out.read_text())["verdict"]
    main(["decide", path, "--out", str(out)])
    second = json.loads(out.read_text())["verdict"]
    assert (first["tol"], first["grid"]) == (1e-4, {"r_max": 0.5, "n_r": 4, "n_theta": 8})
    assert (second["tol"], second["grid"]) == (1e-6, {"r_max": 0.8, "n_r": 24, "n_theta": 48})


@pytest.mark.parametrize("command, name", [("decide", "r.json"), ("curvature", "f.csv")])
def test_unwritable_out_exits_one(tmp_path, capsys, command, name):
    path = write(tmp_path, "iso.spec", SPEC_ISO)
    out = tmp_path / "missing" / name
    with pytest.raises(SystemExit) as info:
        main([command, path, "--grid", "0.5,2,3", "--out", str(out)])
    assert info.value.code == 1
    assert f"error: cannot write {out}: " in capsys.readouterr().err


@pytest.mark.parametrize("text, code", [(SPEC_A, 0), (SPEC_FAIL, 2)])
def test_module_entry_point_exit_code(tmp_path, text, code):
    path = write(tmp_path, "a.spec", text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "diskmod.cli", "corona", path],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith("corona moduleA: ")
    assert "moduleA" in stdout_report(proc.stdout)["corona"]


def test_module_entry_point_exits_quietly_when_stdout_closes(tmp_path):
    # the reader of stdout is gone before the first line arrives: exit 1, as
    # for output that cannot be written, with no traceback
    path = write(tmp_path, "a.spec", SPEC_A)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "diskmod.cli", "corona", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err
