"""Command-line entry point.

Subcommands: ``corona`` (certify multiplier pairs), ``curvature`` (sample the
curvature field to CSV, with a gnuplot script alongside), ``decide`` (unitary
equivalence of two specs), ``verify`` (run the matrix-truncation oracle suite
against the analytic layer).  Problem files are line-oriented ``key = value``
under section headers ``[moduleA]``, ``[moduleB]``, ``[grid]``,
``[tolerances]``; see the README for the full grammar.

Every subcommand runs one pipeline: load the file and apply the flags, which
``ProblemSpec`` checks alike (tolerances finite and positive, oracle degree at
least ``oracle.MIN_DEGREE``); certify each module the subcommand needs,
printing one ``corona`` line per module; run the subcommand's own part; write
the JSON report.  The report is written once certification has run, also
when it fails (exit 2), unless the subcommand's own part raises (exit 5).  It
goes to ``--out``, or to stdout for ``curvature``, whose ``--out`` names the
CSV.

Exit codes: 0 success/Isomorphic, 1 parse or usage error (also an output path
that cannot be written, or a stdout closed by its reader), 2 certification
failure, 3 NotIsomorphic, 4 Inconclusive, 5 internal tolerance failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .corona import DEFAULT_TARGET_GAP, certify_spec
from .curvature import DiskGrid, QuotientSpec, curvature_field, quotient_curvature
from .equivalence import DEFAULT_TOL, Outcome, decide_equivalence
from .errors import (
    CoronaFailure,
    DepthExceeded,
    DiskModError,
    FunctionParseError,
    SpecFileError,
    _RangeError,
)
from .holofun import MultiplierPair, format_function, parse_function
from .oracle import (
    CURVATURE_TOL,
    DEFAULT_DEGREE,
    MIN_DEGREE,
    dim_ker_estimate,
    eigenvector_residual,
    multiplier_lower_bound,
    oracle_curvature,
)
from .rkhs import format_module_kind, parse_module_kind

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNCERTIFIED = 2
EXIT_NOT_ISOMORPHIC = 3
EXIT_INCONCLUSIVE = 4
EXIT_TOLERANCE = 5

_MODULE_KEYS = ("base", "theta1", "theta2")
# section keys with the cast of their values; absent keys keep the defaults of
# DiskGrid and ProblemSpec
_GRID_KEYS = {"r_max": float, "n_r": int, "n_theta": int}
_TOL_KEYS = {"tol": float, "target_gap": float, "oracle_degree": int}
# radii of the points where verify compares the analytic and oracle curvature;
# the oracle forms the truncated frame only at |w| <= 0.7
_VERIFY_RADII = (0.1, 0.25, 0.4, 0.55, 0.7)


@dataclass(frozen=True)
class ProblemSpec:
    """A problem file: uncertified modules, grid and tolerances."""

    module_a: QuotientSpec
    module_b: QuotientSpec | None = None
    grid: DiskGrid = DiskGrid()
    tol: float = DEFAULT_TOL
    target_gap: float = DEFAULT_TARGET_GAP
    oracle_degree: int = DEFAULT_DEGREE

    def __post_init__(self):
        for key in ("tol", "target_gap"):
            value = getattr(self, key)
            if not 0.0 < value < math.inf:
                raise _RangeError(key, f"{key} must be finite and positive, got {value!r}")
        if self.oracle_degree < MIN_DEGREE:
            raise _RangeError(
                "oracle_degree",
                f"oracle_degree must be at least {MIN_DEGREE}, got {self.oracle_degree}",
            )


def parse_problem(text):
    """Parse a problem spec file; unknown sections or keys are rejected.

    ``#`` starts a comment that runs to the end of the line; no legal value
    contains it.
    """
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ("moduleA", "moduleB", "grid", "tolerances"):
                raise SpecFileError(f"unknown section [{name}]", line=lineno)
            if name in sections:
                raise SpecFileError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise SpecFileError(
                f"expected 'key = value', got {line!r}", line=lineno,
                column=1 + len(raw) - len(raw.lstrip()),
            )
        if current is None:
            raise SpecFileError("key outside any section", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        allowed = {
            "moduleA": _MODULE_KEYS,
            "moduleB": _MODULE_KEYS,
            "grid": _GRID_KEYS,
            "tolerances": _TOL_KEYS,
        }[current]
        if key not in allowed:
            raise SpecFileError(
                f"unknown key {key!r} in section [{current}]",
                line=lineno, column=1 + raw.find(key),
            )
        if key in sections[current]:
            raise SpecFileError(
                f"duplicate key {key!r} in section [{current}]", line=lineno
            )
        sections[current][key] = (value, lineno, 2 + raw.find("="))

    if "moduleA" not in sections:
        raise SpecFileError("missing required section [moduleA]")

    def build_module(name):
        data = sections[name]
        for key in _MODULE_KEYS:
            if key not in data:
                raise SpecFileError(f"section [{name}] is missing key {key!r}")
        try:
            base = parse_module_kind(data["base"][0])
        except (FunctionParseError, ValueError) as exc:
            raise SpecFileError(
                str(exc), line=data["base"][1], column=data["base"][2]
            ) from None
        thetas = []
        for key in ("theta1", "theta2"):
            value, lineno, col = data[key]
            try:
                thetas.append(parse_function(value))
            except (FunctionParseError, ValueError) as exc:
                raise SpecFileError(str(exc), line=lineno, column=col) from None
        try:
            pair = MultiplierPair(*thetas)
        except ValueError as exc:
            raise SpecFileError(str(exc), line=data["theta1"][1]) from None
        return QuotientSpec(base=base, theta=pair)

    def numbers(section, casts):
        # only the keys the file sets, so the dataclasses supply the defaults
        out = {}
        for key, (value, lineno, col) in sections.get(section, {}).items():
            try:
                out[key] = casts[key](value)
            except ValueError:
                raise SpecFileError(
                    f"bad value for {key!r}: {value!r}", line=lineno, column=col
                ) from None
        return out

    # a value out of range is reported at the line that set it
    try:
        grid = DiskGrid(**numbers("grid", _GRID_KEYS))
        return ProblemSpec(
            module_a=build_module("moduleA"),
            module_b=build_module("moduleB") if "moduleB" in sections else None,
            grid=grid,
            **numbers("tolerances", _TOL_KEYS),
        )
    except _RangeError as exc:
        section = sections.get("grid" if exc.key in _GRID_KEYS else "tolerances", {})
        _, line, column = section.get(exc.key, (None, None, None))
        raise SpecFileError(str(exc), line=line, column=column) from None


def canonical_problem_text(spec):
    """Canonical serialization; parse(canonical(p)) == p."""
    out = []

    def module(name, section):
        out.append(f"[{name}]")
        out.append(f"base = {format_module_kind(section.base)}")
        out.append(f"theta1 = {format_function(section.theta.theta1)}")
        out.append(f"theta2 = {format_function(section.theta.theta2)}")
        out.append("")

    module("moduleA", spec.module_a)
    if spec.module_b is not None:
        module("moduleB", spec.module_b)
    sections = (("grid", _GRID_KEYS, spec.grid), ("tolerances", _TOL_KEYS, spec))
    for name, keys, values in sections:
        out.append(f"[{name}]")
        out.extend(f"{key} = {getattr(values, key)!r}" for key in keys)
        out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# the pipeline

def _cnum(z):
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _write(path, content):
    """Write text, or a CurvatureField as CSV, to path; exit 1 if that fails."""
    try:
        if isinstance(content, str):
            with open(path, "w", encoding="ascii") as fh:
                fh.write(content)
        else:
            content.to_csv(path)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _certify(name, module, target_gap, entries):
    """Certify one module, record its ``corona`` entry and print its line.

    Returns the certified spec, or None when certification fails; the entry
    then holds the witness and u there under ``failed``, and either the best
    bound of a DepthExceeded or whether a CoronaFailure's witness is a common
    zero of the numerators (``FAILED``) or only a point where u is below
    target (``BELOW TARGET``).
    """
    try:
        spec = certify_spec(module, target_gap)
    except (CoronaFailure, DepthExceeded) as exc:
        failed = {"witness": _cnum(exc.witness), "value": exc.value}
        near = f"({exc.witness.real:.6g}, {exc.witness.imag:.6g})"
        if isinstance(exc, DepthExceeded):
            failed.update(best_bound=exc.best_bound, depth_exceeded=True)
            line = f"DEPTH EXCEEDED best_bound={exc.best_bound:.6g} worst box near {near}"
        else:
            failed["common_zero"] = exc.common_zero
            kind = "FAILED" if exc.common_zero else "BELOW TARGET"
            line = f"{kind} witness={near} u={exc.value:.6g}"
            line += " (common zero)" if exc.common_zero else ""
        entries[name] = {"failed": failed}
        print(f"corona {name}: {line}")
        return None
    cert = spec.certificate
    entries[name] = {
        "epsilon": cert.epsilon,
        "depth": cert.depth,
        "boxes_checked": cert.boxes_checked,
    }
    print(
        f"corona {name}: epsilon={cert.epsilon:.6g} "
        f"depth={cert.depth} boxes={cert.boxes_checked}"
    )
    return spec


def _seconds_since(started):
    return round(time.perf_counter() - started, 6)


def _run(args):
    """Load, certify, run the subcommand's body and write the report.

    Returns the exit code.  The report is written whatever certification
    found; the body runs only when every module it needs is certified.  The
    ``timing`` block holds ``certify_seconds`` and the whole run's
    ``seconds``, and a body adds its own stages to it.
    """
    started = time.perf_counter()
    prob = _load(args.specfile, args)
    _, names, body = _COMMANDS[args.command]
    modules = {"moduleA": prob.module_a, "moduleB": prob.module_b}
    names = names or [name for name, module in modules.items() if module is not None]
    if any(modules[name] is None for name in names):
        print(f"error: {args.command} needs both [moduleA] and [moduleB]", file=sys.stderr)
        return EXIT_USAGE
    report = {
        "version": __version__,
        "input": {"canonical": canonical_problem_text(prob)},
        "corona": {},
    }
    certify_started = time.perf_counter()
    specs = {
        name: _certify(name, modules[name], prob.target_gap, report["corona"])
        for name in names
    }
    report["timing"] = {"certify_seconds": _seconds_since(certify_started)}
    if any(spec is None for spec in specs.values()):
        code = EXIT_UNCERTIFIED
    else:
        code = body(prob, specs, args, report)
    report["timing"]["seconds"] = _seconds_since(started)
    text = json.dumps(report, indent=2, sort_keys=True)
    # the --out of curvature names the CSV, so its report goes to stdout
    if args.out and args.command != "curvature":
        _write(args.out, text + "\n")
    else:
        print(text)
    return code


# ---------------------------------------------------------------------------
# subcommand bodies: each adds its own report section and returns the exit code

def _corona(prob, specs, args, report):
    """Certification, done by the pipeline, is the whole command."""
    return EXIT_OK


def _gnuplot_string(text):
    """A gnuplot single-quoted string; inside one, '' stands for '."""
    return "'" + text.replace("'", "''") + "'"


def _curvature(prob, specs, args, report):
    started = time.perf_counter()
    field = curvature_field(specs["moduleA"], prob.grid)
    report["timing"]["field_seconds"] = _seconds_since(started)
    out_csv = args.out or "curvature.csv"
    started = time.perf_counter()
    _write(out_csv, field)
    report["timing"]["csv_write_seconds"] = _seconds_since(started)
    _write(
        os.path.splitext(out_csv)[0] + ".gp",
        "set datafile separator ','\n"
        f"set title {_gnuplot_string(field.label)}\n"
        "set xlabel 're'\nset ylabel 'im'\n"
        f"splot {_gnuplot_string(out_csv)} every ::1 using 1:2:3 with points palette "
        "pointtype 7 title 'curvature'\n",
    )
    lo, hi = float(np.min(field.values)), float(np.max(field.values))
    report["curvature"] = {
        "moduleA": {"min": lo, "max": hi, "points": len(field.values), "csv": out_csv}
    }
    print(
        f"curvature moduleA: {len(field.values)} points, "
        f"min={lo:.6g} max={hi:.6g} -> {out_csv}"
    )
    return EXIT_OK


def _decide(prob, specs, args, report):
    verdict = decide_equivalence(specs["moduleA"], specs["moduleB"], prob.grid, prob.tol)
    report["verdict"] = {
        "outcome": verdict.outcome.value,
        "detail": verdict.detail,
        "max_deviation": verdict.max_deviation,
        "witness": None
        if verdict.witness is None
        else {
            **_cnum(verdict.witness.point),
            "obstruction": verdict.witness.obstruction,
        },
        "grid": dataclasses.asdict(prob.grid),
        "tol": prob.tol,
    }
    print(f"verdict: {verdict.outcome.value} ({verdict.detail})")
    if verdict.witness is not None:
        w = verdict.witness
        print(
            f"witness: z=({w.point.real:.6g}, {w.point.imag:.6g}) "
            f"obstruction={w.obstruction:.6g}"
        )
    print(f"max_deviation: {verdict.max_deviation:.6g}")
    return {
        Outcome.ISOMORPHIC: EXIT_OK,
        Outcome.NOT_ISOMORPHIC: EXIT_NOT_ISOMORPHIC,
        Outcome.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[verdict.outcome]


def _verify_points():
    angles = np.exp(2j * np.pi * np.arange(5) / 5)
    return np.array([r * a for r in _VERIFY_RADII for a in angles])


def _verify(prob, specs, args, report):
    degree = prob.oracle_degree
    report["oracle"] = {}
    pts = _verify_points()
    all_ok = True
    for name, spec in specs.items():
        checks = {}

        a = quotient_curvature(spec, pts)
        b = oracle_curvature(spec, pts, degree)
        worst = float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))
        checks["curvature_identity"] = {
            "max_rel_err": worst, "tol": CURVATURE_TOL, "ok": bool(worst <= CURVATURE_TOL),
        }

        res = eigenvector_residual(spec, (0, 0.3, -0.4j, 0.25 + 0.25j, 0.5), degree)
        checks["eigenvector_residual"] = {
            "max": float(max(res)), "tol": 1e-6, "ok": bool(max(res) <= 1e-6),
        }

        dims = dim_ker_estimate(spec, (0, 0.3, -0.3, 0.45j, 0.6), degree)
        checks["dim_ker"] = {"values": dims, "ok": dims == [1] * len(dims)}

        # sigma_min(M_Theta)^2 >= target - slack, proved from the operator side
        checks["multiplier_min_singular_value"] = dataclasses.asdict(
            multiplier_lower_bound(spec, degree)
        )

        report["oracle"][name] = checks
        for label, data in checks.items():
            status = "ok" if data["ok"] else "FAIL"
            print(f"verify {name} {label}: {status}")
            all_ok = all_ok and data["ok"]

    return EXIT_OK if all_ok else EXIT_TOLERANCE


# subcommand -> (help, modules it certifies, body); None certifies every
# module of the file
_COMMANDS = {
    "corona": ("certify the corona condition for each module", None, _corona),
    "curvature": ("sample the curvature field to CSV", ("moduleA",), _curvature),
    "decide": (
        "decide unitary equivalence of two modules", ("moduleA", "moduleB"), _decide,
    ),
    "verify": ("run the matrix-truncation oracle suite", None, _verify),
}


# ---------------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _load(path, args):
    """The problem file with the flag overrides applied; exits 1 on bad input.

    Overrides go through ``dataclasses.replace``, so flags pass the same
    checks as file values.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    overrides = {}
    if args.grid:
        try:
            r_max, n_r, n_theta = args.grid.split(",")
            overrides["grid"] = DiskGrid(float(r_max), int(n_r), int(n_theta))
        except ValueError as exc:
            print(f"error: bad --grid value: {exc}", file=sys.stderr)
            sys.exit(EXIT_USAGE)
    for key in ("tol", "oracle_degree"):
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    try:
        prob = parse_problem(text)
        return dataclasses.replace(prob, **overrides) if overrides else prob
    except ValueError as exc:  # SpecFileError included
        print(f"error: {path}: {exc}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


@functools.cache
def _build_parser():
    parser = _Parser(
        prog="diskmod",
        description="curvature invariants and equivalence of quotient modules "
        "over the unit disk",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc, description=doc)
        p.add_argument("specfile", help="problem spec file")
        p.add_argument("--grid", help="override grid: r_max,n_r,n_theta")
        p.add_argument("--tol", type=float, help="decision tolerance")
        p.add_argument("--out", help="output path (JSON report, or CSV for curvature)")
        p.add_argument(
            "--oracle-degree", dest="oracle_degree", type=int,
            help="truncation degree for oracle checks",
        )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except DiskModError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the rest of the output goes to devnull, so
        # the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    entry()
