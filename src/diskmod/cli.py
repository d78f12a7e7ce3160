"""Command-line entry point.

Subcommands: ``corona`` (certify multiplier pairs), ``curvature`` (sample the
curvature field to CSV, with a gnuplot script alongside), ``decide`` (unitary
equivalence of two specs), ``verify`` (run the matrix-truncation oracle suite
against the analytic layer).  Problem files are line-oriented ``key = value``
under section headers ``[moduleA]``, ``[moduleB]``, ``[grid]``,
``[tolerances]``; see the README for the full grammar.

Exit codes: 0 success/Isomorphic, 1 parse or usage error, 2 certification
failure, 3 NotIsomorphic, 4 Inconclusive, 5 internal tolerance failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .corona import DEFAULT_TARGET_GAP, certify_spec
from .curvature import DiskGrid, QuotientSpec, curvature_field, quotient_curvature
from .equivalence import DEFAULT_TOL, Outcome, decide_equivalence, lemma46_probe
from .errors import (
    CoronaFailure,
    DepthExceeded,
    DiskModError,
    FunctionParseError,
    SpecFileError,
)
from .holofun import MultiplierPair, format_function, parse_function, poly
from .oracle import (
    DEFAULT_DEGREE,
    dim_ker_estimate,
    eigenvector_residual,
    multiplier_min_singular_value,
    oracle_curvature,
    reproducing_check,
)
from .rkhs import ModuleKind, format_module_kind, parse_module_kind

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNCERTIFIED = 2
EXIT_NOT_ISOMORPHIC = 3
EXIT_INCONCLUSIVE = 4
EXIT_TOLERANCE = 5

_MODULE_KEYS = ("base", "theta1", "theta2")
_GRID_KEYS = ("r_max", "n_r", "n_theta")
_TOL_KEYS = ("tol", "target_gap", "fd_step", "oracle_degree")


@dataclass(frozen=True)
class ModuleSection:
    base: ModuleKind
    theta: MultiplierPair


@dataclass(frozen=True)
class ProblemSpec:
    module_a: ModuleSection
    module_b: ModuleSection | None = None
    grid: DiskGrid = DiskGrid()
    tol: float = DEFAULT_TOL
    target_gap: float = DEFAULT_TARGET_GAP
    fd_step: float = 1e-3
    oracle_degree: int = DEFAULT_DEGREE


def parse_problem(text):
    """Parse a problem spec file; unknown sections or keys are rejected."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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
        return ModuleSection(base=base, theta=pair)

    def number(section, key, cast, default):
        if section not in sections or key not in sections[section]:
            return default
        value, lineno, col = sections[section][key]
        try:
            return cast(value)
        except ValueError:
            raise SpecFileError(
                f"bad value for {key!r}: {value!r}", line=lineno, column=col
            ) from None

    grid_defaults = DiskGrid()
    try:
        grid = DiskGrid(
            r_max=number("grid", "r_max", float, grid_defaults.r_max),
            n_r=number("grid", "n_r", int, grid_defaults.n_r),
            n_theta=number("grid", "n_theta", int, grid_defaults.n_theta),
        )
    except ValueError as exc:
        raise SpecFileError(f"bad grid: {exc}") from None

    spec = ProblemSpec(
        module_a=build_module("moduleA"),
        module_b=build_module("moduleB") if "moduleB" in sections else None,
        grid=grid,
        tol=number("tolerances", "tol", float, DEFAULT_TOL),
        target_gap=number("tolerances", "target_gap", float, DEFAULT_TARGET_GAP),
        fd_step=number("tolerances", "fd_step", float, 1e-3),
        oracle_degree=number("tolerances", "oracle_degree", int, DEFAULT_DEGREE),
    )
    if spec.tol <= 0 or spec.target_gap <= 0 or spec.fd_step <= 0:
        raise SpecFileError("tolerances must be positive")
    if spec.oracle_degree < 60:
        raise SpecFileError("oracle_degree must be at least 60")
    return spec


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
    out.append("[grid]")
    out.append(f"r_max = {spec.grid.r_max!r}")
    out.append(f"n_r = {spec.grid.n_r}")
    out.append(f"n_theta = {spec.grid.n_theta}")
    out.append("")
    out.append("[tolerances]")
    out.append(f"tol = {spec.tol!r}")
    out.append(f"target_gap = {spec.target_gap!r}")
    out.append(f"fd_step = {spec.fd_step!r}")
    out.append(f"oracle_degree = {spec.oracle_degree}")
    out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# report plumbing

def _cnum(z):
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _echo(spec):
    return {"canonical": canonical_problem_text(spec)}


def _certificate_entry(cert):
    return {
        "epsilon": cert.epsilon,
        "depth": cert.depth,
        "boxes_checked": cert.boxes_checked,
    }


def _emit(report, out_path, started):
    report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _certify_modules(prob, names):
    """Certify the requested modules, printing witnesses on failure."""
    certified = {}
    failures = {}
    for name in names:
        section = getattr(prob, "module_a" if name == "moduleA" else "module_b")
        try:
            certified[name] = certify_spec(
                QuotientSpec(base=section.base, theta=section.theta),
                prob.target_gap,
            )
        except CoronaFailure as exc:
            failures[name] = {
                "witness": _cnum(exc.witness),
                "value": exc.value,
            }
            print(
                f"corona {name}: FAILED witness="
                f"({exc.witness.real:.6g}, {exc.witness.imag:.6g}) "
                f"u={exc.value:.6g}"
            )
        except DepthExceeded as exc:
            failures[name] = {
                "witness": _cnum(exc.witness),
                "value": exc.value,
                "best_bound": exc.best_bound,
                "depth_exceeded": True,
            }
            print(
                f"corona {name}: DEPTH EXCEEDED best_bound={exc.best_bound:.6g} "
                f"worst box near ({exc.witness.real:.6g}, {exc.witness.imag:.6g})"
            )
    return certified, failures


# ---------------------------------------------------------------------------
# subcommands

def cmd_corona(args):
    started = time.perf_counter()
    prob = _load(args.specfile, args)
    names = ["moduleA"] + (["moduleB"] if prob.module_b is not None else [])
    certified, failures = _certify_modules(prob, names)
    report = {"version": __version__, "input": _echo(prob), "corona": {}}
    for name in names:
        if name in certified:
            cert = certified[name].certificate
            report["corona"][name] = _certificate_entry(cert)
            print(
                f"corona {name}: epsilon={cert.epsilon:.6g} "
                f"depth={cert.depth} boxes={cert.boxes_checked}"
            )
        else:
            report["corona"][name] = {"failed": failures[name]}
    _emit(report, args.out, started)
    return EXIT_OK if not failures else EXIT_UNCERTIFIED


def cmd_curvature(args):
    started = time.perf_counter()
    prob = _load(args.specfile, args)
    certified, failures = _certify_modules(prob, ["moduleA"])
    if failures:
        return EXIT_UNCERTIFIED
    spec = certified["moduleA"]
    field = curvature_field(spec, prob.grid)
    out_csv = args.out or "curvature.csv"
    field.to_csv(out_csv)
    script = os.path.splitext(out_csv)[0] + ".gp"
    with open(script, "w", encoding="ascii") as fh:
        fh.write(
            "set datafile separator ','\n"
            f"set title '{field.label}'\n"
            "set xlabel 're'\nset ylabel 'im'\n"
            f"splot '{out_csv}' every ::1 using 1:2:3 with points palette "
            "pointtype 7 title 'curvature'\n"
        )
    cert = spec.certificate
    report = {
        "version": __version__,
        "input": _echo(prob),
        "corona": {"moduleA": _certificate_entry(cert)},
        "curvature": {
            "moduleA": {
                "min": float(np.min(field.values)),
                "max": float(np.max(field.values)),
                "points": len(field.values),
                "csv": out_csv,
            }
        },
    }
    print(
        f"curvature moduleA: {len(field.values)} points, "
        f"min={np.min(field.values):.6g} max={np.max(field.values):.6g} -> {out_csv}"
    )
    _emit(report, None, started)
    return EXIT_OK


def cmd_decide(args):
    started = time.perf_counter()
    prob = _load(args.specfile, args)
    if prob.module_b is None:
        print("error: decide needs both [moduleA] and [moduleB]", file=sys.stderr)
        return EXIT_USAGE
    certified, failures = _certify_modules(prob, ["moduleA", "moduleB"])
    if failures:
        return EXIT_UNCERTIFIED
    verdict = decide_equivalence(
        certified["moduleA"], certified["moduleB"], prob.grid, prob.tol
    )
    report = {
        "version": __version__,
        "input": _echo(prob),
        "corona": {
            name: _certificate_entry(certified[name].certificate)
            for name in certified
        },
        "verdict": {
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
        },
    }
    print(f"verdict: {verdict.outcome.value} ({verdict.detail})")
    if verdict.witness is not None:
        w = verdict.witness
        print(
            f"witness: z=({w.point.real:.6g}, {w.point.imag:.6g}) "
            f"obstruction={w.obstruction:.6g}"
        )
    print(f"max_deviation: {verdict.max_deviation:.6g}")
    _emit(report, args.out, started)
    return {
        Outcome.ISOMORPHIC: EXIT_OK,
        Outcome.NOT_ISOMORPHIC: EXIT_NOT_ISOMORPHIC,
        Outcome.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[verdict.outcome]


def _verify_points():
    radii = (0.1, 0.25, 0.4, 0.55, 0.7)
    angles = np.exp(2j * np.pi * np.arange(5) / 5)
    return np.array([r * a for r in radii for a in angles])


def cmd_verify(args):
    started = time.perf_counter()
    prob = _load(args.specfile, args)
    names = ["moduleA"] + (["moduleB"] if prob.module_b is not None else [])
    certified, failures = _certify_modules(prob, names)
    if failures:
        return EXIT_UNCERTIFIED

    h = prob.fd_step
    degree = prob.oracle_degree
    report = {
        "version": __version__,
        "input": _echo(prob),
        "corona": {
            name: _certificate_entry(certified[name].certificate)
            for name in names
        },
        "oracle": {},
    }
    pts = _verify_points()
    # the probe depends only on the grid and the step, not on the module
    probe = lemma46_probe(prob.grid, h)
    all_ok = True
    for name in names:
        spec = certified[name]
        checks = {}

        a = quotient_curvature(spec, pts)
        b = oracle_curvature(spec, pts, h)
        worst = float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))
        checks["curvature_identity"] = {
            "max_rel_err": worst, "tol": 1e-3, "ok": bool(worst <= 1e-3),
        }

        res = [
            eigenvector_residual(spec, w, degree)
            for w in (0, 0.3, -0.4j, 0.25 + 0.25j, 0.5)
        ]
        checks["eigenvector_residual"] = {
            "max": float(max(res)), "tol": 1e-6, "ok": bool(max(res) <= 1e-6),
        }

        dims = dim_ker_estimate(spec, (0, 0.3, -0.3, 0.45j, 0.6), degree)
        checks["dim_ker"] = {
            "values": [int(d) for d in dims],
            "ok": bool(all(d == 1 for d in dims)),
        }

        rep = max(
            reproducing_check(spec.base, f, w)
            for f in (poly([1]), poly([0, 0, 1]), poly([0, -1, 0, 3]))
            for w in (0.3, 0.4j)
        )
        checks["reproducing"] = {
            "max_err": float(rep), "tol": 1e-12, "ok": bool(rep <= 1e-12),
        }

        checks["lemma46_probe"] = {
            "max_err": float(probe), "tol": 1e-3, "ok": bool(probe <= 1e-3),
        }

        checks["multiplier_min_singular_value"] = {
            "value": multiplier_min_singular_value(spec.theta, spec.base, degree),
            "ok": True,  # monitored only
        }

        report["oracle"][name] = checks
        for label, data in checks.items():
            status = "ok" if data["ok"] else "FAIL"
            print(f"verify {name} {label}: {status}")
            all_ok = all_ok and data["ok"]

    _emit(report, args.out, started)
    return EXIT_OK if all_ok else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _load(path, args):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    try:
        prob = parse_problem(text)
    except SpecFileError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    overrides = {}
    if getattr(args, "grid", None):
        try:
            r_max, n_r, n_theta = args.grid.split(",")
            overrides["grid"] = DiskGrid(float(r_max), int(n_r), int(n_theta))
        except ValueError as exc:
            print(f"error: bad --grid value: {exc}", file=sys.stderr)
            sys.exit(EXIT_USAGE)
    if getattr(args, "tol", None) is not None:
        overrides["tol"] = args.tol
    if getattr(args, "fd_step", None) is not None:
        overrides["fd_step"] = args.fd_step
    if getattr(args, "oracle_degree", None) is not None:
        overrides["oracle_degree"] = args.oracle_degree
    return dataclasses.replace(prob, **overrides) if overrides else prob


def _build_parser():
    parser = _Parser(
        prog="diskmod",
        description="curvature invariants and equivalence of quotient modules "
        "over the unit disk",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, doc in (
        ("corona", cmd_corona, "certify the corona condition for each module"),
        ("curvature", cmd_curvature, "sample the curvature field to CSV"),
        ("decide", cmd_decide, "decide unitary equivalence of two modules"),
        ("verify", cmd_verify, "run the matrix-truncation oracle suite"),
    ):
        p = sub.add_parser(name, help=doc, description=doc)
        p.add_argument("specfile", help="problem spec file")
        p.add_argument("--grid", help="override grid: r_max,n_r,n_theta")
        p.add_argument("--tol", type=float, help="decision tolerance")
        p.add_argument("--out", help="output path (JSON report, or CSV for curvature)")
        p.add_argument(
            "--oracle-degree", dest="oracle_degree", type=int,
            help="truncation degree for oracle checks",
        )
        p.add_argument(
            "--fd-step", dest="fd_step", type=float,
            help="finite-difference step",
        )
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DiskModError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
