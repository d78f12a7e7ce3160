"""Output checks computed by the benchmark itself, with plain numpy.

Nothing here calls into ``diskmod``: multipliers are evaluated with numpy
(``corpus.u_values``) from the coefficient lists the corpus generator wrote,
the base curvature is the closed form ``-(1 or 2 + alpha) / (1 - |z|**2)**2``,
and Laplacians are finite-difference stencils.  Each check returns a list of problems found; an
empty list means the output is right.
"""

from __future__ import annotations

import json
import math

import numpy as np

from corpus import u_values

# a CoronaFailure witness must lie this close to the constructed common zero
WITNESS_TOL = 1e-3
# CSV curvature against the finite-difference reference: |diff| <= tol (1 + |ref|)
CSV_REL_TOL = 1e-5
CSV_SAMPLE_ROWS = 24
FD_STEP = 1e-3


def fd_curvature(mod, z):
    """Reference curvature: closed-form base term minus a quarter of the
    Richardson-extrapolated 5-point Laplacian of log u."""
    z = np.asarray(z, complex)

    def lap(h):
        s = (np.log(u_values(mod, z + h)) + np.log(u_values(mod, z - h))
             + np.log(u_values(mod, z + 1j * h)) + np.log(u_values(mod, z - 1j * h))
             - 4.0 * np.log(u_values(mod, z)))
        return s / h**2

    laplacian = (4.0 * lap(FD_STEP / 2) - lap(FD_STEP)) / 3.0
    factor = 1.0 if mod.base is None else 2.0 + mod.base
    return -factor / (1.0 - np.abs(z) ** 2) ** 2 - 0.25 * laplacian


def grid_points(r_max, n_r, n_theta):
    r = r_max * (np.arange(n_r) + 0.5) / n_r
    phi = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return (r[:, None] * np.exp(1j * phi)[None, :]).ravel()


def strip_timing(report_text):
    """A report with its ``timing`` block removed, serialised canonically."""
    data = json.loads(report_text)
    data.pop("timing", None)
    return json.dumps(data, sort_keys=True)


# ---------------------------------------------------------------------------
# per-command checks; ``ref`` holds the sampled minimum of u per module

def check_certificates(report, ref, certified_eps):
    """Epsilons must be positive and at most the sampled minimum of u."""
    errors = []
    for name, entry in report.get("corona", {}).items():
        if "epsilon" not in entry:
            continue
        eps = entry["epsilon"]
        if not (0.0 < eps <= ref[name]):
            errors.append(f"{name}: epsilon {eps!r} not in (0, sampled min {ref[name]!r}]")
        else:
            certified_eps[name] = eps
    return errors


def classify_corona(problem, exit_code, report):
    """Return (errors, gave_up) for a ``diskmod corona`` run."""
    errors, gave_up = [], False
    entries = report.get("corona", {})
    for name, expected in problem.expect["modules"].items():
        entry = entries.get(name)
        if entry is None:
            errors.append(f"{name}: missing from report")
            continue
        failed = entry.get("failed")
        if expected == "certified":
            if failed is None:
                continue
            if failed.get("depth_exceeded"):
                gave_up = True
            else:
                errors.append(f"{name}: corona pair reported as failing")
        else:
            if failed is None:
                errors.append(f"{name}: pair with a common zero was certified")
            elif failed.get("depth_exceeded"):
                gave_up = True
            else:
                w = complex(*problem.params[name]["w"])
                got = complex(failed["witness"]["re"], failed["witness"]["im"])
                if abs(got - w) > WITNESS_TOL:
                    errors.append(f"{name}: witness {got} is not near the common zero {w}")
    want = problem.expect["exit"]
    if not errors and not gave_up and exit_code != want:
        errors.append(f"exit code {exit_code}, expected {want}")
    if gave_up and exit_code != 2:
        errors.append(f"exit code {exit_code} after giving up, expected 2")
    return errors, gave_up


def classify_decide(problem, exit_code, report):
    errors = []
    verdict = report.get("verdict") or {}
    outcome, detail = verdict.get("outcome"), verdict.get("detail", "")
    want = problem.expect
    if outcome == "Inconclusive" and want["outcome"] == "Isomorphic":
        return [], True
    if outcome != want["outcome"]:
        errors.append(f"verdict {outcome!r}, expected {want['outcome']!r}")
    elif not detail.startswith(want["detail"]):
        errors.append(f"detail {detail!r}, expected {want['detail']!r}")
    elif outcome == "NotIsomorphic" and verdict.get("witness") is None:
        errors.append("NotIsomorphic without a witness")
    if not errors and exit_code != want["exit"]:
        errors.append(f"exit code {exit_code}, expected {want['exit']}")
    return errors, False


def classify_verify(problem, exit_code, report):
    errors = []
    oracle = report.get("oracle", {})
    for name in problem.modules:
        checks = oracle.get(name)
        if checks is None:
            errors.append(f"{name}: no oracle checks in report")
            continue
        for label, data in sorted(checks.items()):
            if not data.get("ok"):
                errors.append(f"{name}: oracle check {label} failed")
        if checks.get("dim_ker", {}).get("values") != [1] * 5:
            errors.append(f"{name}: dim_ker {checks.get('dim_ker')}")
    if not errors and exit_code != 0:
        errors.append(f"exit code {exit_code}, expected 0")
    return errors, False


def check_csv(problem, data, report, rng):
    """Row count, and grid points and curvature values of sampled CSV rows."""
    lines = data.split(b"\n")
    if lines[0] != b"re,im,curvature" or lines[-1] != b"":
        return ["CSV header or trailing newline missing"]
    rows = lines[1:-1]
    r_max, n_r, n_theta = problem.grid
    if len(rows) != n_r * n_theta or report["curvature"]["moduleA"]["points"] != len(rows):
        return [f"CSV has {len(rows)} rows, expected {n_r * n_theta}"]
    idx = sorted(rng.sample(range(len(rows)), min(CSV_SAMPLE_ROWS, len(rows))))
    table = np.array([rows[k].split(b",") for k in idx], dtype=float)
    pts = grid_points(r_max, n_r, n_theta)[idx]
    errors = []
    if np.max(np.abs(table[:, 0] + 1j * table[:, 1] - pts)) > 1e-12:
        errors.append("CSV points differ from the grid")
    ref = fd_curvature(problem.modules["moduleA"], pts)
    got = table[:, 2]
    bad = np.abs(got - ref) > CSV_REL_TOL * (1.0 + np.abs(ref))
    if np.any(bad):
        k = int(np.argmax(bad))
        errors.append(f"CSV curvature {got[k]!r} at {pts[k]:.6g}, reference {ref[k]!r}")
    return errors


def geometric_mean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))
