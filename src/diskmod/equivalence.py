"""Unitary-equivalence decisions for certified quotient specs.

Two specs over the same base are isomorphic exactly when the Laplacian of the
log-ratio of their multiplier modulus sums vanishes identically; with the
analytic Laplacians this is a pointwise difference.  Distinct weighted-Bergman
weights, or Hardy against weighted Bergman, can never be isomorphic.  Since a
numerical procedure samples rather than proves an identity on all of the disk,
acceptance uses a two-threshold scheme plus a second, rotated grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .curvature import (
    DiskGrid,
    _require_certified,
    fd_laplacian,
    laplacian_log_sumsq,
    quotient_curvature,
)

DEFAULT_TOL = 1e-6
# reject only beyond this multiple of the acceptance threshold
REJECT_FACTOR = 10.0

DETAIL_SAME_BASE = "Theorem 4.4"
DETAIL_WEIGHT_MISMATCH = "Theorem 4.5"
DETAIL_CROSS_BASE = "Theorem 4.7"


class Outcome(enum.Enum):
    ISOMORPHIC = "Isomorphic"
    NOT_ISOMORPHIC = "NotIsomorphic"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Witness:
    point: complex
    obstruction: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of an equivalence decision.

    ``detail`` names the decision branch; ``max_deviation`` is the largest
    absolute Laplacian log-ratio seen on the grids used.  NotIsomorphic always
    carries a witness point with its (signed) obstruction value.
    """

    outcome: Outcome
    witness: Witness | None
    detail: str
    max_deviation: float


def harmonicity_defect(theta_a, theta_b, grid):
    """Max over the grid of the Laplacian of the log-ratio of modulus sums.

    Returns (max deviation, maximizing point).  Both pairs must satisfy the
    corona condition on the grid (a degenerate point raises).
    """
    pts = grid.points()
    diff, idx, _ = _deviation_data(theta_a, theta_b, pts)
    return float(abs(diff[idx])), complex(pts[idx])


def _deviation_data(theta_a, theta_b, pts):
    la = laplacian_log_sumsq(theta_a, pts)
    lb = laplacian_log_sumsq(theta_b, pts)
    diff = la - lb
    idx = int(np.argmax(np.abs(diff)))
    scale = 1.0 + max(float(np.max(np.abs(la))), float(np.max(np.abs(lb))))
    return diff, idx, scale


def _curvature_gap_witness(spec_a, spec_b, grid):
    pts = grid.points()
    gap = quotient_curvature(spec_a, pts) - quotient_curvature(spec_b, pts)
    idx = int(np.argmax(np.abs(gap)))
    return Witness(point=complex(pts[idx]), obstruction=float(gap[idx]))


def decide_equivalence(spec_a, spec_b, grid=None, tol=DEFAULT_TOL):
    """Decide whether two certified quotient specs are isomorphic.

    Branches: different base kinds reject unconditionally (cross-base), as do
    different weighted-Bergman weights (weight mismatch); the witness there is
    the grid point with the largest curvature gap and is informative only.
    Same base runs the harmonicity defect with thresholds relative to
    1 + field magnitude: accept at ``tol`` (re-checked on a rotated grid),
    reject above ``10 * tol``, otherwise Inconclusive.
    """
    if grid is None:
        grid = DiskGrid()
    if tol <= 0:
        raise ValueError("tol must be positive")
    for spec in (spec_a, spec_b):
        _require_certified(spec)

    pts = grid.points()
    diff, idx, scale = _deviation_data(spec_a.theta, spec_b.theta, pts)
    max_dev = float(np.abs(diff[idx]))

    if spec_a.base.is_hardy != spec_b.base.is_hardy:
        return Verdict(
            outcome=Outcome.NOT_ISOMORPHIC,
            witness=_curvature_gap_witness(spec_a, spec_b, grid),
            detail=DETAIL_CROSS_BASE,
            max_deviation=max_dev,
        )
    if not spec_a.base.is_hardy and spec_a.base.alpha != spec_b.base.alpha:
        return Verdict(
            outcome=Outcome.NOT_ISOMORPHIC,
            witness=_curvature_gap_witness(spec_a, spec_b, grid),
            detail=DETAIL_WEIGHT_MISMATCH,
            max_deviation=max_dev,
        )

    if max_dev > REJECT_FACTOR * tol * scale:
        return Verdict(
            outcome=Outcome.NOT_ISOMORPHIC,
            witness=Witness(point=complex(pts[idx]), obstruction=float(diff[idx])),
            detail=DETAIL_SAME_BASE,
            max_deviation=max_dev,
        )

    # a grid aligned with a symmetry of the deviation field could hit an
    # accidental zero set, so acceptance requires a second, rotated grid
    off = grid.points(rotate=math.pi / grid.n_theta)
    diff2, idx2, scale2 = _deviation_data(spec_a.theta, spec_b.theta, off)
    both_dev = max(max_dev, float(np.abs(diff2[idx2])))
    both_scale = max(scale, scale2)

    if both_dev <= tol * both_scale:
        return Verdict(
            outcome=Outcome.ISOMORPHIC,
            witness=None,
            detail=DETAIL_SAME_BASE,
            max_deviation=both_dev,
        )
    if both_dev > REJECT_FACTOR * tol * both_scale:
        if abs(diff2[idx2]) >= max_dev:
            worst = Witness(point=complex(off[idx2]), obstruction=float(diff2[idx2]))
        else:
            worst = Witness(point=complex(pts[idx]), obstruction=float(diff[idx]))
        return Verdict(
            outcome=Outcome.NOT_ISOMORPHIC,
            witness=worst,
            detail=DETAIL_SAME_BASE,
            max_deviation=both_dev,
        )
    return Verdict(
        outcome=Outcome.INCONCLUSIVE,
        witness=Witness(point=complex(pts[idx]), obstruction=float(diff[idx])),
        detail=(
            f"{DETAIL_SAME_BASE}: deviation {both_dev:.3e} falls between "
            f"{tol:.1e} and {REJECT_FACTOR * tol:.1e} (relative); refine the "
            "grid or tolerance"
        ),
        max_deviation=both_dev,
    )


def lemma46_probe(grid, h=1e-3):
    """Validation utility for the unbounded-potential obstruction.

    For g(z) = -log(1 - |z|^2)/4 the Laplacian equals (1 - |z|^2)^-2; returns
    the max absolute error of the finite-difference Laplacian against that
    closed form over the grid.  The grid (plus stencil) must stay interior.
    """

    def g(z):
        return -0.25 * np.log(1.0 - np.abs(z) ** 2)

    pts = grid.points()
    target = 1.0 / (1.0 - np.abs(pts) ** 2) ** 2
    return float(np.max(np.abs(fd_laplacian(g, pts, h) - target)))
