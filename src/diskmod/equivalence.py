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

from .curvature import DiskGrid, _grid_laplacian, _require_certified
from .rkhs import base_curvature

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


def _deviation_data(theta_a, theta_b, grid, pts, rotate=0.0):
    """Laplacians of log u for both pairs on pts = grid.points(rotate), the
    witness of their largest difference, and the threshold scale 1 + the
    larger field magnitude."""
    la = _grid_laplacian(theta_a, grid, rotate)
    lb = _grid_laplacian(theta_b, grid, rotate)
    diff = la - lb
    idx = int(np.argmax(np.abs(diff)))
    worst = Witness(point=complex(pts[idx]), obstruction=float(diff[idx]))
    scale = 1.0 + max(float(np.max(np.abs(la))), float(np.max(np.abs(lb))))
    return la, lb, worst, scale


def _curvature_gap_witness(spec_a, spec_b, pts, la, lb):
    # quotient_curvature of each spec, reusing the Laplacians already computed
    gap = (base_curvature(spec_a.base, pts) - 0.25 * la) - (
        base_curvature(spec_b.base, pts) - 0.25 * lb
    )
    idx = int(np.argmax(np.abs(gap)))
    return Witness(point=complex(pts[idx]), obstruction=float(gap[idx]))


def decide_equivalence(spec_a, spec_b, grid=None, tol=DEFAULT_TOL):
    """Decide whether two certified quotient specs are isomorphic.

    Branches: different base kinds reject unconditionally (cross-base), as do
    different weighted-Bergman weights (weight mismatch); the witness there is
    the grid point with the largest curvature gap and is informative only.
    Same base runs the harmonicity defect with thresholds relative to
    1 + field magnitude: accept at ``tol`` (re-checked on a rotated grid),
    reject above ``10 * tol`` (on the first grid alone, or on both),
    otherwise Inconclusive.
    """
    if grid is None:
        grid = DiskGrid()
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    for spec in (spec_a, spec_b):
        _require_certified(spec)

    pts = grid.points()
    la, lb, worst, scale = _deviation_data(spec_a.theta, spec_b.theta, grid, pts)
    max_dev = abs(worst.obstruction)

    if spec_a.base != spec_b.base:
        cross = spec_a.base.is_hardy != spec_b.base.is_hardy
        return Verdict(
            outcome=Outcome.NOT_ISOMORPHIC,
            witness=_curvature_gap_witness(spec_a, spec_b, pts, la, lb),
            detail=DETAIL_CROSS_BASE if cross else DETAIL_WEIGHT_MISMATCH,
            max_deviation=max_dev,
        )

    # a grid aligned with a symmetry of the deviation field could hit an
    # accidental zero set, so only a rejection may rest on the first grid
    # alone; a NaN deviation also reads the second, rotated grid
    last = worst
    if not max_dev > REJECT_FACTOR * tol * scale:
        rotate = math.pi / grid.n_theta
        _, _, last, scale2 = _deviation_data(
            spec_a.theta, spec_b.theta, grid, grid.points(rotate), rotate
        )
        scale = max(scale, scale2)
    dev = max(max_dev, abs(last.obstruction))

    detail = DETAIL_SAME_BASE
    if dev <= tol * scale:
        outcome, witness = Outcome.ISOMORPHIC, None
    elif dev > REJECT_FACTOR * tol * scale:
        # the larger deviation names the witness, the rotated grid's on a tie
        outcome = Outcome.NOT_ISOMORPHIC
        witness = last if abs(last.obstruction) >= max_dev else worst
    else:
        outcome, witness = Outcome.INCONCLUSIVE, worst
        detail = (
            f"{DETAIL_SAME_BASE}: deviation {dev:.3e} falls between "
            f"{tol:.1e} and {REJECT_FACTOR * tol:.1e} (relative); refine the "
            "grid or tolerance"
        )
    return Verdict(outcome=outcome, witness=witness, detail=detail, max_deviation=dev)
