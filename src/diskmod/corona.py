"""Certified lower bounds for |theta1|^2 + |theta2|^2 on the closed disk.

Breadth-first quadtree over [-1,1]^2, one level at a time as numpy arrays.
Every box gets the Taylor coefficients b_ij(c) of the multipliers at its
center c, projected onto the closed disk.  Projection does not increase the
distance to points of the disk, so with rho the box half-diagonal, every z of
the box inside the closed disk satisfies

    sqrt(u(z)) >= |Theta(c)| - ||(R1(rho), R2(rho))||,
    R_i(rho) = sum_{j>=1} |b_ij(c)| rho^j.

A box passes once that bound, squared, reaches the target.  Each coefficient
carries an a-priori rounding allowance, so the returned epsilon is a sound
lower bound in floating point, not only in exact arithmetic.  Rational pairs
reduce to polynomials: u = (|p1 q2|^2 + |p2 q1|^2) / |q1 q2|^2, and the same
Taylor data bound max |q1 q2| over each box.  Certification runs over the
closed disk; for this function class the infimum over the open disk equals
the minimum there.

A pair fails by one of two routes once some open box center has u below the
target.  If the numerators have a common zero in the open disk (their numeric
GCD, see ``common_zeros_in_disk``) where u is below ten times the target, the
failure is reported at that zero.  Otherwise the search follows the smallest
center value down to maximal depth: this is the route of sharp dips, zeros on
the circle and pairs that merely come close to a common zero.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .curvature import QuotientSpec
from .errors import CoronaFailure, DepthExceeded
from .holofun import _UNIT, MultiplierPair, _gamma, _matmul_blocks, _powers, common_zeros_in_disk

MAX_DEPTH = 24
# hard cap on processed boxes; certification that needs more is hopeless anyway
BOX_BUDGET = 2_000_000
DEFAULT_TARGET_GAP = 1e-6
# boxes evaluated per numpy batch; bounds the working memory of a wide level
_CHUNK = 8192
# center offsets of a box's four children, in half-widths of the next level;
# a level lists every first child, then every second one, and so on, and
# argmin breaks ties in that order
_CHILDREN = np.array([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j])
# center offsets of a 4 x 4 block of next-level boxes around a box: its
# children and the nearest children of its eight neighbours, one row of equal
# imaginary offset after another, which fixes how the descent breaks ties
_WINDOW = np.add.outer(1j * np.array([-3.0, -1.0, 1.0, 3.0]), [-3.0, -1.0, 1.0, 3.0]).ravel()


@dataclass(frozen=True)
class CoronaCertificate:
    """A certified bound inf |theta1|^2 + |theta2|^2 >= epsilon > 0.

    ``cleared_epsilon`` bounds inf |P1|^2 + |P2|^2 in the same way, for the
    numerators P1 = p1 q2 and P2 = p2 q1 of the pair over one denominator
    (``MultiplierPair._cleared``), from the same boxes.  For a polynomial
    pair it lies a rounding allowance above epsilon, as Q = 1.  ``theta``
    is the pair the bounds were proved for; a spec counts as certified only
    while its own pair equals it.
    """

    epsilon: float
    cleared_epsilon: float
    depth: int
    boxes_checked: int
    theta: MultiplierPair


class _BoxBounds:
    """Vectorized per-box bounds for u = (|P1|^2 + |P2|^2) / |Q|^2.

    P1 = p1 q2, P2 = p2 q1 and Q = q1 q2 are the cross products of the
    numerators and denominators (Q = 1 for a polynomial pair), which the
    pair holds as ``MultiplierPair._cleared``.  Column
    f * (n + 1) + j of ``shift`` maps the powers c^m to the j-th Taylor
    coefficient of polynomial f at c: sum_m C(m + j, j) a_f[m + j] c^m.
    ``shift_abs`` is the same map on |a| * |b|, which bounds the exact
    products coefficientwise; it scales every rounding allowance.
    """

    def __init__(self, theta):
        prods, prods_abs = theta._cleared
        n = prods.shape[1] - 1
        m, j = np.indices((n + 1, n + 1))
        index = np.minimum(m + j, n)
        # C(m + j, j), zero where m + j > n
        binom = np.array(
            [[math.comb(r + c, c) if r + c <= n else 0 for c in range(n + 1)]
             for r in range(n + 1)],
            dtype=float,
        )
        self.n = n
        self.shift = np.hstack([binom * p[index] for p in prods])
        self.shift_abs = np.hstack([binom * p[index] for p in prods_abs])
        # rounding of the products (sums of <= n + 1 complex terms), of the
        # shift matrix entries, of the powers c^m (n complex products) and of
        # the complex matrix product; doubled for the complex operations.
        # Horner-type a-priori bound (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2nd ed., section 5.1).
        self.coeff_gamma = _gamma(2 * (5 * n + 12))
        # rounding of the final combination of center values and tails
        self.final_gamma = _gamma(2 * n + 10)

    def center_values(self, c):
        """(|P1(c)|^2 + |P2(c)|^2) / |Q(c)|^2 on an array of disk points."""
        b = _powers(c, self.n) @ self.shift[:, :: self.n + 1]
        return (np.abs(b[:, 0]) ** 2 + np.abs(b[:, 1]) ** 2) / np.abs(b[:, 2]) ** 2

    def bounds(self, c, rho):
        """Certified lower bounds of u and of sqrt(|P1|^2 + |P2|^2) on each box, and u at each center.

        ``c`` holds the box centers projected onto the closed disk and ``rho``
        the common half-diagonal, already rounded up.
        """
        n = self.n
        powers = _powers(c, n)
        coeffs = np.abs(_matmul_blocks(powers, self.shift)).reshape(len(c), 3, n + 1)
        err = self.coeff_gamma * _matmul_blocks(np.abs(powers), self.shift_abs)
        err = err.reshape(len(c), 3, n + 1)
        rho_pow = rho ** np.arange(1, n + 1)
        tails = (coeffs[:, :, 1:] + err[:, :, 1:]) @ rho_pow
        num = np.hypot(coeffs[:, 0, 0], coeffs[:, 1, 0])
        den = coeffs[:, 2, 0]
        slack = np.hypot(err[:, 0, 0], err[:, 1, 0]) + np.hypot(tails[:, 0], tails[:, 1])
        g = self.final_gamma
        lower = np.maximum(num * (1.0 - g) - slack * (1.0 + g), 0.0)
        q_max = (den + err[:, 2, 0] + tails[:, 2]) * (1.0 + g)
        return (lower / q_max) ** 2 * (1.0 - g), lower, (num / den) ** 2


def _project(c):
    """Box centers projected onto the closed disk."""
    r = np.abs(c)
    return np.where(r > 1.0, c / np.maximum(r, 1.0), c)


def _meets_disk(c, half):
    """Mask of the boxes that intersect the closed disk."""
    ox = np.maximum(np.abs(c.real) - half, 0.0)
    oy = np.maximum(np.abs(c.imag) - half, 0.0)
    return ox * ox + oy * oy <= 1.0


def _half_diagonal(half):
    # rounded up, with room for the rounding of the projected center
    return half * math.sqrt(2.0) * (1.0 + 4.0 * _UNIT) + 4.0 * _UNIT


def _descend(boxes, c, value, half, depth):
    """Follow the smallest center value from one box down to MAX_DEPTH.

    Each step keeps the best of the next-level boxes in a 4 x 4 window around
    the current one, so a minimum near a box edge is not lost.  Returns the
    final projected center and u there.
    """
    while depth < MAX_DEPTH:
        half /= 2.0
        g = c + half * _WINDOW
        g = g[_meets_disk(g, half)]
        values = boxes.center_values(_project(g))
        k = int(np.argmin(values))
        c, value = g[k], values[k]
        depth += 1
    return complex(_project(c)), float(value)


def _fail_at_common_zero(boxes, theta, target_gap):
    """Raise CoronaFailure at the common zero of the numerators with the
    smallest u, if u there is below 10 * target_gap; return otherwise."""
    zeros = common_zeros_in_disk(theta)
    if not zeros:
        return
    values = boxes.center_values(np.array(zeros))
    k = int(np.argmin(values))
    if values[k] < 10.0 * target_gap:
        raise CoronaFailure(witness=zeros[k], value=float(values[k]), common_zero=True)


def certify(theta, target_gap=DEFAULT_TARGET_GAP):
    """Certify the corona condition for a multiplier pair.

    Returns a CoronaCertificate whose epsilon is a sound lower bound for
    u = |theta1|^2 + |theta2|^2 over the closed disk (and at least
    ``target_gap``), and whose cleared_epsilon is one for |P1|^2 + |P2|^2
    over the same boxes.  Once a box center has u below ``target_gap`` no
    certificate is possible.  If the numerators then have a common zero in
    the disk with u below 10 * target_gap, CoronaFailure is raised there with
    ``common_zero`` True.  Otherwise the search follows the smallest center
    value down to maximal depth and raises CoronaFailure (``common_zero``
    False) when u there is below 10 * target_gap.  DepthExceeded (with the
    best bound found so far) is raised when subdivision runs out of depth or
    budget without either outcome.
    """
    if not 0.0 < target_gap < math.inf:
        raise ValueError(f"target_gap must be finite and positive, got {target_gap!r}")
    boxes = _BoxBounds(theta)
    c = np.zeros(1, dtype=complex)
    half = 1.0
    depth = 0
    accepted_min = root_min = np.inf
    accepted_depth = 0
    checked = 0

    while True:
        checked += len(c)
        rho = _half_diagonal(half)
        lower, root, values = np.empty((3, len(c)))
        for s in range(0, len(c), _CHUNK):
            part = slice(s, s + _CHUNK)
            lower[part], root[part], values[part] = boxes.bounds(_project(c[part]), rho)

        # a NaN bound leaves its box open
        is_open = ~(lower >= target_gap)
        if not is_open.all():
            accepted_min = min(accepted_min, float(lower[~is_open].min()))
            root_min = min(root_min, float(root[~is_open].min()))
            accepted_depth = depth
        if not is_open.any():
            return CoronaCertificate(
                epsilon=accepted_min,
                # squaring with rounding is monotone, so this is the
                # smallest of the boxes' squared bounds
                cleared_epsilon=root_min * root_min * (1.0 - boxes.final_gamma),
                depth=accepted_depth,
                boxes_checked=checked,
                theta=theta,
            )
        c, lower, values = c[is_open], lower[is_open], values[is_open]
        # sound global bound: accepted boxes plus every open box of this level
        best_bound = min(accepted_min, float(lower.min()))
        k = int(np.argmin(values))
        if values[k] < target_gap:
            _fail_at_common_zero(boxes, theta, target_gap)
        if values[k] < target_gap or depth >= MAX_DEPTH:
            witness, value = _descend(boxes, c[k], values[k], half, depth)
            if value < 10.0 * target_gap:
                raise CoronaFailure(witness=witness, value=value, common_zero=False)
            raise DepthExceeded(best_bound, witness=witness, value=value)
        if checked + 4 * len(c) > BOX_BUDGET:
            witness = complex(_project(c[k]))
            raise DepthExceeded(best_bound, witness=witness, value=values[k])

        half /= 2.0
        depth += 1
        c = (c + half * _CHILDREN[:, None]).ravel()
        c = c[_meets_disk(c, half)]


def certify_spec(spec, target_gap=DEFAULT_TARGET_GAP):
    """Certify a quotient spec's multiplier pair and attach the certificate.

    This is the only sanctioned way to obtain a certified QuotientSpec; the
    input is returned unchanged in every other field.
    """
    cert = certify(spec.theta, target_gap)
    return dataclasses.replace(spec, certificate=cert)


def make_spec(base, theta, target_gap=DEFAULT_TARGET_GAP):
    """Build and certify a QuotientSpec in one step."""
    return certify_spec(QuotientSpec(base=base, theta=theta), target_gap)
