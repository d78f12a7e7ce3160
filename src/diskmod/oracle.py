"""Matrix-truncation cross-checks for the analytic layer.

Everything here recomputes a claim of `rkhs`/`curvature` without using its
closed form: finite weighted-shift truncations, multiplication-operator
matrices in orthonormalized monomial bases, exact section Gram matrices, and a
finite-difference curvature that never touches the quotient-curvature
identity.  The truncated shift is held as its weight vector
(``rkhs.shift_weights``) and applied by weighted slice moves; no dense shift
matrix is built.  Kernel counts compress that shift to the truncated
quotient, whose basis comes from the multiplier blocks themselves, and settle
the expected count of 1 at each point by a Cholesky certificate, falling back
to the singular values of the compression.  Truncation degrees default to
120 and evaluation points stay within |w| <= 0.6-0.7 so geometric kernel
tails are negligible against the 1e-6 assertions made downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import _require_certified, fd_laplacian
from .errors import NoSpectralGap, PointOutsideDomain, TailBoundExceeded
from .holofun import taylor_coefficients, taylor_tail_bound
from .rkhs import kernel_eval, monomial_norms_sq, shift_weights

RATIONAL_TAYLOR_DEGREE = 64
TAIL_TOL = 1e-10
QR_RANK_REL_TOL = 1e-10
GAP_FACTOR = 10.0
# unit roundoff of IEEE double precision
_UNIT = 2.0**-53
DEFAULT_DEGREE = 120


def build_shift(kind, n):
    """Dense degree-n truncation of multiplication by z, the weighted subdiagonal
    shift; a reference only, since the oracle applies the shift by its weights."""
    if n < 1:
        raise ValueError("truncation degree must be at least 1")
    return np.diag(shift_weights(kind, n), -1)


def _component_coefficients(f):
    if f.is_polynomial:
        return np.asarray(f.numer, complex)
    tail = taylor_tail_bound(f, RATIONAL_TAYLOR_DEGREE)
    if tail > TAIL_TOL:
        raise TailBoundExceeded(
            f"Taylor tail bound {tail:.3e} exceeds {TAIL_TOL:.0e} at degree "
            f"{RATIONAL_TAYLOR_DEGREE}; denominator zeros sit too close to the disk"
        )
    return taylor_coefficients(f, RATIONAL_TAYLOR_DEGREE)


def _multiplier_matrix(coeffs, kind, n, cod):
    """Columns theta_i e_k for k <= n in the doubled basis of degree cod.

    ``coeffs`` holds the Taylor coefficients of each component; products
    beyond degree cod are dropped, so cod < n + degree gives the P_cod
    truncation of the range.  Rows are stacked component-major.
    """
    norms = np.sqrt(monomial_norms_sq(kind, cod))
    m = np.zeros((len(coeffs) * (cod + 1), n + 1), complex)
    for block, comp in enumerate(coeffs):
        base = block * (cod + 1)
        for j, c in enumerate(comp[: cod + 1]):
            if c != 0:
                k = np.arange(min(n, cod - j) + 1)
                m[base + k + j, k] = c * norms[k + j] / norms[k]
    return m


def build_multiplier(theta, kind, n):
    """Matrix of f -> (theta1 f, theta2 f) from degree n into the doubled space.

    Polynomial components enter exactly; rational ones by degree-64 Taylor
    truncation guarded by a certified tail bound.  The codomain degree is
    n plus the largest component degree, so the array has 2 (cod + 1) rows,
    stacked component-major, and n + 1 columns.
    """
    if n < 0:
        raise ValueError("domain degree must be nonnegative")
    coeffs = [_component_coefficients(f) for f in theta]
    cod = n + max(len(c) for c in coeffs) - 1
    return _multiplier_matrix(coeffs, kind, n, cod)


def gamma_gram(spec, points):
    """Exact Gram matrix of the eigenvector sections at the given points.

    Entry (i, j) is K(p_j, p_i) * (conj(theta1(p_i)) theta1(p_j) +
    conj(theta2(p_i)) theta2(p_j)); no truncation is involved.
    """
    pts = np.asarray(points, complex)
    if np.any(np.abs(pts) >= 1):
        raise PointOutsideDomain("section points must lie in the open disk")
    t1 = spec.theta.theta1(pts)
    t2 = spec.theta.theta2(pts)
    kmat = kernel_eval(spec.base, pts[None, :], pts[:, None])
    a = np.outer(np.conj(t1), t1) + np.outer(np.conj(t2), t2)
    return np.atleast_2d(kmat * a)


def oracle_curvature(spec, z, h=1e-3):
    """Finite-difference curvature from the section norm alone.

    -1/4 times the 5-point Laplacian of log |gamma_w|^2 where |gamma_w|^2 =
    K(w,w) (|theta1(w)|^2 + |theta2(w)|^2) is the diagonal of the exact Gram
    matrix; the quotient-curvature identity is never used, which makes this
    the principal independent check of it.  Accepts scalars or arrays of
    points.
    """
    _require_certified(spec)
    t1, t2 = spec.theta

    def log_norm_sq(w):
        k = kernel_eval(spec.base, w, w).real
        return np.log(k * (np.abs(t1(w)) ** 2 + np.abs(t2(w)) ** 2))

    return -0.25 * fd_laplacian(log_norm_sq, z, h)


def _kernel_vector(kind, w, n):
    # coordinates of the kernel section in the orthonormal basis: conj(w)^k / |z^k|
    norms = np.sqrt(monomial_norms_sq(kind, n))
    return np.conj(w) ** np.arange(n + 1) / norms


@dataclass(frozen=True)
class GammaSection:
    """The eigenvector section at a point: closed-form norm and truncated coordinates.

    ``coords`` holds the degree-n truncation in the doubled orthonormal basis
    (component-major); ``norm_sq`` is the exact K(w,w) (|theta1(w)|^2 +
    |theta2(w)|^2), positive whenever the pair satisfies the corona condition.
    """

    w: complex
    norm_sq: float
    coords: np.ndarray


def gamma_section(spec, w, n=DEFAULT_DEGREE):
    """Truncated eigenvector section gamma_w with its exact squared norm."""
    w = complex(w)
    if abs(w) >= 1:
        raise PointOutsideDomain("section points must lie in the open disk")
    kvec = _kernel_vector(spec.base, w, n)
    t1 = spec.theta.theta1(w)
    t2 = spec.theta.theta2(w)
    coords = np.concatenate([np.conj(t2) * kvec, -np.conj(t1) * kvec])
    norm_sq = kernel_eval(spec.base, w, w).real * (abs(t1) ** 2 + abs(t2) ** 2)
    return GammaSection(w=w, norm_sq=float(norm_sq), coords=coords)


def eigenvector_residual(spec, w, n=DEFAULT_DEGREE):
    """Relative residual of the truncated section under the adjoint shift.

    |(M_z (x) I)* gamma - conj(w) gamma| / |gamma| at truncation degree n;
    exact zero at w = 0 and geometrically small in n for |w| <= 0.7.
    """
    _require_certified(spec)
    w = complex(w)
    if abs(w) > 0.7:
        raise ValueError("truncation error grows near the boundary; need |w| <= 0.7")
    gamma = gamma_section(spec, w, n).coords
    # the adjoint shift moves row k + 1 of each block to row k, weighted
    weights = shift_weights(spec.base, n)
    applied = np.zeros_like(gamma)
    for base in (0, n + 1):
        applied[base : base + n] = weights * gamma[base + 1 : base + n + 1]
    return float(
        np.linalg.norm(applied - np.conj(w) * gamma) / np.linalg.norm(gamma)
    )


def multiplier_min_singular_value(theta, kind, n=DEFAULT_DEGREE):
    """Smallest singular value of the truncated multiplication operator.

    Reported as a monitored diagnostic of closed range; no threshold claimed.
    """
    coeffs = [_component_coefficients(f) for f in theta]
    d = max(len(c) for c in coeffs) - 1
    dom = max(n - d, 1)
    mat = _multiplier_matrix(coeffs, kind, dom, dom + d)
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


def dim_ker_estimate(spec, w, n=DEFAULT_DEGREE, gap_tol=1e-4):
    """Kernel dimension of the compressed (shift - w) adjoint at truncation scale.

    Compresses the doubled shift to the orthogonal complement of the
    (ambient-aligned) truncated multiplication range: columns P_n(theta z^k)
    for every k <= n, so the complement models the quotient with no seam of
    forgotten range directions even when a component's Taylor degree is
    comparable to n.  The complement's basis comes from the multiplier blocks
    (see ``_quotient_basis``).  The count is defined by the singular values
    of the compression: those below gap_tol times the largest are counted,
    and a factor-10 gap must separate that group from the rest (NoSpectralGap
    otherwise).  The expected count is 1; at each point a Cholesky
    certificate built on the truncated section gamma_w proves that this rule
    gives exactly 1, and only where it cannot does the point fall back to
    the singular values themselves.

    ``w`` is a point (returns an int) or a sequence of points (returns a list
    of ints).  The compression is computed once per call; only the final
    certificate or singular values depend on the point.
    """
    _require_certified(spec)
    scalar = np.ndim(w) == 0
    points = np.asarray(w, complex).ravel()
    if np.any(np.abs(points) > 0.6):
        raise ValueError("kernel counting needs |w| <= 0.6 at this truncation scale")
    if n < 60:
        raise ValueError("truncation degree must be at least 60")

    q_perp = _quotient_basis(spec, n)
    adj = _compressed_shift_adjoint(spec, n, q_perp)
    gram = adj.conj().T @ adj
    counts = []
    for p in points:
        v = q_perp.conj().T @ gamma_section(spec, p, n).coords
        if _certifies_one(adj, gram, v, p, gap_tol):
            counts.append(1)
        else:
            counts.append(_kernel_count(adj, p, gap_tol))
    return counts[0] if scalar else counts


def _quotient_basis(spec, n):
    """Orthonormal basis of the complement of the P_n-truncated multiplier range.

    The truncated multiplier is M = [M1; M2] with M_i = D T_i D^-1, T_i lower
    triangular Toeplitz and D the diagonal of monomial norms.  Lower
    triangular Toeplitz matrices commute, so M1 M2 = M2 M1 and the columns of
    N = [M2^H; -M1^H] lie in ker M^H.  N has full rank n + 1 whenever
    (theta1(0), theta2(0)) != 0, as the corona certificate guarantees, and
    then spans all of ker M^H; its reduced QR gives the basis.
    """
    coeffs = [_component_coefficients(f) for f in spec.theta]
    mult = _multiplier_matrix(coeffs, spec.base, n, n)
    kernel = np.concatenate([mult[n + 1 :].conj().T, -mult[: n + 1].conj().T])
    q_perp, r = np.linalg.qr(kernel)
    col_scale = float(np.max(np.linalg.norm(kernel, axis=0)))
    smallest = float(np.min(np.abs(np.diag(r))))
    if smallest <= QR_RANK_REL_TOL * col_scale:
        raise NoSpectralGap(
            f"the quotient basis is rank-deficient at degree {n}: smallest QR "
            f"pivot {smallest:.3e} against column scale {col_scale:.3e}, since "
            f"theta1(0) and theta2(0) nearly vanish together"
        )
    return q_perp


def _compressed_shift_adjoint(spec, n, q_perp=None):
    """Adjoint of the doubled shift compressed to the truncated quotient.

    Q_perp^H (S (+) S)^H Q_perp, where Q_perp (``_quotient_basis`` unless
    given) spans the orthogonal complement of the P_n-truncated
    multiplication range in the doubled degree-n space.
    """
    if q_perp is None:
        q_perp = _quotient_basis(spec, n)
    # the doubled shift moves row k of each block to row k + 1, weighted
    weights = shift_weights(spec.base, n)[:, None]
    shifted = np.zeros_like(q_perp)
    for base in (0, n + 1):
        shifted[base + 1 : base + n + 1] = weights * q_perp[base : base + n]
    return shifted.conj().T @ q_perp


def _certifies_one(adj, gram, v, w, gap_tol):
    """True when Cholesky proves that ``_kernel_count(adj, w, gap_tol)`` is 1.

    With X = adj - conj(w) I, H = X^H X is assembled from gram = adj^H adj,
    and r = |X v| / |v| bounds the smallest singular value from above.  The
    largest one lies between lo, the largest column norm, and hi, the square
    root of |H|_1.  If r < gap_tol lo and H + hi^2 v v^H - (t^2 + delta) I
    has a Cholesky factor, Weyl interlacing gives sigma_{m-1}(X) > t, where
    t exceeds both gap_tol hi and GAP_FACTOR r: the rule counts exactly one
    singular value, and the factor-10 gap holds.  A failed check proves
    nothing; the caller then runs the rule itself.

    Rounding is covered by two margins, with m the order, u the unit
    roundoff, g = 4 (m + 8) u and F = |adj|_F + sqrt(m) |w|, so that
    |(|adj| + |w| I)^H (|adj| + |w| I)|_2 <= F^2:
    - delta = 2 g (F^2 + hi^2) bounds in the 2-norm the rounding of H
      (entrywise within gamma_{m+8} of that product, complex arithmetic
      included), of the rank-one update and the shift, and the backward
      error of Cholesky (gamma_{m+1} times the trace).  hi^2 adds g F^2 to
      the computed |H|_1 and lo^2 takes delta off the largest diagonal entry,
      so lo <= sigma_1 <= hi hold for the matrix the rule factors.
    - e = g (F + hi) bounds the rounding of r and, taking LAPACK's backward
      error as at most 4 m u sigma_1, the error of every singular value the
      rule would compute; the comparisons below widen r, lo and t by it.
    """
    m = adj.shape[0]
    norm_v = np.linalg.norm(v)
    if not norm_v > 0:
        return False
    v = v / norm_v
    g = 4.0 * (m + 8) * _UNIT
    f = np.linalg.norm(adj) + np.sqrt(m) * abs(w)
    # H = A^H A - conj(w) A^H - w A + |w|^2 I, and conj(w) A^H = (w A)^H
    wa = w * adj
    h = gram - wa - wa.conj().T
    h[np.diag_indices(m)] += abs(w) ** 2
    hi2 = float(np.max(np.sum(np.abs(h), axis=0))) * (1.0 + g) + g * f * f
    hi = np.sqrt(hi2)
    delta = 2.0 * g * (f * f + hi2)
    lo = np.sqrt(max(float(np.max(h.diagonal().real)) - delta, 0.0))
    e = g * (f + hi)
    r = float(np.linalg.norm(adj @ v - np.conj(w) * v))
    if not r + 2.0 * e < gap_tol * (lo - e):
        return False
    t = max(gap_tol * (hi + e), GAP_FACTOR * (r + 2.0 * e)) + e
    # no sigma_{m-1} exceeds hi; the bound on t also keeps the shift within delta
    if not t < hi:
        return False
    h += hi2 * np.outer(v, v.conj())
    h[np.diag_indices(m)] -= t * t + delta
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def _kernel_count(adj, w, gap_tol):
    # one values-only SVD per point: a batched SVD over all points holds every
    # shifted matrix and its workspace at once, which raises peak memory
    a = adj - np.conj(w) * np.eye(adj.shape[0])
    sv = np.linalg.svd(a, compute_uv=False)
    largest = sv[0]
    small = sv[sv < gap_tol * largest]
    count = small.size
    if count > 0 and count < sv.size:
        floor = sv[sv >= gap_tol * largest][-1]
        ceil = small[0]
        if ceil > 0 and floor / ceil < GAP_FACTOR:
            raise NoSpectralGap(
                f"singular values {floor:.3e} and {ceil:.3e} are not separated "
                f"by a factor {GAP_FACTOR:g}; increase the truncation degree"
            )
    return count


def reproducing_check(kind, f, w):
    """|<f, k_w> - f(w)| with exact monomial inner products; ~0 for polynomials."""
    if not f.is_polynomial:
        raise ValueError("reproducing_check takes polynomial arguments")
    w = complex(w)
    if abs(w) >= 1:
        raise PointOutsideDomain("evaluation point must lie in the open disk")
    deg = f.degree
    norms = monomial_norms_sq(kind, deg)
    kernel_coeffs = np.conj(w) ** np.arange(deg + 1) / norms
    inner = np.sum(np.asarray(f.numer, complex) * np.conj(kernel_coeffs) * norms)
    return float(abs(inner - f(w)))
