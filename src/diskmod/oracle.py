"""Matrix-truncation cross-checks for the analytic layer.

Everything here recomputes a claim of `rkhs`/`curvature` without using its
closed form: finite weighted-shift truncations, multiplication-operator
matrices in orthonormalized monomial bases, exact section Gram matrices, and a
finite-difference curvature that never touches the quotient-curvature
identity.  Truncation degrees default to 120 and evaluation points stay within
|w| <= 0.6-0.7 so geometric kernel tails are negligible against the 1e-6
assertions made downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import _require_certified, fd_laplacian
from .errors import NoSpectralGap, PointOutsideDomain, TailBoundExceeded
from .holofun import taylor_coefficients, taylor_tail_bound
from .rkhs import ModuleKind, kernel_eval, monomial_norms_sq, shift_weight

RATIONAL_TAYLOR_DEGREE = 64
TAIL_TOL = 1e-10
QR_RANK_REL_TOL = 1e-10
GAP_FACTOR = 10.0
DEFAULT_DEGREE = 120


@dataclass(frozen=True)
class TruncatedOperator:
    """A finite matrix in orthonormalized monomial bases e_k = z^k / |z^k|.

    ``components`` is 1 for operators on the scalar space and 2 when the
    codomain is doubled; rows are ordered component-major.
    """

    matrix: np.ndarray
    kind: ModuleKind
    domain_degree: int
    codomain_degree: int
    components: int = 1


def build_shift(kind, n):
    """Degree-n truncation of multiplication by z: a weighted subdiagonal shift."""
    if n < 1:
        raise ValueError("truncation degree must be at least 1")
    m = np.zeros((n + 1, n + 1))
    for k in range(n):
        m[k + 1, k] = shift_weight(kind, k)
    return TruncatedOperator(
        matrix=m, kind=kind, domain_degree=n, codomain_degree=n
    )


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
    n plus the largest component degree, rows stacked component-major.
    """
    if n < 0:
        raise ValueError("domain degree must be nonnegative")
    coeffs = [_component_coefficients(f) for f in theta]
    cod = n + max(len(c) for c in coeffs) - 1
    return TruncatedOperator(
        matrix=_multiplier_matrix(coeffs, kind, n, cod),
        kind=kind,
        domain_degree=n,
        codomain_degree=cod,
        components=2,
    )


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
    s = build_shift(spec.base, n).matrix
    s_adj = s.conj().T
    top, bottom = gamma[: n + 1], gamma[n + 1 :]
    applied = np.concatenate([s_adj @ top, s_adj @ bottom])
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
    comparable to n.  Rank is decided at 1e-10 of the largest column norm;
    singular values below gap_tol times the largest are counted, and a
    factor-10 gap must separate that group from the rest (NoSpectralGap
    otherwise).  The expected count is 1.

    ``w`` is a point (returns an int) or a sequence of points (returns a list
    of ints).  The compression is computed once per call; only the final
    singular values depend on the point.
    """
    _require_certified(spec)
    scalar = np.ndim(w) == 0
    points = np.asarray(w, complex).ravel()
    if np.any(np.abs(points) > 0.6):
        raise ValueError("kernel counting needs |w| <= 0.6 at this truncation scale")
    if n < 60:
        raise ValueError("truncation degree must be at least 60")

    coeffs = [_component_coefficients(f) for f in spec.theta]
    mult = _multiplier_matrix(coeffs, spec.base, n, n)
    q, r = np.linalg.qr(mult, mode="complete")
    col_scale = float(np.max(np.linalg.norm(mult, axis=0)))
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > QR_RANK_REL_TOL * col_scale))
    q_perp = q[:, rank:]

    # the doubled shift moves row k of each block to row k + 1, weighted
    weights = np.diag(build_shift(spec.base, n).matrix, -1)[:, None]
    shifted = np.zeros_like(q_perp)
    for base in (0, n + 1):
        shifted[base + 1 : base + n + 1] = weights * q_perp[base : base + n]
    adj = shifted.conj().T @ q_perp  # adjoint of the compression

    counts = [_kernel_count(adj, p, gap_tol) for p in points]
    return counts[0] if scalar else counts


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
