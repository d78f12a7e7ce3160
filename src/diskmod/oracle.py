"""Matrix-truncation cross-checks for the analytic layer.

Everything here recomputes a claim of `rkhs`/`curvature` without using its
closed form: finite weighted-shift truncations, multiplication-operator
matrices in orthonormalized monomial bases, exact section Gram matrices, and a
finite-difference curvature that never touches the quotient-curvature
identity.  The truncated shift is held as its weight vector
(``rkhs.shift_weights``) and applied by weighted slice moves; no dense shift
matrix is built.  Kernel counts compress that shift to the truncated
quotient, the range of N = [M2^H; -M1^H] built from the multiplier blocks.
The blocks commute with the shift, so the compression at w is similar to the
bidiagonal S^H - conj(w) I through the factor R of G = N^H N, up to a
rounding defect E.  With lam_min the smallest eigenvalue of G and beta_w a
lower bound on sigma_{m-1} of that bidiagonal,

    sigma_{m-1}(C_w) >= beta_w sqrt(lam_min / |G|_2) - |E|_F / sqrt(lam_min),

and one Cholesky factorisation of G, shifted, settles the expected count of 1
at every point of a call with no basis of the quotient (``dim_ker_estimate``
states the whole chain and its rounding margins).  At points it leaves open,
the singular values of the compression on a QR basis of the quotient define
the count.  Truncation degrees default to 120 and evaluation points
stay within |w| <= 0.6-0.7 so geometric kernel tails are negligible against
the 1e-6 assertions made downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .corona import _UNIT, _gamma
from .curvature import _require_certified, fd_laplacian
from .errors import NoSpectralGap, PointOutsideDomain, TailBoundExceeded
from .holofun import taylor_coefficients, taylor_tail_bound
from .rkhs import kernel_eval, monomial_norms_sq, shift_weights

RATIONAL_TAYLOR_DEGREE = 64
TAIL_TOL = 1e-10
QR_RANK_REL_TOL = 1e-10
GAP_FACTOR = 10.0
DEFAULT_DEGREE = 120
# smallest truncation degree the kernel count accepts
MIN_DEGREE = 60


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


def _multiplier_matrix(theta, kind, n, cod=None):
    """Columns theta_i e_k for k <= n in the doubled basis of degree cod.

    Each component enters by its Taylor coefficients
    (``_component_coefficients``).  cod defaults to n plus the largest
    Taylor degree, which keeps every product; a smaller cod drops the
    products beyond it and gives the P_cod truncation of the range.  Rows
    are stacked component-major.
    """
    coeffs = [_component_coefficients(f) for f in theta]
    if cod is None:
        cod = n + max(len(c) for c in coeffs) - 1
    norms = np.sqrt(monomial_norms_sq(kind, cod))
    m = np.zeros((len(coeffs) * (cod + 1), n + 1), complex)
    k = np.arange(n + 1)[:, None]
    for block, comp in enumerate(coeffs):
        comp = np.asarray(comp[: cod + 1])
        # one column of the grid per nonzero coefficient; entry (k, j) is
        # kept while the product degree k + j stays within cod
        j = np.flatnonzero(comp)[None, :]
        keep = np.broadcast_to(k + j <= cod, (n + 1, j.size))
        kk = np.broadcast_to(k, keep.shape)[keep]
        jj = np.broadcast_to(j, keep.shape)[keep]
        m[block * (cod + 1) + kk + jj, kk] = comp[jj] * norms[kk + jj] / norms[kk]
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
    return _multiplier_matrix(theta, kind, n)


def gamma_gram(spec, points):
    """Exact Gram matrix of the eigenvector sections at the given points.

    Entry (i, j) is K(p_j, p_i) * (conj(theta1(p_i)) theta1(p_j) +
    conj(theta2(p_i)) theta2(p_j)); no truncation is involved.  Its diagonal
    is the section norm that ``oracle_curvature`` evaluates on arrays, and
    this matrix, one point at a time, is the exact reference for it.
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
    applied = np.zeros_like(gamma)
    _move_blocks(shift_weights(spec.base, n), gamma, applied, adjoint=True)
    return float(
        np.linalg.norm(applied - np.conj(w) * gamma) / np.linalg.norm(gamma)
    )


def multiplier_min_singular_value(theta, kind, n=DEFAULT_DEGREE):
    """Smallest singular value of the truncated multiplication operator.

    Reported as a monitored diagnostic of closed range; no threshold claimed.
    """
    # the largest Taylor degree of the components (see _component_coefficients)
    d = max(f.degree if f.is_polynomial else RATIONAL_TAYLOR_DEGREE for f in theta)
    mat = _multiplier_matrix(theta, kind, max(n - d, 1))
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


def dim_ker_estimate(spec, w, n=DEFAULT_DEGREE, gap_tol=1e-4):
    """Kernel dimension of the compressed (shift - w) adjoint at truncation scale.

    Compresses the doubled shift S2 = S (+) S to the orthogonal complement of
    the (ambient-aligned) truncated multiplication range: columns
    P_n(theta z^k) for every k <= n, so the complement models the quotient
    with no seam of forgotten range directions even when a component's
    Taylor degree is comparable to n.  With the truncated multiplier
    M = [M1; M2], that complement is the range of N = [M2^H; -M1^H] (see
    ``_quotient_basis``), and the compression is C = Q^H S2^H Q for an
    orthonormal basis Q of it, of order m = n + 1.  The count is defined by
    the singular values of C_w = C - conj(w) I: those below gap_tol times
    the largest are counted, and a factor-10 gap must separate that group
    from the rest (NoSpectralGap otherwise).  ``gap_tol`` must lie in the
    open interval (0, 1).

    The expected count is 1, and two routes settle it:
    1. the Gram certificate (``_gram_bounds``) settles all points of a call
       from G = N^H N and one Cholesky factorisation, with no QR;
    2. at the points it leaves open, the singular values of C_w
       (``_kernel_count``) decide, on the compression built from a QR
       basis of the range of N (``_quotient_basis``).
    Only the second can return a count other than 1, and a rank-deficient N
    (theta1(0) and theta2(0) both near 0) raises NoSpectralGap there.
    Route 1 leaves points open where G is ill-conditioned.  Both routes
    read one P_n-truncated multiplier, built once per call.

    Route 1.  All claims are about the exact compression of the stored
    arrays: N and the shift weights s of S as computed.  The singular values
    of C do not depend on the choice of Q.  M1 and M2 are polynomials in S,
    so S2^H N = N S^H + E, where E is exactly 0 in exact arithmetic and a
    rounding defect of the stored entries otherwise, with
    |E|_F = |M S - S2 M|_F (0 for Hardy, about 1e-16 relative for Bergman).
    With N = Q R, R^H R = G and the bidiagonal B_w = S^H - conj(w) I,

        C_w = Q^H (S2^H - conj(w)) N R^-1 = R B_w R^-1 + Q^H E R^-1,

    so for tau <= lambda_min(G) and Lam >= |G|_2

        sigma_{m-1}(C_w) >= beta_w sqrt(tau / Lam) - |E|_F / sqrt(tau).

    Here beta_w <= sigma_{m-1}(B_w): deleting a row and a column does not
    raise sigma_{m-1}, B_w[:m-1, 1:] = L is lower bidiagonal with diagonal s
    and off-diagonal -conj(w), and beta_w = 1 / sqrt(|L^-1|_1 |L^-1|_inf),
    whose row and column sums follow O(m) recurrences.  Lam is taken from
    |G|_1 >= |G|_2.  The other singular values are bounded at O(m^2) cost:
    - hi = max(s) + |w| >= sigma_1(C_w), since |C|_2 <= |S2|_2;
    - lo = (|Z|_F - |E|_F) / |N|_F <= sigma_1(C_w) with
      Z = (S2^H - conj(w)) N, because C_w R = Q^H Z and the part of Z
      outside the range of Q is that of E; |Z|_F^2 = a + |w|^2 b - 2 Re(w c)
      from three scalars, a = |M S|_F^2 = |S2^H N|_F^2, b = |M|_F^2 = |N|_F^2
      and c = <N, S2^H N> = <M S, M>;
    - r = |(S2^H - conj(w)) p| / |p| >= sigma_m(C_w) for p = N k_w, k_w
      the kernel vector, since p = Q (R k_w) and |R k_w| = |p|.
    A point is settled when r < gap_tol lo and the sigma_{m-1} bound
    exceeds t = max(gap_tol hi, GAP_FACTOR r): the rule then counts sigma_m
    alone, and the factor-10 gap holds.  tau is proved by one Cholesky
    factorisation of G - sigma I.  sigma is the tau that the hardest point
    needs, 1% over, plus the rounding margin below.  Points that need more
    than the smallest diagonal entry of G are left open, and so are all
    points when the factorisation fails.

    Rounding margins of route 1, with u the unit roundoff,
    gs = gamma_{8 m^2 + 64} for every sum of at most 4 m^2 terms (the
    Frobenius norms and <M S, M>), gf = 4 (2m + 8) u for an inner product
    of length 2m and gm = 4 (m + 8) u for one of length m (complex
    arithmetic included):
    - forming G = M1 M1^H + M2 M2^H from real products of the real and
      imaginary parts: |G - fl(G)|_2 <= gf |N|_F^2 = gf b, so
      Lam = |fl(G)|_1 (1 + gs) + sqrt(m) gf b;
    - the Cholesky factorisation of fl(G) - sigma I: its backward error is
      at most gm / (1 - gm) times the trace (Higham, Accuracy and Stability
      of Numerical Algorithms, 2nd ed., Thm 10.3), the trace is at most 2b,
      and shifting the diagonal adds u b, so tau = sigma - 4 gf b;
    - E: M S and S2 M take one rounding per entry and their difference one
      more, so |E|_F <= (1 + 2u) |fl(E)|_F + 2u (|fl(M S)|_F + |fl(S2 M)|_F),
      widened by gs for the norms;
    - |Z|_F: a, b and c carry relative errors of at most gs, so the formula
      is off by at most 4 gs (sqrt(a) + |w| sqrt(b))^2 before the square
      root, which is subtracted;
    - r: fl(N k_w) is within gm |N|_F |k_w| of p, which adds hi times that
      to the numerator and takes it off the denominator; applying the shift
      adds 4 u hi |p|, and the norms gs;
    - beta: each step of a recurrence takes at most five roundings, so the
      computed sums are within gamma_{5m} of the exact ones, and beta is
      taken down by gamma_{10m + 32}.
    The remaining one- to four-rounding steps (hi, t, the comparisons) are
    widened by 4u to 8u.

    ``w`` is a point (returns an int) or a sequence of points (returns a list
    of ints).
    """
    _require_certified(spec)
    if not 0.0 < gap_tol < 1.0:
        raise ValueError(f"gap_tol must lie strictly between 0 and 1, got {gap_tol!r}")
    scalar = np.ndim(w) == 0
    points = np.asarray(w, complex).ravel()
    if np.any(np.abs(points) > 0.6):
        raise ValueError("kernel counting needs |w| <= 0.6 at this truncation scale")
    if n < MIN_DEGREE:
        raise ValueError(f"truncation degree must be at least {MIN_DEGREE}")

    mult = _multiplier_matrix(spec.theta, spec.base, n, n)
    settled = _gram_bounds(mult, spec.base, points, gap_tol).settled
    counts = [1] * len(points)
    if not settled.all():
        adj = _compressed_shift_adjoint(spec.base, _quotient_basis(mult))
        for i in np.flatnonzero(~settled):
            counts[i] = _kernel_count(adj, points[i], gap_tol)
    return counts[0] if scalar else counts


def _move_blocks(s, x, out, adjoint=False):
    """The doubled shift S2 = S (+) S, or S2^H, along the last axis of x.

    S2 moves entry k of each block to entry k + 1, weighted s_k, and S2^H
    moves entry k + 1 to entry k.  The products are written into ``out``,
    whose entries that receive none are left as they are.
    """
    n = s.size
    src, dst = (1, 0) if adjoint else (0, 1)
    for base in (0, n + 1):
        np.multiply(
            s, x[..., base + src : base + src + n], out=out[..., base + dst : base + dst + n]
        )


def _inverse_bidiagonal_peak(s, aw):
    # max row sum of |L^-1| for L lower bidiagonal with diagonal s and
    # off-diagonal of modulus aw: R_i = (1 + aw R_{i-1}) / s_i, R_{-1} = 0;
    # with s reversed, the same recurrence gives the column sums
    sums = itertools.accumulate(s, lambda acc, v: (1.0 + aw * acc) / v, initial=0.0)
    return max(sums)


def _commutator_norms(mult, s):
    """|M S|_F, |M S - S2 M|_F and <M S, M> for the stored blocks M = [M1; M2].

    The middle value is widened to a bound on |E|_F for the exact products
    of the stored arrays (see ``dim_ker_estimate``).  The two shifted copies
    of the blocks are the largest temporaries of route 1, so they live only
    here.
    """
    n = s.size
    m = n + 1
    gs = _gamma(8 * m * m + 64)
    # M S takes column k + 1 to column k, weighted s_k; S2 M takes row k of
    # each block to row k + 1, weighted s_k.  Both scale real and imaginary
    # parts alike, so they run on the real view, where columns 2k and 2k + 1
    # hold column k
    flat = mult.view(float)
    ms = np.zeros_like(flat)
    np.multiply(flat[:, 2:], np.repeat(s, 2), out=ms[:, : 2 * n])
    sm = np.zeros_like(flat)
    for base in (0, m):
        np.multiply(s[:, None], flat[base : base + n], out=sm[base + 1 : base + m])
    norm_ms = np.linalg.norm(ms)
    norm_sm = np.linalg.norm(sm)
    norm_e = np.linalg.norm(np.subtract(ms, sm, out=sm))
    u = _UNIT
    norm_e = (1.0 + gs) * ((1.0 + 2 * u) * norm_e + 2 * u * (norm_ms + norm_sm))
    return norm_ms, norm_e, np.vdot(ms.view(complex), mult)


def _multiplier_gram(mult):
    """G = M1 M1^H + M2 M2^H = N^H N for the stored blocks M = [M1; M2].

    One real symmetric product: with V = [[Re M1, Re M2], [Im M1, Im M2]],
    V V^T holds Re G in the sum of its diagonal blocks and Im G in the
    difference of its off-diagonal blocks.
    """
    m = mult.shape[1]
    v = np.empty((2 * m, 2 * m))
    v[:m, :m], v[:m, m:] = mult[:m].real, mult[m:].real
    v[m:, :m], v[m:, m:] = mult[:m].imag, mult[m:].imag
    h = v @ v.T
    gram = np.empty((m, m), complex)
    np.add(h[:m, :m], h[m:, m:], out=gram.real)
    np.subtract(h[m:, :m], h[:m, m:], out=gram.imag)
    return gram


@dataclass(frozen=True)
class _GramBounds:
    """Per-point bounds of the Gram-matrix certificate, one array entry per point.

    ``hi`` and ``lo`` bound sigma_1 of the compression C_w from above and
    below, ``r`` bounds sigma_m from above and ``floor`` bounds sigma_{m-1}
    from below (-inf where the Cholesky factorisation was not run or
    failed); ``settled`` marks the points whose count is proved to be 1.
    """

    hi: np.ndarray
    lo: np.ndarray
    r: np.ndarray
    floor: np.ndarray
    settled: np.ndarray


def _gram_bounds(mult, kind, points, gap_tol):
    """Route 1 of ``dim_ker_estimate``: bounds from G = N^H N and one Cholesky.

    ``mult`` is the P_n-truncated multiplier [M1; M2] over the base ``kind``
    and ``points`` a 1-D complex array; the inequalities and rounding
    margins are those stated in ``dim_ker_estimate``.
    """
    m = mult.shape[1]
    n = m - 1
    s = shift_weights(kind, n)
    u = _UNIT
    gs = _gamma(8 * m * m + 64)
    gf = 4.0 * (2 * m + 8) * u
    gm = 4.0 * (m + 8) * u

    norm_ms, norm_e, c = _commutator_norms(mult, s)
    b = np.linalg.norm(mult) ** 2
    b_up = b * (1.0 + gs)

    aw = np.abs(points)
    hi = (np.max(s) + aw) * (1.0 + 4 * u)
    z2 = norm_ms**2 + aw**2 * b - 2.0 * (points * c).real
    z2 -= 4.0 * gs * (norm_ms + aw * np.sqrt(b)) ** 2
    lo = (np.sqrt(np.maximum(z2, 0.0)) - norm_e) / np.sqrt(b_up) * (1.0 - gs)

    kvec = _kernel_vector(kind, points[:, None], n)
    # p = N k_w, block by block as (k_w^H M_i)^H
    kh = kvec.conj()
    pk = np.concatenate([kh @ mult[m:], -(kh @ mult[:m])], axis=1).conj()
    # (S2^H - conj(w)) p
    resid = np.zeros_like(pk)
    _move_blocks(s, pk, resid, adjoint=True)
    resid -= np.conj(points)[:, None] * pk
    norm_p = np.linalg.norm(pk, axis=1)
    dp = gm * np.sqrt(b_up) * np.linalg.norm(kvec, axis=1) * (1.0 + gs)
    den = norm_p * (1.0 - gs) - dp
    num = np.linalg.norm(resid, axis=1) * (1.0 + gs) + hi * (4 * u * norm_p + dp)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(den > 0, num / den * (1.0 + 4 * u), np.inf)

    gram = _multiplier_gram(mult)
    lam = np.max(np.sum(np.abs(gram), axis=0)) * (1.0 + gs) + np.sqrt(m) * gf * b_up
    margin = 4.0 * gf * b_up
    cap = float(np.min(gram.diagonal().real)) - margin
    weights = s.tolist()
    gb = _gamma(10 * m + 32)
    peaks = {
        a: _inverse_bidiagonal_peak(weights, a)
        * _inverse_bidiagonal_peak(weights[::-1], a)
        for a in set(aw.tolist())
    }
    beta = (1.0 - gb) / np.sqrt([peaks[a] for a in aw.tolist()])
    slope = beta / np.sqrt(lam)
    t = np.maximum(gap_tol * hi, GAP_FACTOR * r) * (1.0 + 4 * u)
    # the tau at which beta sqrt(tau / lam) - |E|_F / sqrt(tau) = t, 1% over;
    # an infinite r or a zero beta (overflowed sums) makes it infinite
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = (t + np.sqrt(t * t + 4.0 * slope * norm_e)) / (2.0 * slope)
        need = 1.01 * root * root
    candidates = (r < gap_tol * lo * (1.0 - 4 * u)) & (need < cap)
    floor = np.full(len(points), -np.inf)
    if np.any(candidates):
        tau = float(np.max(need[candidates]))
        gram[np.diag_indices(m)] -= (tau + margin) * (1.0 + 4 * u)
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            pass
        else:
            root_tau = np.sqrt(tau)
            floor = slope * root_tau * (1.0 - 8 * u) - norm_e / root_tau * (1.0 + 8 * u)
    return _GramBounds(hi=hi, lo=lo, r=r, floor=floor, settled=candidates & (floor > t))


def _quotient_basis(mult):
    """Orthonormal basis of the complement of the P_n-truncated multiplier range.

    The truncated multiplier ``mult`` is M = [M1; M2] with M_i = D T_i D^-1,
    T_i lower triangular Toeplitz and D the diagonal of monomial norms.
    Lower triangular Toeplitz matrices commute, so M1 M2 = M2 M1 and the
    columns of N = [M2^H; -M1^H] lie in ker M^H.  N has full rank n + 1
    whenever (theta1(0), theta2(0)) != 0, as the corona certificate
    guarantees, and then spans all of ker M^H; its reduced QR gives the basis.
    """
    m = mult.shape[1]
    kernel = np.concatenate([mult[m:].conj().T, -mult[:m].conj().T])
    q_perp, r = np.linalg.qr(kernel)
    col_scale = float(np.max(np.linalg.norm(kernel, axis=0)))
    smallest = float(np.min(np.abs(np.diag(r))))
    if smallest <= QR_RANK_REL_TOL * col_scale:
        raise NoSpectralGap(
            f"the quotient basis is rank-deficient at degree {m - 1}: smallest QR "
            f"pivot {smallest:.3e} against column scale {col_scale:.3e}, since "
            f"theta1(0) and theta2(0) nearly vanish together"
        )
    return q_perp


def _compressed_shift_adjoint(kind, q_perp):
    """Adjoint of the doubled shift compressed to the truncated quotient.

    Q_perp^H (S (+) S)^H Q_perp, where Q_perp (``_quotient_basis``) spans the
    orthogonal complement of the P_n-truncated multiplication range in the
    doubled degree-n space over the base ``kind``.
    """
    shifted = np.zeros_like(q_perp)
    # S2 Q_perp: the shift acts on the columns, the last axis of the transpose
    _move_blocks(shift_weights(kind, q_perp.shape[1] - 1), q_perp.T, shifted.T)
    return shifted.conj().T @ q_perp


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
