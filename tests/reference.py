"""Dense and finite-difference references that the tests compare the package against.

None of these is used by the package itself: the oracle holds operators as
bands, applies the shift by its weights, forms the kernel vector in log
space and counts kernels by the inertia of a band pencil, and the curvature
checks take no finite difference.  The dense kernel count here is the
definition the pencil counts are tested against: the singular values of the
compressed shift on a QR basis of the truncated quotient.
"""

import math
from fractions import Fraction

import numpy as np

from diskmod import MultiplierPair, NoSpectralGap, PointOutsideDomain, kernel_eval, poly, shift_weights
from diskmod.oracle import GAP_FACTOR, _numerators

# a QR pivot below this fraction of the largest column norm is rank-deficient
QR_RANK_REL_TOL = 1e-10


def monomial_norms_sq(kind, n):
    """Squared norms of z^k for k = 0..n: 1 for Hardy, prod_{j<=k} j/(j+1+alpha)
    otherwise."""
    if kind.is_hardy:
        return np.ones(n + 1)
    j = np.arange(1, n + 1, dtype=float)
    return np.concatenate([[1.0], np.cumprod(j / (j + 1.0 + kind.alpha))])


def fd_laplacian(field, z, h):
    """5-point finite-difference Laplacian of a real-valued field at z.

    (f(z+h) + f(z-h) + f(z+ih) + f(z-ih) - 4 f(z)) / h^2, O(h^2) accurate for
    C^4 fields.  The whole stencil must lie in the open disk.  A scalar z
    gives a float, with one field call per stencil point.  An array z gives
    an array and needs a field that accepts arrays: it is called once, on
    one array of shape ``(5,) + z.shape`` holding z, z+h, z-h, z+ih and z-ih,
    and the values are summed in that order.
    """
    scalar = np.ndim(z) == 0
    z = complex(z) if scalar else np.asarray(z, complex)
    h = float(h)
    if not 0.0 < h < math.inf:
        raise ValueError(f"step must be finite and positive, got {h!r}")
    points = (z, z + h, z - h, z + 1j * h, z - 1j * h)
    outside = np.max(np.abs(points[1:]), axis=0) >= 1
    if np.any(outside):
        where = z if scalar else z[outside][0]
        raise PointOutsideDomain(
            f"stencil around {where} with step {h} leaves the open disk"
        )
    if scalar:
        values = [float(field(p)) for p in points]
    else:
        values = np.asarray(field(np.stack(points)), float)
    acc = -4.0 * values[0]
    for v in values[1:]:
        acc += v
    return acc / h**2


def lemma46_error(grid, h=1e-3):
    """Largest error of the stencil on the potential g(z) = -log(1 - |z|^2) / 4.

    The Laplacian of g is (1 - |z|^2)^-2 (Lemma 4.6); the stencil runs once
    on the array of grid points.
    """

    def g(z):
        return -0.25 * np.log(1.0 - np.abs(z) ** 2)

    pts = grid.points()
    target = 1.0 / (1.0 - np.abs(pts) ** 2) ** 2
    return float(np.max(np.abs(fd_laplacian(g, pts, h) - target)))


def build_shift(kind, n):
    """Dense degree-n truncation of multiplication by z, the weighted subdiagonal shift."""
    return np.diag(shift_weights(kind, n), -1)


def kernel_vector(kind, w, n):
    """Coordinates conj(w)^k / |z^k| of the kernel section in the orthonormal basis."""
    return np.conj(w) ** np.arange(n + 1) / np.sqrt(monomial_norms_sq(kind, n))


def gamma_section(spec, w, n):
    """Coordinates of the eigenvector section gamma_w, truncated at degree n.

    The doubled orthonormal basis is stacked component-major; the exact
    squared norm is the diagonal of ``gamma_gram``.
    """
    w = complex(w)
    kvec = kernel_vector(spec.base, w, n)
    t1 = spec.theta.theta1(w)
    t2 = spec.theta.theta2(w)
    return np.concatenate([np.conj(t2) * kvec, -np.conj(t1) * kvec])


def gamma_gram(spec, points):
    """Exact Gram matrix of the eigenvector sections at the given points.

    Entry (i, j) is K(p_j, p_i) * (conj(theta1(p_i)) theta1(p_j) +
    conj(theta2(p_i)) theta2(p_j)); no truncation is involved.  Its diagonal
    is the squared section norm K(w, w) (|theta1(w)|^2 + |theta2(w)|^2).
    """
    pts = np.asarray(points, complex)
    t1 = spec.theta.theta1(pts)
    t2 = spec.theta.theta2(pts)
    kmat = kernel_eval(spec.base, pts[None, :], pts[:, None])
    a = np.outer(np.conj(t1), t1) + np.outer(np.conj(t2), t2)
    return np.atleast_2d(kmat * a)


def multiplier_matrix(theta, kind, n, cod):
    """Columns theta_i e_k for k <= n in the doubled basis of degree cod.

    The pair enters by its cleared numerators P1 and P2 (``oracle._numerators``).
    cod = n + d, d their degree, keeps every product; a smaller
    cod drops the products beyond it and gives the P_cod truncation of the
    range.  Rows are stacked component-major.
    """
    table = _numerators(theta)
    norms = np.sqrt(monomial_norms_sq(kind, cod))
    m = np.zeros((len(table) * (cod + 1), n + 1), complex)
    k = np.arange(n + 1)[:, None]
    for block, comp in enumerate(table):
        comp = comp[: cod + 1]
        # one column of the grid per nonzero coefficient; entry (k, j) is
        # kept while the product degree k + j stays within cod
        j = np.flatnonzero(comp)[None, :]
        keep = np.broadcast_to(k + j <= cod, (n + 1, j.size))
        kk = np.broadcast_to(k, keep.shape)[keep]
        jj = np.broadcast_to(j, keep.shape)[keep]
        m[block * (cod + 1) + kk + jj, kk] = comp[jj] * norms[kk + jj] / norms[kk]
    return m


def quotient_basis(mult):
    """Orthonormal basis of the complement of the P_n-truncated multiplier range.

    The truncated multiplier ``mult`` is M = [M1; M2] with M_i = D T_i D^-1,
    T_i lower triangular Toeplitz and D the diagonal of monomial norms.
    Lower triangular Toeplitz matrices commute, so M1 M2 = M2 M1 and the
    columns of N = [M2^H; -M1^H] lie in ker M^H.  N has full rank n + 1
    whenever (theta1(0), theta2(0)) != 0, and then spans all of ker M^H; its
    reduced QR gives the basis.
    """
    m = mult.shape[1]
    kernel = np.concatenate([mult[m:].conj().T, -mult[:m].conj().T])
    q_perp, r = np.linalg.qr(kernel)
    col_scale = float(np.max(np.linalg.norm(kernel, axis=0)))
    smallest = float(np.min(np.abs(np.diag(r))))
    if smallest <= QR_RANK_REL_TOL * col_scale:
        raise NoSpectralGap(
            f"the quotient basis is rank-deficient at degree {m - 1}: smallest QR "
            f"pivot {smallest:.3e} against column scale {col_scale:.3e}"
        )
    return q_perp


def compressed_shift_adjoint(kind, q_perp):
    """Q_perp^H (S (+) S)^H Q_perp, the doubled shift's adjoint on the truncated quotient."""
    n = q_perp.shape[0] // 2 - 1
    doubled = np.kron(np.eye(2), build_shift(kind, n))
    return (doubled @ q_perp).conj().T @ q_perp


def compressed(spec, n):
    """The compression whose singular values define the kernel count at degree n."""
    mult = multiplier_matrix(spec.theta, spec.base, n, n)
    return compressed_shift_adjoint(spec.base, quotient_basis(mult))


def svd_kernel_count(adj, w, gap_tol):
    """The number of singular values of adj - conj(w) I below gap_tol times the largest.

    A factor-10 gap must separate them from the rest; NoSpectralGap
    otherwise.
    """
    sv = np.linalg.svd(adj - np.conj(w) * np.eye(adj.shape[0]), compute_uv=False)
    small = sv[sv < gap_tol * sv[0]]
    count = small.size
    if 0 < count < sv.size:
        floor = sv[sv >= gap_tol * sv[0]][-1]
        if small[0] > 0 and floor / small[0] < GAP_FACTOR:
            raise NoSpectralGap(
                f"singular values {floor:.3e} and {small[0]:.3e} are not separated "
                f"by a factor {GAP_FACTOR:g}"
            )
    return count


def binomial_pair(k, coprime):
    """(2 + z)^k {1, z}, or {(2 + z)^k, 0.5 + z^(k+1)} with no common factor.

    Integer coefficients, exact in double precision; near z = -1 the
    expanded (2 + z)^k loses about k log10((2 + |z|) / |2 + z|) digits, and
    the condition number of G grows like max u / min u on the circle.
    """
    power = [math.comb(k, j) * 2.0 ** (k - j) for j in range(k + 1)]
    other = [0.5] + [0.0] * k + [1.0] if coprime else [0.0] + power
    return MultiplierPair(poly(power), poly(other))


def _split_dyadic(z):
    """Integers a, b and a power of two d with z = (a + b i) / d exactly."""
    x, y = Fraction(z.real), Fraction(z.imag)
    d = max(x.denominator, y.denominator)
    return int(x * d), int(y * d), d


def binomial_laplacian(k, coprime, z):
    """Laplacian of log u for ``binomial_pair(k, coprime)`` at the double z, rounded once.

    The pairs are (2 + z)^k {1, z}, whose Laplacian is 4 / (1 + |z|^2)^2,
    and {(2 + z)^k, 1/2 + z^(k+1)}, for which the Lagrange form reads
    4 |2 + z|^(2k - 2) |A|^2 / U^2 with A = 2 (k + 1) z^k + z^(k+1) - k / 2
    and U = |2 + z|^(2k) + |1/2 + z^(k+1)|^2.  Everything is computed in
    integers over a power of two d, z = (a + b i) / d; the one rounding is
    the final division, which Python's integers round correctly.
    """
    a, b, d = _split_dyadic(complex(z))
    if not coprime:
        return 4 * d**4 / (d * d + a * a + b * b) ** 2
    re, im = 1, 0  # (a + b i)^k
    for _ in range(k):
        re, im = re * a - im * b, re * b + im * a
    re1, im1 = re * a - im * b, re * b + im * a  # (a + b i)^(k + 1)
    s = (2 * d + a) ** 2 + b * b  # |2 + z|^2 d^2
    # 2 A d^(k + 1) and |1/2 + z^(k+1)|^2 4 d^(2k + 2)
    ar = 4 * (k + 1) * re * d + 2 * re1 - k * d ** (k + 1)
    ai = 4 * (k + 1) * im * d + 2 * im1
    t = (d ** (k + 1) + 2 * re1) ** 2 + (2 * im1) ** 2
    return 16 * s ** (k - 1) * (ar * ar + ai * ai) * d**4 / (4 * s**k * d * d + t) ** 2
