"""Dense and finite-difference references that the tests compare the package against.

None of these is used by the package itself: the oracle applies the shift
by its weights and forms the kernel vector in log space, and the curvature
checks take no finite difference.
"""

import math

import numpy as np

from diskmod import PointOutsideDomain, kernel_eval, monomial_norms_sq, shift_weights


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
