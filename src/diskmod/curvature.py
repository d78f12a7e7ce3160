"""Curvature engines for quotient modules over the disk.

The quotient curvature is the base curvature minus a quarter of the
Laplacian of log(|theta1|^2 + |theta2|^2), computed analytically from the
multiplier data by Wirtinger calculus.  The Laplacian convention is
4 del delbar everywhere; a factor-of-4 drift here would corrupt every
identity the test suite checks.  The independent check is the curvature of
the eigenvector frame of the truncated quotient (``oracle.oracle_curvature``),
which takes no Laplacian at all.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegeneratePoint, PointOutsideDomain, UncertifiedSpec, _RangeError
from .holofun import MultiplierPair, derivative, format_function
from .rkhs import ModuleKind, base_curvature, format_module_kind

if TYPE_CHECKING:
    from .corona import CoronaCertificate

# below this value of |theta1|^2 + |theta2|^2 a point counts as degenerate
DEGENERACY_THRESHOLD = 1e-30
# CSV rows formatted by one string operation; bounds the text held in memory
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling grid strictly inside the disk.

    Points are r_j * exp(i phi_k) with r_j = r_max (j + 1/2) / n_r and
    phi_k = 2 pi k / n_theta; the boundary is avoided because base curvature
    blows up like (1 - |z|^2)^-2.
    """

    r_max: float = 0.8
    n_r: int = 24
    n_theta: int = 48

    def __post_init__(self):
        if not (0.0 < self.r_max < 1.0):
            raise _RangeError("r_max", f"r_max must lie in (0, 1), got {self.r_max}")
        if self.n_r < 1 or self.n_theta < 1:
            raise _RangeError(
                "n_r" if self.n_r < 1 else "n_theta",
                "grid must have at least one radius and one angle",
            )

    def points(self, rotate=0.0):
        """Flat complex array of grid points, radius-major order."""
        r = self.r_max * (np.arange(self.n_r) + 0.5) / self.n_r
        phi = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta + rotate
        return (r[:, None] * np.exp(1j * phi)[None, :]).ravel()

    def __len__(self):
        return self.n_r * self.n_theta


@dataclass(frozen=True)
class QuotientSpec:
    """A base module together with a multiplier pair.

    Curvature and equivalence operations require ``certified`` to be true;
    the certificate is attached only by ``corona.certify_spec``, and binds
    only the pair it was proved for (replacing ``theta`` voids it; replacing
    ``base`` does not, since the corona condition does not involve it).
    """

    base: ModuleKind
    theta: MultiplierPair
    certificate: "CoronaCertificate | None" = None

    @property
    def certified(self):
        return self.certificate is not None and self.certificate.theta == self.theta

    def label(self):
        return (
            f"{format_module_kind(self.base)} | "
            f"theta1={format_function(self.theta.theta1)} "
            f"theta2={format_function(self.theta.theta2)}"
        )


def _require_certified(spec):
    if spec.certified:
        return
    if spec.certificate is not None:
        raise UncertifiedSpec(
            f"spec '{spec.label()}' carries a certificate for a different "
            f"multiplier pair; certify this pair first"
        )
    raise UncertifiedSpec(
        f"spec '{spec.label()}' must pass corona certification first"
    )


def laplacian_log_sumsq(theta, z):
    """Laplacian of log(|theta1|^2 + |theta2|^2) at z, analytically.

    With u = |theta1|^2 + |theta2|^2 the value is
    4 (u * (|theta1'|^2 + |theta2'|^2) - |theta1' conj(theta1) +
    theta2' conj(theta2)|^2) / u^2, exact up to rounding; the derivatives are
    formal.  Accepts scalars or arrays of points in the open disk.
    """
    zz = np.asarray(z, complex)
    if np.any(np.abs(zz) >= 1):
        raise PointOutsideDomain("points must lie in the open disk")
    t1, t2 = theta
    d1, d2 = derivative(t1), derivative(t2)
    v1, v2 = t1(zz), t2(zz)
    w1, w2 = d1(zz), d2(zz)
    u = np.abs(v1) ** 2 + np.abs(v2) ** 2
    small = u < DEGENERACY_THRESHOLD
    if np.any(small):
        idx = np.argmax(small)
        pt = zz if zz.ndim == 0 else zz.ravel()[idx]
        val = u if zz.ndim == 0 else u.ravel()[idx]
        raise DegeneratePoint(pt, val)
    du = w1 * np.conj(v1) + w2 * np.conj(v2)
    ddu = np.abs(w1) ** 2 + np.abs(w2) ** 2
    out = 4.0 * (u * ddu - np.abs(du) ** 2) / u**2
    if zz.ndim == 0:
        return float(out)
    return out


def quotient_curvature(spec, z):
    """Curvature coefficient of the quotient-module line bundle at z.

    base_curvature minus a quarter of the analytic Laplacian of
    log(|theta1|^2 + |theta2|^2).  Requires a certified spec.
    """
    _require_certified(spec)
    return base_curvature(spec.base, z) - 0.25 * laplacian_log_sumsq(spec.theta, z)


@dataclass(frozen=True)
class CurvatureField:
    """Curvature values sampled over a disk grid (flat, radius-major)."""

    grid: DiskGrid
    values: np.ndarray
    label: str

    def to_csv(self, path_or_buf):
        """Write ``re,im,curvature`` rows, each value as ``%.17g``.

        A block writer formats up to 4096 rows with a single ``%`` operation
        and writes them at once, so what it holds beyond the field is one
        block (a few hundred kB) whatever the grid size.
        """
        pts = self.grid.points()
        if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
            with open(path_or_buf, "w", encoding="ascii") as fh:
                self._write(fh, pts)
        else:
            self._write(path_or_buf, pts)

    def _write(self, fh, pts):
        fh.write("re,im,curvature\n")
        for start in range(0, len(pts), _CSV_BLOCK_ROWS):
            part = slice(start, start + _CSV_BLOCK_ROWS)
            block = np.column_stack([pts.real[part], pts.imag[part], self.values[part]])
            text = "%.17g,%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist())
            fh.write(text)

    def csv_text(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def curvature_field(spec, grid):
    """quotient_curvature at every grid point; per-point failures identify the point."""
    _require_certified(spec)
    values = quotient_curvature(spec, grid.points())
    return CurvatureField(grid=grid, values=values, label=spec.label())
