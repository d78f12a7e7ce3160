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
# CSV rows formatted at once; bounds the scratch and text held in memory
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


# --- the CSV's numbers ---------------------------------------------------
# '%.17g' % v, for a whole block of values.  A value with 1e-4 <= |v| < 1e16
# is written in fixed point from n = round(|v| 10^(16 - k)), its 17
# significant digits, and k, its decimal exponent: k + 1 integer digits, then
# the fraction without trailing zeros ("0." and -k - 1 zeros first if k < 0).


def _split(x):
    """Veltkamp's split: x == hi + lo, with halves of at most 26 bits."""
    c = x * 134217729.0
    hi = c - (c - x)
    return hi, x - hi


_POW10 = np.array([float(10**p) for p in range(23)])  # exact up to 10^22
_POW10_HI, _POW10_LO = _split(_POW10)
# "0000" to "9999" as 4-byte groups, then a group of zero bytes
_GROUPS = np.zeros((10001, 4), np.uint8)
_GROUPS[:10000] = np.arange(10000)[:, None] // (1000, 100, 10, 1) % 10 + ord("0")
_GROUPS = _GROUPS.view(np.uint32).ravel()
_TRAILING_ZEROS = (np.arange(10000)[:, None] % (10, 100, 1000, 10000) == 0).sum(1)


def _rounded(a, k):
    """round-half-even(a 10^(16 - k)), exact, as int64.

    Dekker's TwoProduct gives the product as hi + lo exactly; from 2^53 on,
    hi is an even integer, so rint(lo) rounds the sum half to even.
    """
    p = 16 - k
    hi = a * _POW10[p]
    ah, al = _split(a)
    bh, bl = _POW10_HI[p], _POW10_LO[p]
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _significand(a, k):
    """n in [10^16, 10^17) and k with n = round-half-even(a 10^(16 - k)).

    The estimate k may be one off the exponent either way (np.log10 rounds
    up just below a power of ten): n outside [10^16, 10^17] redoes the
    product with k moved by one.  n == 10^17 is a carry, the exact power
    10^(k + 1) under an estimate one too low (no double below a power of
    ten in range lies close enough to round up to it): 10^16 at k + 1.
    """
    n = _rounded(a, k)
    off = (n < 10**16) | (n > 10**17)
    if off.any():
        k[off] += np.where(n[off] > 10**17, 1, -1)
        n[off] = _rounded(a[off], k[off])
    carry = n == 10**17
    n[carry] = 10**16
    k[carry] += 1
    return n, k


def _slot_tables():
    """Byte masks and constants of a value's 28-byte slot, per (k, tz, sign).

    The digits S = "000" + the 17 digits of n sit at columns 4..23 as they
    are, giving the integer digits S[3..k+3] (the one zero S[k+3] if k < 0),
    and once more one column to the right, giving the fraction S[k+4..19-tz]
    (tz trailing zeros dropped); the point falls between, at column k + 8.
    The sign goes just before the integer digits; column 27 holds , or \\n.
    """
    k, tz, neg, col = np.ix_(np.arange(-4, 16), np.arange(17), (0, 1), np.arange(28))
    lead = np.minimum(k, 0)
    integer = (col >= lead + 7) & (col <= k + 7)
    fraction = (col >= k + 9) & (col <= 24 - tz)
    const = np.select(
        [(col == lead + 6) & (neg == 1), (col == 3) & (k == -4), (col == k + 8) & (k + tz <= 15)],
        [ord("-"), ord("0"), ord(".")],
    )
    return [
        np.broadcast_to(t, (20, 17, 2, 28)).reshape(-1, 28).astype(np.uint8)
        for t in (integer * 255, fraction * 255, const)
    ]


_INTEGER, _FRACTION, _CONST = _slot_tables()


def _csv_rows(block):
    """``"%.17g,%.17g,%.17g\\n" % row`` for every row of a (rows, 3) array."""
    v = block.ravel()
    a = np.abs(v)
    other = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
    a[other] = 1.0  # a stand-in: these slots are filled by "%" below
    n, k = _significand(a, np.floor(np.log10(a)).astype(np.int64))
    groups = np.full((len(v), 7), 10000)
    for j in (5, 4, 3, 2):
        q = n // 10000
        groups[:, j] = n - 10000 * q
        n = q
    groups[:, 1] = n
    tz = _TRAILING_ZEROS[groups[:, 5]]
    for j in (4, 3, 2):  # past a group of four zeros, count on in the one before
        rows = np.flatnonzero(tz == 20 - 4 * j)
        tz[rows] += _TRAILING_ZEROS[groups[rows, j]]
    digits = np.take(_GROUPS, groups).view(np.uint8).ravel()
    idx = ((k + 4) * 17 + tz) * 2 + np.signbit(v)
    out = np.take(_INTEGER, idx, axis=0).ravel()
    out &= digits
    out |= np.take(_CONST, idx, axis=0).ravel()
    fraction = np.take(_FRACTION, idx, axis=0).ravel()
    fraction[1:] &= digits[:-1]
    out |= fraction
    slot = out.reshape(len(v), 28)
    if other.size:
        slot[other] = 0
        text = np.array(["%.17g" % t for t in v[other].tolist()], "S24")
        slot[other, :24] = text.view(np.uint8).reshape(-1, 24)
    slot.reshape(-1, 3, 28)[:, :, 27] = (ord(","), ord(","), ord("\n"))
    return out[out != 0].tobytes().decode("ascii")


@dataclass(frozen=True)
class CurvatureField:
    """Curvature values sampled over a disk grid (flat, radius-major)."""

    grid: DiskGrid
    values: np.ndarray
    label: str

    def to_csv(self, path_or_buf):
        """Write ``re,im,curvature`` rows, each value as ``'%.17g' % v``.

        The bytes are Python's ``%.17g``, produced for 4096 rows at a time by
        numpy: values with 1e-4 <= |v| < 1e16 are written in fixed point from
        their exactly rounded 17 significant digits, and every other value
        (zeros, nan, inf, subnormals and the exponent form) goes through
        ``%`` itself.  What the writer holds beyond the field is one block,
        about 3 MB of scratch, whatever the grid size.
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
            fh.write(_csv_rows(np.column_stack([pts.real[part], pts.imag[part], self.values[part]])))

    def csv_text(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def curvature_field(spec, grid):
    """quotient_curvature at every grid point; per-point failures identify the point."""
    _require_certified(spec)
    values = quotient_curvature(spec, grid.points())
    return CurvatureField(grid=grid, values=values, label=spec.label())
