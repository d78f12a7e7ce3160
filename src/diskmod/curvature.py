"""Curvature engines for quotient modules over the disk.

The quotient curvature is the base curvature minus a quarter of the
Laplacian of log(|theta1|^2 + |theta2|^2), computed analytically from the
multiplier data by Wirtinger calculus, in the Lagrange form over the pair's
cleared polynomials (``laplacian_log_sumsq``).  The Laplacian convention is
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
from .holofun import MultiplierPair, _gamma, _horner_rows, _matmul_blocks, format_function
from .rkhs import ModuleKind, base_curvature, format_module_kind

if TYPE_CHECKING:
    from .corona import CoronaCertificate

# below this value of |theta1|^2 + |theta2|^2 a point counts as degenerate
DEGENERACY_THRESHOLD = 1e-30
# CSV rows formatted at once; bounds the scratch and text held in memory
_CSV_BLOCK_ROWS = 4096
# on a grid, a point keeps its power sums where their error bound, carried
# into the Laplacian L, is at most this share of 1 + L (see _grid_laplacian)
_GRID_TRUST = 1e-13


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

    def _polar(self, rotate=0.0):
        """The radii r_j and the angles phi_k."""
        r = self.r_max * (np.arange(self.n_r) + 0.5) / self.n_r
        phi = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta + rotate
        return r, phi

    def points(self, rotate=0.0):
        """Flat complex array of grid points, radius-major order."""
        r, phi = self._polar(rotate)
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


def _laplacian_rows(theta):
    """Coefficient rows P1, P2, P1', P2' of the pair over one denominator, and Q if rational."""
    cleared, _ = theta._cleared
    width = cleared.shape[1]
    slopes = np.zeros((2, width), complex)
    slopes[:, :-1] = cleared[:2, 1:] * np.arange(1, width)
    rows = [cleared[:2], slopes]
    if not (theta.theta1.is_polynomial and theta.theta2.is_polynomial):
        rows.append(cleared[2:])
    return np.concatenate(rows)


def _lagrange(v):
    """U = |P1|^2 + |P2|^2 and the Laplacian 4 |P1 P2' - P2 P1'|^2 / U^2.

    ``v`` holds the values of P1, P2, P1' and P2' in its first four rows;
    the Laplacian is inf or nan where U is 0 (see ``_check_degenerate``).
    """
    p1, p2, d1, d2 = v[:4]
    u = np.abs(p1) ** 2 + np.abs(p2) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return u, 4.0 * np.abs(p1 * d2 - p2 * d1) ** 2 / u**2


def _check_degenerate(u, q, point):
    """Raise DegeneratePoint at the first point with U below DEGENERACY_THRESHOLD |Q|^2.

    ``q`` holds the values of Q (None for a polynomial pair, Q = 1), and
    ``point(k)`` gives the k-th point; the error carries u = U / |Q|^2.
    """
    q2 = 1.0 if q is None else np.abs(q) ** 2
    small = u < DEGENERACY_THRESHOLD * q2
    if np.any(small):
        k = int(np.argmax(small))
        raise DegeneratePoint(point(k), u[k] / (1.0 if q is None else q2[k]))


def laplacian_log_sumsq(theta, z):
    """Laplacian of log(|theta1|^2 + |theta2|^2) at z, analytically.

    Over one denominator, theta_i = P_i / Q with P1 = p1 q2, P2 = p2 q1 and
    Q = q1 q2 (the pair's cleared polynomials), and log |Q|^2 is harmonic on
    the disk, so the Lagrange identity gives the value
    4 |P1 P2' - P2 P1'|^2 / (|P1|^2 + |P2|^2)^2, exact up to rounding; the
    derivatives are formal.  The polynomials are evaluated by Horner's rule.
    Accepts scalars or arrays of points in the open disk; a point where
    u = |theta1|^2 + |theta2|^2 is below ``DEGENERACY_THRESHOLD`` raises
    DegeneratePoint.  ``curvature_field`` and ``decide_equivalence`` take the
    same values on a ``DiskGrid`` from its rings and angles instead.
    """
    zz = np.asarray(z, complex)
    if np.any(np.abs(zz) >= 1):
        raise PointOutsideDomain("points must lie in the open disk")
    rows = _laplacian_rows(theta)
    pts = zz.ravel()
    v = _horner_rows(rows, pts)
    u, out = _lagrange(v)
    _check_degenerate(u, v[4] if len(v) > 4 else None, pts.__getitem__)
    if zz.ndim == 0:
        return float(out[0])
    return out.reshape(zz.shape)


def _grid_laplacian(theta, grid, rotate=0.0):
    """``laplacian_log_sumsq`` at ``grid.points(rotate)``, from the grid's rings and angles.

    At z = r_j w_k a polynomial is the power sum sum_m (c_m r_j^m) w_k^m, so
    the values of a row on a block of rings are one complex product
    (rings x m) @ (m x angles) of its scaled coefficients with the table of
    w_k^m, in row blocks within ``_PRODUCT_BLOCK`` (``_matmul_blocks``).  A
    power sum loses more digits than Horner's rule where its terms cancel,
    though both share the a-priori bound e = gamma sum_m |c_m| r_j^m per row
    and ring (Higham, Accuracy and Stability, 2nd ed., section 5.1), which
    costs one real product (rows x m) @ (m x rings).  Carried to first order
    through U = |P1|^2 + |P2|^2, W = P1 P2' - P2 P1' and L = 4 |W|^2 / U^2,
    with |P'| at most its coefficient sum s, it bounds the error of L by

        4 sqrt(L) (a / sqrt(U) + b / U) + 4 L c / sqrt(U),

    a = e(P1') + e(P2'), b = s(P2') e(P1) + s(P1') e(P2), c = e(P1) + e(P2).
    A point keeps its power sums where this is at most ``_GRID_TRUST``
    (1 + L), the scale on which the CSV and ``decide`` read L, and goes
    back to Horner's rule otherwise.
    """
    rows = _laplacian_rows(theta)
    n = rows.shape[1] - 1
    r, phi = grid._polar(rotate)
    n_theta = len(phi)
    m = np.arange(n + 1)[:, None]
    omega = np.exp(1j * (2.0 * np.pi * ((m * np.arange(n_theta)) % n_theta) / n_theta + m * rotate))
    powers = r[:, None] ** m.T
    v = np.empty((len(rows), len(r), n_theta), complex)
    for row, out in zip(rows[:, None, :] * powers, v):
        _matmul_blocks(row, omega, out)
    v = v.reshape(len(rows), -1)
    u, lap = _lagrange(v)

    sums = np.abs(rows) @ powers.T
    # gamma_k for k = 4 n + 16: the complex operations of a degree-n sum,
    # with room for the rounding of the tables
    err = _gamma(4 * n + 16) * sums
    abc = (4.0 / _GRID_TRUST) * np.stack(
        [err[2] + err[3], sums[3] * err[0] + sums[2] * err[1], err[0] + err[1]]
    )
    # each ring at its smallest U and largest L (the bound grows with L and
    # falls with U), then the rings that fail it point by point
    x, y = u.reshape(len(r), n_theta), lap.reshape(len(r), n_theta)
    rings = np.flatnonzero(~(_grid_bound(x.min(1), y.max(1), *abc) <= 1.0))
    fails = ~(_grid_bound(x[rings], y[rings], *abc[:, rings, None]) <= 1.0 + y[rings])
    redo = (rings[:, None] * n_theta + np.arange(n_theta))[fails]
    circle = np.exp(1j * phi)

    def point(i):
        return r[i // n_theta] * circle[i % n_theta]

    if redo.size:
        v[:, redo] = _horner_rows(rows, point(redo))
        u[redo], lap[redo] = _lagrange(v[:, redo])
    _check_degenerate(u, v[4] if len(v) > 4 else None, point)
    return lap


def _grid_bound(u, lap, a, b, c):
    """``_grid_laplacian``'s first-order bound on the error of L, over ``_GRID_TRUST``.

    ``a``, ``b`` and ``c`` come multiplied by 4 / ``_GRID_TRUST``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        x = 1.0 / np.sqrt(u)
        return np.sqrt(lap) * x * (a + b * x) + lap * c * x


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
# "0000" to "9999" as 4-byte groups
_GROUPS = (np.arange(10000)[:, None] // (1000, 100, 10, 1) % 10 + ord("0")).astype(np.uint8)
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
    """Byte masks and constants of a value's 32-byte slot, per (k, tz, sign, column).

    The digits S = "000" + the 17 digits of n sit at columns 4..23 as they
    are, giving the integer digits S[3..k+3] (the one zero S[k+3] if k < 0),
    and once more one column to the right, giving the fraction S[k+4..19-tz]
    (tz trailing zeros dropped); the point falls between, at column k + 8.
    The sign goes just before the integer digits.  Column 31 holds the
    separator, "," after the first two values of a row and "\\n" after the
    third, so the tables are indexed by the value's column in its row too.
    The slot is 32 bytes wide because np.take copies rows of that width on a
    fast path that 24- and 28-byte rows miss.
    """
    k, tz, neg, sep, col = np.ix_(
        np.arange(-4, 16), np.arange(17), (0, 1), (ord(","), ord(","), ord("\n")), np.arange(32)
    )
    lead = np.minimum(k, 0)
    integer = (col >= lead + 7) & (col <= k + 7)
    fraction = (col >= k + 9) & (col <= 24 - tz)
    const = np.select(
        [
            (col == lead + 6) & (neg == 1),
            (col == 3) & (k == -4),
            (col == k + 8) & (k + tz <= 15),
            col == 31,
        ],
        [ord("-"), ord("0"), ord("."), sep],
    )
    return [
        np.broadcast_to(t, (20, 17, 2, 3, 32)).reshape(-1, 32).astype(np.uint8)
        for t in (integer * 255, fraction * 255, const)
    ]


_INTEGER, _FRACTION, _CONST = _slot_tables()


class _CsvBuffers:
    """The arrays ``_csv_rows`` reuses from block to block, for blocks of up to ``rows`` rows.

    ``groups`` holds each value's n as its leading digit and four groups of
    four digits, one group per row; ``digits`` their text, one 32-byte slot
    per value, whose first group and last two groups stay zero.  Each
    ``to_csv`` call makes its own, so calls on different threads share
    nothing.
    """

    def __init__(self, rows):
        self.groups = np.empty((5, 3 * rows), np.intp)
        self.digits = np.zeros((3 * rows, 8), np.uint32)


def _csv_rows(block, buffers):
    """``"%.17g,%.17g,%.17g\\n" % row`` for every row of a (rows, 3) array, as ASCII bytes."""
    v = block.ravel()
    a = np.abs(v)
    other = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
    a[other] = 1.0  # a stand-in: these slots are filled by "%" below
    n, k = _significand(a, np.floor(np.log10(a)).astype(np.int64))
    # n = hi 10^8 + lo and hi = top 10^8 + mid; mid and lo are two groups each
    groups = buffers.groups[:, : len(v)]
    hi = n // 10**8
    np.subtract(n, hi * 10**8, out=groups[3])
    np.floor_divide(hi, 10**8, out=groups[0])
    np.subtract(hi, groups[0] * 10**8, out=groups[1])
    high = groups[1::2]
    q = high // 10000
    np.subtract(high, q * 10000, out=groups[2::2])
    high[...] = q
    tz = _TRAILING_ZEROS[groups[4]]
    for j in (3, 2, 1):  # past a group of four zeros, count on in the one before
        rows = np.flatnonzero(tz == 16 - 4 * j)
        tz[rows] += _TRAILING_ZEROS[groups[j, rows]]
    slots = buffers.digits[: len(v)]
    slots[:, 1:6] = _GROUPS[groups.T]
    digits = slots.view(np.uint8).ravel()
    # row ((k + 4) 17 + tz) 6 + 3 sign + column of the tables, term by term
    idx = 102 * k
    idx += 6 * tz
    idx += 3 * np.signbit(v)
    idx.reshape(-1, 3)[...] += 408 + np.arange(3)
    out = np.take(_INTEGER, idx, axis=0)
    flat = out.ravel()
    flat &= digits
    flat |= np.take(_CONST, idx, axis=0).ravel()
    fraction = np.take(_FRACTION, idx, axis=0).ravel()
    fraction[1:] &= digits[:-1]
    flat |= fraction
    if other.size:
        # the text, zero-padded, takes columns 0..23; the separator stays
        text = np.array(["%.17g" % t for t in v[other].tolist()], "S24")
        out[other, :24] = text.view(np.uint8).reshape(-1, 24)
    return out.tobytes().translate(None, b"\0")


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
        ``%`` itself.  Each value fills a 32-byte slot of digits, sign, point,
        separator and zero bytes, and ``bytes.translate`` drops the zeros of a
        whole block at once.  A path is written as bytes, in binary mode; a
        text buffer such as ``io.StringIO`` gets each block decoded from
        ASCII.  What the writer holds beyond the field is one block, about
        3.4 MB of working arrays whatever the grid size, made by this call and used
        by no other.
        """
        pts = self.grid.points()
        if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
            with open(path_or_buf, "wb") as fh:
                self._write(fh.write, pts)
        else:
            self._write(lambda data: path_or_buf.write(data.decode("ascii")), pts)

    def _write(self, write, pts):
        """Pass the CSV of the field at ``pts`` to ``write`` as bytes, block by block."""
        write(b"re,im,curvature\n")
        buffers = _CsvBuffers(min(len(pts), _CSV_BLOCK_ROWS))
        for start in range(0, len(pts), _CSV_BLOCK_ROWS):
            part = slice(start, start + _CSV_BLOCK_ROWS)
            block = np.column_stack([pts.real[part], pts.imag[part], self.values[part]])
            write(_csv_rows(block, buffers))

    def csv_text(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def curvature_field(spec, grid):
    """quotient_curvature at every grid point; per-point failures identify the point.

    The Laplacian comes from the grid's rings and angles (``_grid_laplacian``:
    the Lagrange form of ``laplacian_log_sumsq`` on power sums, with Horner's
    rule wherever their error bound is not small next to the value).
    """
    _require_certified(spec)
    values = base_curvature(spec.base, grid.points()) - 0.25 * _grid_laplacian(spec.theta, grid)
    return CurvatureField(grid=grid, values=values, label=spec.label())
