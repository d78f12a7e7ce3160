"""Polynomials and rational functions on a neighborhood of the closed unit disk.

Functions are stored as coefficient sequences in ascending powers.  A rational
function is verified at construction to have a denominator with no zero of
modulus <= 1 + 1e-9, so every instance is holomorphic on the closed disk and
evaluates a little beyond it (up to |z| = 1.25).  Roots are the eigenvalues of
the companion matrix (``numpy.polynomial``), with no Newton polish, which jumps
off double roots.  The squared denominator that ``derivative`` builds has double
zeros, which come out within about 3e-8 (single poles at |z| = 1 + d,
d = 1e-2 ... 1e-7, 200 angles each); simple zeros come out far more accurately.
So differentiating a function with a pole within about 3e-8 of the unit circle
may be rejected conservatively.

Instances are immutable; arithmetic returns new instances.  Everything here is
safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import FunctionParseError, InvalidFunction, PointOutsideDomain

npp = np.polynomial.polynomial

# eval is allowed on |z| <= 1 + EVAL_MARGIN
EVAL_MARGIN = 0.25
# a denominator root with modulus <= 1 + DISK_ROOT_TOL counts as inside the closed disk
DISK_ROOT_TOL = 1e-9
# remainder-is-zero threshold for the numeric GCD, relative to the largest input coefficient
GCD_REL_TOL = 1e-10
# unit roundoff of IEEE double precision
_UNIT = 2.0**-53
# complex multiply-adds per matrix product at most, or four times as many
# real ones, for the products that grow with a grid or a level of boxes
# (``_grid_laplacian``, ``corona._BoxBounds.bounds``).  OpenBLAS splits larger
# products across its threads, and on a busy host such a product at times
# takes a hundred times as long as on one thread
_PRODUCT_BLOCK = 1 << 15


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _trim(coeffs):
    c = [complex(x) for x in coeffs]
    if not c:
        return [0j]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _horner(coeffs, z):
    """sum_m coeffs[m] z^m by Horner's rule, coefficients ascending.

    Each coefficient is a scalar or an array that broadcasts against z, and
    the result has the shape of z (see ``_horner_rows``).
    """
    acc = np.zeros_like(z)
    if acc.size <= 1:
        # numpy may round a lone complex product differently from the in-place
        # loop it uses for longer arrays; keep one point on the scalar form
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc
    for c in reversed(coeffs):
        acc *= z
        acc += c
    return acc


def _horner_rows(rows, z):
    """Every row of a coefficient table at the flat points z, one row of values per row."""
    return _horner(rows.T[:, :, None], np.broadcast_to(z, (len(rows), z.size)))


def _matmul_blocks(a, b, out=None):
    """``np.matmul(a, b, out=out)`` for C-contiguous 2-D arrays, in blocks within _PRODUCT_BLOCK.

    A product within one block is np.matmul itself.  Otherwise the whole
    blocks go to np.matmul as one stack, which makes one BLAS call per block
    without a Python loop, and the rows left over make one more product.
    """
    limit = _PRODUCT_BLOCK if np.iscomplexobj(a) or np.iscomplexobj(b) else 4 * _PRODUCT_BLOCK
    rows = max(1, limit // (a.shape[1] * b.shape[1]))
    if len(a) <= rows:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((len(a), b.shape[1]), np.result_type(a, b))
    whole = len(a) - len(a) % rows
    if whole:
        np.matmul(
            a[:whole].reshape(-1, rows, a.shape[1]), b,
            out=out[:whole].reshape(-1, rows, b.shape[1]),
        )
    if whole < len(a):
        np.matmul(a[whole:], b, out=out[whole:])
    return out


def _powers(z, n):
    """The powers z^0 ... z^n of the flat points z, one row per point, by running products."""
    powers = np.ones((len(z), n + 1), dtype=complex)
    if n:
        powers[:, 1:] = np.cumprod(np.repeat(z[:, None], n, axis=1), axis=1)
    return powers


def poly_mul(a, b):
    """Coefficient convolution of two ascending coefficient sequences."""
    return list(np.convolve(np.asarray(a, complex), np.asarray(b, complex)))


def polynomial_roots(coeffs):
    """All complex roots of a polynomial given by ascending coefficients.

    Roots at the origin are split off exactly; the others are the eigenvalues
    of the companion matrix of the monic remainder (``npp.polyroots``).
    Multiplicities are returned as repeated (clustered) values.  There is no
    Newton polish: the eigenvalues of a double root can come out bit-identical,
    where the derivative is rounding noise and a Newton step jumps far off.
    """
    c = _trim(coeffs)
    if len(c) == 1:
        return np.empty(0, complex)
    m = 0
    while c[m] == 0:
        m += 1
    a = np.asarray(c[m:], complex)
    return np.concatenate([np.zeros(m, complex), npp.polyroots(a / a[-1])])


def _trim_threshold(coeffs, thresh):
    c = list(coeffs)
    while c and abs(c[-1]) <= thresh:
        c.pop()
    return c


def polynomial_gcd(a, b):
    """Numeric monic GCD of two polynomials (ascending coefficients).

    Monic Euclidean remainder sequence; a remainder counts as zero when all of
    its coefficients are <= ``GCD_REL_TOL`` times the largest input coefficient.
    """
    thresh = GCD_REL_TOL * max(
        max(abs(x) for x in a), max(abs(x) for x in b), 1e-300
    )
    f = _trim_threshold(_trim(a), 0.0)
    g = _trim_threshold(_trim(b), 0.0)
    if not f:
        f, g = g, f
    if not g:
        if not f:
            return [0j]
        return list(np.asarray(f, complex) / f[-1])
    if len(f) < len(g):
        f, g = g, f
    f = list(np.asarray(f, complex) / f[-1])
    g = list(np.asarray(g, complex) / g[-1])
    while True:
        _, r = npp.polydiv(np.asarray(f, complex), np.asarray(g, complex))
        r = _trim_threshold(list(r), thresh)
        if not r:
            return g
        f, g = g, list(np.asarray(r, complex) / r[-1])


@dataclass(frozen=True)
class HoloFun:
    """A polynomial or rational function holomorphic on the closed unit disk.

    ``numer`` and ``denom`` hold ascending coefficients.  Normal form:
    denominators have constant term 1, a denominator of degree 0 is absorbed
    into the numerator (polynomial kind), trailing zero coefficients are
    dropped, and the zero function is ``(0,) / (1,)``.  Construction of a
    rational fails if the denominator has a zero of modulus <= 1 + 1e-9.
    """

    numer: tuple
    denom: tuple = (1 + 0j,)

    def __post_init__(self):
        num = _trim(self.numer)
        den = _trim(self.denom)
        if den == [0j]:
            raise InvalidFunction("denominator is identically zero")
        if num == [0j]:
            num, den = [0j], [1 + 0j]
        if len(den) == 1:
            num = list(np.asarray(num, complex) / den[0])
            den = [1 + 0j]
        else:
            if den[0] == 0:
                raise InvalidFunction("denominator vanishes at z = 0")
            num = list(np.asarray(num, complex) / den[0])
            den = list(np.asarray(den, complex) / den[0])
            bad = [
                r
                for r in polynomial_roots(den)
                if abs(r) <= 1 + DISK_ROOT_TOL
            ]
            if bad:
                raise InvalidFunction(
                    "denominator has zeros in the closed disk: "
                    + ", ".join(f"{r:.6g}" for r in bad)
                )
        object.__setattr__(self, "numer", tuple(complex(c) for c in num))
        object.__setattr__(self, "denom", tuple(complex(c) for c in den))

    @property
    def is_polynomial(self):
        return len(self.denom) == 1

    @property
    def is_zero(self):
        return self.numer == (0j,)

    @property
    def degree(self):
        """Degree of the numerator (0 for the zero function)."""
        return len(self.numer) - 1

    def eval(self, z):
        """Evaluate at ``z`` (scalar or array), Horner on both coefficient lists.

        Raises PointOutsideDomain beyond |z| = 1.25.  Rational denominators are
        zero-free on the closed disk but may vanish inside the margin ring;
        such evaluations return inf/nan without raising.
        """
        zz = np.asarray(z, dtype=complex)
        if np.any(np.abs(zz) > 1 + EVAL_MARGIN + 1e-12):
            worst = np.max(np.abs(zz))
            raise PointOutsideDomain(
                f"|z| = {worst:.6g} exceeds the evaluation margin 1.25"
            )
        out = _horner(self.numer, zz)
        if not self.is_polynomial:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = out / _horner(self.denom, zz)
        if zz.ndim == 0:
            return complex(out)
        return out

    __call__ = eval

    def __mul__(self, other):
        if not isinstance(other, HoloFun):
            return NotImplemented
        return HoloFun(
            tuple(poly_mul(self.numer, other.numer)),
            tuple(poly_mul(self.denom, other.denom)),
        )

    def __str__(self):
        return format_function(self)


def poly(coeffs):
    """Polynomial from ascending coefficients."""
    return HoloFun(tuple(complex(c) for c in coeffs))


def rational(numer, denom):
    """Rational function; the denominator must be zero-free on the closed disk."""
    return HoloFun(
        tuple(complex(c) for c in numer), tuple(complex(c) for c in denom)
    )


@lru_cache(maxsize=256)
def derivative(f):
    """Exact formal derivative; quotient rule with squared denominator for rationals."""
    dnum = npp.polyder(f.numer)
    if f.is_polynomial:
        return HoloFun(tuple(dnum))
    top = npp.polysub(
        npp.polymul(dnum, f.denom), npp.polymul(f.numer, npp.polyder(f.denom))
    )
    return HoloFun(tuple(top), tuple(npp.polymul(f.denom, f.denom)))


def common_zeros_in_disk(pair):
    """All points of the open disk where both components vanish.

    Works on numerators (denominators are zero-free on the disk): numeric GCD
    g, then the roots of its square-free part g / gcd(g, g'), so a multiple
    common zero is listed once.  Returns a list sorted by (re, im).
    """
    g = polynomial_gcd(pair.theta1.numer, pair.theta2.numer)
    if len(g) == 1:
        return []
    square_free, _ = npp.polydiv(g, polynomial_gcd(g, npp.polyder(g)))
    roots = [complex(r) for r in polynomial_roots(square_free) if abs(r) < 1.0]
    return sorted(roots, key=lambda r: (r.real, r.imag))


@dataclass(frozen=True)
class MultiplierPair:
    """An ordered pair of multipliers, not both identically zero."""

    theta1: HoloFun
    theta2: HoloFun

    def __post_init__(self):
        if self.theta1.is_zero and self.theta2.is_zero:
            raise InvalidFunction("multiplier pair must not be identically zero")

    def __iter__(self):
        return iter((self.theta1, self.theta2))

    def scale(self, f):
        """The pair {f*theta1, f*theta2}."""
        return MultiplierPair(f * self.theta1, f * self.theta2)

    @cached_property
    def _cleared(self):
        """The pair over one denominator: rows P1 = p1 q2, P2 = p2 q1, Q = q1 q2.

        With theta_i = p_i / q_i, u = |theta1|^2 + |theta2|^2 =
        (|P1|^2 + |P2|^2) / |Q|^2, and Q = 1 for a polynomial pair.  Returns
        the coefficients of the three products and, in the same layout, the
        products of the coefficient moduli (|p1| * |q2| and so on), which
        bound the exact products coefficientwise.  Rows are zero-padded to a
        common length; computed once per pair, on first use, and read-only.
        """
        t1, t2 = self
        factors = ((t1.numer, t2.denom), (t2.numer, t1.denom), (t1.denom, t2.denom))
        width = max(len(a) + len(b) - 1 for a, b in factors)
        coeffs = np.zeros((3, width), complex)
        bounds = np.zeros((3, width))
        for k, (a, b) in enumerate(factors):
            coeffs[k, : len(a) + len(b) - 1] = np.convolve(a, b)
            bounds[k, : len(a) + len(b) - 1] = np.convolve(np.abs(a), np.abs(b))
        coeffs.flags.writeable = False
        bounds.flags.writeable = False
        return coeffs, bounds


# ---------------------------------------------------------------------------
# the function-literal grammar: poly:[c0,c1,...] and rat:[...]/[...]

def parse_complex(token):
    """Parse a coefficient literal: a real number or ``re+imi`` (e.g. 1.5-0.5i)."""
    t = token.strip()
    if not t:
        raise FunctionParseError("empty coefficient", token=token)
    if "j" in t:
        raise FunctionParseError(
            f"bad coefficient {token!r}: use 'i' for the imaginary unit", token=token
        )
    try:
        value = complex(t.replace("i", "j"))
    except ValueError:
        raise FunctionParseError(f"bad coefficient {token!r}", token=token) from None
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise FunctionParseError(f"non-finite coefficient {token!r}", token=token)
    return value


def _parse_bracket_list(text, original):
    if not (text.startswith("[") and text.endswith("]")):
        raise FunctionParseError(
            f"expected a bracketed coefficient list, got {text!r}", token=text
        )
    inner = text[1:-1]
    if not inner:
        raise FunctionParseError("empty coefficient list", token=original)
    return [parse_complex(tok) for tok in inner.split(",")]


def parse_function(text):
    """Parse ``poly:[c0,c1,...]`` or ``rat:[n0,...]/[d0,...]`` (whitespace ignored)."""
    s = "".join(text.split())
    if s.startswith("poly:"):
        return HoloFun(tuple(_parse_bracket_list(s[5:], text)))
    if s.startswith("rat:"):
        body = s[4:]
        parts = body.split("/")
        if len(parts) != 2:
            raise FunctionParseError(
                f"rational literal needs exactly one '/': {text!r}", token=text
            )
        return HoloFun(
            tuple(_parse_bracket_list(parts[0], text)),
            tuple(_parse_bracket_list(parts[1], text)),
        )
    head = s.split(":", 1)[0]
    raise FunctionParseError(
        f"unknown function kind {head!r} (expected 'poly' or 'rat')", token=head
    )


def format_complex(c):
    """Canonical coefficient literal; inverse of parse_complex."""
    re = c.real + 0.0
    im = c.imag + 0.0
    if im == 0.0:
        return repr(re)
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def format_function(f):
    """Canonical function literal; inverse of parse_function."""
    num = "[" + ",".join(format_complex(c) for c in f.numer) + "]"
    if f.is_polynomial:
        return "poly:" + num
    den = "[" + ",".join(format_complex(c) for c in f.denom) + "]"
    return "rat:" + num + "/" + den
