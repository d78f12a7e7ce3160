"""Polynomials and rational functions on a neighborhood of the closed unit disk.

Functions are stored as coefficient sequences in ascending powers.  A rational
function is verified at construction to have a denominator with no zero of
modulus <= 1 + 1e-9, so every instance is holomorphic on the closed disk and
evaluates a little beyond it (up to |z| = 1.25).  Denominator zeros should stay
well away from the unit circle; a zero within roughly 1e-6 of it may be
rejected conservatively because numeric root isolation cannot separate it from
the gate.

Instances are immutable; arithmetic returns new instances.  Everything here is
safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FunctionParseError, InvalidFunction, PointOutsideDomain

npp = np.polynomial.polynomial

# eval is allowed on |z| <= 1 + EVAL_MARGIN
EVAL_MARGIN = 0.25
# a denominator root with modulus <= 1 + DISK_ROOT_TOL counts as inside the closed disk
DISK_ROOT_TOL = 1e-9
# remainder-is-zero threshold for the numeric GCD, relative to the largest input coefficient
GCD_REL_TOL = 1e-10
# simultaneous-iteration stopping residual for root isolation
ROOT_RESIDUAL = 1e-12


def _trim(coeffs):
    c = [complex(x) for x in coeffs]
    if not c:
        return [0j]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _horner(coeffs, z):
    acc = np.zeros_like(z)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _poly_derivative(coeffs):
    if len(coeffs) <= 1:
        return [0j]
    return [k * coeffs[k] for k in range(1, len(coeffs))]


def poly_mul(a, b):
    """Coefficient convolution of two ascending coefficient sequences."""
    return list(np.convolve(np.asarray(a, complex), np.asarray(b, complex)))


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [0j] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return out


def polynomial_roots(coeffs, residual_tol=ROOT_RESIDUAL, max_iter=400):
    """All complex roots of a polynomial given by ascending coefficients.

    Uses simultaneous (Durand-Kerner) iteration down to residual
    ``residual_tol`` relative to the coefficient scale, followed by a short
    Newton polish.  Roots at the origin are split off exactly beforehand.
    Multiplicities are returned as repeated (clustered) values.
    """
    c = _trim(coeffs)
    if len(c) == 1:
        return np.empty(0, complex)

    # exact roots at the origin
    m = 0
    while m < len(c) - 1 and c[m] == 0:
        m += 1
    c = c[m:]
    origin = np.zeros(m, complex)

    n = len(c) - 1
    if n == 0:
        return origin
    a = np.asarray(c, complex) / c[-1]
    if n == 1:
        return np.concatenate([origin, [-a[0]]])

    scale = max(1.0, float(np.max(np.abs(a))))
    radius = 1.0 + float(np.max(np.abs(a[:-1])))
    z = radius * (0.4 + 0.9j) ** np.arange(1, n + 1)
    for _ in range(max_iter):
        p = npp.polyval(z, a)
        if np.max(np.abs(p)) <= residual_tol * scale:
            break
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        denom = np.prod(diff, axis=1)
        denom[denom == 0] = 1e-300
        step = p / denom
        z = z - step
        if np.max(np.abs(step)) <= 1e-15 * max(1.0, np.max(np.abs(z))):
            break

    da = np.asarray(_poly_derivative(list(a)), complex)
    for _ in range(3):
        dp = npp.polyval(z, da)
        mask = np.abs(dp) > 1e-30
        z = np.where(mask, z - npp.polyval(z, a) / np.where(mask, dp, 1.0), z)

    return np.concatenate([origin, z])


def _trim_threshold(coeffs, thresh):
    c = list(coeffs)
    while c and abs(c[-1]) <= thresh:
        c.pop()
    return c


def polynomial_gcd(a, b, rel_tol=GCD_REL_TOL):
    """Numeric monic GCD of two polynomials (ascending coefficients).

    Monic Euclidean remainder sequence; a remainder counts as zero when all of
    its coefficients are <= rel_tol times the largest input coefficient.
    """
    thresh = rel_tol * max(
        max(abs(x) for x in a), max(abs(x) for x in b), 1e-300
    )
    f = _trim_threshold(_trim(a), 0.0)
    g = _trim_threshold(_trim(b), 0.0)
    if not f or f == [0j]:
        f = []
    if not g or g == [0j]:
        g = []
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
    dnum = _poly_derivative(list(f.numer))
    if f.is_polynomial:
        return HoloFun(tuple(dnum))
    dden = _poly_derivative(list(f.denom))
    top = _poly_sub(poly_mul(dnum, f.denom), poly_mul(f.numer, dden))
    return HoloFun(tuple(top), tuple(poly_mul(f.denom, f.denom)))


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


def common_zeros_in_disk(pair):
    """All points of the open disk where both components vanish.

    Works on numerators (denominators are zero-free on the disk): numeric GCD
    followed by root isolation.  Multiplicity is ignored; clustered roots are
    merged.  Returns a list sorted by (re, im).
    """
    p1 = _trim(pair.theta1.numer)
    p2 = _trim(pair.theta2.numer)
    if p1 == [0j]:
        g = p2
    elif p2 == [0j]:
        g = p1
    else:
        g = polynomial_gcd(p1, p2)
    if len(g) == 1:
        return []
    roots = [complex(r) for r in polynomial_roots(g) if abs(r) < 1.0]
    roots.sort(key=lambda r: (r.real, r.imag))
    merged = []
    for r in roots:
        if merged and abs(r - merged[-1]) < 1e-8:
            continue
        merged.append(r)
    return merged


# ---------------------------------------------------------------------------
# Taylor data for the matrix-truncation layer

def taylor_coefficients(f, n):
    """First n+1 Taylor coefficients of ``f`` at the origin.

    Exact for polynomials (higher-degree terms, if any, are simply cut);
    rational functions go through power-series division by the denominator.
    """
    if f.is_polynomial:
        out = np.zeros(n + 1, complex)
        d = min(len(f.numer), n + 1)
        out[:d] = f.numer[:d]
        return out
    inv = np.zeros(n + 1, complex)
    inv[0] = 1.0  # denominator constant term is normalized to 1
    den = np.zeros(n + 1, complex)
    den[: min(len(f.denom), n + 1)] = f.denom[: n + 1]
    for k in range(1, n + 1):
        inv[k] = -np.dot(den[1 : k + 1], inv[k - 1 :: -1][: k])
    full = np.convolve(np.asarray(f.numer, complex), inv)
    return full[: n + 1]


def taylor_tail_bound(f, n):
    """Certified upper bound for sum_{k>n} |c_k| of the Taylor series of ``f``.

    Cauchy estimates on a circle |z| = r strictly between 1 and the smallest
    denominator-root modulus; several radii are tried and the best bound kept.
    Zero for polynomials of degree <= n.
    """
    if f.is_polynomial:
        return float(sum(abs(c) for c in f.numer[n + 1 :]))
    roots = polynomial_roots(f.denom)
    moduli = np.abs(roots)
    rho = float(np.min(moduli)) - DISK_ROOT_TOL
    lead = abs(f.denom[-1])
    best = np.inf
    for frac in (0.5, 0.75, 0.9, 0.97):
        r = 1.0 + frac * (rho - 1.0)
        if r <= 1.0:
            continue
        with np.errstate(over="ignore"):
            num_max = float(
                sum(abs(c) * r**k for k, c in enumerate(f.numer))
            )
            den_min = lead * float(np.prod(np.maximum(moduli - r, 1e-300)))
            m = num_max / den_min
            tail = m * r ** (-n) / (r - 1.0)
        if np.isfinite(tail):
            best = min(best, tail)
    return float(best)


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
