"""Hardy and weighted Bergman spaces on the unit disk.

Closed-form reproducing kernels, weighted-shift coefficients (the ratios of
monomial norms), and the curvature coefficient of the kernel line bundle.
Curvature values are the real scalar c(z) of the two-form c(z) dz^dz~; the
Laplacian convention is 4 del delbar throughout the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import FunctionParseError, PointOutsideDomain


@dataclass(frozen=True)
class ModuleKind:
    """The base module: Hardy (``alpha is None``) or weighted Bergman.

    The Bergman module is the alpha = 0 member of the weighted family, so
    ``weighted_bergman(0.0) == BERGMAN``.
    """

    alpha: float | None = None

    def __post_init__(self):
        if self.alpha is not None:
            a = float(self.alpha)
            if not np.isfinite(a) or a <= -1:
                raise ValueError(f"weight parameter must satisfy alpha > -1, got {a}")
            object.__setattr__(self, "alpha", a)

    @property
    def is_hardy(self):
        return self.alpha is None

    def __str__(self):
        return format_module_kind(self)


HARDY = ModuleKind(None)
BERGMAN = ModuleKind(0.0)


def weighted_bergman(alpha):
    """Weighted Bergman module with weight parameter alpha > -1."""
    return ModuleKind(float(alpha))


def _check_open_disk(*points):
    for p in points:
        if np.any(np.abs(np.asarray(p, complex)) >= 1):
            raise PointOutsideDomain("kernel arguments must lie in the open disk")


def kernel_eval(kind, z, w):
    """Reproducing kernel K(z, w): (1 - conj(w) z)^-1 for Hardy,
    (1 - conj(w) z)^-(2+alpha) for weighted Bergman (principal branch)."""
    _check_open_disk(z, w)
    zz = np.asarray(z, complex)
    ww = np.asarray(w, complex)
    base = 1.0 - np.conj(ww) * zz
    if kind.is_hardy:
        out = 1.0 / base
    else:
        out = base ** (-(2.0 + kind.alpha))
    if zz.ndim == 0 and ww.ndim == 0:
        return complex(out)
    return out


def _norm_ratios(kind, n):
    # |z^j|^2 / |z^(j-1)|^2 for j = 1..n: the one weight table behind the
    # Gram bands and the weighted shift
    if kind.is_hardy:
        return np.ones(n)
    j = np.arange(1, n + 1, dtype=float)
    return j / (j + 1.0 + kind.alpha)


def shift_weights(kind, n):
    """Weights |z^{k+1}| / |z^k| for k = 0..n-1 of the degree-n truncated shift:
    1 for Hardy, sqrt((k+1)/(k+2+alpha)) otherwise."""
    return np.sqrt(_norm_ratios(kind, n))


def base_curvature(kind, z):
    """Curvature coefficient of the kernel line bundle at z.

    -1/(1-|z|^2)^2 for Hardy and -(2+alpha)/(1-|z|^2)^2 for weighted Bergman.
    """
    zz = np.asarray(z, complex)
    if np.any(np.abs(zz) >= 1):
        raise PointOutsideDomain("curvature is defined on the open disk only")
    factor = 1.0 if kind.is_hardy else 2.0 + kind.alpha
    out = -factor / (1.0 - np.abs(zz) ** 2) ** 2
    if zz.ndim == 0:
        return float(out)
    return out


_BERGMAN_RE = re.compile(r"^bergman\(alpha=([^)]*)\)$")


def parse_module_kind(text):
    """Parse ``hardy``, ``bergman``, or ``bergman(alpha=X)``."""
    s = "".join(text.split()).lower()
    if s == "hardy":
        return HARDY
    if s == "bergman":
        return BERGMAN
    m = _BERGMAN_RE.match(s)
    if m:
        try:
            return weighted_bergman(float(m.group(1)))
        except ValueError as exc:
            raise FunctionParseError(
                f"bad module kind {text!r}: {exc}", token=m.group(1)
            ) from None
    raise FunctionParseError(f"unknown module kind {text!r}", token=s)


def format_module_kind(kind):
    """Canonical module-kind literal; inverse of parse_module_kind."""
    if kind.is_hardy:
        return "hardy"
    if kind.alpha == 0.0:
        return "bergman"
    return f"bergman(alpha={kind.alpha!r})"
