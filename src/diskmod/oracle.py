"""Matrix-truncation cross-checks for the analytic layer.

Everything here recomputes a claim of `rkhs`/`curvature` without using its
closed form: kernel counts and closed range of the truncated operators, and
the curvature of the eigenvector frame of the truncated quotient, which
evaluates neither theta nor the kernel (``oracle_curvature``).  The
truncated shift is held as its weight vector (``rkhs.shift_weights``) and
applied by weighted slice moves; no dense shift matrix is built.  The
oracle reads the pair over one denominator, theta = (P1, P2) / Q with
P1 = p1 q2, P2 = p2 q1 and Q = q1 q2 (``MultiplierPair._cleared``), and
works with the polynomials P1 and P2 (``_numerators``).  Q has no zero on
the closed disk, so multiplication by 1/Q maps the base space H onto
itself and theta H = (P1, P2) H: both pairs define the same submodule,
quotient and kernels, and, as log |Q|^2 is harmonic, the same curvature
(Cowen & Douglas, Acta Math. 141, 1978).  M_P = M_theta M_Q with M_Q
invertible, so M_P has closed range exactly when M_theta has.  Every
multiplier block is a weighted Toeplitz matrix D T_i D^-1 of half-width d,
d the degree of P1 and P2, so its Gram matrices are bands of half-width d;
``_gram_band`` builds them from the coefficients and ratios of monomial
norms alone.  Bands are the only form in which the oracle holds an
operator, all in one layout: entry (l, o) of the band of a Hermitian A is
A[l + o, l].  Kernel counts compress the shift to the truncated quotient,
the range of N = [M2^H; -M1^H].  The blocks commute with the shift, so the
compression at w is similar to the bidiagonal B_w = S^H - conj(w) I through
the factor R of G = N^H N.  One Cholesky factorisation of the band G,
shifted and taken window by window, settles the expected count of 1 at
every point of a call from bounds on the singular values (route 1 of
``dim_ker_estimate``); at the points it leaves open, Sylvester's law of
inertia counts the singular values below a threshold t as the negative
eigenvalues of the band A_w - t^2 G, A_w = B_w^H G B_w, read from a twisted
factorisation (``_BandCholesky.negatives``).  Closed range of M_P, and so
of M_theta, is proved by the same factorisation of the band M^H M: it
shows sigma_min(M)^2 >= epsilon - slack for the certified bound epsilon of
the corona certificate on |P1|^2 + |P2|^2 (``multiplier_lower_bound``).
The kernel vector x_k = conj(w)^k / |z^k| and the frame N x are formed
from the shift weights in log space (``_kernel_frame``), so no monomial
norm is formed and a large weight alpha neither overflows nor underflows.
Truncation degrees default to 120 and evaluation points stay within
|w| <= 0.6-0.7 so geometric kernel tails are negligible against the
assertions made downstream.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curvature import _require_certified
from .errors import NoSpectralGap
from .holofun import _UNIT, _gamma, _powers
from .rkhs import _norm_ratios, shift_weights

GAP_FACTOR = 10.0
DEFAULT_DEGREE = 120
# smallest truncation degree the kernel count accepts
MIN_DEGREE = 60
# tolerance of the verify check of oracle_curvature against quotient_curvature,
# relative to 1 + |K|; its budget is stated in oracle_curvature
CURVATURE_TOL = 1e-8


def _require(spec, n, least=1):
    _require_certified(spec)
    if n < least:
        raise ValueError(f"truncation degree must be at least {least}")


def _numerators(pair):
    """The rows P1 and P2 of ``MultiplierPair._cleared``, up to their last nonzero column.

    A read-only table of two rows and d + 1 columns, d the degree of the
    cleared numerators; Q, which may have the higher degree, is dropped.
    """
    rows = pair._cleared[0][:2]
    return rows[:, : np.flatnonzero(np.any(rows != 0, axis=0))[-1] + 1]


def _gram_band(table, kind, cod, size, columns=False):
    """A Gram matrix of the multiplier as a band of half-width d, from ``table``.

    M = [M1; M2] maps degree size - 1 into degree cod, with entries
    c_{i,k-j} nu_k / nu_j (nu_k = |z^k|) and the products beyond cod dropped.
    The band holds G = M1 M1^H + M2 M2^H, or with ``columns`` H = M^H M, in
    the one layout of the oracle: entry (l, o) is G[l + o, l] (H[l + o, l]),
    0 outside the matrix.  With P_o[t] = sum_i c_{i,t+o} conj(c_{i,t}),

        G[l + o, l] = (nu_{l+o} / nu_l) sum_t P_o[t] (nu_l / nu_{l-t})^2,
        H[l - o, l] = (nu_l / nu_{l-o}) sum_t conj(P_o[t]) (nu_{l+t} / nu_l)^2,

    so the band is one product of a sliding window of norm ratios, running
    backward for G and forward for H, with P^T.  H comes out by columns,
    entry (l, o) = H[l - o, l], 0 for l < o; upside down, entry (l, o) is
    H[m - 1 - l - o, m - 1 - l] = (J H J)[l + o, l], J the reversal of the
    m = size rows.  So with ``columns`` the band returned, a view, is that of
    J H J in the layout of G: it has the eigenvalues of H, and its largest
    diagonal entry, d and m are those of H.
    Every ratio is a product of at most d of the ratios |z^j|^2 / |z^(j-1)|^2
    and no monomial norm is formed, so a large weight alpha neither
    underflows nor overflows the band.  Each entry is within
    ``_band_error(d)`` of its exact value, relative to the same sum taken
    over |c| (see ``dim_ker_estimate``).
    """
    d = table.shape[1] - 1
    # P[o, t] = sum_i c_{i,t+o} conj(c_{i,t}), zero where t + o > d
    padded = np.concatenate([table, np.zeros_like(table[:, :d])], axis=1)
    pmat = np.einsum("iot,it->ot", sliding_window_view(padded, d + 1, axis=1), table.conj())
    pmat = pmat.conj() if columns else pmat
    # ratios r_j for j = 1..cod, padded with d zeros on each side so that a
    # window reaching below degree 0 or beyond cod has a zero product;
    # windows[l] holds r_{l-d+1} .. r_l and windows[l + d] holds
    # r_{l+1} .. r_{l+d}
    ratios = np.concatenate([np.zeros(d), _norm_ratios(kind, cod), np.zeros(d)])
    windows = sliding_window_view(ratios, d)
    ones = np.ones((size, 1))
    # down[l, t] = (nu_l / nu_{l-t})^2, up[l, t] = (nu_{l+t} / nu_l)^2
    down = np.concatenate([ones, np.cumprod(windows[:size, ::-1], axis=1)], axis=1)
    up = np.concatenate([ones, np.cumprod(windows[d : d + size], axis=1)], axis=1)
    window, scale = (up, down) if columns else (down, up)
    # complex P^T through its real view: one real product
    band = (window @ np.ascontiguousarray(pmat.T).view(float)).view(complex) * np.sqrt(scale)
    return band[::-1] if columns else band


def _flip(band):
    """The band, in the layout of G, of the Hermitian A with A[l - o, l] = ``band[l, o]``.

    Entry (l, o) is conj(band[l + o, o]) = A[l + o, l], 0 past the last
    row.  A band of G upside down holds the reversed matrix J G J, J the
    reversal, in that way, so ``_flip(band[::-1])`` is the band of J G J.
    """
    size, width = band.shape
    rows = np.arange(size)[:, None] + np.arange(width)
    return np.where(rows < size, band[np.minimum(rows, size - 1), np.arange(width)].conj(), 0)


def _band_error(d):
    # relative error of a band entry from _gram_band: d + 1 rounded ratios,
    # their products and square roots, P and the window product
    return _gamma(16 * (d + 2))


def _band_spread(band, err):
    """Upper bound on |A|_2 for A with the sparsity of ``band`` and |a_kl| <= sqrt(a_kk a_ll).

    The diagonal a_kk is that of ``band`` up to the relative error ``err``;
    a column holds at most min(2d + 1, m) entries, each at most the largest
    diagonal entry.
    """
    size, width = band.shape
    return min(2 * width - 1, size) * float(np.max(band[:, 0].real)) * (1.0 + err)


def _band_norm1(band):
    """|A|_1 of the Hermitian matrix A of a band."""
    # column l holds A[l + o, l] = band[l, o] and A[l - o, l] =
    # conj(band[l - o, o]) for o >= 1
    mags = np.abs(band)
    col_sums = np.sum(mags, axis=1)
    for o in range(1, band.shape[1]):
        col_sums[o:] += mags[:-o, o]
    return float(np.max(col_sums))


def _dense_hermitian(band, shift=0.0):
    """The Hermitian matrix A of a band, less shift I: band entry (l, o) sits at A[l + o, l]."""
    size, width = band.shape
    row = np.arange(size)[:, None]
    other = row + np.arange(width)
    inside = other < size
    values = band[inside]
    dense = np.zeros((size, size), complex)
    flat = dense.reshape(-1)
    flat[(other * size + row)[inside]] = values
    flat[(row * size + other)[inside]] = values.conj()
    flat[:: size + 1] = band[:, 0].real - shift
    return dense


class _BandCholesky:
    """Windowed factorisations of a Hermitian band matrix: a Cholesky proof and a twisted inertia.

    ``band`` has m rows and half-width d and comes from ``_gram_band`` or
    ``_pencil_band``.  Each of its entries is within ``err`` of that of the
    exact matrix A, relative to the matching entry of a nonnegative matrix P
    with p_kl <= sqrt(p_kk p_ll), whose 2-norm is at most ``spread``.  A
    column of the band holds at most min(2d + 1, m) entries, so ``tail`` =
    min(2d + 1, m) max_k p_kk bounds the 2-norm of every matrix of that band
    whose entries are at most max_k p_kk.  For a Gram band P is |M| |M|^H or |M|^H |M|, its diagonal
    is that of the band up to err, and ``spread`` and ``tail`` default to
    ``_band_spread``.

    If the Cholesky factorisation of fl(A) - s I runs through, its computed
    factor R has R^H R = fl(A) - s I + F with |F| <= gw |R^H| |R| entrywise
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 10.3).  R keeps the band and zero terms add no rounding, so every
    inner product has at most min(d, m) + 1 nonzero terms and
    gw = 4 (min(d, m) + 10) u, complex arithmetic included.  F has the same
    band and |r_k|^2 <= p_kk / (1 - gw), so |F|_2 <= gw / (1 - gw) tail,
    and shifting the diagonal adds u tail at most.  With the band error,

        lambda_min(A) >= s - margin,    margin = (2 gw + err) spread,

    for a Gram band, where spread = tail.

    A sweep works on windows of step + d rows, step = max(2d, 64), which
    overlap by d rows and are built from slices of the band, so no m x m
    matrix is formed.  Each window is factored by ``np.linalg.cholesky``;
    its first step rows are final, and the Schur complement A22 - L21 L21^H
    of its last d rows, formed with the final L21, replaces the first d
    rows and columns of the next window.  The factor is then the one of the
    whole matrix, with each inner product a_ij - sum_k r_ki conj(r_kj)
    split in two: the terms of earlier windows go through the Schur
    product, and the rest through the next window's factorisation.  Thm
    10.3 does not depend on the order of summation, so it holds with the
    one more rounding of the subtraction, which the 10 of gw covers.  A
    matrix of at most step + d rows is one window.  ``factors`` sweeps the
    whole matrix; ``negatives`` sweeps in from both ends and reads the
    inertia of what is left in the middle.
    """

    def __init__(self, band, err, spread=None, tail=None):
        self.gw = 4.0 * (min(band.shape[1] - 1, band.shape[0]) + 10) * _UNIT
        self.tail = _band_spread(band, err) if tail is None else tail
        self.spread = self.tail if spread is None else spread
        self.margin = (2.0 * self.gw + err) * self.spread
        self.band = band

    def _sweep(self, band, shift, rows):
        """The Schur complement of the last d of the leading ``rows`` rows of fl(A) - shift I.

        Factors the rows before them window by window; None when a window
        is not positive definite.
        """
        d = band.shape[1] - 1
        step = max(2 * d, 64)
        start = 0
        schur = np.zeros((0, 0), complex)
        while True:
            stop = min(start + step + d, rows)
            window = _dense_hermitian(band[start:stop], shift)
            window[: len(schur), : len(schur)] = schur
            try:
                low = np.linalg.cholesky(window)
            except np.linalg.LinAlgError:
                return None
            done = max(stop - start - d, 0) if stop == rows else step
            l21 = low[done:, max(done - d, 0) : done]
            schur = window[done:, done:] - l21 @ l21.conj().T
            if stop == rows:
                return schur
            start += step

    def factors(self, shift):
        """Whether the Cholesky factorisation of fl(A) - shift I runs through."""
        return self._sweep(self.band, shift, self.band.shape[0]) is not None

    def negatives(self, shift, twist, upper):
        """An upper (``upper``) or a lower bound on the negative eigenvalues of A - shift I.

        Needs shift >= 0.  A twisted factorisation of fl(A) - s I, with
        s = shift + delta for the upper bound and shift - delta for the
        lower one: the middle window of 2d rows is placed around row
        ``twist`` and clipped to the matrix, rows lo to hi.  Cholesky sweeps
        factor the rows above it and the rows below it.  The bottom sweep
        runs on the reversed trailing block J A[hi - d:, hi - d:] J, J the
        reversal: the band of A[hi - d:, hi - d:] is the last size - hi + d
        rows of the band, the only ones this sweep reads, and ``_flip`` of
        them upside down is the band of the reversed block.  The Schur
        complements of the two sweeps replace the first and last d rows and
        columns of the middle window, and the top and bottom rows are not
        coupled.  If both sweeps run through, the top and bottom blocks of
        fl(A) - s I + F are positive definite, F the backward error of the
        sweeps, so by Haynsworth's inertia additivity its negative eigenvalues
        are those of the Schur complement of the middle window, which
        ``_eigen_inertia`` bounds.

        F is the gw |R^H| |R| of Thm 10.3 on the swept rows, and on the
        middle's corners the rounding of the Schur products,
        gw (|a_ij| + sum_k |r_ki| |r_kj|) with |a_ij| <= (1 + err) p_ij.  The
        diagonal of fl(A) - s I is at most p_kk (1 + err) + delta, so
        |F|_2 <= gw ((1 + err) spread + tail) to first order, and the rest,
        the shift's rounding and (2d + 1) gw delta, is below the slack of
        gw (spread + tail) in

            delta = margin + 2 gw tail.

        Then |fl(A) - s I + F - (A - s I)|_2 <= delta, and by Weyl the count
        of fl(A) - (shift + delta) I + F bounds that of A - shift I from
        above, and the count of fl(A) - (shift - delta) I + F from below.
        None when a sweep fails.
        """
        size, width = self.band.shape
        d = width - 1
        delta = self.margin + 2.0 * self.gw * self.tail
        shift = shift + delta if upper else shift - delta
        lo = min(max(twist - d, 0), max(size - 2 * d, 0))
        hi = min(lo + 2 * d, size)
        middle = _dense_hermitian(self.band[lo:hi], shift=shift)
        if lo > 0:
            top = self._sweep(self.band, shift, lo + d)
            if top is None:
                return None
            middle[:d, :d] = top
        if hi < size:
            bottom = self._sweep(_flip(self.band[hi - d :][::-1]), shift, size - hi + d)
            if bottom is None:
                return None
            middle[hi - lo - d :, hi - lo - d :] = bottom[::-1, ::-1]
        return _eigen_inertia(middle, upper)


def _eigen_inertia(mat, upper):
    """An upper (``upper``) or a lower bound on the negative eigenvalues of the Hermitian ``mat``.

    With j the number of negative eigenvalues that ``np.linalg.eigh``
    computes, V its eigenvectors and T = V^H mat V: if T is positive
    definite on its last k - j rows and columns, mat is positive definite
    on the span of the last k - j columns of V and has at most j negative
    eigenvalues; if T is negative definite on its first j, mat has at least
    j (Courant-Fischer; no orthogonality of V is needed).  Gershgorin's
    theorem decides on the computed T, each of whose entries is within
    g (|V|^H |mat| |V|)_il of the exact one, g = gamma_{4k+8} for order k:
    two complex products of k terms, with the nonnegative product itself
    computed in floating point and widened by g, and g more for the sums of
    the discs.  Where the test fails the trivial bound, k or 0, stands.
    """
    lam, vec = np.linalg.eigh(mat)
    k, j = len(lam), int(np.sum(lam < 0))
    g = _gamma(4 * k + 8)
    ritz = vec.conj().T @ (mat @ vec)
    err = g * (1.0 + g) * (np.abs(vec).T @ (np.abs(mat) @ np.abs(vec)))
    block = slice(j, k) if upper else slice(0, j)
    off = (np.abs(ritz) + err)[block, block]
    # the radius of each disc and the error of its centre
    reach = (np.sum(off, axis=1) - np.diagonal(off) + np.diagonal(err[block, block])) * (1.0 + g)
    centre = ritz.diagonal()[block].real
    if upper:
        return j if np.all(centre > reach) else k
    return j if np.all(centre < -reach) else 0


def _pencil_band(gram, s, w, t):
    """The band of M = A_w - t^2 G, A_w = B_w^H G B_w, in the layout of G, half-width d + 1.

    ``gram`` is the band of G (``_gram_band``), s the shift weights and
    B_w = S^H - conj(w) I, upper bidiagonal with diagonal -conj(w) and
    superdiagonal s.  With s_-1 = 0 and s_k = 0 from k = m - 1 on,

        A[i, j] = |w|^2 G[i, j] - w s_{j-1} G[i, j-1] - conj(w) s_{i-1} G[i-1, j]
                  + s_{i-1} s_{j-1} G[i-1, j-1],

    read for i = l + o, j = l from the band of G and the same band one row
    up.  Four products of at most three factors and the t^2 term keep every
    entry within ``_band_error(d)`` + gamma_16 of its exact value, relative
    to the same sum over |B_w|^H |M| |M|^H |B_w| + t^2 |M| |M|^H, with the
    shift weights within gamma_2 of the exact ones.
    """
    m, width = gram.shape
    cur = np.pad(gram, ((0, 0), (0, 2)))
    prev = np.pad(cur[:-1], ((1, 0), (0, 0)))
    # s_{l-1} and s_{l+o-1} for offsets o = 0..d+1
    weights = np.concatenate([[0.0], s, np.zeros(width + 1)])
    left = weights[:m, None]
    right = sliding_window_view(weights, width + 1)[:m]
    # G[l + o - 1, l]: G[l - 1, l] = conj(G[l, l - 1]) at o = 0
    above = np.concatenate([prev[:, 1:2].conj(), cur[:, :width]], axis=1)
    here = cur[:, : width + 1]
    return (abs(w) ** 2 * here - w * left * prev[:, 1:] - np.conj(w) * right * above
            + right * left * prev[:, : width + 1] - t * t * here)


def _frame_points(w, radius=0.7):
    """Whether ``w`` is a single point, and its points as a 1-D complex array.

    The kernel vector's tail is geometric in |w|, so points must satisfy
    |w| <= ``radius``.
    """
    points = np.asarray(w, complex).ravel()
    if np.any(np.abs(points) > radius):
        raise ValueError(f"truncation error grows near the boundary; need |w| <= {radius}")
    return np.ndim(w) == 0, points


def _log_kernel_vector(s, aw):
    """log |x_k| less its largest value, one row per radius in ``aw``.

    |x_k| = |w|^k / |z^k| follows |x_{k+1}| = |x_k| |w| / s_k with the shift
    weights s, summed in log space, so no monomial norm is formed; at w = 0
    every entry past the first is -inf.
    """
    with np.errstate(divide="ignore"):
        steps = np.log(aw)[:, None] - np.log(s)
    log_x = np.concatenate([np.zeros((len(aw), 1)), np.cumsum(steps, axis=1)], axis=1)
    return log_x - np.max(log_x, axis=1, keepdims=True)


def oracle_curvature(spec, z, n=DEFAULT_DEGREE):
    """Curvature of the eigenvector frame of the quotient truncated at degree n.

    The truncated quotient is the range of N = [M2^H; -M1^H] for the
    P_n-truncated multiplier, and p = N x, with x_k = conj(w)^k / |z^k| the
    kernel vector, is its frame at w: anti-holomorphic in w, and an
    eigenvector of the compressed adjoint shift up to
    ``eigenvector_residual``.  The curvature of the line bundle it spans
    (Cowen & Douglas, Acta Math. 141, 1978) is

        K(w) = -(a b - |c|^2) / a^2,    a = |p|^2, b = |p'|^2, c = p^H p',

    with p' = N x' and x' = dx / d conj(w); a, b and c equal x^H G x,
    x'^H G x' and x^H G x' for G = N^H N.  N is that of the cleared
    numerators P1 and P2, whose quotient is that of theta: its frame at w
    is the exact one times conj(Q(w)), which leaves K unchanged.  p and p'
    come from partial sums of the coefficients of P and P'
    (``_range_vectors``), so no theta value, kernel value or finite
    difference enters, and the identity behind ``quotient_curvature`` is
    never used.  x is scaled per point in log space; the scale is the same
    for x and x', and cancels.

    ``CURVATURE_TOL`` = 1e-8 bounds |K - quotient_curvature| / (1 + |K|)
    where the kernel vector's mass beyond degree n is negligible.  Its
    budget:
    - rounding: the entries of x, and so of p and p', are within
      gamma_{4n+32} (T + 2n + 2) of their exact values relatively, T as
      in ``_kernel_frame``, a bound of 1e-10 at n = 300 and |w| = 0.7 on
      Hardy, where 1e-14 is observed on the benchmark corpus; a, b and c,
      sums of 2 (n + 1) terms, add gamma_{2n+2}, and a b - |c|^2 loses the
      factor a b / (a b - |c|^2) to cancellation;
    - the coefficients of P1 and P2: exact for a polynomial pair; for a
      rational one, each is a sum of at most k + 1 products of a numerator
      and a denominator coefficient, k the smaller of their degrees, and
      lies within gamma_{k+3} of its exact value relative to the same sum
      over the moduli, the second table of ``MultiplierPair._cleared``.
    theta itself is not truncated: P1 and P2 are polynomials and enter
    whole.  The analytic side carries no error bound of its own: near a
    factor such as (2 + z)^k its Horner evaluation loses digits, 3e-10 at
    k = 26.  What exceeds the budget is truncation, a degree too small for
    the base.

    ``z`` is a point (returns a float) or an array of points with
    |z| <= 0.7 (returns an array of its shape).
    """
    _require(spec, n)
    scalar, points = _frame_points(z)
    table = _numerators(spec.theta)
    _, _, p, dp = _range_vectors(table, shift_weights(spec.base, n), points)
    a = np.sum(np.abs(p) ** 2, axis=1)
    b = np.sum(np.abs(dp) ** 2, axis=1)
    c = np.sum(p.conj() * dp, axis=1)
    curv = -(a * b - np.abs(c) ** 2) / a**2
    return float(curv[0]) if scalar else curv.reshape(np.shape(z))


def eigenvector_residual(spec, w, n=DEFAULT_DEGREE):
    """Relative residual of the truncated section under the adjoint shift.

    |(M_z (x) I)* gamma - conj(w) gamma| / |gamma| at truncation degree n,
    for gamma_w = (conj(theta2(w)) x, -conj(theta1(w)) x) and the kernel
    vector x_k = conj(w)^k / |z^k|.  S^H x = conj(w) x except in the last
    entry, which S^H drops, so the residual is

        |w| |x_n| / |x|,

    theta cancels, and what this measures is the truncation tail of the
    base's kernel vector at w, not the module.  It is exactly zero at w = 0
    and geometrically small in n for |w| <= 0.7.  |x_k| comes from
    ``_log_kernel_vector``, normalised by its largest entry, so a large
    weight alpha neither underflows nor overflows.  The logs sum to at
    most T = n |log |w|| + sum_k |log s_k| in modulus, and the result is
    within gamma_{4n+32} (T + n + 2) of the exact residual, relatively, the
    rounding of the shift weights included.  ``w`` is a point (returns a
    float) or a sequence of points (returns an array).
    """
    _require(spec, n)
    scalar, points = _frame_points(w)
    aw = np.abs(points)
    x = np.exp(_log_kernel_vector(shift_weights(spec.base, n), aw))
    res = aw * x[:, -1] / np.linalg.norm(x, axis=1)
    return float(res[0]) if scalar else res


@dataclass(frozen=True)
class MultiplierBound:
    """Outcome of ``multiplier_lower_bound``.

    ``ok`` means sigma_min(M)^2 >= target - slack > 0 is proved for the
    truncated multiplier M of the cleared numerators (P1, P2), with target
    the corona certificate's bound on |P1|^2 + |P2|^2 (``cleared_epsilon``);
    epsilon is its bound on |theta1|^2 + |theta2|^2.  When ``ok`` is false,
    target <= slack means the bound is unproved, and target > slack that the
    Cholesky factorisation of H - target I failed.
    """

    epsilon: float
    target: float
    slack: float
    ok: bool


def multiplier_lower_bound(spec, n=DEFAULT_DEGREE):
    """Prove sigma_min(M)^2 >= target - slack with one shifted Cholesky.

    M is the multiplier f -> (P1 f, P2 f) of the cleared numerators
    (``_numerators``) from degree dom = max(n - d, n // 4, 1) into degree
    dom + d, d their degree, so every product is kept.  The floor n // 4
    keeps a real truncation when d is close to n: over span{1, z} alone, a
    certificate 20% above the operator's bound passes.  For Hardy and every
    weighted Bergman space, |f|^2 is integrated against a positive measure,
    so the certified |P1|^2 + |P2|^2 >= target of the corona certificate
    (``CoronaCertificate.cleared_epsilon``) gives |P f|^2 >= target |f|^2,
    and sigma_min(M)^2 >= target.  M_P = M_theta M_Q with Q = q1 q2
    zero-free on the closed disk, so M_Q is invertible and closed range of
    M_P is closed range of M_theta; the bound on M_P is the one proved.  The
    computed coefficients of P1 and P2 are taken as stored, as everywhere
    in the oracle.

    ``_gram_band`` gives H = M^H M reversed: the band of J H J, J the
    reversal, in the layout of G, each entry within err = ``_band_error(d)``
    of the exact one.  J H J has the eigenvalues of H, and its largest
    diagonal entry, d and order are those of H, so the margin of
    ``_BandCholesky`` is the same for both.  One Cholesky factorisation of
    fl(J H J) - target I proves lambda_min(H) >= target - slack, with slack
    that margin.  The check is ok when the factorisation runs through and
    target > slack.  A certificate that claims more than the operator allows
    fails it.
    """
    _require(spec, n)
    table = _numerators(spec.theta)
    d = table.shape[1] - 1
    dom = max(n - d, n // 4, 1)
    band = _gram_band(table, spec.base, dom + d, dom + 1, columns=True)
    target = float(spec.certificate.cleared_epsilon)
    chol = _BandCholesky(band, _band_error(d))
    ok = target > chol.margin and chol.factors(target)
    return MultiplierBound(
        epsilon=float(spec.certificate.epsilon), target=target, slack=float(chol.margin),
        ok=bool(ok),
    )


def dim_ker_estimate(spec, w, n=DEFAULT_DEGREE, gap_tol=1e-4):
    """Kernel dimension of the compressed (shift - w) adjoint at truncation scale.

    Compresses the doubled shift S2 = S (+) S to the orthogonal complement of
    the (ambient-aligned) truncated multiplication range: columns
    P_n(theta z^k) for every k <= n, so the complement models the quotient
    with no seam of forgotten range directions even when the degree d of
    the cleared numerators P1 and P2 (``_numerators``), which stand for
    theta, is comparable to n.  With the truncated multiplier
    M = [M1; M2], M_i = D T_i D^-1 with T_i lower triangular Toeplitz and D
    the monomial norms, the blocks commute, so the columns of
    N = [M2^H; -M1^H] lie in ker M^H, and they span it when G = N^H N is
    positive definite.  The compression is C = Q^H S2^H Q for an
    orthonormal basis Q of the range of N, of order m = n + 1, and the count
    is the number of singular values of C_w = C - conj(w) I below gap_tol
    sigma_1(C_w).  ``gap_tol`` must lie in the open interval (0, 1).

    Every claim is about the exact truncated operator of the stored
    coefficients of P1 and P2: N and the shift weights s of S built from
    exact monomial norms.  M1 and M2 are polynomials in S, so S2^H N = N S^H, and with
    N = Q R, R^H R = G and the bidiagonal B_w = S^H - conj(w) I,

        C_w = R B_w R^-1.

    No Q is formed: G comes as a band from those coefficients
    (``_gram_band``), built once per call, and two routes count:
    1. bounds on the singular values (``_gram_bounds``) settle the expected
       count of 1 at every point of a call with one Cholesky factorisation
       of the band G; they leave a point open where G is ill-conditioned;
    2. at the points left open, the inertia of the band pencil counts.
       C_w^H C_w = R^-H A_w R^-1 with A_w = B_w^H G B_w, a band of
       half-width d + 1 (``_pencil_band``), so by Sylvester's law of
       inertia the number of singular values below t is the number of
       negative eigenvalues of M_w(t) = A_w - t^2 G (Parlett, The Symmetric
       Eigenvalue Problem, Sec. 3), read from a twisted factorisation of
       the band (``_BandCholesky.negatives``).
    Route 2 needs G positive definite: one more Cholesky factorisation
    proves lambda_min(G) >= margin > 0.  When it fails, NoSpectralGap is
    raised and names G[0, 0] = |P1(0)|^2 + |P2(0)|^2, which is
    |theta1(0)|^2 + |theta2(0)|^2 as q1(0) = q2(0) = 1, and the margin: N
    is rank-deficient where G[0, 0] <= 2 margin, as theta1(0) and
    theta2(0) nearly vanish; otherwise G is too ill-conditioned to prove
    positive definite in double precision.

    The count rule.  With hi >= sigma_1(C_w) >= lo from route 1,
    t_hi = gap_tol hi and t_lo = gap_tol lo, the count is
    neg(M_w(t_hi) - delta I) when that equals neg(M_w(t_lo / 10) + delta I),
    with delta the rounding margin below; NoSpectralGap otherwise, naming
    both counts.  By Weyl the first is an upper bound on the exact number of
    singular values below t_hi and the second a lower bound on the number
    below t_lo / 10.  Where route 1's r >= sigma_m(C_w) is below t_lo / 10,
    at least one singular value is, and the lower count is at least 1, also
    when its factorisation fails.  neg(M_w(t)) grows with t as G is
    positive definite, so when the counts agree no singular value lies in
    [gap_tol lo / 10, gap_tol hi).  That interval holds
    [gap_tol sigma_1 / 10, gap_tol sigma_1], so the count is the
    number below gap_tol sigma_1 and a factor-10 gap separates them from the
    rest: the rule implies the factor-10 gap rule on the singular values
    and is stricter than it, since the empty interval must reach from
    gap_tol lo / 10 to gap_tol hi.  A threshold inside the rounding margin
    is refused: at gap_tol = 1e-60 the two counts differ at every point,
    and NoSpectralGap is raised where singular values would be read below
    rounding.

    Route 1.  For tau <= lambda_min(G) and Lam >= |G|_2,

        sigma_{m-1}(C_w) >= beta_w sqrt(tau / Lam).

    Here beta_w <= sigma_{m-1}(B_w): deleting a row and a column does not
    raise sigma_{m-1}, B_w[:m-1, 1:] = L is lower bidiagonal with diagonal s
    and off-diagonal -conj(w), and beta_w = 1 / sqrt(|L^-1|_1 |L^-1|_inf),
    whose row and column sums follow O(m) recurrences, run for all points at
    once in log space (``_bidiagonal_beta``).  Lam is taken from
    |G|_1 >= |G|_2.  The other singular values are bounded at O(m + d) cost
    per point:
    - hi = max(s) + |w| >= sigma_1(C_w), since |C|_2 <= |S2|_2;
    - lo = |Z|_F / |N|_F <= sigma_1(C_w) with Z = (S2^H - conj(w)) N,
      because C_w R = Q^H Z and Z = N B_w lies in the range of Q;
      |Z|_F^2 = a + |w|^2 b - 2 Re(w c) from three scalars,
      a = |M S|_F^2 = |S2^H N|_F^2, b = |M|_F^2 = |N|_F^2 = trace G and
      c = <N, S2^H N> = <M S, M>.  The P_n-truncated blocks are
      polynomials in S, so M S = S2 M, and with
      S^H S = diag(s_0^2, ..., s_{n-1}^2, 0) these are traces against G:
      a = sum_k s_k^2 G[k, k] and c = sum_k s_k G[k + 1, k], read from
      the diagonal and first off-diagonal of the band G (``_shift_traces``;
      c = 0 when d = 0);
    - r = |(S2^H - conj(w)) p| / |p| >= sigma_m(C_w) for p = N x, with
      x_k = conj(w)^k / nu_k the kernel vector (any x would do), since
      p = Q (R x) and |R x| = |p|; p comes from partial sums,
      (x^H M_i)_l = conj(x_l) sum_{t <= n - l} c_{i,t} w^t.
    A point is settled when r < gap_tol lo and the sigma_{m-1} bound
    exceeds t = max(gap_tol hi, GAP_FACTOR r): the count is then 1, and the
    factor-10 gap holds.  tau is proved by one Cholesky factorisation of
    G - sigma I.  sigma is the tau that the hardest point needs, 1% over,
    plus the rounding margin below.  Points that need more than the
    smallest diagonal entry of G are left open, and so are all points when
    the factorisation fails.

    Rounding margins of route 1, with u the unit roundoff, gamma_k = k u /
    (1 - k u), gn = gamma_{4m+8} for a sum of at most 4m real terms (the
    norms of vectors of length 2m) and d the degree of P1 and P2:
    - the shift weights: each is within e_s = gamma_2 of its exact value;
      with the computed ones, hi takes max(s) (1 + e_s), r's numerator
      e_s max(s) |p| more, and beta, a bound for the bidiagonal of the
      computed weights, is lowered by e_s max(s) (1 + e_s), the 2-norm
      distance to the exact bidiagonal;
    - the bands: every entry is within gamma_{16(d+2)} (``_band_error``)
      of its exact value relative to the same sum over |c|.  With the
      computed weights, err = gamma_{16(d+2)} + e_s + gamma_{4m} bounds the
      relative error of a, b and c (of c against sqrt(a b)): a diagonal
      entry G[k, k] equals its sum over |c|, and by Cauchy-Schwarz that of
      G[k + 1, k] is at most sqrt(G[k + 1, k + 1] G[k, k]), while
      sum_k s_k sqrt(G[k + 1, k + 1] G[k, k]) <= sqrt(a b); and
      |G_band - G|_2 <= err spread, where spread (``_band_spread``) bounds
      the 2-norm of |M| |M|^H: a band of half-width d whose entries are at
      most the largest diagonal one;
    - Lam = |G_band|_1 (1 + gn) + err spread, with |G_band|_1 summed from
      the band, at most min(2d + 1, m) terms per column;
    - the Cholesky factorisation of fl(G_band) - sigma I proves
      tau = sigma - margin, with the margin of ``_BandCholesky``;
    - |Z|_F: the formula is off by at most 4 err (sqrt(a) + |w| sqrt(b))^2
      before the square root, which is subtracted;
    - r: x, scaled per point (which leaves r unchanged), is within
      e_x = gamma_{4n+32} (T + 2n + 2) of the exact kernel vector times
      its scale, relatively (``_kernel_frame``), and the partial sums take
      4d + 10 roundings more, so the computed p is within
      dp = (gamma_{8(m+d+2)} + e_x) |x| (sum_i (sum_t |c_{i,t}| |w|^t)^2)^(1/2)
      of N x; hi times dp goes to the numerator and dp is taken off the
      denominator; applying the shift adds 4 u hi |p|, and the norms gn;
    - beta: with T = sum_k |log s_k| + n |log max(|w|, u)|, every log-space
      quantity of ``_bidiagonal_beta`` (the partial sums C_i, the terms
      i log |w|, the accumulated log-sum-exp) is at most T + log(n + 1) in
      modulus.  Taking log, exp and log1p within 4 ulps, the partial sums
      are within gamma_{n+6} T of the exact ones, each of the n steps of
      ``np.logaddexp.accumulate`` adds at most gamma_4 (2 T + log(n + 1) + 1),
      and the log of each peak is off by at most gamma_{6n+16}
      (2 T + log(n + 1) + 1) in all; half the sum of the two goes into the
      exponent.  So beta is taken down by
      gb = gamma_{16n+32} (T + log(n + 1) + 1) + gamma_8, the last term for
      exp and the product.
    The remaining one- to four-rounding steps (hi, t, the comparisons) are
    widened by 4u to 8u.

    Rounding margin of route 2 (``_pencil_count``).  The computed band of
    M_w(t) is within e1 = gamma_{16(d+2)} + gamma_16 of the exact one
    (``_pencil_band``), relative to
    P = |B_w|^H |M| |M|^H |B_w| + t^2 |M| |M|^H, a sum of two Gram matrices,
    so p_kl <= sqrt(p_kk p_ll).  Column k of |B_w| holds |w| and s_{k-1},
    so |B_w|_2 <= hi and p_kk <= (hi^2 + t^2) G_kk.  The margin of the
    twisted factorisation (``_BandCholesky.negatives``) takes two bounds on
    P, each with the factor (hi^2 + t^2):
    - spread >= |P|_2 from |M| |M|^H, whose 2-norm is at most
      |M|_1 |M|_inf of the entrywise |M|: a column or a row of a block
      sums |c_{i,t}| against ratios of monomial norms, which are at most 1,
      so this is sum_{i,t} |c_{i,t}| max_i sum_t |c_{i,t}|, or
      ``_band_spread`` of G where that is smaller;
    - tail = min(2d + 3, m) max_k G_kk (1 + err), for the Cholesky
      factors, whose rows obey |r_k|^2 <= p_kk, over a band of half-width
      d + 1.
    For a band of slowly decaying coefficients the first is far below the
    second.  Then delta = (2 gw + e1) spread + 2 gw tail, gw that of the
    band of half-width d + 1, covers the band error and the backward error
    of the sweeps, and by Weyl the count read at t_hi with fl(M) - delta I is
    an upper bound on neg(M_w(t_hi)), and the one read at t_lo / 10 with
    fl(M) + delta I a lower bound on neg(M_w(t_lo / 10)).  The middle window
    is placed at the peak of |x_k| (``_log_kernel_vector``), where the
    kernel vector, the direction of the smallest singular value, has its
    mass: it grows over the rows above and decays over the rows below, so
    the swept blocks stay positive definite.  At |w| = 0.6 and alpha 300
    the peak is near degree (alpha + 1) |w|^2 / (1 - |w|^2), about 169.

    ``w`` is a point (returns an int) or a sequence of points (returns a list
    of ints).
    """
    _require(spec, n, MIN_DEGREE)
    if not 0.0 < gap_tol < 1.0:
        raise ValueError(f"gap_tol must lie strictly between 0 and 1, got {gap_tol!r}")
    scalar, points = _frame_points(w, 0.6)

    table = _numerators(spec.theta)
    s = shift_weights(spec.base, n)
    gram = _gram_band(table, spec.base, n, n + 1)
    bounds = _gram_bounds(table, spec.base, gram, s, points, gap_tol)
    counts = [1] * len(points)
    opened = np.flatnonzero(~bounds.settled)
    if opened.size:
        chol = _BandCholesky(gram, _band_error(table.shape[1] - 1))
        if not chol.factors(2.0 * chol.margin):
            corner = float(gram[0, 0].real)
            cause = (f"N is rank-deficient at degree {n}, as theta1(0) and theta2(0) nearly vanish"
                     if corner <= 2.0 * chol.margin else
                     f"G = N^H N at degree {n} is too ill-conditioned to prove positive definite "
                     f"in double precision")
            raise NoSpectralGap(f"{cause}: G[0, 0] = {corner:.3e} against a margin of "
                                f"{chol.margin:.3e}")
        twists = np.argmax(_log_kernel_vector(s, np.abs(points[opened])), axis=1)
        for i, twist in zip(opened, twists):
            counts[i] = _pencil_count(table, gram, s, points[i], bounds.hi[i], bounds.lo[i],
                                      bounds.r[i], gap_tol, int(twist))
    return counts[0] if scalar else counts


def _pencil_count(table, gram, s, w, hi, lo, r, gap_tol, twist):
    """Route 2 of ``dim_ker_estimate`` at one point: the count rule on the band pencil.

    ``table`` holds the coefficients of P1 and P2, ``gram`` is the band of
    G, s the shift weights, hi and lo bound sigma_1 and r bounds sigma_m as
    route 1 takes them, and ``twist`` is the row of the middle window; the
    thresholds, the margin and the use of r are the ones stated in
    ``dim_ker_estimate``.
    """
    t_hi, t_lo = gap_tol * hi, gap_tol * max(lo, 0.0) / GAP_FACTOR
    m, width = gram.shape
    err = _band_error(width - 1)
    peak = float(np.max(gram[:, 0].real)) * (1.0 + err)
    # |M| |M|^H has 2-norm at most |M|_1 |M|_inf of the entrywise |M|
    sums = np.sum(np.abs(table), axis=1) * (1.0 + _gamma(width + 2))
    norm = min(_band_spread(gram, err), float(np.sum(sums) * np.max(sums)))
    found = []
    for t, upper in ((t_hi, True), (t_lo, False)):
        scale = (hi * hi + t * t) * (1.0 + _gamma(4))
        chol = _BandCholesky(
            _pencil_band(gram, s, w, t), err + _gamma(16),
            spread=scale * norm, tail=scale * min(2 * width + 1, m) * peak,
        )
        found.append(chol.negatives(0.0, twist, upper))
    upper, lower = found
    if r < t_lo:
        lower = max(lower or 0, 1)
    if upper is None or upper != lower:
        told = ["an unresolved number of singular values" if c is None else
                f"{c} singular value" + "s" * (c != 1) for c in (lower, upper)]
        raise NoSpectralGap(
            f"no spectral gap at w = {complex(w):.6g}: the band pencil counts {told[0]} "
            f"below {t_lo:.3e} and {told[1]} below {t_hi:.3e}; either the truncation "
            f"degree {m - 1} is too small, or G = N^H N is too ill-conditioned to prove "
            f"the count in double precision"
        )
    return upper


def _bidiagonal_beta(s, aw):
    """beta = 1 / sqrt(|L^-1|_1 |L^-1|_inf) for every radius in ``aw``, with its rounding bound.

    L is lower bidiagonal with diagonal s and off-diagonal of modulus
    aw = |w|.  The row sums of |L^-1| follow R_i = (1 + aw R_{i-1}) / s_i,
    R_{-1} = 0, and with s reversed the same recurrence gives the column
    sums.  Its closed form R_i = sum_{j <= i} aw^(i-j) / prod_{k=j..i} s_k
    runs in log space over all radii at once: with C_i = sum_{k <= i} log s_k,

        log R_i = i log aw - C_i + logsumexp_{j <= i} (C_{j-1} - j log aw),

    the last term from one ``np.logaddexp.accumulate``, so large weights
    alpha and long recurrences neither overflow nor underflow.  R grows
    with aw, so a radius below u is taken as u, which only raises the sums.
    Returns beta and gb, the relative amount by which beta must be taken
    down (see ``dim_ker_estimate``).
    """
    n = s.size
    steps = np.arange(n)
    log_s = np.log(np.stack([s, s[::-1]]))[:, None, :]
    log_aw = np.log(np.maximum(aw, _UNIT))[None, :, None]
    cum = np.cumsum(log_s, axis=2)
    before = np.concatenate([np.zeros_like(cum[..., :1]), cum[..., :-1]], axis=2)
    acc = np.logaddexp.accumulate(before - steps * log_aw, axis=2)
    log_peaks = np.max(steps * log_aw - cum + acc, axis=2)
    beta = np.exp(-0.5 * (log_peaks[0] + log_peaks[1]))
    # every log-space quantity is at most scale in modulus
    scale = np.sum(np.abs(log_s[0])) + n * np.abs(log_aw[0, :, 0]) + np.log(n + 1.0) + 1.0
    return beta, _gamma(16 * n + 32) * scale + _gamma(8)


def _kernel_frame(table, s, points):
    """x, the powers w^t, their partial sums and p = N x, one row per point.

    x is the kernel vector, the powers run over t <= d, d the degree of the
    polynomials in ``table``, and the partial sums and N are those of
    ``_partial_sums``.  x_k = conj(w)^k / nu_k, with nu_k = |z^k| and
    k <= n = s.size, is its modulus from ``_log_kernel_vector``, scaled per
    point by exp(-max_k log |x_k|), times the phase (conj(w) / |w|)^k, a
    running product.  With T = n |log |w|| + sum_k |log s_k| (T without its
    first term at w = 0, where x = e_0 exactly), every entry of x is within
    gamma_{4n+32} (T + 2n + 2) of the exact kernel vector times that scale,
    relatively: the logs, their running sum, the exponential and the k
    products of the phase; an entry that underflows is off by at most
    2^-1074, against |x| >= 1.
    """
    x = np.exp(_log_kernel_vector(s, np.abs(points))).astype(complex)
    x *= _powers(np.exp(-1j * np.angle(points)), s.size)
    powers = _powers(points, table.shape[1] - 1)
    sums = _partial_sums(table, powers, s.size)
    return x, powers, sums, np.concatenate([x * sums[1], -(x * sums[0])], axis=1)


def _partial_sums(table, powers, n):
    """conj(sum_{t <= n - l} c_{i,t} powers[:, t]) for l = 0..n, one block per component.

    One row per point.  With the kernel vector x and the powers w^t of
    ``_kernel_frame``, N = [M2^H; -M1^H] for the P_n-truncated multiplier
    gives N x from them: (M_i^H x)_l = x_l conj(sum_{t <= n - l} c_{i,t} w^t).
    """
    cut = np.minimum(n - np.arange(n + 1), table.shape[1] - 1)
    return np.cumsum(table[:, None, :] * powers, axis=2)[:, :, cut].conj()


def _range_vectors(table, s, points):
    """The kernel vector x, x' = dx / d conj(w), p = N x and p' its derivative, one row per point.

    x and p as in ``_kernel_frame``; x'_k = k x_{k-1} / s_{k-1} has the
    scale of x.  The derivative of (M_i^H x)_l in conj(w) adds
    x_l conj(sum_{t <= n - l} t c_{i,t} w^(t-1)) to x'_l times the same
    partial sum.
    """
    n = s.size
    x, powers, sums, p = _kernel_frame(table, s, points)
    zero = np.zeros((len(points), 1))
    dx = np.concatenate([zero, x[:, :-1] * (np.arange(1, n + 1) / s)], axis=1)
    # t w^(t-1), the powers of theta'
    dpowers = np.concatenate([zero, np.arange(1, table.shape[1]) * powers[:, :-1]], axis=1)
    dsums = _partial_sums(table, dpowers, n)
    dp = np.concatenate([dx * sums[1] + x * dsums[1], -(dx * sums[0] + x * dsums[0])], axis=1)
    return x, dx, p, dp


def _shift_traces(gram, kind, s):
    """a = |M S|_F^2, b = |M|_F^2 and c = <M S, M> of route 1, traces against the band of G.

    The P_n-truncated blocks commute with the shift S (weights s), so
    a = tr(S^H S G) = sum_k s_k^2 G[k, k], b = tr G and
    c = tr(S^H G) = sum_k s_k G[k + 1, k], which is 0 when d = 0 and G is
    diagonal (see ``dim_ker_estimate``).
    """
    a = float(np.dot(_norm_ratios(kind, s.size), gram[:-1, 0].real))
    c = np.dot(s, gram[:-1, 1]) if gram.shape[1] > 1 else 0.0
    return a, float(np.sum(gram[:, 0].real)), c


# per-point bounds of route 1, one array entry per point: hi and lo bound
# sigma_1 of the compression C_w from above and below, r bounds sigma_m from
# above and floor bounds sigma_{m-1} from below (-inf where the Cholesky
# factorisation was not run or failed); settled marks the points whose count
# is proved to be 1
_GramBounds = namedtuple("_GramBounds", "hi lo r floor settled")


def _gram_bounds(table, kind, gram, s, points, gap_tol):
    """Route 1 of ``dim_ker_estimate``: bounds from G = N^H N and one Cholesky.

    ``table`` holds the coefficients of P1 and P2 (``_numerators``),
    ``kind`` is the base, ``gram`` the band of G, s the shift weights of the
    truncation degree and ``points`` a 1-D complex array; the inequalities
    and rounding margins are those stated in ``dim_ker_estimate``.
    """
    m = gram.shape[0]
    n = m - 1
    d = table.shape[1] - 1
    u = _UNIT
    gn = _gamma(4 * m + 8)
    # relative error of a shift weight, and that of the band entries and the
    # m-term sums a, b and c taken from them with the computed weights
    e_s = _gamma(2)
    err = _band_error(d) + e_s + _gamma(4 * m)

    a, b, c = _shift_traces(gram, kind, s)

    aw = np.abs(points)
    # the largest exact weight
    top = float(np.max(s)) * (1.0 + e_s)
    hi = (top + aw) * (1.0 + 4 * u)
    z2 = a + aw**2 * b - 2.0 * (points * c).real
    z2 -= 4.0 * err * (np.sqrt(a) + aw * np.sqrt(b)) ** 2
    lo = np.sqrt(np.maximum(z2, 0.0)) / np.sqrt(b * (1.0 + err)) * (1.0 - gn)

    x, _, _, pk = _kernel_frame(table, s, points)
    # (S2^H - conj(w)) p: S2^H moves entry k + 1 of each block to entry k,
    # weighted s_k
    resid = -np.conj(points)[:, None] * pk
    for base in (0, n + 1):
        resid[:, base : base + n] += s * pk[:, base + 1 : base + 1 + n]
    norm_p = np.linalg.norm(pk, axis=1)
    # the distance of the computed p to N x: x and the partial sums against
    # the sums of |c_{i,t}| |w|^t; e_x is the relative error of x stated in
    # _kernel_frame
    reach = np.linalg.norm(np.abs(table) @ (aw[None, :] ** np.arange(d + 1)[:, None]), axis=0)
    log_w = np.abs(np.log(np.where(aw > 0, aw, 1.0)))
    e_x = _gamma(4 * n + 32) * (n * log_w + np.sum(np.abs(np.log(s))) + 2 * n + 2)
    norm_x = np.linalg.norm(x, axis=1) * (1.0 + e_x) * (1.0 + gn)
    dp = (_gamma(8 * (m + d + 2)) + e_x) * reach * norm_x * (1.0 + gn)
    den = norm_p * (1.0 - gn) - dp
    num = np.linalg.norm(resid, axis=1) * (1.0 + gn) + hi * ((4 * u + e_s) * norm_p + dp)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(den > 0, num / den * (1.0 + 4 * u), np.inf)

    chol = _BandCholesky(gram, err)
    lam = _band_norm1(gram) * (1.0 + gn) + err * chol.spread
    cap = float(np.min(gram[:, 0].real)) - chol.margin
    beta, gb = _bidiagonal_beta(s, aw)
    slope = (beta * (1.0 - gb) - e_s * top * (1.0 + 4 * u)) / np.sqrt(lam)
    t = np.maximum(gap_tol * hi, GAP_FACTOR * r) * (1.0 + 4 * u)
    # the tau at which slope sqrt(tau) = t, 1% over; an infinite r or a
    # slope of 0 or below (overflowed sums) makes it infinite
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        need = np.where(slope > 0, 1.01 * (t / slope) ** 2, np.inf)
    candidates = (r < gap_tol * lo * (1.0 - 4 * u)) & (need < cap)
    floor = np.full(len(points), -np.inf)
    if np.any(candidates):
        tau = float(np.max(need[candidates]))
        if chol.factors((tau + chol.margin) * (1.0 + 4 * u)):
            floor = slope * np.sqrt(tau) * (1.0 - 8 * u)
    return _GramBounds(hi=hi, lo=lo, r=r, floor=floor, settled=candidates & (floor > t))
