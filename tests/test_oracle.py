"""Matrix-truncation oracle: shifts, multipliers, frame curvature, kernel counts."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import diskmod.oracle
from diskmod import (
    BERGMAN,
    HARDY,
    CoronaFailure,
    DepthExceeded,
    MultiplierPair,
    NoSpectralGap,
    Outcome,
    QuotientSpec,
    UncertifiedSpec,
    base_curvature,
    decide_equivalence,
    dim_ker_estimate,
    eigenvector_residual,
    kernel_eval,
    make_spec,
    multiplier_lower_bound,
    oracle_curvature,
    poly,
    quotient_curvature,
    rational,
    shift_weights,
    weighted_bergman,
)
from diskmod.cli import _verify_points
from diskmod.holofun import _UNIT, _gamma
from diskmod.oracle import (
    CURVATURE_TOL,
    _band_error,
    _band_norm1,
    _BandCholesky,
    _bidiagonal_beta,
    _band_spread,
    _dense_hermitian,
    _flip,
    _gram_band,
    _gram_bounds,
    _log_kernel_vector,
    _numerators,
    _pencil_band,
    _pencil_count,
    _range_vectors,
    _shift_traces,
)
from reference import (
    binomial_pair,
    build_shift,
    compressed,
    fd_laplacian,
    gamma_gram,
    gamma_section,
    monomial_norms_sq,
    multiplier_matrix,
    quotient_basis,
    svd_kernel_count,
)

PAIR_1Z = MultiplierPair(poly([1]), poly([0, 1]))


def _full_multiplier(pair, kind, n):
    # the multiplier from degree n into degree n + d, which keeps every product
    d = _numerators(pair).shape[1] - 1
    return multiplier_matrix(pair, kind, n, n + d)


def test_shift_hardy_subdiagonal():
    m = build_shift(HARDY, 2)
    assert np.array_equal(np.diag(m, -1), [1.0, 1.0])
    assert np.count_nonzero(m) == 2


def test_shift_bergman_subdiagonal():
    m = build_shift(BERGMAN, 2)
    assert np.allclose(np.diag(m, -1), [np.sqrt(1 / 2), np.sqrt(2 / 3)])


def test_shift_contractive():
    for kind in (HARDY, BERGMAN, weighted_bergman(0.7), weighted_bergman(3.0)):
        m = build_shift(kind, 40)
        assert np.linalg.norm(m, 2) <= 1.0 + 1e-12


def test_shift_matches_monomial_action():
    # S e_k must equal (|z^{k+1}|/|z^k|) e_{k+1}
    for kind in (HARDY, weighted_bergman(1.5)):
        m = build_shift(kind, 10)
        weights = shift_weights(kind, 10)
        for k in range(10):
            e = np.zeros(11)
            e[k] = 1.0
            out = m @ e
            assert out[k + 1] == weights[k]
            assert np.count_nonzero(out) == 1


def test_multiplier_1_0_blocks():
    pair = MultiplierPair(poly([1]), poly([0]))
    m = _full_multiplier(pair, HARDY, 3)
    top, bottom = np.split(m, 2)
    assert np.allclose(top, np.eye(4))
    assert np.count_nonzero(bottom) == 0


def test_multiplier_1z_hardy_blocks():
    m = _full_multiplier(PAIR_1Z, HARDY, 1).real
    cod = m.shape[0] // 2
    assert m.shape == (6, 2)
    assert np.allclose(m[:cod], [[1, 0], [0, 1], [0, 0]])
    assert np.allclose(m[cod:], [[0, 0], [1, 0], [0, 1]])


def test_multiplier_columns_evaluate_correctly():
    # reconstructing the image of e_k as a pair of polynomials and evaluating
    # must reproduce theta_i(z) * e_k(z)
    rng = np.random.default_rng(67)
    pair = MultiplierPair(poly([0.5, -1, 2]), poly([1j, 0, 0, 1]))
    for kind in (HARDY, BERGMAN):
        m = _full_multiplier(pair, kind, 4)
        cod = m.shape[0] // 2 - 1
        assert cod == 4 + 3
        norms = np.sqrt(monomial_norms_sq(kind, cod))
        for k in (0, 2, 4):
            col = m[:, k]
            c1 = col[: cod + 1] / norms
            c2 = col[cod + 1 :] / norms
            for _ in range(4):
                z = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                ek = z**k / norms[k]
                img1 = np.polynomial.polynomial.polyval(z, c1)
                img2 = np.polynomial.polynomial.polyval(z, c2)
                assert img1 == pytest.approx(pair.theta1(z) * ek, rel=1e-12)
                assert img2 == pytest.approx(pair.theta2(z) * ek, rel=1e-12)


def _multiplier_matrix_loop(coeffs, kind, n, cod):
    # reference: one slice assignment per nonzero coefficient
    norms = np.sqrt(monomial_norms_sq(kind, cod))
    m = np.zeros((len(coeffs) * (cod + 1), n + 1), complex)
    for block, comp in enumerate(coeffs):
        base = block * (cod + 1)
        for j, c in enumerate(comp[: cod + 1]):
            if c != 0:
                k = np.arange(min(n, cod - j) + 1)
                m[base + k + j, k] = c * norms[k + j] / norms[k]
    return m


@pytest.mark.parametrize("base", [HARDY, BERGMAN, weighted_bergman(1.5)])
def test_multiplier_matrix_matches_loop_reference(base):
    # same operations in the same order, so the arrays agree bit for bit
    pairs = (
        MultiplierPair(poly([0.5, -1, 2]), poly([1j, 0, 0, 1])),
        MultiplierPair(poly([-0.5, 1]), poly([1, 0.5])),
        MultiplierPair(rational([1], [1, 0.5]), poly([0, 1])),
        MultiplierPair(rational([1, 0.3j], [1, -0.4 + 0.2j]), rational([2], [1, 0.6])),
    )
    for pair in pairs:
        coeffs = _numerators(pair)
        d = coeffs.shape[1] - 1
        for n, cod in ((120, 120), (60, 60 + d), (5, 5 + d), (4, 2), (80, 100)):
            got = multiplier_matrix(pair, base, n, cod)
            ref = _multiplier_matrix_loop(coeffs, base, n, cod)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_numerators_are_the_cleared_rows_up_to_their_degree():
    # P1 = p1 q2 and P2 = p2 q1, read-only, without the columns that only Q
    # = q1 q2 fills; a polynomial pair enters with its own coefficients
    pair = MultiplierPair(rational([1], [1, 0.5]), rational([1], [1, -0.25]))
    table = _numerators(pair)
    assert table.tolist() == [[1, -0.25], [1, 0.5]]
    assert not table.flags.writeable
    assert pair._cleared[0].shape == (3, 3)
    assert _numerators(PAIR_1Z).tolist() == [[1, 0], [0, 1]]
    two_rational = MultiplierPair(rational([1, 0.3j], [1, -0.4 + 0.2j]), rational([2], [1, 0.6]))
    table = _numerators(two_rational)
    assert table.tolist() == [[1, 0.6 + 0.3j, 0.18j], [2, -0.8 + 0.4j, 0]]
    m = _full_multiplier(pair, HARDY, 5)
    # the codomain covers degree 5 + d, d = 1
    assert m.shape == (2 * (5 + 2), 6)
    assert m[:7, 0].tolist() == [1, -0.25, 0, 0, 0, 0, 0]


RATIONAL_COMPONENTS = (
    rational([1], [1, 0.5]),
    rational([1, 0.2], [1, -0.5]),
    rational([1, 0.3j], [1, -0.4 + 0.2j]),
    rational([2], [1, 0.6]),
    rational([1, 0.1], [1, -0.15]),
    rational([1], [1, 0, 0.25]),
)


def test_gamma_gram_single_point():
    s = make_spec(HARDY, PAIR_1Z)
    assert np.allclose(gamma_gram(s, [0]), [[1.0]])


def test_gamma_gram_diagonal_matches_section_norm(corpus):
    rng = np.random.default_rng(71)
    pts = 0.8 * np.sqrt(rng.uniform(size=5)) * np.exp(2j * np.pi * rng.uniform(size=5))
    for spec in corpus:
        g = gamma_gram(spec, pts)
        t1, t2 = spec.theta
        for i, w in enumerate(pts):
            expect = kernel_eval(spec.base, w, w).real * (
                abs(t1(w)) ** 2 + abs(t2(w)) ** 2
            )
            assert g[i, i].real == pytest.approx(expect, rel=1e-12)
            assert abs(g[i, i].imag) < 1e-14


def test_gamma_gram_positive_semidefinite():
    rng = np.random.default_rng(73)
    for spec_kind in (HARDY, BERGMAN, weighted_bergman(1.5)):
        s = make_spec(spec_kind, PAIR_1Z)
        for _ in range(20):
            pts = 0.9 * np.sqrt(rng.uniform(size=3)) * np.exp(
                2j * np.pi * rng.uniform(size=3)
            )
            g = gamma_gram(s, pts)
            assert np.allclose(g, g.conj().T)
            assert np.linalg.eigvalsh(g).min() >= -1e-10


def test_oracle_curvature_examples():
    s = make_spec(HARDY, PAIR_1Z)
    assert oracle_curvature(s, 0) == pytest.approx(-2.0, abs=1e-14)
    sc = make_spec(HARDY, MultiplierPair(poly([1]), poly([1])))
    assert oracle_curvature(sc, 0.3) == pytest.approx(base_curvature(HARDY, 0.3), rel=1e-14)
    sb = make_spec(BERGMAN, PAIR_1Z)
    assert oracle_curvature(sb, 0) == pytest.approx(-3.0, abs=1e-14)


def _exact_power(k):
    # (2 + z)^k: integer coefficients, exact in double precision for k <= 50
    coeffs = [1.0]
    for _ in range(k):
        coeffs = np.convolve(coeffs, [2.0, 1.0])
    return coeffs


# the points where verify compares the two curvatures: radii 0.1-0.7
FRAME_POINTS = _verify_points()
FRAME_SPECS = (
    # a rational component: the cleared numerators have degree 2
    (weighted_bergman(1.5), MultiplierPair(rational([1, 0.2], [1, -0.5]), poly([0, 0.4j, 0.1])), 1e-6),
    # ill-conditioned pairs: near common zero, and a tiny constant component
    (
        weighted_bergman(4.0),
        MultiplierPair(poly([-0.404508 - 0.293893j, 1]), poly([-0.405317016 - 0.294480786j, 1])),
        1e-12,
    ),
    (weighted_bergman(1.5), MultiplierPair(poly([-0.404508 - 0.293893j, 1]), poly([1e-4])), 1e-12),
    # a cancelling factor the analytic side evaluates to about 1e-12
    (HARDY, MultiplierPair(poly(_exact_power(16)), poly(np.r_[0.0, _exact_power(16)])), 1e-6),
)


def test_oracle_curvature_matches_identity_route(corpus):
    rng = np.random.default_rng(79)
    random_pts = 0.7 * np.sqrt(rng.uniform(size=6)) * np.exp(2j * np.pi * rng.uniform(size=6))
    pts = np.r_[FRAME_POINTS, random_pts, 0.0]
    specs = list(corpus) + [make_spec(b, pair, gap) for b, pair, gap in FRAME_SPECS]
    for spec in specs:
        a = quotient_curvature(spec, pts)
        for n in (120, 300):
            b = oracle_curvature(spec, pts, n)
            assert np.all(np.abs(a - b) <= CURVATURE_TOL * (1 + np.abs(a)))


def test_oracle_curvature_array_matches_gram_reference(corpus):
    # reference: -1/4 of the stencil of log |gamma_w|^2 with the exact section
    # norm, gamma_gram's diagonal, one point at a time: no truncation and no
    # frame enter it, and the stencil's O(h^2) error stays below 1e-5
    rng = np.random.default_rng(101)
    pts = 0.7 * np.sqrt(rng.uniform(size=7)) * np.exp(2j * np.pi * rng.uniform(size=7))
    for spec in corpus:

        def log_norm_sq(w):
            return float(np.log(gamma_gram(spec, [w])[0, 0].real))

        ref = np.array([-0.25 * fd_laplacian(log_norm_sq, complex(z), 1e-3) for z in pts])
        got = oracle_curvature(spec, pts)
        assert got.shape == pts.shape
        assert np.all(np.abs(got - ref) <= 1e-5 * (1 + np.abs(ref)))
        scalar = [oracle_curvature(spec, complex(z)) for z in pts]
        assert all(type(v) is float for v in scalar)
        assert got.tobytes() == np.array(scalar).tobytes()
        assert oracle_curvature(spec, pts.reshape(7, 1)).shape == (7, 1)


def test_oracle_curvature_fails_a_planted_base():
    # the frame of alpha 1.5 against the identity of alpha 1.0: the base
    # curvatures differ by 0.5 / (1 - |w|^2)^2, at least a tenth of 1 + |K|
    # at every verify point
    frame = oracle_curvature(make_spec(weighted_bergman(1.5), PAIR_1Z), FRAME_POINTS)
    analytic = quotient_curvature(make_spec(weighted_bergman(1.0), PAIR_1Z), FRAME_POINTS)
    assert np.min(np.abs(frame - analytic) / (1 + np.abs(analytic))) > 0.05


def test_oracle_curvature_requires_certification():
    bare = QuotientSpec(base=HARDY, theta=PAIR_1Z)
    with pytest.raises(UncertifiedSpec):
        oracle_curvature(bare, 0)


def test_oracle_curvature_rejects_points_beyond_the_frame_radius():
    with pytest.raises(ValueError, match=r"need \|w\| <= 0.7"):
        oracle_curvature(make_spec(HARDY, PAIR_1Z), [0.3, 0.75j])


def test_gamma_section_norm_matches_truncated_coords(corpus):
    # the coordinate norm converges to the exact section norm, the diagonal
    # of the Gram matrix
    for spec in corpus:
        for w in (0.2, -0.35j, 0.3 + 0.3j):
            norm_sq = gamma_gram(spec, [w])[0, 0].real
            assert norm_sq > 0
            coords = gamma_section(spec, w, 160)
            assert np.linalg.norm(coords) ** 2 == pytest.approx(norm_sq, rel=1e-10)
            coarse = gamma_section(spec, w, 40)
            assert np.linalg.norm(coarse) ** 2 <= norm_sq * (1 + 1e-12)


def test_eigenvector_residual_zero_at_origin(corpus):
    for spec in corpus:
        assert eigenvector_residual(spec, 0, 80) == 0.0


def test_eigenvector_residual_small_at_half():
    s = make_spec(HARDY, PAIR_1Z)
    assert eigenvector_residual(s, 0.5, 100) <= 1e-6


def test_eigenvector_residual_preconditions():
    s = make_spec(HARDY, PAIR_1Z)
    with pytest.raises(ValueError):
        eigenvector_residual(s, 0.75, 100)
    bare = QuotientSpec(base=HARDY, theta=PAIR_1Z)
    with pytest.raises(UncertifiedSpec):
        eigenvector_residual(bare, 0.3, 100)


def test_eigenvector_residual_monotone_in_degree(corpus):
    for spec in corpus:
        res = [eigenvector_residual(spec, 0.5, n) for n in (20, 30, 40, 50)]
        assert all(b < a for a, b in zip(res, res[1:]))


@pytest.mark.parametrize("base", [BERGMAN, weighted_bergman(1.5)])
def test_eigenvector_residual_matches_dense_reference(base):
    # the closed form against the dense doubled shift applied to the section,
    # at degrees and radii where the residual is far above the rounding of
    # the dense computation: s_k gamma_{k+1} - conj(w) gamma_k is 0 in exact
    # arithmetic but the last entry, so its rounding is at most 8 u |w| |gamma|
    spec = make_spec(base, MultiplierPair(poly([-0.5, 1]), poly([1, 0.5])))
    for n in (10, 15, 20):
        doubled = np.kron(np.eye(2), build_shift(base, n))
        for w in (0.5, -0.6j, 0.45 + 0.45j, 0.7):
            gamma = gamma_section(spec, w, n)
            ref = np.linalg.norm(doubled.T @ gamma - np.conj(w) * gamma) / np.linalg.norm(gamma)
            assert ref > 1e-6
            got = eigenvector_residual(spec, w, n)
            rel = _residual_bound(base, w, n) + _gamma(4 * n + 8)
            assert abs(got - ref) <= 8 * _UNIT * abs(w) + rel * ref


def _residual_bound(base, w, n):
    # the relative rounding bound stated in the eigenvector_residual docstring
    t = n * abs(np.log(abs(w))) + np.sum(np.abs(np.log(shift_weights(base, n))))
    return _gamma(4 * n + 32) * (t + n + 2)


@pytest.mark.parametrize("base", [HARDY, BERGMAN])
def test_eigenvector_residual_matches_exact_fractions(base):
    # |w|^2 |x_n|^2 / sum_k |x_k|^2 with |x_k|^2 = |w|^(2k) / |z^k|^2 in exact
    # rationals (|z^k|^2 = 1 for Hardy, 1 / (k + 1) for Bergman) at dyadic w
    spec = make_spec(base, PAIR_1Z)
    for n in (20, 60, 120):
        for w in (0.5, -0.25j, 0.375 + 0.5j, 0.125, -0.5 + 0.25j):
            r2 = Fraction(complex(w).real) ** 2 + Fraction(complex(w).imag) ** 2
            x2 = [r2**k * (1 if base.is_hardy else k + 1) for k in range(n + 1)]
            exact = float(r2 * x2[-1] / sum(x2))
            got = eigenvector_residual(spec, w, n)
            assert abs(got**2 / exact - 1.0) <= 2.01 * _residual_bound(base, w, n)


@pytest.mark.parametrize("n", [300, 1000])
def test_eigenvector_residual_is_finite_at_large_alpha(n):
    # monomial_norms_sq underflows to 0 at alpha 2000 and degree 300, so a
    # section formed from it divides by zero; the residual never forms it
    spec = make_spec(weighted_bergman(2000.0), PAIR_1Z)
    points = [0, 0.3, -0.4j, 0.5, 0.7]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = eigenvector_residual(spec, points, n)
        assert eigenvector_residual(spec, 0, n) == 0.0
    assert np.all(np.isfinite(res)) and res[0] == 0.0
    # log |x_k|^2 = 2k log|w| - log |z^k|^2 with |z^k|^2 = k! G(a + 2) / G(k + a + 2)
    for w, got in zip(points[1:], res[1:]):
        logs = [
            2 * k * math.log(abs(w)) - math.lgamma(k + 1) - math.lgamma(2002.0)
            + math.lgamma(k + 2002.0)
            for k in range(n + 1)
        ]
        top = max(logs)
        ref = abs(w) * math.exp(0.5 * (logs[-1] - top)) / math.sqrt(
            math.fsum(math.exp(v - top) for v in logs)
        )
        assert got == pytest.approx(ref, rel=1e-9)


def test_adjoint_shift_kills_kernel_vector():
    # M_phi^* k_w = conj(phi(w)) k_w at truncation scale, relative residual <= 1e-6
    rng = np.random.default_rng(83)
    n = 120
    for kind in (HARDY, BERGMAN, weighted_bergman(0.5)):
        for _ in range(5):
            coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            phi = poly(coeffs)
            w = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            m = _full_multiplier(MultiplierPair(phi, poly([1])), kind, n)
            cod = m.shape[0] // 2 - 1
            mphi = m[: cod + 1]  # block acting as multiplication by phi
            norms = np.sqrt(monomial_norms_sq(kind, cod))
            kvec_cod = np.conj(w) ** np.arange(cod + 1) / norms
            kvec_dom = kvec_cod[: n + 1]
            lhs = mphi.conj().T @ kvec_cod
            rhs = np.conj(phi(complex(w))) * kvec_dom
            rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
            assert rel <= 1e-6


def test_gamma_orthogonal_to_multiplier_range(corpus):
    # <M_Theta v, gamma_w> = 0 at truncation scale
    rng = np.random.default_rng(89)
    n = 120
    for spec in corpus:
        t1, t2 = spec.theta
        d = max(t1.degree, t2.degree)
        m = _full_multiplier(spec.theta, spec.base, n - d)
        cod = m.shape[0] // 2 - 1
        norms = np.sqrt(monomial_norms_sq(spec.base, cod))
        for w in (0.4, -0.3 + 0.2j):
            kvec = np.conj(w) ** np.arange(cod + 1) / norms
            gamma = np.concatenate(
                [np.conj(t2(w)) * kvec, -np.conj(t1(w)) * kvec]
            )
            v = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
            inner = np.vdot(gamma, m @ v)
            assert abs(inner) <= 1e-6 * np.linalg.norm(v) * np.linalg.norm(gamma)


def test_dim_ker_is_one_on_examples():
    s = make_spec(HARDY, PAIR_1Z)
    assert dim_ker_estimate(s, 0.3, 120, gap_tol=1e-4) == 1
    assert dim_ker_estimate(s, 0, 120) == 1
    sd = make_spec(BERGMAN, MultiplierPair(poly([-0.5, 1]), poly([1, 0.5])))
    assert dim_ker_estimate(sd, 0.2, 120) == 1


def test_dim_ker_is_one_for_rational_multiplier():
    # the cleared numerators {1, z (1 + z / 2)} must not leave a seam of
    # forgotten range directions (which would fake a second kernel vector)
    pair = MultiplierPair(rational([1], [1, 0.5]), poly([0, 1]))
    s = make_spec(weighted_bergman(0.5), pair)
    for w in (0, 0.3, 0.45j):
        assert dim_ker_estimate(s, w, 120) == 1


DIM_KER_POINTS = (0, 0.3, -0.3, 0.45j, 0.6)


def test_dim_ker_array_matches_scalar_calls(corpus):
    rational_pair = MultiplierPair(rational([1], [1, 0.5]), poly([0, 1]))
    specs = list(corpus) + [make_spec(weighted_bergman(0.5), rational_pair)]
    for spec in specs:
        counts = dim_ker_estimate(spec, DIM_KER_POINTS, 120)
        assert counts == [dim_ker_estimate(spec, w, 120) for w in DIM_KER_POINTS]
        assert all(type(c) is int for c in counts)
    assert dim_ker_estimate(specs[0], np.array([0.3]), 120) == [1]
    assert dim_ker_estimate(specs[0], [], 120) == []


@pytest.mark.parametrize("base", [BERGMAN, weighted_bergman(1.5)])
def test_compressed_shift_matches_dense_reference(base):
    # Q_perp^H (S (+) S) Q_perp from the dense weighted shift, with Q_perp
    # taken from an SVD of the P_n-truncated multiplier instead of a QR
    n = 80
    spec = make_spec(base, MultiplierPair(poly([-0.5, 1]), poly([1, 0.5])))
    full = _full_multiplier(spec.theta, base, n)
    cod = full.shape[0] // 2 - 1
    mult = full[np.r_[0 : n + 1, cod + 1 : cod + n + 2]]
    u, sv, _ = np.linalg.svd(mult)
    q_perp = u[:, int(np.sum(sv > 1e-10 * sv[0])) :]
    shift = build_shift(base, n)
    doubled = np.kron(np.eye(2), shift)
    dense = q_perp.conj().T @ doubled @ q_perp

    adj = compressed(spec, n)
    assert adj.shape == dense.shape
    eye = np.eye(dense.shape[0])
    for w in (0, 0.3, -0.2 + 0.4j, 0.55j):
        ref = np.linalg.svd(dense - w * eye, compute_uv=False)
        got = np.linalg.svd(adj - np.conj(w) * eye, compute_uv=False)
        assert np.max(np.abs(got - ref)) <= 1e-10 * ref[0]


def _bounds(spec, n, points, gap_tol=1e-4):
    table = _numerators(spec.theta)
    gram = _gram_band(table, spec.base, n, n + 1)
    s = shift_weights(spec.base, n)
    return _gram_bounds(table, spec.base, gram, s, np.asarray(points, complex), gap_tol)


def _pencil_counts(spec, n, points, gap_tol=1e-4):
    # route 2 alone at every point, also where route 1 settles: r = inf
    # gives no lower count; None where the count rule raises NoSpectralGap
    table = _numerators(spec.theta)
    gram = _gram_band(table, spec.base, n, n + 1)
    s = shift_weights(spec.base, n)
    pts = np.asarray(points, complex)
    bounds = _gram_bounds(table, spec.base, gram, s, pts, gap_tol)
    twists = np.argmax(_log_kernel_vector(s, np.abs(pts)), axis=1)
    counts = []
    for w, hi, lo, twist in zip(pts, bounds.hi, bounds.lo, twists):
        try:
            count = _pencil_count(table, gram, s, w, hi, lo, np.inf, gap_tol, int(twist))
        except NoSpectralGap:
            count = None
        counts.append(count)
    return counts


def _svd_counts(spec, n, points, gap_tol=1e-4):
    adj = compressed(spec, n)
    counts = []
    for w in points:
        try:
            counts.append(svd_kernel_count(adj, w, gap_tol))
        except NoSpectralGap:
            counts.append(None)
    return counts


def _truncated_multiplier(spec, n):
    # the P_n truncation [M1; M2]: the first n + 1 rows of each block
    full = _full_multiplier(spec.theta, spec.base, n)
    cod = full.shape[0] // 2 - 1
    return full[np.r_[0 : n + 1, cod + 1 : cod + n + 2]]


BASIS_BASES = (HARDY, BERGMAN, weighted_bergman(1.5))
# d = 0: G and H are bands of one column, and route 1's c is 0
CONSTANT_PAIR = (weighted_bergman(1.5), MultiplierPair(poly([1]), poly([0.5j])))
BASIS_PAIRS = (
    MultiplierPair(poly([-0.5, 1]), poly([1, 0.5])),
    MultiplierPair(rational([1], [1, 0.5]), poly([0, 1])),
)


@pytest.mark.parametrize("n", [60, 120, 300])
@pytest.mark.parametrize("pair", BASIS_PAIRS)
@pytest.mark.parametrize("base", BASIS_BASES)
def test_quotient_basis_spans_kernel_of_multiplier_adjoint(base, pair, n):
    # n + 1 orthonormal columns orthogonal to the n + 1 independent columns of
    # M span all of ker M^H
    spec = make_spec(base, pair)
    mult = _truncated_multiplier(spec, n)
    q_perp = quotient_basis(mult)
    assert q_perp.shape == (2 * (n + 1), n + 1)
    scale = np.linalg.norm(mult, 2)
    assert np.linalg.norm(mult.conj().T @ q_perp, 2) <= 1e-13 * scale
    assert np.linalg.norm(q_perp.conj().T @ q_perp - np.eye(n + 1), 2) <= 1e-13


def test_quotient_basis_rejects_vanishing_constant_terms():
    # theta1(0) = theta2(0) = 0 leaves N rank-deficient; only a certificate
    # re-bound by hand lets such a pair reach the oracle
    theta = MultiplierPair(poly([0, 1]), poly([0, 0, 1]))
    spec = make_spec(HARDY, PAIR_1Z)
    cert = dataclasses.replace(spec.certificate, theta=theta)
    spec = dataclasses.replace(spec, theta=theta, certificate=cert)
    with pytest.raises(NoSpectralGap, match="rank-deficient"):
        quotient_basis(multiplier_matrix(theta, HARDY, 60, 60))


@pytest.mark.parametrize("n", [60, 120, 300])
def test_kernel_certificate_settles_the_verify_points(corpus, n):
    near = MultiplierPair(poly([-0.5, 1]), poly([-0.51, 1]))
    specs = [make_spec(b, p) for b in BASIS_BASES for p in BASIS_PAIRS + (near,)]
    if n == 120:
        specs += list(corpus)
    for spec in specs:
        adj = compressed(spec, n)
        for w in DIM_KER_POINTS:
            assert svd_kernel_count(adj, w, 1e-4) == 1
        assert dim_ker_estimate(spec, DIM_KER_POINTS, n) == [1] * len(DIM_KER_POINTS)


BOUND_BASES = (HARDY, BERGMAN, weighted_bergman(0.5), weighted_bergman(2.0))


def _random_certified_specs(rng, count):
    # random polynomial and rational pairs that certify, cycling the bases
    def component():
        if rng.uniform() < 0.3:
            pole = 0.6 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            return rational([1, rng.standard_normal()], [1, pole])
        deg = int(rng.integers(0, 4))
        return poly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))

    specs = []
    while len(specs) < count:
        base = BOUND_BASES[len(specs) % len(BOUND_BASES)]
        try:
            specs.append(make_spec(base, MultiplierPair(component(), component())))
        except (CoronaFailure, DepthExceeded):
            continue
    return specs


def test_gram_bounds_are_sound_against_the_singular_values():
    # the bounds hold for the computed compression up to the rounding of its
    # SVD in sigma_1, and every settled point has a count of 1 by the rule
    rng = np.random.default_rng(107)
    points = settled = 0
    for spec in _random_certified_specs(rng, 24):
        n = int(rng.integers(60, 131))
        pts = np.r_[
            np.array(DIM_KER_POINTS, complex),
            0.6 * np.sqrt(rng.uniform(size=5)) * np.exp(2j * np.pi * rng.uniform(size=5)),
        ]
        bounds = _bounds(spec, n, pts)
        adj = compressed(spec, n)
        # lo against its dense definition |(S2^H - conj(w)) N|_F / |N|_F
        mult = _truncated_multiplier(spec, n)
        kernel = np.concatenate([mult[n + 1 :].conj().T, -mult[: n + 1].conj().T])
        shifted = np.kron(np.eye(2), build_shift(spec.base, n)).T @ kernel
        for i, w in enumerate(pts):
            ref = np.linalg.norm(shifted - np.conj(w) * kernel) / np.linalg.norm(kernel)
            assert ref * (1 - 1e-9) <= bounds.lo[i] <= ref
            sv = np.linalg.svd(adj - np.conj(w) * np.eye(n + 1), compute_uv=False)
            slack = 1e-12 * sv[0]
            assert bounds.lo[i] <= sv[0] + slack and sv[0] <= bounds.hi[i] + slack
            assert bounds.floor[i] <= sv[-2]
            assert bounds.r[i] >= sv[-1]
            points += 1
            if bounds.settled[i]:
                settled += 1
                assert svd_kernel_count(adj, w, 1e-4) == 1
    assert points == 240
    assert settled >= 0.9 * points


@pytest.mark.parametrize("gap_tol", [0.6, 1e-60])
def test_gram_bounds_settle_nothing_the_rule_does_not_count_as_one(gap_tol):
    # at 0.6 the rule finds no gap away from w = 0; at 1e-60 the threshold
    # lies inside the rounding margin, where the SVD reads singular values
    # below rounding and counts 0, and the pencil refuses to answer
    spec = make_spec(HARDY, PAIR_1Z)
    adj = compressed(spec, 120)
    settled = _bounds(spec, 120, DIM_KER_POINTS, gap_tol).settled
    for w, ok in zip(DIM_KER_POINTS, settled):
        try:
            count = svd_kernel_count(adj, w, gap_tol)
        except NoSpectralGap:
            count = None
        assert not ok or count == 1
    assert not settled[1:].any()
    with pytest.raises(NoSpectralGap):
        dim_ker_estimate(spec, DIM_KER_POINTS, 120, gap_tol=gap_tol)
    if gap_tol == 1e-60:
        assert 0 in _svd_counts(spec, 120, DIM_KER_POINTS, gap_tol)
        assert _pencil_counts(spec, 120, DIM_KER_POINTS, gap_tol) == [None] * 5


def test_rank_deficient_pair_still_raises_through_dim_ker_estimate():
    # theta1(0) = theta2(0) = 0 leaves G singular: its first row and column
    # vanish, and the Cholesky proof of positive definiteness fails
    theta = MultiplierPair(poly([0, 1]), poly([0, 0, 1]))
    spec = make_spec(HARDY, PAIR_1Z)
    cert = dataclasses.replace(spec.certificate, theta=theta)
    spec = dataclasses.replace(spec, theta=theta, certificate=cert)
    assert not _bounds(spec, 120, DIM_KER_POINTS).settled.any()
    with pytest.raises(NoSpectralGap, match="rank-deficient"):
        dim_ker_estimate(spec, DIM_KER_POINTS, 120)


ILL_CONDITIONED = (
    (weighted_bergman(1.5), MultiplierPair(poly([-0.5, 1]), poly([1e-4]))),
    (weighted_bergman(4.0), MultiplierPair(poly([-0.5, 1]), poly([-0.501, 1]))),
)


@pytest.mark.parametrize("base, pair", ILL_CONDITIONED)
def test_ill_conditioned_pairs_fall_through_to_the_singular_values(base, pair):
    # G = N^H N is too ill-conditioned for the Gram certificate here; the
    # inertia of the band pencil counts the singular values at every point
    spec = make_spec(base, pair, 1e-12)
    for n in (60, 120, 300):
        assert not _bounds(spec, n, DIM_KER_POINTS).settled.any()
        assert dim_ker_estimate(spec, DIM_KER_POINTS, n) == [1] * len(DIM_KER_POINTS)


@pytest.mark.parametrize("coprime", [False, True])
@pytest.mark.parametrize("base", [HARDY, BERGMAN])
def test_route_one_bound_gives_the_pencil_its_lower_count(base, coprime):
    # from k = 8 route 1 settles no point, and the pencil cannot resolve its
    # lower count at t_lo / 10; route 1's r >= sigma_m lies below it and
    # proves one singular value there
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k in range(8, 13):
            spec = make_spec(base, binomial_pair(k, coprime))
            for n in (120, 300):
                assert not _bounds(spec, n, DIM_KER_POINTS).settled.any()
                assert dim_ker_estimate(spec, DIM_KER_POINTS, n) == [1] * len(DIM_KER_POINTS)


def test_an_unproved_g_names_its_conditioning():
    # theta1(0) = 2^13: G[0, 0] is far above the margin, so the failed proof
    # of G blames its condition number, not the pair
    spec = make_spec(HARDY, binomial_pair(13, False))
    with pytest.raises(NoSpectralGap, match="too ill-conditioned") as caught:
        dim_ker_estimate(spec, DIM_KER_POINTS, 120)
    assert "nearly vanish" not in str(caught.value)
    assert "G[0, 0] = 6.711e+07" in str(caught.value)


def test_an_unresolved_pencil_count_names_both_causes():
    # on Bergman at degree 120, G is proved positive definite but the pencil
    # leaves its count at t_hi open; degree 300 fails as well (on the proof
    # of G), so the message names both causes instead of prescribing a degree
    spec = make_spec(BERGMAN, binomial_pair(13, False))
    with pytest.raises(NoSpectralGap, match="band pencil counts") as caught:
        dim_ker_estimate(spec, DIM_KER_POINTS, 120)
    text = str(caught.value)
    assert "an unresolved number of singular values below" in text
    assert "the truncation degree 120 is too small" in text
    assert "G = N^H N is too ill-conditioned" in text
    assert "increase the truncation degree" not in text


def test_pencil_message_counts_one_singular_value_in_the_singular(monkeypatch):
    # a lower count of 1 and an upper count of 2
    monkeypatch.setattr(_BandCholesky, "negatives", lambda self, shift, twist, upper: 1 + upper)
    table = _numerators(PAIR_1Z)
    gram = _gram_band(table, HARDY, 120, 121)
    with pytest.raises(NoSpectralGap) as caught:
        _pencil_count(table, gram, shift_weights(HARDY, 120), 0.3, 1.0, 0.5, np.inf, 1e-4, 0)
    text = str(caught.value)
    assert "the band pencil counts 1 singular value below 5.000e-06 and 2 singular values " \
           "below 1.000e-04;" in text


@pytest.mark.parametrize("n", [60, 120, 300])
def test_pencil_counts_equal_the_svd_rule(n):
    # the pencil at every point, also where route 1 settles, against the
    # singular values of the compression on a QR basis
    rng = np.random.default_rng(n)
    specs = [make_spec(base, pair, 1e-12) for base, pair in ILL_CONDITIONED]
    specs += [make_spec(b, p) for b in BASIS_BASES for p in BASIS_PAIRS]
    specs += _random_certified_specs(rng, 12 if n < 300 else 6)
    for spec in specs:
        counts = _pencil_counts(spec, n, DIM_KER_POINTS)
        assert counts == _svd_counts(spec, n, DIM_KER_POINTS)
        assert counts == [1] * len(DIM_KER_POINTS)


@pytest.mark.parametrize(
    "alpha, n, expected",
    [
        (300.0, 120, [1, 1, 1, 0, 0]),
        (300.0, 300, [1, 1, 1, 1, 1]),
        (300.0, 600, [1, 1, 1, 1, 1]),
        (2000.0, 120, [1, 0, 0, 0, 0]),
        (2000.0, 300, [1, 1, 1, 0, 0]),
    ],
)
def test_pencil_counts_the_truncated_operator_at_large_alpha(alpha, n, expected):
    # a degree too small for the base loses the kernel vector at the outer
    # points, and the count says so; the middle window sits at the peak of
    # the kernel vector, near degree 169 at alpha 300 and |w| = 0.6.  The
    # SVD rule agrees where its monomial norms do not underflow, and at
    # alpha 2000, n = 300 they do: it divides 0 by 0
    spec = make_spec(weighted_bergman(alpha), PAIR_1Z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dim_ker_estimate(spec, DIM_KER_POINTS, n) == expected
        assert _pencil_counts(spec, n, DIM_KER_POINTS) == expected
    if n <= 300 and (alpha, n) != (2000.0, 300):
        assert _svd_counts(spec, n, DIM_KER_POINTS) == expected


def test_pencil_runs_only_at_open_points_and_builds_g_once(monkeypatch):
    # alpha 300 at degree 120: route 1 settles w = 0 alone
    spec = make_spec(weighted_bergman(300.0), PAIR_1Z)
    opened = list(np.flatnonzero(~_bounds(spec, 120, DIM_KER_POINTS).settled))
    assert opened == [1, 2, 3, 4]
    grams = []
    pencils = []
    gram_band = diskmod.oracle._gram_band
    pencil_count = diskmod.oracle._pencil_count

    def recording_gram_band(*args, **kwargs):
        if not kwargs.get("columns", False):
            grams.append(args)
        return gram_band(*args, **kwargs)

    def recording_pencil_count(table, gram, s, w, *args):
        pencils.append(w)
        return pencil_count(table, gram, s, w, *args)

    monkeypatch.setattr(diskmod.oracle, "_gram_band", recording_gram_band)
    monkeypatch.setattr(diskmod.oracle, "_pencil_count", recording_pencil_count)
    assert dim_ker_estimate(spec, DIM_KER_POINTS, 120) == [1, 1, 1, 0, 0]
    assert len(grams) == 1
    assert pencils == [DIM_KER_POINTS[i] for i in opened]


def test_gram_certificate_settles_without_the_pencil(monkeypatch, corpus):
    # the corpus and the basis specs never need route 2
    def no_pencil(*args):
        raise AssertionError("the pencil was run")

    monkeypatch.setattr(diskmod.oracle, "_pencil_count", no_pencil)
    specs = list(corpus) + [make_spec(b, p) for b in BASIS_BASES for p in BASIS_PAIRS]
    specs.append(make_spec(*CONSTANT_PAIR))
    for spec in specs:
        assert dim_ker_estimate(spec, DIM_KER_POINTS, 120) == [1] * len(DIM_KER_POINTS)


@pytest.mark.parametrize("gap_tol", [float("nan"), 0.0, -1e-4, 2.0, float("inf")])
def test_dim_ker_rejects_gap_tol_outside_the_unit_interval(gap_tol):
    s = make_spec(HARDY, PAIR_1Z)
    with pytest.raises(ValueError, match="gap_tol"):
        dim_ker_estimate(s, [0, 0.3], 120, gap_tol=gap_tol)


def test_dim_ker_array_preconditions():
    s = make_spec(HARDY, PAIR_1Z)
    with pytest.raises(ValueError):
        dim_ker_estimate(s, [0, 0.3, 0.65], 120)
    with pytest.raises(NoSpectralGap):
        dim_ker_estimate(s, [0, 0.3], 120, gap_tol=0.6)
    bare = QuotientSpec(base=HARDY, theta=PAIR_1Z)
    with pytest.raises(UncertifiedSpec):
        dim_ker_estimate(bare, [0, 0.3], 120)


def test_dim_ker_refuses_to_guess_without_gap():
    # a cut landing inside the continuous part of the spectrum must error out
    # rather than return a fake dimension
    from diskmod import NoSpectralGap

    s = make_spec(HARDY, PAIR_1Z)
    with pytest.raises(NoSpectralGap):
        dim_ker_estimate(s, 0.3, 120, gap_tol=0.6)


def test_dim_ker_rejects_out_of_range_points(corpus):
    spec = corpus[0]
    with pytest.raises(ValueError):
        dim_ker_estimate(spec, 0.65, 120)
    with pytest.raises(ValueError):
        dim_ker_estimate(spec, 0.3, 40)


def _polar_grid(n_r, n_theta):
    # a polar grid of the closed disk, centre and rim included
    r = np.linspace(0.0, 1.0, n_r)
    return (r[:, None] * np.exp(2j * np.pi * np.arange(n_theta) / n_theta)).ravel()


def _sampled_min_u(theta, z=_polar_grid(65, 256)):
    return float(np.min(np.abs(theta.theta1(z)) ** 2 + np.abs(theta.theta2(z)) ** 2))


def _sampled_min_cleared(theta, z=_polar_grid(65, 256)):
    # |P1|^2 + |P2|^2 of the cleared numerators on the grid
    values = np.polynomial.polynomial.polyval(z, _numerators(theta).T)
    return float(np.min(np.sum(np.abs(values) ** 2, axis=0)))


def _with_certificate(spec, theta=None, **bounds):
    # the spec with its pair or its certified bounds replaced, the
    # certificate re-bound by hand so that the oracle accepts it
    theta = spec.theta if theta is None else theta
    cert = dataclasses.replace(spec.certificate, theta=theta, **bounds)
    return dataclasses.replace(spec, theta=theta, certificate=cert)


def _planted(spec):
    # a certificate 20% above the sampled minima of u and of |P1|^2 + |P2|^2
    return _with_certificate(spec, epsilon=1.2 * _sampled_min_u(spec.theta),
                             cleared_epsilon=1.2 * _sampled_min_cleared(spec.theta))


def test_multiplier_bound_holds_on_the_corpus_and_ill_conditioned_pairs(corpus):
    specs = list(corpus) + [make_spec(base, pair, 1e-12) for base, pair in ILL_CONDITIONED]
    specs.append(make_spec(*CONSTANT_PAIR))
    two_rational = MultiplierPair(rational([1, 0.3j], [1, -0.4 + 0.2j]), rational([2], [1, 0.6]))
    specs.append(make_spec(BERGMAN, two_rational))
    for spec in specs:
        for n in (60, 120):
            bound = multiplier_lower_bound(spec, n)
            assert bound.ok
            assert bound.epsilon == spec.certificate.epsilon
            assert bound.target == spec.certificate.cleared_epsilon
            assert 0.0 < bound.slack < 0.1 * min(bound.epsilon, bound.target)
            # Q = 1 for a polynomial pair, so the two bounds differ by rounding
            if spec.theta is not two_rational:
                assert bound.epsilon <= bound.target <= bound.epsilon * (1 + 1e-13)


# {(1 + s z) / den, t z + p z^2}, the shape of the benchmark's verify pairs:
# at n = 120 on the five bases, sigma_min^2 of the multiplier of the cleared
# numerators lies 0.02-6.4% above the sampled minimum of |P1|^2 + |P2|^2
MILD_PAIRS = (
    MultiplierPair(poly([1, 0.2]), poly([0, 0.5, 0.1])),
    MultiplierPair(poly([1, -0.15j]), poly([0, 0.3j, -0.05])),
    MultiplierPair(rational([1, 0.1], [1, -0.15]), poly([0, 0.4, 0.08j])),
    MultiplierPair(rational([1, 0.2j], [1, 0.125j]), poly([0, -0.2, 0.1])),
)
FIVE_BASES = (HARDY, BERGMAN, weighted_bergman(0.5), weighted_bergman(1.5), weighted_bergman(4.0))


@pytest.mark.parametrize("base", FIVE_BASES)
def test_multiplier_bound_rejects_a_certificate_above_the_operator(base):
    # the last pair has d = 64 > 60, so at n = 60 the domain degree is n // 4
    wide = MultiplierPair(poly([1, 0.2]), poly([0, 0.5, 0.1] + [0] * 61 + [1e-3]))
    for pair in MILD_PAIRS + (wide,):
        spec = make_spec(base, pair)
        planted = _planted(spec)
        for n in (60, 120):
            assert multiplier_lower_bound(spec, n).ok
            assert not multiplier_lower_bound(planted, n).ok


def test_multiplier_bound_tells_unproved_from_refuted():
    # {(2 + z)^9, 0.5 + z^10} on Hardy: the certified epsilon lies just below
    # the rounding margin, so the bound is unproved; a certificate 20% above
    # the operator's bound passes the margin and the factorisation refutes it
    spec = make_spec(HARDY, binomial_pair(9, True))
    for n in (120, 300):
        bound = multiplier_lower_bound(spec, n)
        assert not bound.ok
        assert bound.target == spec.certificate.cleared_epsilon
        assert bound.target <= bound.slack
    planted = _planted(make_spec(HARDY, MILD_PAIRS[0]))
    bound = multiplier_lower_bound(planted, 120)
    assert not bound.ok
    assert bound.target > bound.slack


@pytest.mark.parametrize("base", FIVE_BASES)
def test_multiplier_bound_rejects_a_pair_that_lost_a_component(base):
    # a certificate at 0.2 exceeds |theta2|^2 <= 0.1225 everywhere, so M_theta2
    # alone cannot carry it
    pair = MultiplierPair(poly([1, 0.2]), poly([0, 0.3, 0.05]))
    spec = make_spec(base, pair, 0.2)
    assert spec.certificate.epsilon >= 0.2
    assert multiplier_lower_bound(spec, 120).ok
    lost = _with_certificate(spec, theta=MultiplierPair(poly([0]), pair.theta2))
    assert not multiplier_lower_bound(lost, 120).ok


def test_cleared_epsilon_is_below_the_minimum_of_the_numerators():
    # cleared_epsilon is a lower bound of |P1|^2 + |P2|^2 on the closed disk,
    # so it lies below the minimum on a dense polar grid, rim included
    pole = MultiplierPair(rational([1], [1, -0.999000999000999]), poly([0, 1]))
    pairs = [(pair, 1e-6) for pair in MILD_PAIRS + (pole,)]
    pairs += [(pair, 1e-12) for _, pair in ILL_CONDITIONED]
    pairs += [(MultiplierPair(f, poly([0, 1])), 1e-6) for f in RATIONAL_COMPONENTS]
    grid = _polar_grid(257, 1024)
    for pair, gap in pairs:
        cert = make_spec(HARDY, pair, gap).certificate
        assert 0.0 < cert.cleared_epsilon <= _sampled_min_cleared(pair, grid)


# (1 + z / 2)^k for k = 1, 2, 4, 8: exact in double precision, zero-free on
# the closed disk
INVERTIBLE_FACTORS = {k: [math.comb(k, j) / 2.0**j for j in range(k + 1)] for k in (1, 2, 4, 8)}


@pytest.mark.parametrize("k", sorted(INVERTIBLE_FACTORS))
@pytest.mark.parametrize("base", [HARDY, weighted_bergman(1.5)])
def test_an_invertible_factor_leaves_the_module_unchanged(base, k):
    # {p1, p2} and {p1 / q, p2 / q} generate the same submodule, as 1 / q is
    # a multiplier; the oracle, which reads the cleared numerators q {p1, p2},
    # must count and curve alike, and decide must call them isomorphic
    q = INVERTIBLE_FACTORS[k]
    pair = MILD_PAIRS[0]
    divided = MultiplierPair(*(rational(f.numer, q) for f in pair))
    spec, other = make_spec(base, pair), make_spec(base, divided)
    for n in (120, 300):
        counts = dim_ker_estimate(spec, DIM_KER_POINTS, n)
        assert dim_ker_estimate(other, DIM_KER_POINTS, n) == counts
        a = oracle_curvature(spec, FRAME_POINTS, n)
        b = oracle_curvature(other, FRAME_POINTS, n)
        assert np.all(np.abs(a - b) <= CURVATURE_TOL * (1 + np.abs(a)))
    assert decide_equivalence(spec, other).outcome is Outcome.ISOMORPHIC


def test_multiplier_bound_requires_certification():
    with pytest.raises(UncertifiedSpec):
        multiplier_lower_bound(QuotientSpec(base=HARDY, theta=PAIR_1Z), 120)


@pytest.mark.parametrize("n", [0, -1, -5])
def test_oracle_functions_reject_a_degree_below_one(n):
    spec = make_spec(HARDY, PAIR_1Z)
    calls = (
        lambda: oracle_curvature(spec, 0.3, n),
        lambda: oracle_curvature(spec, [], n),
        lambda: eigenvector_residual(spec, 0.3, n),
        lambda: eigenvector_residual(spec, [], n),
        lambda: multiplier_lower_bound(spec, n),
        lambda: dim_ker_estimate(spec, 0.3, n),
    )
    for call in calls:
        with pytest.raises(ValueError, match="truncation degree must be at least"):
            call()


BAND_PAIRS = BASIS_PAIRS + (
    MultiplierPair(rational([1, 0.3j], [1, -0.4 + 0.2j]), rational([2], [1, 0.6])),
    MultiplierPair(poly([2]), poly([1j])),
)


def _band_margin(band, rows):
    # the stated error of a band entry, the rounding of the stored entries of
    # a multiplier with ``rows`` rows per block and that of the dense
    # reference product, each against the 2-norm of |M| |M|^H (G) or
    # |M|^H |M| (H), which ``_band_spread`` bounds
    err = _band_error(band.shape[1] - 1)
    scale = err + 2.01 * _gamma(4 * rows) + 4.0 * (2 * rows + 8) * _UNIT
    return scale * _band_spread(band, err)


@pytest.mark.parametrize("n", [60, 120, 300])
@pytest.mark.parametrize("base", FIVE_BASES)
def test_gram_bands_match_the_dense_products(base, n):
    for pair in BAND_PAIRS:
        table = _numerators(pair)
        d = table.shape[1] - 1
        m = n + 1
        # G = M1 M1^H + M2 M2^H of the P_n-truncated multiplier
        mult = multiplier_matrix(pair, base, n, n)
        ref = mult[:m] @ mult[:m].conj().T + mult[m:] @ mult[m:].conj().T
        band = _gram_band(table, base, n, m)
        assert band.shape == (m, d + 1)
        err = np.linalg.norm(_dense_hermitian(band) - ref, 2)
        assert err <= _band_margin(band, m)
        # H = M^H M of the multiplier that keeps every product, as the band
        # of the reversed J H J
        dom = max(n - d, 1)
        full = _full_multiplier(pair, base, dom)
        ref = full.conj().T @ full
        band = _gram_band(table, base, dom + d, dom + 1, columns=True)
        err = np.linalg.norm(_dense_hermitian(band) - ref[::-1, ::-1], 2)
        assert err <= _band_margin(band, dom + d + 1)
        # route 1's traces a = |M S|_F^2, b = |M|_F^2 and c = <M S, M> from
        # the band of G, within the relative error stated in dim_ker_estimate
        # and the rounding of the dense reference
        a, b, c = _shift_traces(_gram_band(table, base, n, m), base, shift_weights(base, n))
        moved = mult @ build_shift(base, n)
        tol = _band_error(d) + _gamma(2) + 2 * _gamma(4 * m)
        assert abs(a - np.linalg.norm(moved) ** 2) <= tol * a
        assert abs(b - np.linalg.norm(mult) ** 2) <= tol * b
        assert abs(c - np.vdot(moved, mult)) <= tol * np.sqrt(a * b)


@pytest.mark.parametrize("base", FIVE_BASES)
def test_band_norm1_matches_the_dense_matrix(base):
    # |G|_1 from the band, both halves of every column, against the dense G
    for pair in BAND_PAIRS:
        table = _numerators(pair)
        for n in (60, 120):
            band = _gram_band(table, base, n, n + 1)
            norm1 = np.max(np.sum(np.abs(_dense_hermitian(band)), axis=0))
            assert _band_norm1(band) == pytest.approx(norm1, rel=4 * (n + 1) * _UNIT)


@pytest.mark.parametrize("base", FIVE_BASES)
def test_range_vectors_match_the_dense_product(base):
    # p = N x and p' = N x' from partial sums of the coefficients, against N
    # of the stored P_n-truncated multiplier times x and x'; x and x' against
    # the kernel vector and its derivative in conj(w), scaled by the largest
    # entry of |x|, within the relative bound stated in _kernel_frame
    points = np.array([0, 0.3, -0.3, 0.45j, 0.6, 0.25 - 0.5j])
    for pair in BAND_PAIRS:
        table = _numerators(pair)
        for n in (60, 120):
            m = n + 1
            s = shift_weights(base, n)
            mult = multiplier_matrix(pair, base, n, n)
            kernel = np.concatenate([mult[m:].conj().T, -mult[:m].conj().T])
            x, dx, pk, dpk = _range_vectors(table, s, points)
            norms = np.sqrt(monomial_norms_sq(base, n))
            k = np.arange(m)
            for w, xw, dxw, pw, dpw in zip(points, x, dx, pk, dpk):
                log_w = abs(np.log(abs(w))) if w else 0.0
                e_x = _gamma(4 * n + 32) * (n * log_w + np.sum(np.abs(np.log(s))) + 2 * n + 2)
                ref = np.conj(w) ** k / norms
                scale = np.max(np.abs(ref))
                assert np.all(np.abs(xw - ref / scale) <= e_x * np.abs(ref / scale))
                ref = np.r_[0.0, k[1:] * np.conj(w) ** k[:-1]] / norms / scale
                assert np.all(np.abs(dxw - ref) <= (e_x + _gamma(4)) * np.abs(ref))
                ref = kernel @ xw
                assert np.linalg.norm(pw - ref) <= 1e-14 * np.linalg.norm(ref)
                ref = kernel @ dxw
                assert np.linalg.norm(dpw - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("columns", [False, True])
@pytest.mark.parametrize("rows", [16, 121])
def test_band_cholesky_brackets_the_smallest_eigenvalue(rows, columns):
    # the margin reads min(d, m) off the band's shape (d = 64 here, so m = 16
    # is the short case); a shift below lambda_min - margin factors and one
    # above lambda_min does not
    d = 64
    table = _band_table(d, seed=rows)
    band = _gram_band(table, BERGMAN, rows - 1 + d, rows, columns=columns)
    err = _band_error(d)
    gw = 4.0 * (min(d, rows) + 10) * _UNIT
    assert _BandCholesky(band, err).margin == (
        (2.0 * gw + err) * _band_spread(band, err)
    )
    lam = np.linalg.eigvalsh(_dense_hermitian(band))[0]
    below = _BandCholesky(band, err)
    assert below.factors(lam - 2.0 * below.margin)
    above = _BandCholesky(band, err)
    assert not above.factors(lam * (1.0 + 1e-6) + above.margin)


def _band_table(d, seed):
    # a pair of degree d with theta1(0) = 1 and decaying coefficients
    rng = np.random.default_rng(seed)
    decay = 0.6 ** np.arange(d + 1)
    table = (rng.standard_normal((2, d + 1)) + 1j * rng.standard_normal((2, d + 1))) * decay
    table[0, 0] = 1.0
    table[:, d] = 0.25 * decay[d]
    return table


@pytest.mark.parametrize("columns", [False, True])
@pytest.mark.parametrize("d", [2, 16, 64])
@pytest.mark.parametrize("rows", [121, 301])
def test_windowed_factorisation_agrees_with_the_dense_cholesky(rows, d, columns):
    # windows of max(2d, 64) + d rows: two or more windows run at every
    # (rows, d) here but (121, 64), which is one window
    table = _band_table(d, seed=rows + d)
    cod = rows - 1 + d if columns else rows - 1
    band = _gram_band(table, weighted_bergman(1.5), cod, rows, columns=columns)
    assert band.shape == (rows, d + 1)
    dense = _dense_hermitian(band)
    lam = np.linalg.eigvalsh(dense)[0]
    chol = _BandCholesky(band, _band_error(d))

    def dense_factors(shift):
        try:
            np.linalg.cholesky(dense - shift * np.eye(rows))
        except np.linalg.LinAlgError:
            return False
        return True

    below = lam - 2.0 * chol.margin
    above = lam * (1.0 + 1e-6) + chol.margin
    assert chol.factors(below) and dense_factors(below)
    assert not chol.factors(above) and not dense_factors(above)
    # factors leaves the band as it was, so it can be called again
    assert chol.factors(below)


@pytest.mark.parametrize("base", FIVE_BASES)
def test_pencil_band_matches_the_dense_product(base):
    # A_w - t^2 G with A_w = B_w^H G B_w, B_w = S^H - conj(w) I, from the
    # dense G of the band and the dense shift
    for pair in BAND_PAIRS:
        table = _numerators(pair)
        n = 60
        gram = _gram_band(table, base, n, n + 1)
        dense = _dense_hermitian(gram)
        s = shift_weights(base, n)
        for w, t in ((0, 1e-4), (0.3, 1e-4), (-0.2 + 0.4j, 0.5), (0.6j, 0.0)):
            bw = build_shift(base, n).T - np.conj(w) * np.eye(n + 1)
            ref = bw.conj().T @ dense @ bw - t * t * dense
            band = _pencil_band(gram, s, w, t)
            assert band.shape == (n + 1, gram.shape[1] + 1)
            got = _dense_hermitian(band)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            # the half-width is d + 1
            d = gram.shape[1] - 1
            assert np.all(np.abs(np.tril(ref, -(d + 2))) == 0)


@pytest.mark.parametrize("base", FIVE_BASES)
def test_flip_reverses_every_band_exactly(base):
    # _flip of a band upside down is the band of the reversed matrix, bit for
    # bit: G, H and pencil bands, also with fewer rows than d + 1 (d is 2
    # for the rational pairs, 0 for the constant one and 41 for the table)
    for table in [_numerators(pair) for pair in BAND_PAIRS] + [_band_table(41, seed=5)]:
        d = table.shape[1] - 1
        for rows in (1, 3, d + 1, 61):
            gram = _gram_band(table, base, rows - 1, rows)
            pencil = _pencil_band(gram, shift_weights(base, rows - 1), 0.3 - 0.2j, 1e-3)
            cols = _gram_band(table, base, rows - 1 + d, rows, columns=True)
            for band in (gram, cols, pencil):
                flipped = _flip(band[::-1])
                assert flipped.shape == band.shape
                ref = _dense_hermitian(band)[::-1, ::-1]
                assert np.array_equal(_dense_hermitian(flipped), ref)


def _leading_minors(band, shift):
    """The leading principal minors of A - shift I, scaled, for a real dyadic band A in G layout.

    Fraction-free (Bareiss) elimination in integers on a sliding
    (d + 1) x (d + 1) block: the pivots are the leading principal minors,
    and an entry no earlier step has reached is its scaled value times the
    last pivot.  Yields them in order; the caller stops at a zero one.
    """
    size, width = band.shape
    shift = Fraction(shift)
    scale = max(shift.denominator, 2**64)
    entries = [[Fraction(float(v)) for v in row.real] for row in band]

    def entry(i, j):
        # scale (A - shift I)[i, j] for |i - j| <= d
        lo, hi = min(i, j), max(i, j)
        v = entries[lo][hi - lo] - (shift if i == j else 0)
        v *= scale
        assert v.denominator == 1
        return int(v)

    top = min(width, size)
    block = [[entry(i, j) for j in range(top)] for i in range(top)]
    prev = 1
    for k in range(size):
        pivot = block[0][0]
        yield pivot
        nxt = []
        for i in range(1, len(block)):
            row = []
            for j in range(1, len(block)):
                value, rest = divmod(pivot * block[i][j] - block[i][0] * block[0][j], prev)
                assert rest == 0
                row.append(value)
            nxt.append(row)
        new = k + width
        if new < size:
            col = [entry(new, j) * pivot for j in range(k + 1, new + 1)]
            for row, v in zip(nxt, col):
                row.append(v)
            nxt.append(col)
        block, prev = nxt, pivot


def _exactly_positive_definite(band, shift):
    """Whether A - shift I is positive definite, for a real dyadic band A in G layout."""
    return all(pivot > 0 for pivot in _leading_minors(band, shift))


def _exact_negatives(band, shift):
    """The number of negative eigenvalues of A - shift I, for a real dyadic band A in G layout.

    By Jacobi's rule, the number of sign changes in 1, D_1, ..., D_m of the
    leading principal minors when none of them vanishes.
    """
    changes, prev = 0, 1
    for pivot in _leading_minors(band, shift):
        assert pivot != 0
        changes += (pivot > 0) != (prev > 0)
        prev = pivot
    return changes


def test_exact_positive_definiteness_helper():
    # [[2, 1], [1, 2]] has eigenvalues 1 and 3
    band = np.array([[2, 1], [2, 0]], complex)
    assert _exactly_positive_definite(band, Fraction(1) - Fraction(1, 2**60))
    assert not _exactly_positive_definite(band, 1.0)
    assert not _exactly_positive_definite(band, 3.5)


def test_band_cholesky_margin_is_exact_on_dyadic_bands():
    # real dyadic bands, so fl(A) = A and err = 0, larger than one window;
    # wherever the factorisation of A - s I runs through for s a few ulps
    # of |A| around lambda_min, A - (s - margin) I is positive definite in
    # exact arithmetic.  Positive definiteness is monotone in the shift, so
    # the largest such s decides it.  Without the margin the claim fails:
    # at some of these bands the rounding lets the factorisation run through
    # above lambda_min
    rng = np.random.default_rng(6)
    for _ in range(8):
        rows = int(rng.integers(66, 80))
        d = int(rng.integers(1, 4))
        band = np.zeros((rows, d + 1), complex)
        band[:, 0] = rng.integers(64, 128, rows) / 64
        band[:, 1:] = rng.integers(-32, 33, (rows, d)) / 64
        for o in range(1, d + 1):
            band[rows - o :, o] = 0
        chol = _BandCholesky(band, 0.0)
        eig = np.linalg.eigvalsh(_dense_hermitian(band))
        # quarter-ulp steps, and one shift far enough below to factor surely
        shifts = [eig[0] + k / 4 * _UNIT * eig[-1] for k in range(-8, 17)]
        shifts.append(eig[0] - rows * _UNIT * eig[-1])
        top = max(s for s in shifts if chol.factors(s))
        assert _exactly_positive_definite(band, Fraction(top) - Fraction(chol.margin))


def test_exact_negatives_helper():
    # [[2, 1], [1, 2]] has eigenvalues 1 and 3
    band = np.array([[2, 1], [2, 0]], complex)
    assert _exact_negatives(band, 0.5) == 0
    assert _exact_negatives(band, 2.5) == 1
    assert _exact_negatives(band, 3.5) == 2


def test_twisted_inertia_brackets_the_exact_count_on_dyadic_bands():
    # real dyadic bands, so fl(A) = A and err = 0, as in the Cholesky margin
    # test; shifts a few ulps of |A| around lambda_min, and the middle window
    # at every sixth row, also far from the eigenvector, where the swept
    # blocks are nearly singular and their rounding is amplified in the
    # Schur complement.  Wherever the twisted factorisation answers, its
    # bounds hold for the exact count; without the margin they fail
    rng = np.random.default_rng(6)
    answered = 0
    for _ in range(4):
        rows = int(rng.integers(66, 80))
        d = int(rng.integers(1, 4))
        band = np.zeros((rows, d + 1), complex)
        band[:, 0] = rng.integers(64, 128, rows) / 64
        band[:, 1:] = rng.integers(-32, 33, (rows, d)) / 64
        for o in range(1, d + 1):
            band[rows - o :, o] = 0
        chol = _BandCholesky(band, 0.0)
        eig = np.linalg.eigvalsh(_dense_hermitian(band))
        for k in range(-8, 17, 2):
            shift = eig[0] + k / 4 * _UNIT * eig[-1]
            exact = _exact_negatives(band, shift)
            for twist in range(0, rows, 6):
                lower = chol.negatives(shift, twist, upper=False)
                upper = chol.negatives(shift, twist, upper=True)
                assert lower is None or lower <= exact
                assert upper is None or upper >= exact
                answered += (lower is not None) + (upper is not None)
    assert answered >= 900


def test_bidiagonal_beta_matches_the_recurrences():
    # the log-space peaks against the row and column sum recurrences of
    # |L^-1|, run one step at a time, within the stated rounding bound
    for kind in (HARDY, BERGMAN, weighted_bergman(4.0), weighted_bergman(2000.0)):
        for n in (60, 300):
            s = shift_weights(kind, n)
            aw = np.array([0.0, 0.3, 0.45, 0.6])
            beta, gb = _bidiagonal_beta(s, aw)
            for v, got, bound in zip(aw, beta, gb):
                peaks = []
                for weights in (s, s[::-1]):
                    acc, peak = 0.0, 0.0
                    for sk in weights:
                        acc = (1.0 + v * acc) / sk
                        peak = max(peak, acc)
                    peaks.append(peak)
                ref = 1.0 / math.sqrt(peaks[0] * peaks[1])
                assert abs(got - ref) <= (bound + _gamma(10 * n + 32)) * ref


@pytest.mark.parametrize("alpha, n", [(300.0, 120), (300.0, 300), (2000.0, 120)])
def test_gram_bands_are_warning_free_at_large_alpha(alpha, n):
    # the bands multiply at most d norm ratios and never form a monomial norm,
    # which underflows here (monomial_norms_sq at alpha 2000 is 0 from about
    # degree 250 on)
    base = weighted_bergman(alpha)
    for pair in BASIS_PAIRS:
        table = _numerators(pair)
        d = table.shape[1] - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gram = _gram_band(table, base, n, n + 1)
            full = _gram_band(table, base, n, max(n - d, 1) + 1, columns=True)
        for band in (gram, full):
            assert np.all(np.isfinite(band))
            assert np.all(band[:, 0].real > 0)


def test_eigenvector_residual_on_arrays_matches_single_points(corpus):
    points = (0, 0.3, -0.4j, 0.25 + 0.25j, 0.5)
    rational_pair = MultiplierPair(rational([1], [1, 0.5]), poly([0, 1]))
    specs = list(corpus) + [make_spec(weighted_bergman(1.5), rational_pair)]
    for spec in specs:
        for n in (60, 120):
            res = eigenvector_residual(spec, points, n)
            assert res.shape == (len(points),)
            single = [eigenvector_residual(spec, w, n) for w in points]
            assert all(type(v) is float for v in single)
            assert res.tobytes() == np.array(single).tobytes()
    assert eigenvector_residual(specs[0], [], 60).shape == (0,)
