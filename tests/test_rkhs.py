"""Base modules: kernels, monomial norms, shift weights, curvature."""

import numpy as np
import pytest

from diskmod import (
    BERGMAN,
    HARDY,
    PointOutsideDomain,
    base_curvature,
    format_module_kind,
    kernel_eval,
    parse_module_kind,
    shift_weights,
    weighted_bergman,
)
from reference import fd_laplacian

ALL_KINDS = (HARDY, BERGMAN, weighted_bergman(0.5), weighted_bergman(1.0),
             weighted_bergman(2.0))


def norms_sq(kind, n):
    """|z^k|^2 for k = 0..n as the running product of the squared shift weights."""
    return np.concatenate([[1.0], np.cumprod(shift_weights(kind, n) ** 2)])


def weighted_norm_quadrature(alpha, k):
    """Radial quadrature for the squared monomial norm against the weighted
    area measure: (alpha+1) * int_0^1 t^k (1-t)^alpha dt, with t = 1 - s^2 so
    the integrand is polynomial for the test weights and Gauss-Legendre is
    exact."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    integrand = (1.0 - s**2) ** k * s ** (2 * alpha + 1)
    return float((alpha + 1) * 2.0 * np.sum(w * integrand))


def test_kernel_trivial_values():
    assert kernel_eval(HARDY, 0, 0) == 1
    assert kernel_eval(HARDY, 0.5, 0.5) == pytest.approx(4 / 3)
    assert kernel_eval(BERGMAN, 0.5, 0.5) == pytest.approx(16 / 9)


def test_kernel_rejects_boundary():
    with pytest.raises(PointOutsideDomain):
        kernel_eval(HARDY, 1.0, 0)
    with pytest.raises(PointOutsideDomain):
        kernel_eval(BERGMAN, 0, 1.0)


@pytest.mark.parametrize("z", [1.0, 1.5j, np.array([0.5, -1.0j]), np.array([0.2j, -1.5])])
@pytest.mark.parametrize("kind", [HARDY, weighted_bergman(1.0)])
def test_base_curvature_rejects_points_outside_the_open_disk(kind, z):
    with pytest.raises(PointOutsideDomain):
        base_curvature(kind, z)


def test_kernel_hermitian_symmetry():
    rng = np.random.default_rng(5)
    for kind in ALL_KINDS:
        for _ in range(20):
            z, w = 0.9 * np.sqrt(rng.uniform(size=2)) * np.exp(
                2j * np.pi * rng.uniform(size=2)
            )
            assert kernel_eval(kind, z, w) == pytest.approx(
                np.conj(kernel_eval(kind, w, z))
            )


def test_kernel_diagonal_real_and_at_least_one():
    rng = np.random.default_rng(13)
    for kind in ALL_KINDS:
        for _ in range(25):
            z = 0.97 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            val = kernel_eval(kind, z, z)
            assert abs(val.imag) <= 1e-12 * abs(val)
            assert val.real >= 1.0 - 1e-12


def test_kernel_positive_semidefinite_on_random_sets():
    rng = np.random.default_rng(17)
    for kind in ALL_KINDS:
        for _ in range(40):
            n = rng.integers(2, 7)
            pts = 0.95 * np.sqrt(rng.uniform(size=n)) * np.exp(
                2j * np.pi * rng.uniform(size=n)
            )
            gram = kernel_eval(kind, pts[None, :], pts[:, None])
            assert np.linalg.eigvalsh(gram).min() >= -1e-10


def test_kernel_series_consistency():
    # K(z, w) equals the truncated series sum_k (conj(w) z)^k / |z^k|^2
    rng = np.random.default_rng(23)
    ks = np.arange(201)
    for kind in ALL_KINDS:
        inv_norms = 1.0 / norms_sq(kind, 200)
        for _ in range(10):
            z, w = 0.7 * np.sqrt(rng.uniform(size=2)) * np.exp(
                2j * np.pi * rng.uniform(size=2)
            )
            series = np.sum((np.conj(w) * z) ** ks * inv_norms)
            assert abs(kernel_eval(kind, z, w) - series) <= 1e-8


def test_monomial_norms_hardy_all_one():
    assert norms_sq(HARDY, 7)[7] == 1.0
    assert np.all(norms_sq(HARDY, 50) == 1.0)
    assert norms_sq(BERGMAN, 0).tolist() == [1.0]


def test_monomial_norms_bergman_derived():
    # reciprocal kernel coefficients: 1/2 at k=1 and 1/4 at k=3 for alpha=0
    norms = norms_sq(BERGMAN, 3)
    assert norms[1] == pytest.approx(0.5, abs=1e-15)
    assert norms[3] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8])
def test_monomial_norms_match_area_integral(alpha, k):
    kind = weighted_bergman(alpha)
    assert norms_sq(kind, k)[k] == pytest.approx(
        weighted_norm_quadrature(alpha, k), rel=1e-12
    )


def test_shift_weight_hardy_isometry():
    assert np.all(shift_weights(HARDY, 20) == 1.0)
    assert shift_weights(HARDY, 20).shape == (20,)


def test_shift_weight_bergman_values():
    assert shift_weights(BERGMAN, 1)[0] == pytest.approx(np.sqrt(0.5))
    assert shift_weights(weighted_bergman(2.0), 2)[1] == pytest.approx(np.sqrt(2 / 5))


def test_shift_weight_is_norm_ratio():
    # s_k^2 = |z^{k+1}|^2 / |z^k|^2, with the norms from the area integral
    for kind in ALL_KINDS:
        if kind.is_hardy:
            norms = np.ones(16)
        else:
            norms = np.array([weighted_norm_quadrature(kind.alpha, k) for k in range(16)])
        ratio = np.sqrt(norms[1:] / norms[:-1])
        assert shift_weights(kind, 15) == pytest.approx(ratio, rel=1e-12)


def test_shift_weight_contractive():
    for kind in ALL_KINDS:
        assert np.all(shift_weights(kind, 200) <= 1.0)


def test_base_curvature_values():
    assert base_curvature(HARDY, 0) == -1.0
    assert base_curvature(BERGMAN, 0) == -2.0
    assert base_curvature(weighted_bergman(1.0), 0.5) == pytest.approx(-3 / 0.75**2)


def test_base_curvature_rotation_covariance():
    rng = np.random.default_rng(29)
    for kind in ALL_KINDS:
        for _ in range(20):
            r = 0.95 * rng.uniform()
            phis = 2 * np.pi * rng.uniform(size=3)
            vals = [base_curvature(kind, r * np.exp(1j * p)) for p in phis]
            assert max(vals) - min(vals) <= 1e-12 * (1 + abs(vals[0]))


def test_base_curvature_matches_fd_laplacian_of_log_kernel():
    # -(1/4) Laplacian of log K(z, z) reproduces the closed form
    pts = [0.1, 0.35 + 0.2j, -0.5j, 0.6, -0.3 - 0.55j, 0.7]
    for kind in ALL_KINDS:
        def logk(z, kind=kind):
            return float(np.log(kernel_eval(kind, z, z).real))

        for z in pts:
            fd = -0.25 * fd_laplacian(logk, z, 1e-3)
            assert abs(fd - base_curvature(kind, z)) <= 1e-4


def test_fd_log_kernel_hardy_frozen_value():
    # Laplacian of log K(z, z) at z = 0.5 for the Hardy kernel is 64/9
    def logk(z):
        return float(np.log(kernel_eval(HARDY, z, z).real))

    assert fd_laplacian(logk, 0.5, 1e-3) == pytest.approx(64 / 9, abs=1e-3)


def test_alpha_validation():
    with pytest.raises(ValueError):
        weighted_bergman(-1.0)
    with pytest.raises(ValueError):
        weighted_bergman(-1.5)


def test_bergman_equals_weighted_zero():
    assert weighted_bergman(0.0) == BERGMAN
    assert BERGMAN != HARDY


@pytest.mark.parametrize("text,kind", [
    ("hardy", HARDY),
    ("bergman", BERGMAN),
    ("bergman(alpha=0.5)", weighted_bergman(0.5)),
    ("Bergman( alpha = 2 )", weighted_bergman(2.0)),
])
def test_parse_module_kind(text, kind):
    assert parse_module_kind(text) == kind


def test_module_kind_round_trip():
    for kind in ALL_KINDS:
        assert parse_module_kind(format_module_kind(kind)) == kind


def test_parse_module_kind_rejects_unknown():
    with pytest.raises(ValueError):
        parse_module_kind("dirichlet")
