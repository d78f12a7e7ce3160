"""Curvature engines: Wirtinger Laplacian, finite differences, quotient identity."""

import numpy as np
import pytest

from diskmod import (
    BERGMAN,
    HARDY,
    CurvatureField,
    DegeneratePoint,
    DiskGrid,
    MultiplierPair,
    QuotientSpec,
    StencilOutsideDomain,
    UncertifiedSpec,
    base_curvature,
    curvature_field,
    fd_laplacian,
    kernel_eval,
    laplacian_log_sumsq,
    make_spec,
    poly,
    quotient_curvature,
    rational,
)

PAIR_1Z = MultiplierPair(poly([1]), poly([0, 1]))


def log_sumsq_sampler(theta):
    t1, t2 = theta
    return lambda z: float(np.log(abs(t1(z)) ** 2 + abs(t2(z)) ** 2))


def test_laplacian_1z_closed_form():
    # log(1 + |z|^2) has Laplacian 4 / (1 + |z|^2)^2
    assert laplacian_log_sumsq(PAIR_1Z, 0) == pytest.approx(4.0, abs=1e-12)
    for z in (0.3, -0.2 + 0.4j, 0.7j):
        expect = 4.0 / (1 + abs(z) ** 2) ** 2
        assert laplacian_log_sumsq(PAIR_1Z, z) == pytest.approx(expect, rel=1e-12)
        fd = fd_laplacian(log_sumsq_sampler(PAIR_1Z), z, 1e-3)
        assert abs(laplacian_log_sumsq(PAIR_1Z, z) - fd) <= 1e-3


def test_laplacian_constant_pair_is_zero():
    p = MultiplierPair(poly([2.5 - 1j]), poly([0]))
    for z in (0, 0.4, -0.6j):
        assert laplacian_log_sumsq(p, z) == 0.0


def test_laplacian_harmonic_factor_invariance():
    # {(2+z), (2+z) z} and {1, z} differ by log|2+z|^2, which is harmonic
    scaled = MultiplierPair(poly([2, 1]), poly([0, 2, 1]))
    for z in (0.3j, 0.5, -0.2 - 0.4j):
        diff = laplacian_log_sumsq(scaled, z) - laplacian_log_sumsq(PAIR_1Z, z)
        assert abs(diff) < 1e-10


def test_laplacian_harmonic_factor_invariance_randomized():
    rng = np.random.default_rng(41)
    pts = 0.8 * np.sqrt(rng.uniform(size=12)) * np.exp(2j * np.pi * rng.uniform(size=12))
    for _ in range(25):
        # nonvanishing on the closed disk: roots of modulus >= 1.2
        roots = (1.2 + rng.uniform(0, 2, size=2)) * np.exp(
            2j * np.pi * rng.uniform(size=2)
        )
        coeffs = [1.0 + 0j]
        for r in roots:
            coeffs = list(np.convolve(coeffs, [-r, 1.0]))
        f = poly(coeffs)
        scaled = PAIR_1Z.scale(f)
        base = laplacian_log_sumsq(PAIR_1Z, pts)
        assert np.max(np.abs(laplacian_log_sumsq(scaled, pts) - base)) <= 1e-9


def test_laplacian_degenerate_point():
    p = MultiplierPair(poly([0, 1]), poly([0, 0, 1]))
    with pytest.raises(DegeneratePoint) as info:
        laplacian_log_sumsq(p, 0)
    assert info.value.point == 0


def test_laplacian_agrees_with_fd_on_corpus(corpus):
    rng = np.random.default_rng(43)
    pts = 0.8 * np.sqrt(rng.uniform(size=10)) * np.exp(2j * np.pi * rng.uniform(size=10))
    for spec in corpus:
        sampler = log_sumsq_sampler(spec.theta)
        for z in pts:
            z = complex(z)
            analytic = laplacian_log_sumsq(spec.theta, z)
            fd = fd_laplacian(sampler, z, 1e-3)
            assert abs(analytic - fd) <= 1e-3 * (1 + abs(analytic))


def test_fd_laplacian_quadratic_exact():
    # the 5-point stencil is exact on |z|^2; Laplacian is 4
    for z in (0.1, -0.3 + 0.2j, 0.5j):
        assert fd_laplacian(lambda w: abs(w) ** 2, z, 1e-3) == pytest.approx(
            4.0, abs=1e-6
        )


def test_fd_laplacian_harmonic_cubic():
    assert fd_laplacian(lambda w: (w**3).real, 0.2, 1e-3) == pytest.approx(
        0.0, abs=1e-6
    )


def test_fd_laplacian_log_kernel_frozen():
    def logk(z):
        return float(np.log(kernel_eval(HARDY, z, z).real))

    assert fd_laplacian(logk, 0.5, 1e-3) == pytest.approx(64 / 9, abs=1e-3)


def test_fd_laplacian_richardson_improves():
    def f(z):
        return float(np.log(kernel_eval(HARDY, z, z).real))

    target = 4.0 / (1 - 0.25) ** 2
    plain = abs(fd_laplacian(f, 0.5, 1e-2) - target)
    extrap = abs(fd_laplacian(f, 0.5, 1e-2, richardson=True) - target)
    assert extrap < plain


def test_fd_laplacian_stencil_domain():
    with pytest.raises(StencilOutsideDomain):
        fd_laplacian(lambda z: abs(z) ** 2, 0.9995, 1e-3)


@pytest.mark.parametrize(
    "field",
    [
        lambda w: w.real * w.real + w.imag * w.imag,  # |z|^2
        lambda w: w.real * w.real * w.real - 3.0 * w.real * w.imag * w.imag,  # Re z^3
    ],
    ids=["abs2", "re_cube"],
)
def test_fd_laplacian_array_matches_scalar_loop(field):
    # the fields use real arithmetic only, which rounds the same on scalars
    # and arrays, so any difference would come from the stencil itself
    pts = DiskGrid(r_max=0.9, n_r=7, n_theta=11).points().reshape(7, 11)
    for richardson in (False, True):
        got = fd_laplacian(field, pts, 1e-3, richardson=richardson)
        assert got.shape == pts.shape
        ref = np.array(
            [fd_laplacian(field, complex(z), 1e-3, richardson=richardson) for z in pts.ravel()]
        ).reshape(pts.shape)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))


def test_fd_laplacian_array_stencil_domain():
    pts = np.array([0.1, 0.9995j, -0.3])
    with pytest.raises(StencilOutsideDomain, match="0.9995j"):
        fd_laplacian(lambda z: np.abs(z) ** 2, pts, 1e-3)


def test_quotient_curvature_values():
    s = make_spec(HARDY, PAIR_1Z)
    assert quotient_curvature(s, 0) == pytest.approx(-2.0, abs=1e-12)
    sb = make_spec(BERGMAN, PAIR_1Z)
    assert quotient_curvature(sb, 0) == pytest.approx(-3.0, abs=1e-12)


def test_quotient_curvature_constant_pair_reduces_to_base():
    s = make_spec(HARDY, MultiplierPair(poly([1]), poly([1])))
    for z in (0.4, -0.2 + 0.3j):
        assert quotient_curvature(s, z) == pytest.approx(
            base_curvature(HARDY, z), rel=1e-14
        )


def test_quotient_curvature_requires_certification():
    bare = QuotientSpec(base=HARDY, theta=PAIR_1Z)
    with pytest.raises(UncertifiedSpec):
        quotient_curvature(bare, 0)
    with pytest.raises(UncertifiedSpec):
        curvature_field(bare, DiskGrid())


def test_quotient_curvature_matches_section_norm_route(corpus):
    # -(1/4) FD-Laplacian of log(K(z,z) (|t1|^2+|t2|^2)) on |z| <= 0.7
    rng = np.random.default_rng(47)
    pts = 0.7 * np.sqrt(rng.uniform(size=8)) * np.exp(2j * np.pi * rng.uniform(size=8))
    for spec in corpus:
        t1, t2 = spec.theta

        def log_gamma_sq(z, kind=spec.base, t1=t1, t2=t2):
            val = kernel_eval(kind, z, z).real * (
                abs(t1(z)) ** 2 + abs(t2(z)) ** 2
            )
            return float(np.log(val))

        for z in pts:
            z = complex(z)
            fd = -0.25 * fd_laplacian(log_gamma_sq, z, 1e-3)
            assert abs(fd - quotient_curvature(spec, z)) <= 1e-3


def test_curvature_field_counts_and_signs():
    s = make_spec(HARDY, PAIR_1Z)
    grid = DiskGrid(r_max=0.5, n_r=4, n_theta=8)
    field = curvature_field(s, grid)
    assert field.values.shape == (32,)
    assert np.all(np.isfinite(field.values))
    assert np.all(field.values < 0)


def test_curvature_field_constant_pair_equals_base_sweep():
    s = make_spec(HARDY, MultiplierPair(poly([1]), poly([1])))
    grid = DiskGrid(r_max=0.7, n_r=6, n_theta=10)
    field = curvature_field(s, grid)
    assert np.allclose(field.values, base_curvature(HARDY, grid.points()), rtol=1e-14)


def test_grid_validation():
    with pytest.raises(ValueError):
        DiskGrid(r_max=0.8, n_r=0, n_theta=8)
    with pytest.raises(ValueError):
        DiskGrid(r_max=1.0, n_r=4, n_theta=8)


def test_grid_points_interior_and_count():
    grid = DiskGrid(r_max=0.9, n_r=5, n_theta=7)
    pts = grid.points()
    assert len(pts) == len(grid) == 35
    assert np.max(np.abs(pts)) < 0.9


def test_csv_serialization_format():
    s = make_spec(HARDY, PAIR_1Z)
    field = curvature_field(s, DiskGrid(r_max=0.5, n_r=2, n_theta=3))
    text = field.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "re,im,curvature"
    assert len(lines) == 7
    re0, im0, v0 = lines[1].split(",")
    z0 = complex(float(re0), float(im0))
    assert v0 == f"{quotient_curvature(s, z0):.17g}"


def test_rational_pair_through_curvature():
    # rational multipliers flow through the analytic engine
    pair = MultiplierPair(rational([1], [1, 0.5]), poly([0, 1]))
    s = make_spec(HARDY, pair)
    z = 0.3 + 0.1j
    analytic = laplacian_log_sumsq(pair, z)
    fd = fd_laplacian(log_sumsq_sampler(pair), z, 1e-3)
    assert abs(analytic - fd) <= 1e-3 * (1 + abs(analytic))
    assert quotient_curvature(s, z) == pytest.approx(
        base_curvature(HARDY, z) - 0.25 * analytic, rel=1e-14
    )
