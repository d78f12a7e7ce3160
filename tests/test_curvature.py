"""Curvature engines: Wirtinger Laplacian, quotient identity, and the finite-difference reference."""

import io
import math
from decimal import Decimal

import numpy as np
import pytest

from diskmod import (
    BERGMAN,
    HARDY,
    CurvatureField,
    DegeneratePoint,
    DiskGrid,
    MultiplierPair,
    PointOutsideDomain,
    QuotientSpec,
    UncertifiedSpec,
    base_curvature,
    curvature_field,
    kernel_eval,
    laplacian_log_sumsq,
    make_spec,
    poly,
    quotient_curvature,
    rational,
)
from diskmod.curvature import (
    _CSV_BLOCK_ROWS,
    _csv_rows,
    _CsvBuffers,
    _grid_laplacian,
    _significand,
)
from reference import binomial_laplacian, binomial_pair, fd_laplacian

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


@pytest.mark.parametrize("z", [1.0, 1.5j, np.array([0.5, -1.0j]), np.array([0.2j, -1.5])])
def test_laplacian_rejects_points_outside_the_open_disk(z):
    with pytest.raises(PointOutsideDomain):
        laplacian_log_sumsq(PAIR_1Z, z)


def test_fd_laplacian_stencil_domain():
    with pytest.raises(PointOutsideDomain):
        fd_laplacian(lambda z: abs(z) ** 2, 0.9995, 1e-3)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.inf, math.nan])
def test_fd_laplacian_rejects_bad_step(h):
    with pytest.raises(ValueError):
        fd_laplacian(lambda z: abs(z) ** 2, 0.2, h)


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
    got = fd_laplacian(field, pts, 1e-3)
    assert got.shape == pts.shape
    ref = np.array([fd_laplacian(field, complex(z), 1e-3) for z in pts.ravel()]).reshape(pts.shape)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))


def test_fd_laplacian_calls_an_array_field_once():
    # one call on the stacked stencil (z, z+h, z-h, z+ih, z-ih), summed in
    # that order, gives what five calls give
    pts = DiskGrid(r_max=0.8, n_r=3, n_theta=5).points().reshape(3, 5)
    h = 1e-3
    shapes = []

    def field(w):
        shapes.append(np.shape(w))
        return np.log(1.0 + np.abs(w) ** 2)

    got = fd_laplacian(field, pts, h)
    assert shapes == [(5, 3, 5)]
    acc = -4.0 * field(pts)
    for p in (pts + h, pts - h, pts + 1j * h, pts - 1j * h):
        acc += field(p)
    assert got.tobytes() == (acc / h**2).tobytes()


def test_fd_laplacian_array_stencil_domain():
    pts = np.array([0.1, 0.9995j, -0.3])
    with pytest.raises(PointOutsideDomain, match="0.9995j"):
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


def reference_csv(pts, values):
    # the one-row-at-a-time writer the block writer replaced
    buf = io.StringIO()
    buf.write("re,im,curvature\n")
    for p, v in zip(pts, values):
        buf.write(f"{p.real:.17g},{p.imag:.17g},{v:.17g}\n")
    return buf.getvalue()


SPECIAL_VALUES = (
    -0.0,
    0.0,
    float("nan"),
    float("inf"),
    float("-inf"),
    5e-324,
    -5e-324,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    -2.0,
    1e-17,
)


B = _CSV_BLOCK_ROWS


@pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 2 * B + 3])
def test_csv_block_writer_matches_row_writer(rows, tmp_path):
    rng = np.random.default_rng(rows)
    grid = DiskGrid(r_max=0.9, n_r=1, n_theta=rows)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    values[: len(SPECIAL_VALUES)] = SPECIAL_VALUES[: rows]
    # '%'-path values in the last row of the first block and the first two
    # of the second, where the blocks' bytes are joined
    junction = values[B - 1 : B + 2]
    junction[:] = (float("nan"), -0.0, 1e-17)[: len(junction)]
    field = CurvatureField(grid=grid, values=values, label="special")
    expect = reference_csv(grid.points(), values)
    assert field.csv_text() == expect
    path = tmp_path / "field.csv"
    field.to_csv(path)
    assert path.read_bytes() == expect.encode("ascii")

    # special values in the coordinate columns too
    specials = np.resize(np.array(SPECIAL_VALUES), rows)
    pts = np.empty(rows, complex)
    pts.real = specials
    pts.imag = specials[::-1]
    buf = io.BytesIO()
    field._write(buf.write, pts)
    assert buf.getvalue() == reference_csv(pts, values).encode("ascii")


def formatter_classes():
    """Values by class, each class with both signs, for the %.17g formatter."""
    rng = np.random.default_rng(27)
    powers = np.array([float(f"1e{e}") for e in range(-6, 19)])
    ties = []
    for k in range(-4, 16):
        # j / 2^(17 - k), j odd, times 10^(16 - k) is j 5^(16 - k) / 2: the
        # 17th digit is followed by exactly one half (j < 2^53 stays exact)
        p = 17 - k
        lo, hi = int(10.0**k * 2**p), min(int(10.0 ** (k + 1) * 2**p), 2**53)
        ties.append((2 * rng.integers(lo // 2 + 1, hi // 2 - 1, 50) + 1) / 2.0**p)
    classes = {
        "decades": np.concatenate([rng.uniform(1, 10, 200) * 10.0**e for e in range(-5, 18)]),
        "powers and neighbours": np.concatenate(
            [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]
        ),
        "ties": np.concatenate(ties),
        "round up to a power of ten": np.array(
            [float(f"9.99999999999999999e{e}") for e in range(-6, 18)]
        ),
        "integers": np.concatenate(
            [np.arange(1000.0), rng.integers(1, 2**53, 500).astype(float), 2.0 ** np.arange(60)]
        ),
        "special": np.array([0.0, np.inf, np.nan, 5e-324, np.finfo(float).max]),
        "random bits": rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),
    }
    return {name: np.concatenate([v, -v]) for name, v in classes.items()}


def test_csv_formatter_matches_percent_g_by_class():
    classes = formatter_classes()
    for name, v in classes.items():
        v = np.resize(v, 3 * -(-len(v) // 3))
        block = v.reshape(-1, 3)
        got = _csv_rows(block, _CsvBuffers(len(block))).decode("ascii")
        got = got.replace("\n", ",").split(",")[:-1]
        want = ["%.17g" % t for t in v.tolist()]
        bad = [(t, g, w) for t, g, w in zip(v.tolist(), got, want) if g != w]
        assert len(got) == len(want) and not bad, (name, bad[:5])

    # the ties are ties: digit 18 is a 5 with nothing after it
    for t in classes["ties"].tolist():
        scaled = Decimal(t).scaleb(16 - Decimal(t).adjusted())
        assert abs(scaled) % 1 == Decimal("0.5")

    # an exponent estimate one off either way gives the same digits: np.log10
    # may round across a power of ten, and so may another platform's
    a = np.abs(np.concatenate([v for name, v in classes.items() if name != "random bits"]))
    a = np.unique(a[(a >= 1e-4) & (a < 1e16)])
    exact = np.array([Decimal(t).adjusted() for t in a.tolist()])
    want = [("%.16e" % t).replace(".", "").split("e") for t in a.tolist()]
    want_n = np.array([int(m) for m, _ in want])
    want_k = np.array([int(e) for _, e in want])
    for step in (-1, 0, 1):
        n, k = _significand(a, exact + step)
        assert np.array_equal(n, want_n) and np.array_equal(k, want_k), step


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


@pytest.mark.parametrize("r_max", [0.8, 0.95])
@pytest.mark.parametrize("coprime", [False, True])
def test_grid_laplacian_is_no_less_accurate_than_horner(coprime, r_max):
    # near z = -1 the power sums of (2 + z)^k lose about
    # k log10((2 + |z|) / |2 + z|) digits, more than Horner's rule; the error
    # bound sends those points back to Horner, so the grid's worst error
    # against the exact Laplacian is Horner's.  The base does not enter the
    # Laplacian, so one run covers Hardy and Bergman alike.
    grid = DiskGrid(r_max=r_max, n_r=40, n_theta=80)
    pts = grid.points()
    for k in range(8, 29, 5):
        pair = binomial_pair(k, coprime)
        exact = np.array([binomial_laplacian(k, coprime, z) for z in pts])

        def worst(values):
            return np.max(np.abs(values - exact) / (1.0 + exact))

        assert worst(_grid_laplacian(pair, grid)) <= worst(laplacian_log_sumsq(pair, pts)), k


@pytest.mark.parametrize(
    "pair",
    [
        MultiplierPair(poly([-0.375, 1]), poly([-0.75, 1.625, 1])),  # (z - 3/8) {1, z + 2}
        MultiplierPair(rational([-0.375, 1], [1, 0.5]), poly([-0.375, 1])),
    ],
    ids=["polynomial", "rational"],
)
def test_grid_laplacian_raises_at_a_common_zero_on_the_grid(pair):
    # z = 3/8 is the grid point of ring 1 at angle 0, where both power sums
    # vanish exactly
    grid = DiskGrid(r_max=0.5, n_r=2, n_theta=4)
    assert grid.points()[4] == 0.375
    with pytest.raises(DegeneratePoint) as info:
        _grid_laplacian(pair, grid)
    assert info.value.point == 0.375
    with pytest.raises(DegeneratePoint) as info:
        laplacian_log_sumsq(pair, grid.points())
    assert info.value.point == 0.375


def test_grid_laplacian_keeps_every_power_sum_on_mild_pairs(monkeypatch, corpus):
    # well-conditioned pairs never go back to Horner's rule on the grid
    def refuse(rows, z):
        raise AssertionError(f"Horner's rule at {z.size} grid points")

    mild = [spec.theta for spec in corpus] + [
        MultiplierPair(rational([1, 0.1 + 0.05j], [1, -1 / 6.5]), poly([0, 0.3 - 0.1j, 0.05j]))
    ]
    grid = DiskGrid(r_max=0.9, n_r=30, n_theta=60)
    expect = [laplacian_log_sumsq(theta, grid.points()) for theta in mild]
    monkeypatch.setattr("diskmod.curvature._horner_rows", refuse)
    for theta, want in zip(mild, expect):
        got = _grid_laplacian(theta, grid)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-14


def test_curvature_field_uses_the_grid_laplacian(corpus):
    grid = DiskGrid(r_max=0.7, n_r=5, n_theta=9)
    for spec in corpus:
        field = curvature_field(spec, grid)
        want = base_curvature(spec.base, grid.points()) - 0.25 * _grid_laplacian(spec.theta, grid)
        assert field.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("delta", [3e-8, 1e-8, 2e-9])
def test_laplacian_takes_a_pole_closer_to_the_circle_than_derivative_does(delta):
    # the cleared polynomials need no quotient rule, so no squared
    # denominator with double zeros meets the root gate: every rational
    # function that constructs has a Laplacian
    grid = DiskGrid(r_max=0.5, n_r=2, n_theta=4)
    for t in range(50):
        r = (1 + delta) * np.exp(2j * np.pi * t / 50)
        pair = MultiplierPair(rational([1], [1, -1 / r]), poly([0, 1]))
        z = 0.5 * np.exp(2j * np.pi * t / 50)
        value = laplacian_log_sumsq(pair, z)
        fd = fd_laplacian(log_sumsq_sampler(pair), z, 1e-3)
        assert abs(value - fd) <= 1e-3 * (1 + abs(value))
        assert np.all(np.isfinite(_grid_laplacian(pair, grid)))
