"""Function layer: evaluation, derivatives, common zeros, parsing."""

import numpy as np
import pytest

from diskmod import (
    HoloFun,
    InvalidFunction,
    MultiplierPair,
    PointOutsideDomain,
    common_zeros_in_disk,
    derivative,
    format_function,
    parse_function,
    poly,
    polynomial_gcd,
    polynomial_roots,
    rational,
)
from diskmod.holofun import _horner, poly_mul


def test_eval_constant_term():
    f = poly([1, 0, -0.5])
    assert f(0) == 1


def test_eval_identity_function():
    f = poly([0, 1])
    z = 0.3 + 0.4j
    assert f(z) == z


def test_eval_rational_with_unit_denominator():
    f = rational([2, 1], [1])
    assert f.is_polynomial
    assert f(-1) == 1


def test_eval_rejects_far_points():
    f = poly([1, 1])
    with pytest.raises(PointOutsideDomain):
        f(1.3)
    assert f(1.25) == pytest.approx(2.25)


def test_eval_vectorized_matches_scalar():
    f = rational([1, 2, 1], [1, 0.25])
    pts = np.array([0.1, -0.3 + 0.2j, 0.9j])
    vals = f(pts)
    assert vals.shape == (3,)
    for p, v in zip(pts, vals):
        assert v == pytest.approx(f(complex(p)))


def reference_horner(coeffs, z):
    # the allocating form the in-place Horner loop replaced
    acc = np.zeros_like(z)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def test_horner_in_place_is_bit_identical():
    rng = np.random.default_rng(17)
    z = 1.2 * (rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500))
    real_z = np.asarray(rng.uniform(-1.2, 1.2, 500), complex)
    cases = [[0j]]
    for degree in range(31):
        re, im = rng.standard_normal((2, degree + 1))
        cases.append(list(re + 1j * im))
        cases.append([complex(c) for c in re])
    for coeffs in cases:
        for pts in (
            z,
            real_z,
            z[::7],
            z[:2],
            z[:1],
            real_z[:1].reshape(1, 1),
            np.asarray(0.3 - 0.7j),
            np.asarray(-0.5 + 0j),
        ):
            got = _horner(coeffs, pts)
            assert got.shape == pts.shape
            assert got.tobytes() == reference_horner(coeffs, pts).tobytes()


def test_derivative_power_rule():
    assert derivative(poly([1, 0, -0.5])).numer == (0j, (-1 + 0j))
    assert derivative(poly([0, 1])).numer == ((1 + 0j),)


def test_derivative_quotient_rule_collapses_to_zero():
    # (2+z)/(1+z/2) = 2 exactly, so the derivative is the zero function
    f = rational([2, 1], [1, 0.5])
    df = derivative(f)
    assert df.is_zero


@pytest.mark.parametrize(
    "f",
    [
        poly([1, 0, -0.5]),
        poly([0.3 - 0.1j, 1.5, 0, 2j]),
        rational([2, 1], [1, 0.5]),
        rational([1, -1j, 0.25], [1, 0.2, 0.1]),
    ],
)
def test_derivative_matches_central_difference(f):
    # oracle: (f(z+h) - f(z-h)) / 2h at h = 1e-5, tolerance scaled by sup |f|
    df = derivative(f)
    sup = max(abs(f(np.exp(1j * t))) for t in np.linspace(0, 2 * np.pi, 64))
    h = 1e-5
    for z in (0, 0.5, -0.3 + 0.6j, 0.9j, 0.7 - 0.1j):
        fd = (f(z + h) - f(z - h)) / (2 * h)
        assert abs(df(z) - fd) <= 1e-7 * (1 + sup)


def test_derivative_cache_is_bounded():
    # a long-lived process differentiating ever new functions must not grow
    # the cache without limit
    bound = derivative.cache_info().maxsize
    assert bound is not None
    for k in range(bound + 100):
        assert derivative(poly([k, 1, 0.5])).numer == (1, 1)
        assert derivative.cache_info().currsize <= bound


def test_derivative_fd_agreement_randomized():
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(50):
        deg = rng.integers(1, 8)
        f = poly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        df = derivative(f)
        sup = max(abs(f(np.exp(1j * t))) for t in np.linspace(0, 2 * np.pi, 64))
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        fd = (f(z + h) - f(z - h)) / (2 * h)
        assert abs(df(z) - fd) <= 1e-7 * (1 + sup)


def test_rational_rejects_denominator_root_in_disk():
    with pytest.raises(InvalidFunction):
        rational([1], [1, -2])  # zero at 0.5
    with pytest.raises(InvalidFunction):
        rational([1], [0, 1])  # zero at 0
    with pytest.raises(InvalidFunction):
        rational([1], [-1, 1])  # zero exactly on the boundary


def test_rational_rejects_planted_roots_randomized():
    rng = np.random.default_rng(7)
    for _ in range(40):
        # plant one root inside the closed disk among others outside
        inside = rng.uniform(0, 1.0) * np.exp(2j * np.pi * rng.uniform())
        outside = 1.5 + rng.uniform(0, 2, size=2)
        den = [1.0 + 0j]
        for r in (inside, *outside):
            den = poly_mul(den, [-r, 1.0])
        with pytest.raises(InvalidFunction):
            HoloFun((1,), tuple(den))


def test_rational_accepts_roots_just_outside():
    f = rational([1], [1, -1 / 1.01])  # zero at 1.01
    assert abs(f(0.5) - 1 / (1 - 0.5 / 1.01)) < 1e-12


def test_denominator_constant_term_normalized():
    f = rational([2, 2], [2, 1])
    assert f.denom[0] == 1
    assert f(0.3) == pytest.approx((2 + 2 * 0.3) / (2 + 0.3))


def test_common_zeros_trivial_cases():
    assert common_zeros_in_disk(MultiplierPair(poly([1]), poly([0, 1]))) == []
    assert common_zeros_in_disk(MultiplierPair(poly([0, 1]), poly([0, 0, 1]))) == [0]


def test_common_zeros_gcd_case():
    # gcd of z^2 - 1/4 and z - 1/2 is z - 1/2
    p = MultiplierPair(poly([-0.25, 0, 1]), poly([-0.5, 1]))
    zeros = common_zeros_in_disk(p)
    assert len(zeros) == 1
    root = zeros[0]
    assert abs(root - 0.5) < 1e-10
    # oracle: both components really vanish there
    assert abs(p.theta1(root)) < 1e-10
    assert abs(p.theta2(root)) < 1e-10


def test_common_zeros_ignores_roots_outside_disk():
    # common factor z - 2 sits outside the disk
    p = MultiplierPair(poly(poly_mul([1, 1], [-2, 1])), poly(poly_mul([1], [-2, 1])))
    assert common_zeros_in_disk(p) == []


def test_common_zeros_with_zero_component():
    p = MultiplierPair(poly([0]), poly([0, 1]))
    assert common_zeros_in_disk(p) == [0]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_common_zeros_lists_a_multiple_zero_once(m):
    # (z-a)^m (z-b) against the same times (2+z): the eigenvalues of an m-fold
    # root spread to about eps^(1/m), far beyond any fixed merge radius
    rng = np.random.default_rng(109 + m)
    done = 0
    while done < 200:
        a, b = 0.8 * np.sqrt(rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
        if abs(a - b) <= 0.1:
            continue
        g = [-b, 1]
        for _ in range(m):
            g = poly_mul(g, [-a, 1])
        zeros = common_zeros_in_disk(MultiplierPair(poly(g), poly(poly_mul(g, [2, 1]))))
        assert len(zeros) == 2
        assert min(abs(z - a) for z in zeros) < 1e-9
        assert min(abs(z - b) for z in zeros) < 1e-9
        done += 1


def test_multiplier_pair_rejects_double_zero():
    with pytest.raises(InvalidFunction):
        MultiplierPair(poly([0]), poly([0]))


def test_cleared_pair_puts_u_over_one_denominator():
    # rows P1 = p1 q2, P2 = p2 q1 and Q = q1 q2, zero-padded, and the same
    # products of the coefficient moduli; built once and read-only
    t1 = rational([1, 0.5j], [1, -0.25])
    t2 = rational([0, 2], [1, 0.5, 0.1])
    pair = MultiplierPair(t1, t2)
    coeffs, bounds = pair._cleared
    assert pair._cleared[0] is coeffs
    assert not coeffs.flags.writeable and not bounds.flags.writeable
    assert coeffs.shape == bounds.shape == (3, 4)
    factors = ((t1.numer, t2.denom), (t2.numer, t1.denom), (t1.denom, t2.denom))
    for row, bound, (a, b) in zip(coeffs, bounds, factors):
        width = len(a) + len(b) - 1
        assert list(row[:width]) == poly_mul(a, b) and not row[width:].any()
        assert list(bound[:width]) == poly_mul(np.abs(a), np.abs(b)) and not bound[width:].any()
    for z in (0.0, 0.3 - 0.4j, -0.9j):
        p1, p2, q = (_horner(tuple(row), np.complex128(z)) for row in coeffs)
        u = abs(t1(z)) ** 2 + abs(t2(z)) ** 2
        assert (abs(p1) ** 2 + abs(p2) ** 2) / abs(q) ** 2 == pytest.approx(u, rel=1e-14)
    polynomial = MultiplierPair(poly([1, 2]), poly([0, 1j]))
    assert polynomial._cleared[0].tolist() == [[1, 2], [0, 1j], [1, 0]]


def test_polynomial_roots_basic():
    roots = sorted(polynomial_roots([2, -3, 1]), key=lambda z: z.real)  # (z-1)(z-2)
    assert abs(roots[0] - 1) < 1e-10 and abs(roots[1] - 2) < 1e-10


def test_polynomial_roots_randomized_reconstruction():
    rng = np.random.default_rng(3)
    cases = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(30)]
    # a double root, and roots at the origin, which are split off exactly
    cases += [[0.5 - 0.25j, 0.5 - 0.25j, -1.5], [0, 0, 0.75, -2j]]
    for true in cases:
        coeffs = [1.0 + 0j]
        for r in true:
            coeffs = poly_mul(coeffs, [-r, 1.0])
        found = polynomial_roots(coeffs)
        assert len(found) == len(true)
        for r in true:
            assert min(abs(found - r)) < 1e-7


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
def test_pole_near_the_circle_survives_the_quotient_rule(delta):
    # the derivative squares the denominator, so the root gate sees a double
    # root just outside the closed disk; a Newton step there can jump far off
    for t in range(200):
        r = (1 + delta) * np.exp(2j * np.pi * t / 200)
        df = derivative(rational([1], [1, -1 / r]))
        assert max(abs(polynomial_roots(df.denom) - r)) < 1e-6


def test_polynomial_gcd_coprime_is_constant():
    g = polynomial_gcd([1, 1], [2, 0, 1])
    assert len(g) == 1


def test_zero_function_canonical():
    z = poly([0, 0, 0])
    assert z.is_zero and z.numer == (0j,) and z.is_polynomial


# --- the function-literal grammar ---------------------------------------


def test_parse_poly_literal():
    f = parse_function("poly:[1, 0, -0.5]")
    assert f == poly([1, 0, -0.5])


def test_parse_rational_literal():
    f = parse_function(" rat : [2, 1] / [1, 0.5] ".replace(" ", ""))
    assert f == rational([2, 1], [1, 0.5])


def test_parse_complex_coefficients():
    f = parse_function("poly:[1.5-0.5i, 2i, -3]")
    assert f.numer == (1.5 - 0.5j, 2j, -3 + 0j)


def test_parse_whitespace_insignificant():
    assert parse_function("poly:[ 1 , 0.5 + 2i ]") == parse_function("poly:[1,0.5+2i]")


@pytest.mark.parametrize(
    "bad",
    ["poly:[]", "poly:[1..5]", "spline:[1]", "rat:[1]", "rat:[1]/[2]/[3]", "poly:1,2"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_function(bad)


@pytest.mark.parametrize(
    "f",
    [
        poly([1]),
        poly([0, 1]),
        poly([1.5 - 0.5j, 0, 2]),
        rational([2, 1], [1, 0.5]),
        rational([1j], [1, 0.25 + 0.25j]),
    ],
)
def test_grammar_round_trip(f):
    assert parse_function(format_function(f)) == f
