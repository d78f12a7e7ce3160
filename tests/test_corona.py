"""Certified corona bounds: soundness, failure witnesses, monotonicity."""

import dataclasses
import math

import numpy as np
import pytest

import diskmod.corona
from diskmod import (
    CoronaFailure,
    DepthExceeded,
    MultiplierPair,
    QuotientSpec,
    certify,
    certify_spec,
    common_zeros_in_disk,
    poly,
    rational,
)
from diskmod.holofun import _PRODUCT_BLOCK, poly_mul
from reference import binomial_pair

PAIR_1Z = MultiplierPair(poly([1]), poly([0, 1]))
PAIR_Z_1MZ = MultiplierPair(poly([0, 1]), poly([1, -1]))
PAIR_Z_Z2 = MultiplierPair(poly([0, 1]), poly([0, 0, 1]))
# distinct zeros at +-1/2: no common zero, u bounded below
PAIR_PM_HALF = MultiplierPair(poly([-0.5, 1]), poly([0.5, 1]))


def dense_disk_min(theta, n=2000):
    """Brute-force minimum of |t1|^2 + |t2|^2 over an n x n cover of the disk."""
    xs = np.linspace(-1.0, 1.0, n)
    grid = xs[None, :] + 1j * xs[:, None]
    pts = grid[np.abs(grid) <= 1.0]
    t1, t2 = theta
    u = np.abs(t1(pts)) ** 2 + np.abs(t2(pts)) ** 2
    return float(u.min())


def test_certify_1z():
    cert = certify(PAIR_1Z, target_gap=0.5)
    assert 0.5 <= cert.epsilon <= 1.0  # true infimum is 1
    assert cert.boxes_checked > 0


def test_certify_z_1mz_derived_bracket():
    # u = 2y^2 + x^2 + (1-x)^2 has its minimum 1/2 at z = 1/2
    cert = certify(PAIR_Z_1MZ, target_gap=0.25)
    assert 0.25 <= cert.epsilon <= 0.5
    dense = dense_disk_min(PAIR_Z_1MZ)
    assert abs(dense - 0.5) < 1e-3
    assert cert.epsilon <= dense


def test_certify_failure_witness_near_origin():
    with pytest.raises(CoronaFailure) as info:
        certify(PAIR_Z_Z2, target_gap=1e-6)
    assert abs(info.value.witness) < 1e-3
    assert info.value.value < 1e-5


def test_certificate_never_exceeds_sampled_values():
    cases = ((PAIR_1Z, 0.5), (PAIR_Z_1MZ, 0.25), (PAIR_1Z, 1e-6), (PAIR_PM_HALF, 1e-6))
    for pair, target in cases:
        cert = certify(pair, target_gap=target)
        assert cert.epsilon <= dense_disk_min(pair) + 1e-12


def test_soundness_on_corpus(corpus):
    for spec in corpus:
        assert spec.certificate.epsilon <= dense_disk_min(spec.theta) + 1e-12


def test_monotone_under_scaling():
    for pair in (PAIR_1Z, PAIR_Z_1MZ):
        for c in (2.0, 2j):
            scaled = pair.scale(poly([c]))
            eps = certify(pair, target_gap=1e-6).epsilon
            eps_scaled = certify(scaled, target_gap=1e-6).epsilon
            assert eps_scaled >= eps


def test_common_zeros_empty_whenever_certified(corpus):
    for spec in corpus:
        assert common_zeros_in_disk(spec.theta) == []


def test_certify_spec_attaches_certificate():
    from diskmod import HARDY

    bare = QuotientSpec(base=HARDY, theta=PAIR_1Z)
    assert not bare.certified
    done = certify_spec(bare)
    assert done.certified
    assert done.certificate.epsilon > 0
    assert not bare.certified  # original untouched


def test_certificate_binds_its_pair():
    # a certificate proved for {1, z} must not vouch for (z - 0.5) {1, z},
    # whose components share a zero at 0.5
    from diskmod import (
        BERGMAN,
        HARDY,
        UncertifiedSpec,
        decide_equivalence,
        dim_ker_estimate,
        oracle_curvature,
        quotient_curvature,
    )

    spec = certify_spec(QuotientSpec(base=HARDY, theta=PAIR_1Z))
    moved = dataclasses.replace(spec, theta=PAIR_1Z.scale(poly([-0.5, 1])))
    assert not moved.certified
    for call in (
        lambda: quotient_curvature(moved, 0.2),
        lambda: decide_equivalence(spec, moved),
        lambda: oracle_curvature(moved, 0.2),
        lambda: dim_ker_estimate(moved, 0.3, 120),
    ):
        with pytest.raises(UncertifiedSpec, match="different multiplier pair"):
            call()
    # an equal pair and a new base keep the certificate: the corona condition
    # is about the pair alone
    same = dataclasses.replace(spec, theta=MultiplierPair(poly([1]), poly([0, 1])))
    assert same.certified
    rebased = dataclasses.replace(spec, base=BERGMAN)
    assert rebased.certified
    assert quotient_curvature(rebased, 0) == pytest.approx(-3.0)


def test_certify_rejects_bad_target():
    for gap in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            certify(PAIR_1Z, target_gap=gap)


def test_depth_exceeded_on_sharp_dip():
    # u dips to 2.5e-15 at z = 1/2: the Taylor bound clears 2e-16 only on
    # boxes smaller than maximal depth allows, and u stays above ten times
    # the target there
    pair = MultiplierPair(poly([-0.5, 1]), poly([5e-8]))
    with pytest.raises(DepthExceeded) as info:
        certify(pair, target_gap=2e-16)
    assert abs(info.value.witness - 0.5) < 1e-6
    assert info.value.value >= 10 * 2e-16
    assert info.value.best_bound <= 2.5e-15


def test_box_budget_names_the_projected_open_center(monkeypatch):
    # u = |z - (0.7 + 0.7i)|^2 + 1e-4; with room for ten boxes the search
    # stops after the first split, at the open box whose center 0.75 + 0.75i
    # has the smallest u, and names that center projected onto the circle
    pair = MultiplierPair(poly([-(0.7 + 0.7j), 1]), poly([0.01]))
    cert = certify(pair, target_gap=1e-6)
    assert (cert.depth, cert.boxes_checked) == (8, 37)
    monkeypatch.setattr(diskmod.corona, "BOX_BUDGET", 10)
    with pytest.raises(DepthExceeded) as info:
        certify(pair, target_gap=1e-6)
    assert info.value.best_bound == 0.0
    assert abs(info.value.witness - math.sqrt(0.5) * (1 + 1j)) < 1e-15
    assert info.value.value == pytest.approx(2.01013e-4, rel=1e-5)


def test_flat_region_with_huge_high_degree_term_certifies():
    # u = 1 + 1e8 |z|^60: flat at the center, steep near the circle
    pair = MultiplierPair(poly([1]), poly([0] * 30 + [1e4]))
    cert = certify(pair, target_gap=1e-6)
    assert 1e-6 <= cert.epsilon <= dense_disk_min(pair)


def _random_poly(rng, degree):
    return rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)


def _disk_point(rng, radius):
    return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


def test_planted_common_zero_fails_with_witness_at_zero():
    # common zeros anywhere in |w| < 0.95, not only at dyadic box centers;
    # at target 1e-3 the search locks on while boxes are still coarse
    rng = np.random.default_rng(61)
    for i in range(200):
        w = _disk_point(rng, 0.95)
        factor = [-w, 1.0]
        pair = MultiplierPair(
            poly(poly_mul(factor, _random_poly(rng, 2))),
            poly(poly_mul(factor, _random_poly(rng, 2))),
        )
        with pytest.raises(CoronaFailure) as info:
            certify(pair, target_gap=1e-3 if i % 2 else 1e-6)
        assert abs(info.value.witness - w) < 1e-6


def test_common_zero_fails_at_the_zero_without_descent(monkeypatch):
    # simple common zeros in |w| < 0.95 of polynomial and rational numerators
    # are read from the numerator GCD: the witness is the zero itself
    def no_descent(*args):
        raise AssertionError("descended to a common zero")

    monkeypatch.setattr(diskmod.corona, "_descend", no_descent)
    rng = np.random.default_rng(79)
    for i in range(80):
        w = _disk_point(rng, 0.95)
        factor = [-w, 1.0]
        p1 = poly_mul(factor, _random_poly(rng, 2))
        p2 = poly_mul(factor, _random_poly(rng, 3))
        if i % 2:
            pair = MultiplierPair(
                rational(p1, _random_pole_factor(rng)),
                rational(p2, poly_mul(_random_pole_factor(rng), _random_pole_factor(rng))),
            )
        else:
            pair = MultiplierPair(poly(p1), poly(p2))
        with pytest.raises(CoronaFailure) as info:
            certify(pair, target_gap=1e-3 if i % 4 > 1 else 1e-6)
        exc = info.value
        assert exc.common_zero is True
        assert abs(exc.witness - w) < 1e-10
        t1, t2 = pair
        u = abs(t1(exc.witness)) ** 2 + abs(t2(exc.witness)) ** 2
        assert exc.value == pytest.approx(u, rel=1e-6, abs=1e-24)


def test_near_common_zero_still_descends(monkeypatch):
    # numerator zeros 1e-3 apart: u dips to 5e-7 between them, below the
    # target, but the GCD is trivial, so the failure comes from the descent
    descents = []
    descend = diskmod.corona._descend

    def counting(*args):
        descents.append(args)
        return descend(*args)

    monkeypatch.setattr(diskmod.corona, "_descend", counting)
    a = 0.3 - 0.4j
    for target in (1e-6, 1e-3):
        pair = MultiplierPair(poly([-a, 1]), poly(poly_mul([-(a + 1e-3), 1], [2, 1])))
        assert common_zeros_in_disk(pair) == []
        with pytest.raises(CoronaFailure) as info:
            certify(pair, target_gap=target)
        assert info.value.common_zero is False
        assert abs(info.value.witness - (a + 5e-4)) < 1e-3
    assert len(descents) == 2


def test_certified_pairs_never_look_for_common_zeros(monkeypatch, corpus):
    def no_gcd(theta):
        raise AssertionError("common-zero search on a certified path")

    monkeypatch.setattr(diskmod.corona, "common_zeros_in_disk", no_gcd)
    for spec in corpus:
        certify(spec.theta)
    certify(PAIR_Z_1MZ, target_gap=0.25)


def sampled_disk_min(theta, n=301, n_circle=4096):
    """Minimum of u over an n x n grid of the disk plus n_circle circle points."""
    xs = np.linspace(-1.0, 1.0, n)
    grid = (xs[None, :] + 1j * xs[:, None]).ravel()
    circle = np.exp(2j * np.pi * np.arange(n_circle) / n_circle)
    pts = np.concatenate([grid[np.abs(grid) <= 1.0], circle])
    t1, t2 = theta
    return float((np.abs(t1(pts)) ** 2 + np.abs(t2(pts)) ** 2).min())


def _random_pole_factor(rng):
    pole = rng.uniform(1.2, 3.0) * np.exp(2j * np.pi * rng.uniform())
    return [1.0, -1.0 / pole]


def _soundness_pairs(rng, count):
    for i in range(count):
        p1 = _random_poly(rng, int(rng.integers(0, 7)))
        p2 = _random_poly(rng, int(rng.integers(0, 7)))
        if i % 2 == 0:
            yield MultiplierPair(poly(p1), poly(p2))
        else:
            q2 = poly_mul(_random_pole_factor(rng), _random_pole_factor(rng))
            yield MultiplierPair(
                rational(p1[:3], _random_pole_factor(rng)), rational(p2[:3], q2)
            )


def test_certificate_sound_on_random_pairs():
    rng = np.random.default_rng(67)
    certified = 0
    for pair in _soundness_pairs(rng, 200):
        target = float(rng.choice([1e-6, 1e-3, 1e-1]))
        sampled = sampled_disk_min(pair)
        try:
            cert = certify(pair, target_gap=target)
        except CoronaFailure as exc:
            t1, t2 = pair
            assert abs(exc.witness) <= 1.0
            assert exc.value < 10 * target
            assert exc.value == pytest.approx(
                abs(t1(exc.witness)) ** 2 + abs(t2(exc.witness)) ** 2, rel=1e-6, abs=1e-15
            )
            continue
        assert target <= cert.epsilon <= sampled
        certified += 1
    assert certified >= 150


def test_certificate_sound_in_exact_arithmetic_on_constant_pairs():
    # with no Taylor tail the bound is the rounded center value itself, so
    # only the rounding allowance keeps epsilon below the exact minimum
    from fractions import Fraction

    rng = np.random.default_rng(73)
    for _ in range(200):
        x, y = (complex(*rng.standard_normal(2)) for _ in range(2))
        exact = sum(Fraction(v.real) ** 2 + Fraction(v.imag) ** 2 for v in (x, y))
        cert = certify(MultiplierPair(poly([x]), poly([y])), float(exact) / 2)
        assert Fraction(cert.epsilon) <= exact


def test_tight_scaling_family_certifies():
    # (b + z)^4 {1, z}: u >= (|b| - 1)^8 > 0 with a zero of the factor just
    # outside the closed disk
    rng = np.random.default_rng(71)
    for _ in range(10):
        b = rng.uniform(1.25, 1.35) * np.exp(2j * np.pi * rng.uniform())
        f = [1.0]
        for _ in range(4):
            f = poly_mul(f, [b, 1.0])
        pair = MultiplierPair(poly(f), poly(poly_mul(f, [0, 1])))
        sampled = sampled_disk_min(pair)
        for target in (1e-6, 0.05 * sampled):
            cert = certify(pair, target_gap=target)
            assert target <= cert.epsilon <= sampled


def test_budget_bounds_frontier_memory():
    # no box can clear target 1 while u >= 1 everywhere, so every level
    # floods until the box budget stops it before expanding further; peak
    # memory is read from VmHWM, which, unlike ru_maxrss, restarts at exec
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import re\n"
        "from diskmod import DepthExceeded, MultiplierPair, certify, poly\n"
        "try:\n"
        "    certify(MultiplierPair(poly([1]), poly([0] * 9 + [1e-8])), 1.0)\n"
        "except DepthExceeded:\n"
        "    status = open('/proc/self/status').read()\n"
        "    print(re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120, check=True,
    )
    peak_mb = int(out.stdout.strip()) / 1024
    assert peak_mb < 300


def test_box_bound_products_stay_under_the_product_block(monkeypatch):
    # (2+z)^26 {1, z}: levels of up to 856 boxes against 28 Taylor terms, so
    # one product per level would take 2e6 complex multiply-adds, and an
    # OpenBLAS with more than one thread would split it across its threads
    shapes = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        shapes.append((a.shape, b.shape, np.iscomplexobj(a) or np.iscomplexobj(b)))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    cert = certify(binomial_pair(26, coprime=False))
    blocks = 0
    for (*stack, m, k), (_, n), is_complex in shapes:
        # one BLAS product per block of a stack; a complex multiply-add is
        # four real ones
        assert m * k * n * (1 if is_complex else 0.25) <= _PRODUCT_BLOCK, (m, k, n)
        blocks += math.prod(stack) if is_complex else 0
    # every box went through the recorded products, in more than one block
    assert sum(math.prod(a[:-1]) for a, _, is_complex in shapes if is_complex) == cert.boxes_checked
    assert blocks > 2 * (cert.depth + 1)

