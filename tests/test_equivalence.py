"""Equivalence decisions: branch logic, witnesses, invariance properties."""

import math

import numpy as np
import pytest

import diskmod.equivalence
from diskmod import (
    BERGMAN,
    HARDY,
    DiskGrid,
    MultiplierPair,
    Outcome,
    QuotientSpec,
    UncertifiedSpec,
    curvature_field,
    decide_equivalence,
    laplacian_log_sumsq,
    make_spec,
    poly,
    quotient_curvature,
    weighted_bergman,
)
from diskmod.holofun import poly_mul
from reference import fd_laplacian, lemma46_error

PAIR_1Z = MultiplierPair(poly([1]), poly([0, 1]))
PAIR_SCALED = MultiplierPair(poly([2, 1]), poly([0, 2, 1]))  # (2+z) * {1, z}
PAIR_12Z = MultiplierPair(poly([1]), poly([0, 2]))
FINE_GRID = DiskGrid(r_max=0.8, n_r=480, n_theta=48)


def random_nonvanishing(rng, degree=2, lo=5.0, hi=25.0):
    """Random polynomial with all roots of modulus in [lo, hi]."""
    coeffs = [1.0 + 0j]
    for _ in range(degree):
        root = rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform())
        coeffs = poly_mul(coeffs, [-root, 1.0])
    return poly(coeffs)


def test_decide_cross_base_rejects():
    a = make_spec(HARDY, PAIR_1Z)
    b = make_spec(BERGMAN, PAIR_1Z)
    v = decide_equivalence(a, b)
    assert v.outcome is Outcome.NOT_ISOMORPHIC
    assert v.detail == "Theorem 4.7"
    assert v.witness is not None


def test_decide_weight_mismatch_rejects():
    theta = PAIR_1Z
    a = make_spec(weighted_bergman(1.0), theta)
    b = make_spec(weighted_bergman(2.0), theta)
    v = decide_equivalence(a, b)
    assert v.outcome is Outcome.NOT_ISOMORPHIC
    assert v.detail == "Theorem 4.5"


def test_decide_isomorphic_harmonic_factor():
    a = make_spec(HARDY, PAIR_1Z)
    b = make_spec(HARDY, PAIR_SCALED)
    v = decide_equivalence(a, b, tol=1e-6)
    assert v.outcome is Outcome.ISOMORPHIC
    assert v.max_deviation <= 1e-9
    assert v.witness is None


def test_decide_rejects_scaled_coordinate():
    a = make_spec(HARDY, PAIR_1Z)
    b = make_spec(HARDY, PAIR_12Z)
    v = decide_equivalence(a, b, FINE_GRID, tol=1e-6)
    assert v.outcome is Outcome.NOT_ISOMORPHIC
    assert v.detail == "Theorem 4.4"
    assert abs(v.witness.point) <= 1e-3
    assert v.witness.obstruction == pytest.approx(-12.0, abs=1e-3)
    # Laplacians 4/(1+|z|^2)^2 and 16/(1+4|z|^2)^2: the finite-difference
    # stencil sees the same gap of 12 at the origin
    fd_a = fd_laplacian(lambda z: float(np.log(1 + abs(z) ** 2)), 1e-4, 1e-3)
    fd_b = fd_laplacian(lambda z: float(np.log(1 + 4 * abs(z) ** 2)), 1e-4, 1e-3)
    assert fd_a - fd_b == pytest.approx(-12.0, abs=1e-3)


def test_decide_rejects_on_the_rotated_grid():
    # {1 + a z^4, z/2} and {1 + conj(a) z^4, z/2} are each other's mirror
    # image across every ray at angle pi j / 4, the rays of the first grid,
    # so their Laplacians agree there to rounding; the second grid, turned by
    # pi / 8, finds them apart by 2.59
    a = 0.5j
    spec_a = make_spec(HARDY, MultiplierPair(poly([1, 0, 0, 0, a]), poly([0, 0.5])))
    spec_b = make_spec(HARDY, MultiplierPair(poly([1, 0, 0, 0, a.conjugate()]), poly([0, 0.5])))
    grid = DiskGrid(r_max=0.8, n_r=6, n_theta=8)
    pts = grid.points()
    first = laplacian_log_sumsq(spec_a.theta, pts) - laplacian_log_sumsq(spec_b.theta, pts)
    assert np.max(np.abs(first)) <= 1e-14
    v = decide_equivalence(spec_a, spec_b, grid, tol=1e-6)
    assert v.outcome is Outcome.NOT_ISOMORPHIC
    assert v.detail == "Theorem 4.4"
    assert v.witness.point in grid.points(math.pi / 8)
    assert v.witness.obstruction == pytest.approx(2.5867, abs=1e-4)
    assert v.max_deviation == abs(v.witness.obstruction)


def test_decide_inconclusive_band():
    a = make_spec(HARDY, PAIR_1Z)
    b = make_spec(HARDY, MultiplierPair(poly([1]), poly([0, 1 + 2e-6])))
    v = decide_equivalence(a, b, tol=1e-6)
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.witness is not None


@pytest.mark.parametrize(
    "base_a, base_b, theta_b, outcome, calls",
    [
        (HARDY, BERGMAN, PAIR_1Z, Outcome.NOT_ISOMORPHIC, 2),
        (BERGMAN, weighted_bergman(1.5), PAIR_1Z, Outcome.NOT_ISOMORPHIC, 2),
        (HARDY, HARDY, MultiplierPair(poly([1]), poly([0, 0.5])), Outcome.NOT_ISOMORPHIC, 2),
        (HARDY, HARDY, PAIR_SCALED, Outcome.ISOMORPHIC, 4),
        (HARDY, HARDY, MultiplierPair(poly([1]), poly([0, 1.000002])), Outcome.INCONCLUSIVE, 4),
    ],
)
def test_decide_reads_the_rotated_grid_only_short_of_rejection(
    monkeypatch, base_a, base_b, theta_b, outcome, calls
):
    # one Laplacian per pair and grid: a different base, or a deviation past
    # the rejection threshold on the first grid, ends the decision there
    spec_a, spec_b = make_spec(base_a, PAIR_1Z), make_spec(base_b, theta_b)
    seen = []
    grid_laplacian = diskmod.equivalence._grid_laplacian

    def counting_grid_laplacian(*args):
        seen.append(args)
        return grid_laplacian(*args)

    monkeypatch.setattr(diskmod.equivalence, "_grid_laplacian", counting_grid_laplacian)
    assert decide_equivalence(spec_a, spec_b).outcome is outcome
    assert len(seen) == calls


def test_decide_requires_certificates():
    a = make_spec(HARDY, PAIR_1Z)
    bare = QuotientSpec(base=HARDY, theta=PAIR_12Z)
    with pytest.raises(UncertifiedSpec):
        decide_equivalence(a, bare)
    with pytest.raises(UncertifiedSpec):
        decide_equivalence(bare, a)


def test_decide_rejects_bad_tolerance():
    a = make_spec(HARDY, PAIR_1Z)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            decide_equivalence(a, a, tol=tol)


def test_reflexivity_on_corpus(corpus):
    for spec in corpus:
        v = decide_equivalence(spec, spec)
        assert v.outcome is Outcome.ISOMORPHIC
        assert v.max_deviation == 0.0


def test_symmetry_of_outcomes(corpus):
    for a in corpus:
        for b in corpus:
            va = decide_equivalence(a, b)
            vb = decide_equivalence(b, a)
            assert va.outcome is vb.outcome
            assert va.detail.startswith(vb.detail.split(":")[0])


def test_cross_base_separation_on_corpus(corpus):
    # different bases always reject, whatever the multipliers
    for a in corpus:
        for b in corpus:
            if a.base == b.base:
                continue
            v = decide_equivalence(a, b)
            assert v.outcome is Outcome.NOT_ISOMORPHIC
            assert v.witness is not None
            expected = (
                "Theorem 4.7"
                if a.base.is_hardy != b.base.is_hardy
                else "Theorem 4.5"
            )
            assert v.detail == expected


def test_cross_base_witness_is_largest_curvature_gap(corpus):
    # the Theorem 4.5/4.7 witness equals the argmax of the gap between the
    # two curvature fields on the grid, computed spec by spec, bit for bit
    grid = DiskGrid(r_max=0.8, n_r=12, n_theta=20)
    pts = grid.points()
    extra = make_spec(BERGMAN, MultiplierPair(poly([1, 0.3j]), poly([-0.4, 1, 0.2])))
    specs = list(corpus) + [extra]
    checked = 0
    for a in specs:
        for b in specs:
            if a.base == b.base:
                continue
            v = decide_equivalence(a, b, grid)
            gap = curvature_field(a, grid).values - curvature_field(b, grid).values
            idx = int(np.argmax(np.abs(gap)))
            assert v.witness.point == complex(pts[idx])
            assert v.witness.obstruction == float(gap[idx])
            checked += 1
    assert checked == 60


def test_multiplier_invariance_randomized():
    rng = np.random.default_rng(61)
    grid = DiskGrid(r_max=0.8, n_r=12, n_theta=24)
    bases = (HARDY, BERGMAN, weighted_bergman(0.5))
    for _ in range(40):
        base = bases[rng.integers(len(bases))]
        f = random_nonvanishing(rng)
        a = make_spec(base, PAIR_1Z)
        b = make_spec(base, PAIR_1Z.scale(f))
        v = decide_equivalence(a, b, grid)
        assert v.outcome is Outcome.ISOMORPHIC, f"factor {f}"


def test_isomorphic_implies_matching_curvature(corpus):
    tol = 1e-6
    grid = DiskGrid()
    pts = grid.points()
    for a in corpus:
        for b in corpus:
            v = decide_equivalence(a, b, grid, tol)
            if v.outcome is Outcome.ISOMORPHIC:
                gap = np.abs(
                    quotient_curvature(a, pts) - quotient_curvature(b, pts)
                )
                assert np.max(gap) <= 10 * tol


def test_lemma46_probe_pointwise_identity():
    # Laplacian of -log(1-|z|^2)/4 equals (1-|z|^2)^-2: value 1 at the origin
    def g(z):
        return -0.25 * float(np.log(1 - abs(z) ** 2))

    assert fd_laplacian(g, 0, 1e-3) == pytest.approx(1.0, abs=1e-3)
    assert fd_laplacian(g, 0.5, 1e-3) == pytest.approx(16 / 9, abs=1e-3)


def test_lemma46_probe_grid():
    err = lemma46_error(DiskGrid(r_max=0.8, n_r=10, n_theta=16))
    assert err <= 1e-3


@pytest.mark.parametrize(
    "grid",
    [DiskGrid(), DiskGrid(r_max=0.8, n_r=10, n_theta=16), DiskGrid(r_max=0.95, n_r=30, n_theta=50)],
)
def test_lemma46_probe_matches_scalar_loop(grid):
    # reference: the scalar stencil at every grid point; the array log and
    # modulus may differ from math.log and abs in the last bit, which the
    # stencil amplifies by 8 / h^2, so allow a few ulps of |g| times that
    def g(z):
        return -0.25 * math.log(1.0 - abs(z) ** 2)

    h = 1e-3
    worst = 0.0
    for z in grid.points():
        target = 1.0 / (1.0 - abs(z) ** 2) ** 2
        worst = max(worst, abs(fd_laplacian(g, z, h) - target))
    g_max = max(abs(g(z)) for z in grid.points()) + 1.0
    assert lemma46_error(grid, h) == pytest.approx(worst, abs=64 * np.finfo(float).eps * g_max / h**2)
