"""Equivalence decisions: branch logic, witnesses, invariance properties."""

import math

import numpy as np
import pytest

from diskmod import (
    BERGMAN,
    HARDY,
    DiskGrid,
    MultiplierPair,
    Outcome,
    QuotientSpec,
    UncertifiedSpec,
    decide_equivalence,
    fd_laplacian,
    harmonicity_defect,
    laplacian_log_sumsq,
    lemma46_probe,
    make_spec,
    poly,
    quotient_curvature,
    weighted_bergman,
)
from diskmod.holofun import poly_mul

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


def test_defect_identical_pairs_is_zero():
    dev, _ = harmonicity_defect(PAIR_1Z, PAIR_1Z, DiskGrid())
    assert dev == 0.0


def test_defect_harmonic_factor_small():
    dev, _ = harmonicity_defect(PAIR_1Z, PAIR_SCALED, DiskGrid())
    assert dev <= 1e-9


def test_defect_scaled_coordinate_at_origin():
    # Laplacians: 4/(1+|z|^2)^2 versus 16/(1+4|z|^2)^2, deviation 12 at 0
    dev, point = harmonicity_defect(PAIR_1Z, PAIR_12Z, FINE_GRID)
    assert abs(point) < 1e-3
    assert dev == pytest.approx(12.0, abs=1e-3)
    fd_a = fd_laplacian(
        lambda z: float(np.log(1 + abs(z) ** 2)), 1e-4, 1e-3
    )
    fd_b = fd_laplacian(
        lambda z: float(np.log(1 + 4 * abs(z) ** 2)), 1e-4, 1e-3
    )
    assert abs(fd_b - fd_a) == pytest.approx(12.0, abs=1e-3)


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


def test_decide_inconclusive_band():
    a = make_spec(HARDY, PAIR_1Z)
    b = make_spec(HARDY, MultiplierPair(poly([1]), poly([0, 1 + 2e-6])))
    v = decide_equivalence(a, b, tol=1e-6)
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.witness is not None


def test_decide_requires_certificates():
    a = make_spec(HARDY, PAIR_1Z)
    bare = QuotientSpec(base=HARDY, theta=PAIR_12Z)
    with pytest.raises(UncertifiedSpec):
        decide_equivalence(a, bare)
    with pytest.raises(UncertifiedSpec):
        decide_equivalence(bare, a)


def test_decide_rejects_bad_tolerance():
    a = make_spec(HARDY, PAIR_1Z)
    with pytest.raises(ValueError):
        decide_equivalence(a, a, tol=0.0)


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
    err = lemma46_probe(DiskGrid(r_max=0.8, n_r=10, n_theta=16))
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
    assert lemma46_probe(grid, h) == pytest.approx(worst, abs=64 * np.finfo(float).eps * g_max / h**2)
