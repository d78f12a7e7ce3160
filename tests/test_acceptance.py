"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module finishes in well under five minutes.
"""

import numpy as np
import pytest

from diskmod import (
    BERGMAN,
    HARDY,
    CoronaFailure,
    DiskGrid,
    MultiplierPair,
    Outcome,
    certify,
    decide_equivalence,
    dim_ker_estimate,
    eigenvector_residual,
    base_curvature,
    kernel_eval,
    make_spec,
    oracle_curvature,
    poly,
    quotient_curvature,
    weighted_bergman,
)
from diskmod.holofun import poly_mul
from diskmod.oracle import CURVATURE_TOL
from reference import fd_laplacian, lemma46_error

GRID = DiskGrid(r_max=0.8, n_r=24, n_theta=48)
ALPHAS = (0.0, 0.5, 1.0, 2.0)
KINDS = (HARDY,) + tuple(weighted_bergman(a) for a in ALPHAS)


def report(criterion, ok):
    print(f"{'PASS' if ok else 'FAIL'}  acceptance {criterion}")
    assert ok, f"acceptance criterion failed: {criterion}"


def sample_points(radius, n_r=5, n_phi=5):
    radii = radius * (np.arange(n_r) + 1) / n_r
    phases = np.exp(2j * np.pi * np.arange(n_phi) / n_phi)
    return [complex(r * p) for r in radii for p in phases]


def test_criterion_1_base_curvature_identities():
    pts = GRID.points()
    worst = 0.0
    for kind in KINDS:
        factor = 1.0 if kind.is_hardy else 2.0 + kind.alpha
        target = -factor / (1 - np.abs(pts) ** 2) ** 2
        worst = max(worst, float(np.max(np.abs(base_curvature(kind, pts) - target))))
    report(f"1: closed-form base curvature, max err {worst:.2e} <= 1e-12",
           worst <= 1e-12)


def test_criterion_2_curvature_from_log_kernel():
    pts = [z for z in GRID.points() if abs(z) <= 0.7]
    worst = 0.0
    for kind in KINDS:
        def logk(z, kind=kind):
            return float(np.log(kernel_eval(kind, z, z).real))

        for z in pts:
            fd = -0.25 * fd_laplacian(logk, complex(z), 1e-3)
            worst = max(worst, abs(fd - base_curvature(kind, z)))
    report(f"2: -1/4 FD-Laplacian of log K vs base curvature, max err "
           f"{worst:.2e} <= 1e-3", worst <= 1e-3)


def test_criterion_3_quotient_identity_vs_oracle(corpus):
    pts = sample_points(0.7)
    assert len(pts) == 25
    worst = 0.0
    for spec in corpus:
        for z in pts:
            a = quotient_curvature(spec, z)
            b = oracle_curvature(spec, z)
            worst = max(worst, abs(a - b) / (1 + abs(a)))
    report(f"3: quotient identity vs truncated-frame oracle on 8-spec corpus, "
           f"max rel err {worst:.2e} <= {CURVATURE_TOL:.0e}", worst <= CURVATURE_TOL)


def test_criterion_4_same_base_cases():
    a = make_spec(HARDY, MultiplierPair(poly([1]), poly([0, 1])))
    b = make_spec(HARDY, MultiplierPair(poly([2, 1]), poly([0, 2, 1])))
    pos = decide_equivalence(a, b, GRID, tol=1e-6)
    ok_pos = pos.outcome is Outcome.ISOMORPHIC and pos.max_deviation <= 1e-9

    fine = DiskGrid(r_max=0.8, n_r=480, n_theta=48)
    c = make_spec(HARDY, MultiplierPair(poly([1]), poly([0, 2])))
    neg = decide_equivalence(a, c, fine, tol=1e-6)
    ok_neg = (
        neg.outcome is Outcome.NOT_ISOMORPHIC
        and abs(neg.witness.point) <= 1e-3
        and abs(neg.witness.obstruction - (-12.0)) <= 1e-3
    )
    report(f"4: harmonic-factor pair Isomorphic (dev {pos.max_deviation:.1e}), "
           f"doubled coordinate NotIsomorphic (obstruction "
           f"{neg.witness.obstruction:+.5f} at |z|={abs(neg.witness.point):.1e})",
           ok_pos and ok_neg)


def test_criterion_5_weight_separation_and_factor_invariance(corpus):
    ok = True
    for theta in (MultiplierPair(poly([1]), poly([0, 1])),
                  MultiplierPair(poly([-0.5, 1]), poly([1]))):
        a1 = make_spec(weighted_bergman(1.0), theta)
        a2 = make_spec(weighted_bergman(2.0), theta)
        v = decide_equivalence(a1, a2, GRID)
        ok = ok and v.outcome is Outcome.NOT_ISOMORPHIC and v.detail == "Theorem 4.5"
    factor = poly([2, 1])
    for alpha in ALPHAS:
        base = weighted_bergman(alpha)
        theta = MultiplierPair(poly([1]), poly([0, 1]))
        v = decide_equivalence(
            make_spec(base, theta), make_spec(base, theta.scale(factor)), GRID
        )
        ok = ok and v.outcome is Outcome.ISOMORPHIC
    report("5: weight mismatch rejects, nonvanishing factor accepted", ok)


def test_criterion_6_hardy_never_weighted_bergman(corpus):
    ok = True
    hardy_specs = [s for s in corpus if s.base.is_hardy]
    wb_specs = [s for s in corpus if not s.base.is_hardy]
    for a in hardy_specs:
        for b in wb_specs:
            for x, y in ((a, b), (b, a)):
                v = decide_equivalence(x, y, GRID)
                ok = ok and (
                    v.outcome is Outcome.NOT_ISOMORPHIC and v.detail == "Theorem 4.7"
                )
    report("6: every Hardy-vs-weighted-Bergman pair rejects unconditionally", ok)


def test_criterion_7_potential_probe():
    err = lemma46_error(GRID, h=1e-3)
    report(f"7: FD Laplacian of the log potential, max err {err:.2e} <= 1e-3",
           err <= 1e-3)


def test_criterion_8_kernel_dimension_diagnostics(corpus):
    ws_dim = (0, 0.3, -0.3, 0.45j, 0.6)
    ws_res = (0, 0.3, -0.4j, 0.25 + 0.25j, 0.5)
    ok = True
    worst_res = 0.0
    for spec in corpus:
        dims = [dim_ker_estimate(spec, w, 120, gap_tol=1e-4) for w in ws_dim]
        ok = ok and all(d == 1 for d in dims)
        res = max(eigenvector_residual(spec, w, 120) for w in ws_res)
        worst_res = max(worst_res, res)
    ok = ok and worst_res <= 1e-6
    report(f"8: kernel dimension 1 at 5 points per spec, residuals "
           f"{worst_res:.1e} <= 1e-6", ok)


def test_criterion_9_corona_certification():
    c1 = certify(MultiplierPair(poly([1]), poly([0, 1])), target_gap=0.5)
    ok = c1.epsilon >= 0.5

    pair2 = MultiplierPair(poly([0, 1]), poly([1, -1]))
    c2 = certify(pair2, target_gap=0.25)
    xs = np.linspace(-1, 1, 2000)
    grid = xs[None, :] + 1j * xs[:, None]
    pts = grid[np.abs(grid) <= 1]
    u = np.abs(pair2.theta1(pts)) ** 2 + np.abs(pair2.theta2(pts)) ** 2
    dense_inf = float(u.min())
    ok = ok and c2.epsilon >= 0.25 and c2.epsilon <= dense_inf
    ok = ok and abs(dense_inf - 0.5) <= 1e-3

    witness = None
    try:
        certify(MultiplierPair(poly([0, 1]), poly([0, 0, 1])), target_gap=1e-6)
    except CoronaFailure as exc:
        witness = exc.witness
    ok = ok and witness is not None and abs(witness) <= 1e-3
    report(f"9: eps1={c1.epsilon:.3f}>=0.5, eps2={c2.epsilon:.3f}>=0.25 "
           f"(dense inf {dense_inf:.4f}), common-zero witness |z|="
           f"{abs(witness):.1e}", ok)


def test_criterion_10_property_suites():
    rng = np.random.default_rng(2026)
    kinds = KINDS

    # kernel positive semidefiniteness on random 6-point sets
    ok_psd = True
    for _ in range(200):
        kind = kinds[rng.integers(len(kinds))]
        pts = 0.95 * np.sqrt(rng.uniform(size=6)) * np.exp(
            2j * np.pi * rng.uniform(size=6)
        )
        gram = kernel_eval(kind, pts[None, :], pts[:, None])
        ok_psd = ok_psd and np.linalg.eigvalsh(gram).min() >= -1e-10

    # verdict invariance under random nonvanishing factors
    theta = MultiplierPair(poly([1]), poly([0, 1]))
    cached = {kind: make_spec(kind, theta) for kind in kinds}
    grid = DiskGrid(r_max=0.8, n_r=12, n_theta=24)
    ok_inv = True
    for _ in range(200):
        kind = kinds[rng.integers(len(kinds))]
        coeffs = [1.0 + 0j]
        for _ in range(int(rng.integers(1, 3))):
            root = rng.uniform(5.0, 25.0) * np.exp(2j * np.pi * rng.uniform())
            coeffs = poly_mul(coeffs, [-root, 1.0])
        scaled = make_spec(kind, theta.scale(poly(coeffs)))
        v = decide_equivalence(cached[kind], scaled, grid)
        ok_inv = ok_inv and v.outcome is Outcome.ISOMORPHIC

    # reflexivity and symmetry over randomized certified specs
    ok_ref = True
    pool = list(cached.values())
    for _ in range(200):
        c = 0.6 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        pair = MultiplierPair(poly([-c, 1]), poly([1]))
        spec = make_spec(kinds[rng.integers(len(kinds))], pair)
        r = decide_equivalence(spec, spec, grid)
        ok_ref = ok_ref and r.outcome is Outcome.ISOMORPHIC
        other = pool[rng.integers(len(pool))]
        ab = decide_equivalence(spec, other, grid)
        ba = decide_equivalence(other, spec, grid)
        ok_ref = ok_ref and ab.outcome is ba.outcome

    ok = ok_psd and ok_inv and ok_ref
    report(
        "10: 200-case suites (kernel PSD, factor invariance, "
        f"reflexivity+symmetry) -> {ok_psd}, {ok_inv}, {ok_ref}", ok
    )
