"""Matrix-truncation oracle: shifts, multipliers, Gram sections, kernel counts."""

import numpy as np
import pytest

from diskmod import (
    BERGMAN,
    HARDY,
    MultiplierPair,
    NoSpectralGap,
    QuotientSpec,
    TailBoundExceeded,
    UncertifiedSpec,
    build_multiplier,
    build_shift,
    dim_ker_estimate,
    eigenvector_residual,
    gamma_gram,
    kernel_eval,
    make_spec,
    monomial_norm_sq,
    multiplier_min_singular_value,
    oracle_curvature,
    poly,
    quotient_curvature,
    rational,
    reproducing_check,
    shift_weight,
    weighted_bergman,
)

PAIR_1Z = MultiplierPair(poly([1]), poly([0, 1]))


def test_shift_hardy_subdiagonal():
    m = build_shift(HARDY, 2).matrix
    assert np.array_equal(np.diag(m, -1), [1.0, 1.0])
    assert np.count_nonzero(m) == 2


def test_shift_bergman_subdiagonal():
    m = build_shift(BERGMAN, 2).matrix
    assert np.allclose(np.diag(m, -1), [np.sqrt(1 / 2), np.sqrt(2 / 3)])


def test_shift_contractive():
    for kind in (HARDY, BERGMAN, weighted_bergman(0.7), weighted_bergman(3.0)):
        m = build_shift(kind, 40).matrix
        assert np.linalg.norm(m, 2) <= 1.0 + 1e-12


def test_shift_matches_monomial_action():
    # S e_k must equal (|z^{k+1}|/|z^k|) e_{k+1}
    for kind in (HARDY, weighted_bergman(1.5)):
        m = build_shift(kind, 10).matrix
        for k in range(10):
            e = np.zeros(11)
            e[k] = 1.0
            out = m @ e
            assert out[k + 1] == pytest.approx(shift_weight(kind, k), rel=1e-14)


def test_multiplier_1_0_blocks():
    pair = MultiplierPair(poly([1]), poly([0]))
    op = build_multiplier(pair, HARDY, 3)
    top = op.matrix[: op.codomain_degree + 1]
    bottom = op.matrix[op.codomain_degree + 1 :]
    assert np.allclose(top, np.eye(4))
    assert np.count_nonzero(bottom) == 0


def test_multiplier_1z_hardy_blocks():
    op = build_multiplier(PAIR_1Z, HARDY, 1)
    m = op.matrix.real
    cod = op.codomain_degree + 1
    assert cod == 3
    assert np.allclose(m[:cod], [[1, 0], [0, 1], [0, 0]])
    assert np.allclose(m[cod:], [[0, 0], [1, 0], [0, 1]])


def test_multiplier_columns_evaluate_correctly():
    # reconstructing the image of e_k as a pair of polynomials and evaluating
    # must reproduce theta_i(z) * e_k(z)
    rng = np.random.default_rng(67)
    pair = MultiplierPair(poly([0.5, -1, 2]), poly([1j, 0, 0, 1]))
    for kind in (HARDY, BERGMAN):
        op = build_multiplier(pair, kind, 4)
        cod = op.codomain_degree
        norms = np.sqrt(
            [monomial_norm_sq(kind, m) for m in range(cod + 1)]
        )
        for k in (0, 2, 4):
            col = op.matrix[:, k]
            c1 = col[: cod + 1] / norms
            c2 = col[cod + 1 :] / norms
            for _ in range(4):
                z = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                ek = z**k / np.sqrt(monomial_norm_sq(kind, k))
                img1 = np.polynomial.polynomial.polyval(z, c1)
                img2 = np.polynomial.polynomial.polyval(z, c2)
                assert img1 == pytest.approx(pair.theta1(z) * ek, rel=1e-12)
                assert img2 == pytest.approx(pair.theta2(z) * ek, rel=1e-12)


def test_multiplier_rational_component_within_tail_bound():
    pair = MultiplierPair(rational([1], [1, 0.5]), poly([0, 1]))
    op = build_multiplier(pair, HARDY, 5)
    # codomain covers the degree-64 Taylor expansion
    assert op.codomain_degree == 5 + 64
    # spot-check: column 0 of the rational block encodes (-1/2)^k coefficients
    col = op.matrix[: op.codomain_degree + 1, 0]
    assert col[3] == pytest.approx((-0.5) ** 3)


def test_multiplier_rational_tail_bound_exceeded():
    # denominator zero just outside the gate makes the degree-64 tail huge
    pair = MultiplierPair(rational([1], [1, -1 / 1.001]), poly([0, 1]))
    with pytest.raises(TailBoundExceeded):
        build_multiplier(pair, HARDY, 5)


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
    assert oracle_curvature(s, 0, 1e-3) == pytest.approx(-2.0, abs=1e-3)
    sc = make_spec(HARDY, MultiplierPair(poly([1]), poly([1])))
    from diskmod import base_curvature

    assert oracle_curvature(sc, 0.3, 1e-3) == pytest.approx(
        base_curvature(HARDY, 0.3), abs=1e-3
    )
    sb = make_spec(BERGMAN, PAIR_1Z)
    assert oracle_curvature(sb, 0, 1e-3) == pytest.approx(-3.0, abs=1e-3)


def test_oracle_curvature_matches_identity_route(corpus):
    rng = np.random.default_rng(79)
    pts = 0.7 * np.sqrt(rng.uniform(size=6)) * np.exp(2j * np.pi * rng.uniform(size=6))
    for spec in corpus:
        for z in pts:
            z = complex(z)
            a = quotient_curvature(spec, z)
            b = oracle_curvature(spec, z, 1e-3)
            assert abs(a - b) <= 1e-3 * (1 + abs(a))


def test_oracle_curvature_array_matches_gram_reference(corpus):
    # reference: the scalar route through gamma_gram's diagonal, one point at
    # a time; the array route reorders the product, so agreement is to the
    # rounding of log |gamma|^2 amplified by the 1/h^2 of the stencil
    from diskmod import fd_laplacian

    rng = np.random.default_rng(101)
    pts = 0.7 * np.sqrt(rng.uniform(size=7)) * np.exp(2j * np.pi * rng.uniform(size=7))
    for spec in corpus:

        def log_norm_sq(w):
            return float(np.log(gamma_gram(spec, [w])[0, 0].real))

        ref = np.array([-0.25 * fd_laplacian(log_norm_sq, complex(z), 1e-3) for z in pts])
        got = oracle_curvature(spec, pts, 1e-3)
        assert got.shape == pts.shape
        assert np.all(np.abs(got - ref) <= 1e-8 * np.abs(ref))
        scalar = [oracle_curvature(spec, complex(z), 1e-3) for z in pts]
        assert all(isinstance(v, float) for v in scalar)
        assert np.all(np.abs(got - scalar) <= 1e-8 * np.abs(ref))


def test_oracle_curvature_requires_certification():
    bare = QuotientSpec(base=HARDY, theta=PAIR_1Z)
    with pytest.raises(UncertifiedSpec):
        oracle_curvature(bare, 0)


def test_gamma_section_norm_matches_truncated_coords(corpus):
    # the coordinate norm converges to the closed-form section norm
    from diskmod import gamma_section

    for spec in corpus:
        for w in (0.2, -0.35j, 0.3 + 0.3j):
            sec = gamma_section(spec, w, 160)
            assert sec.norm_sq > 0
            assert np.linalg.norm(sec.coords) ** 2 == pytest.approx(
                sec.norm_sq, rel=1e-10
            )
            coarse = gamma_section(spec, w, 40)
            assert np.linalg.norm(coarse.coords) ** 2 <= sec.norm_sq * (1 + 1e-12)


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


def test_adjoint_shift_kills_kernel_vector():
    # M_phi^* k_w = conj(phi(w)) k_w at truncation scale, relative residual <= 1e-6
    rng = np.random.default_rng(83)
    n = 120
    for kind in (HARDY, BERGMAN, weighted_bergman(0.5)):
        from diskmod import monomial_norms_sq

        for _ in range(5):
            coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            phi = poly(coeffs)
            w = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            op = build_multiplier(MultiplierPair(phi, poly([1])), kind, n)
            cod = op.codomain_degree
            mphi = op.matrix[: cod + 1]  # block acting as multiplication by phi
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
    from diskmod import monomial_norms_sq

    for spec in corpus:
        t1, t2 = spec.theta
        d = max(t1.degree, t2.degree)
        op = build_multiplier(spec.theta, spec.base, n - d)
        cod = op.codomain_degree
        norms = np.sqrt(monomial_norms_sq(spec.base, cod))
        for w in (0.4, -0.3 + 0.2j):
            kvec = np.conj(w) ** np.arange(cod + 1) / norms
            gamma = np.concatenate(
                [np.conj(t2(w)) * kvec, -np.conj(t1(w)) * kvec]
            )
            v = rng.standard_normal(op.matrix.shape[1]) + 1j * rng.standard_normal(
                op.matrix.shape[1]
            )
            inner = np.vdot(gamma, op.matrix @ v)
            assert abs(inner) <= 1e-6 * np.linalg.norm(v) * np.linalg.norm(gamma)


def test_dim_ker_is_one_on_examples():
    s = make_spec(HARDY, PAIR_1Z)
    assert dim_ker_estimate(s, 0.3, 120, gap_tol=1e-4) == 1
    assert dim_ker_estimate(s, 0, 120) == 1
    sd = make_spec(BERGMAN, MultiplierPair(poly([-0.5, 1]), poly([1, 0.5])))
    assert dim_ker_estimate(sd, 0.2, 120) == 1


def test_dim_ker_is_one_for_rational_multiplier():
    # the degree-64 Taylor block must not leave a seam of forgotten range
    # directions (which would fake a second kernel vector)
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


def test_reproducing_check_exact_for_polynomials():
    assert reproducing_check(HARDY, poly([0, 0, 1]), 0.3) == 0.0
    for kind in (HARDY, BERGMAN, weighted_bergman(2.0)):
        assert reproducing_check(kind, poly([1]), 0.7j) <= 1e-15
    assert reproducing_check(weighted_bergman(1.0), poly([0, -1, 0, 3]), 0.4j) <= 1e-12


def test_reproducing_check_randomized():
    rng = np.random.default_rng(97)
    kinds = (HARDY, BERGMAN, weighted_bergman(0.5), weighted_bergman(1.0))
    for _ in range(60):
        kind = kinds[rng.integers(len(kinds))]
        deg = int(rng.integers(0, 11))
        f = poly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        w = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        assert reproducing_check(kind, f, complex(w)) <= 1e-12


def test_reproducing_check_rejects_rational():
    with pytest.raises(ValueError):
        reproducing_check(HARDY, rational([1], [1, 0.5]), 0.2)


def test_multiplier_min_singular_value_positive(corpus):
    for spec in corpus:
        sv = multiplier_min_singular_value(spec.theta, spec.base, 120)
        assert sv > 0.1  # monitored diagnostic: comfortably away from zero here
