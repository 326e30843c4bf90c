from math import comb, exp, pi, sqrt

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import assert_within_3se, covariance_se, mean_and_se
from cubefield import field as fld
from cubefield import increments as inc
from cubefield import limits as lm
from cubefield import pointproc as pp
from cubefield import walk
from cubefield.errors import DomainError, NumericError

DEFINETTI = inc.DeFinettiDiscrete((0.2, 0.7), (0.6, 0.4))
GRID = (-1.5, -0.75, 0.0, 0.75, 1.5)


# ---------------------------------------------------------------------------
# level sets at finite N


def test_levelset_direct_n1(rng):
    spec = walk.GreenSpec(1, inc.IIDBernoulli(0.3), 0.5)
    sample = fld.sample_field_spectral(spec, fld.SpectralNoise.draw(1, rng))
    theta = lm.levelset_direct(sample)
    assert theta[0] == sample.values[0]
    assert theta[1] == sample.values[1]


def test_levelset_cov_n1_closed_form():
    spec = walk.GreenSpec(1, inc.IIDBernoulli(0.3), 0.5)
    ey1 = 1.0 / (1.0 + spec.c * (1.0 - inc.rho_k(inc.IIDBernoulli(0.3), 1, 1)))
    assert lm.levelset_cov(spec, 0, 0) == pytest.approx(0.5 * (1 + ey1), abs=1e-13)


def test_levelset_cov_single_term_degenerate():
    # all spectral weights ~ 0 except k = 0: covariance reduces to the
    # product of binomials over 2^N
    spec = walk.GreenSpec(4, inc.IIDBernoulli(0.5), 1.0 - 1e-12)
    for u in range(5):
        for v in range(5):
            expected = comb(4, u) * comb(4, v) / 16.0
            assert lm.levelset_cov(spec, u, v) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("N", [4, 12, 20])
def test_representation_covariance_matches_closed_form(N):
    spec = walk.GreenSpec(N, inc.SingleFlip(), 0.5)
    B = lm._representation_matrix(spec, dtype=np.longdouble)
    closed = lm.levelset_cov_matrix(spec, dtype=np.longdouble)
    assert float(np.abs(B @ B.T - closed).max()) < 1e-10


def test_representation_zero_noise():
    spec = walk.GreenSpec(5, inc.SingleFlip(), 0.5)
    assert np.all(lm.levelset_representation(spec, np.zeros(6)) == 0.0)


def test_levelset_two_routes_and_mc(rng):
    spec = walk.GreenSpec(5, inc.SingleFlip(), 0.5)
    reps = 200_000
    fields = fld.sample_field_spectral_batch(spec, rng, reps)
    level_indicator = np.zeros((32, 6))
    for x in range(32):
        level_indicator[x, bin(x).count("1")] = 1.0
    thetas = fields @ level_indicator
    emp = thetas.T @ thetas / reps
    closed = lm.levelset_cov_matrix(spec)
    se = covariance_se(closed, reps)
    frac = np.mean(np.abs(emp - closed) <= 3 * se)
    assert frac >= 0.99, f"only {frac:.3f} within 3 SE"
    # representation route draws have the same second moments
    zdraws = rng.standard_normal((reps, 6))
    rep = zdraws @ lm._representation_matrix(spec).T
    emp2 = rep.T @ rep / reps
    frac2 = np.mean(np.abs(emp2 - closed) <= 3 * se)
    assert frac2 >= 0.99, f"only {frac2:.3f} within 3 SE (representation)"


def test_levelset_total_sum_variance(rng):
    spec = walk.GreenSpec(4, DEFINETTI, 0.5)
    closed_total = lm.levelset_cov_matrix(spec).sum()
    reps = 200_000
    fields = fld.sample_field_spectral_batch(spec, rng, reps)
    totals = fields.sum(axis=1)
    sq = totals ** 2
    assert_within_3se(sq.mean(), closed_total, sq.std(ddof=1) / np.sqrt(reps),
                      "Var(sum of field)")


def test_levelset_representation_rejects_markov():
    spec = walk.GreenSpec(3, inc.MarkovEntries((0.5, 0.5), ((0.7, 0.3), (0.2, 0.8))), 0.5)
    with pytest.raises(DomainError):
        lm.levelset_representation(spec, np.zeros(4))


def test_levelset_representation_past_float_range_raises_numeric_error():
    spec = walk.GreenSpec(1100, inc.SingleFlip(), 0.9)
    with pytest.raises(NumericError):
        lm.levelset_representation(spec, np.ones(1101))


def test_levelset_cov_matrix_past_float_range_raises_numeric_error():
    spec = walk.GreenSpec(1100, inc.SingleFlip(), 0.9)
    with pytest.raises(NumericError):
        lm.levelset_cov_matrix(spec)


# ---------------------------------------------------------------------------
# the limit process


def test_kappa_spec_truncation_fixed_law():
    spec = lm.build_kappa_spec(lm.FixedCorrelation(0.5), GRID)
    assert spec.order < lm.TRUNCATION_CAP  # geometric moments stop early
    assert spec.tail_bound < 1e-9


def test_kappa_spec_rejects_nonvanishing_moments():
    law = pp.YLaw.from_model(DEFINETTI, 0.5)
    with pytest.raises(DomainError, match="limit-regime"):
        lm.build_kappa_spec(lm.mixture_from_product_law(law), GRID)


def test_kappa_degenerate_zero_correlation(rng):
    spec = lm.build_kappa_spec(lm.FixedCorrelation(0.0), (0.0, 1.0))
    zetas = rng.standard_normal(spec.order + 1)
    vals = lm.kappa_sample(spec, zetas)
    # only the constant term survives: a random multiple of the normal density
    assert vals[0] == pytest.approx(zetas[0] / sqrt(2 * pi), abs=1e-13)
    assert vals[1] == pytest.approx(zetas[0] * exp(-0.5) / sqrt(2 * pi), abs=1e-13)
    assert lm.kappa_cov(lm.FixedCorrelation(0.0), 0.0, 0.0, method="mixture") == \
        pytest.approx(1.0 / (2 * pi), abs=1e-15)


def test_kappa_cov_fixed_point_closed_form():
    val = lm.kappa_cov(lm.FixedCorrelation(0.5), 0.0, 0.0, method="mixture")
    assert val == pytest.approx(1.0 / (2 * pi * sqrt(0.75)), abs=1e-15)


@pytest.mark.parametrize("rho", [0.0, 0.5, -0.3])
def test_mehler_series_equals_mixture(rho):
    law = lm.FixedCorrelation(rho)
    for t in GRID:
        for s in GRID:
            series = lm.kappa_cov(law, t, s, method="series", order=200)
            mixture = lm.kappa_cov(law, t, s, method="mixture")
            assert abs(series - mixture) < 1e-8, f"(t,s)=({t},{s})"


def test_slow_moment_series_within_reported_tail_bound():
    ylaw = lm.VanishingKillingY(3.0)
    spec = lm.build_kappa_spec(ylaw, GRID)
    assert spec.order == lm.TRUNCATION_CAP  # 1/k moments never stop early
    for t, s in [(0.0, 0.0), (0.75, 0.75), (0.5, -0.3)]:
        series = lm.kappa_cov(ylaw, t, s, method="series", order=spec.order)
        mixture = lm.kappa_cov(ylaw, t, s, method="mixture")
        assert abs(series - mixture) <= spec.tail_bound


def test_kappa_mc_covariance(rng):
    ylaw = lm.VanishingKillingY(2.0)
    spec = lm.build_kappa_spec(ylaw, (0.5, -0.3))
    target = lm.kappa_cov(ylaw, 0.5, -0.3, method="mixture")
    reps, chunk = 400_000, 20_000
    prods = []
    done = 0
    while done < reps:
        zetas = rng.standard_normal((chunk, spec.order + 1))
        a = np.empty((chunk, 2))
        for i, t in enumerate(spec.grid):
            from cubefield.polynomials import hermite_weighted_all
            h = hermite_weighted_all(spec.order, t)
            a[:, i] = zetas @ (spec.half_moments * h) * exp(-0.5 * t * t) / sqrt(2 * pi)
        prods.append(a[:, 0] * a[:, 1])
        done += chunk
    prods = np.concatenate(prods)
    est, se = mean_and_se(prods)
    # the truncated series variance differs from the full mixture by the tail
    assert abs(est - target) <= 3 * se + spec.tail_bound


def test_kappa_odd_even_split(rng):
    ylaw = lm.VanishingKillingY(2.0)
    grid = (0.8, -0.8)
    spec = lm.build_kappa_spec(ylaw, grid)
    zetas = rng.standard_normal(spec.order + 1)
    total = lm.kappa_sample(spec, zetas)
    even, odd = lm.kappa_sample_split(spec, zetas)
    assert np.abs(even + odd - total).max() < 1e-12
    # H_k parity: even part is symmetric in t, odd antisymmetric
    assert even[0] == pytest.approx(even[1], abs=1e-12)
    assert odd[0] == pytest.approx(-odd[1], abs=1e-12)
    assert even[0] == pytest.approx((total[0] + total[1]) / 2, abs=1e-12)
    assert odd[0] == pytest.approx((total[0] - total[1]) / 2, abs=1e-12)


# ---------------------------------------------------------------------------
# finite-N convergence


def test_clt_gaps_decrease_and_meet_target():
    gaps = lm.levelset_clt_check(2.0, (50, 100, 200, 400), GRID)
    values = [gaps[n] for n in (50, 100, 200, 400)]
    for earlier, later in zip(values, values[1:]):
        assert later <= 1.1 * earlier, f"non-monotone beyond jitter: {values}"
    assert values[-1] < 0.02


def test_scaled_cov_positive_on_diagonal():
    for t in GRID:
        assert lm.scaled_levelset_cov(100, 2.0, t, t) > 0.0


# ---------------------------------------------------------------------------
# the complex transform


def test_transform_cov_trivial_cases():
    ylaw = lm.FixedCorrelation(0.0)
    cov = lm.transform_cov(ylaw, 0.0, 1.3)
    assert cov.full == pytest.approx(exp(-0.5 * 1.69), abs=1e-14)
    cov0 = lm.transform_cov(ylaw, 1.0, 1.0)
    assert cov0.full == pytest.approx(exp(-1.0), abs=1e-14)
    assert cov0.odd_part == pytest.approx(0.0, abs=1e-14)
    assert cov0.even_part == pytest.approx(cov0.full, abs=1e-14)


def test_transform_cov_parts_sum_and_dominate():
    ylaw = lm.VanishingKillingY(3.0)
    for theta, phi in [(0.7, 1.1), (1.5, 1.5), (2.0, 0.3)]:
        cov = lm.transform_cov(ylaw, theta, phi)
        assert cov.even_part + cov.odd_part == pytest.approx(cov.full, abs=1e-12)
        # cosh >= |sinh| pointwise for a nonnegative mixing law
        assert cov.even_part >= abs(cov.odd_part) - 1e-14


def test_transform_cov_quadrature_vs_mc(rng):
    gamma, theta, phi = 3.0, 1.0, 1.0
    ylaw = lm.VanishingKillingY(gamma)
    draws = rng.beta(gamma / 2.0, 1.0, size=1_000_000)  # density (g/2) y^(g/2-1)
    target = lm.transform_cov(ylaw, theta, phi).full
    vals = exp(-0.5 * (theta ** 2 + phi ** 2)) * np.exp(theta * phi * draws)
    est, se = mean_and_se(vals)
    assert_within_3se(est, target, se, "transform covariance by MC")


def test_transform_sample_at_zero(rng):
    spec = lm.build_kappa_spec(lm.VanishingKillingY(2.0), GRID)
    zetas = rng.standard_normal(spec.order + 1)
    U, V = lm.transform_sample(spec, zetas, [0.0])
    assert U[0] == pytest.approx(zetas[0], abs=1e-14)  # m_0 = 1
    assert V[0] == 0.0


def test_transform_sample_variances_match_closed_forms(rng):
    ylaw = lm.VanishingKillingY(2.0)
    spec = lm.build_kappa_spec(ylaw, GRID)
    theta = 1.0
    target = lm.transform_cov(ylaw, theta, theta)
    reps, chunk = 400_000, 20_000
    uu, vv, uv = [], [], []
    done = 0
    while done < reps:
        zetas = rng.standard_normal((chunk, spec.order + 1))
        U, V = lm.transform_sample_batch(spec, zetas, theta)
        uu.append(U * U)
        vv.append(V * V)
        uv.append(U * V)
        done += chunk
    uu, vv, uv = (np.concatenate(a) for a in (uu, vv, uv))
    est, se = mean_and_se(uu)
    assert_within_3se(est, target.even_part, se, "Var(U)")
    est, se = mean_and_se(vv)
    assert_within_3se(est, target.odd_part, se, "Var(V)")
    est, se = mean_and_se(uv)
    assert_within_3se(est, 0.0, se, "Cov(U, V)")


def test_exact_variance_of_representation_weights():
    # sum of squared weights equals the cosh/sinh covariances analytically
    for ylaw in (lm.FixedCorrelation(0.5), lm.VanishingKillingY(2.0)):
        spec = lm.build_kappa_spec(ylaw, GRID)
        for theta in (0.5, 1.0, 2.0):
            u, v = lm.transform_weights(spec, theta)
            cov = lm.transform_cov(ylaw, theta, theta)
            # truncation tail only matters for the slow law; bound by the
            # dropped even/odd moment mass
            tail = sum(ylaw.moment(k) * exp(-theta * theta / 2)
                       for k in range(spec.order + 1, spec.order + 3))
            assert abs(float(u @ u) - cov.even_part) <= max(1e-10, tail + 1e-6)
            assert abs(float(v @ v) - cov.odd_part) <= max(1e-10, tail + 1e-6)


def test_inversion_residuals(rng):
    spec0 = lm.build_kappa_spec(lm.FixedCorrelation(0.0), (0.3,))
    zetas = rng.standard_normal(spec0.order + 1)
    assert lm.inversion_check(spec0, zetas, 0.3, theta_max=8.0, nodes=2048) < 1e-6
    spec2 = lm.build_kappa_spec(lm.VanishingKillingY(2.0), GRID)
    z2 = rng.standard_normal(spec2.order + 1)
    for t in (0.0, 1.0, -1.0):
        assert lm.inversion_check(spec2, z2, t) < 1e-4
    assert lm.inversion_check(spec2, np.zeros(spec2.order + 1), 0.5) == 0.0


def test_transform_weights_match_mpmath():
    # the weight on zeta_j is e^{-theta^2/2} m_j (i theta)^j / sqrt(j!); at
    # theta = sqrt(1024) + 8 the factor e^{-theta^2/2} alone underflows
    mpmath = pytest.importorskip("mpmath")
    gamma, order = 2.0, 512
    spec = lm.KappaSpec(lm.VanishingKillingY(gamma), (0.0,), order, 0.0)
    big = sqrt(1024.0) + 8.0
    thetas = [0.0, 1e-3, -1e-3, 1.0, -1.0, 7.3, -7.3, big, -big]
    U, V = lm.transform_weight_matrices(spec, thetas)
    assert U.shape == (len(thetas), order // 2 + 1) and V.shape == (len(thetas), order // 2)
    with mpmath.workdps(40):
        for row, theta in enumerate(thetas):
            th = mpmath.mpf(theta)
            envelope = mpmath.exp(-th * th / 2)
            for j in range(order + 1):
                m_j = mpmath.sqrt(1 / (1 + mpmath.mpf(2 * j) / gamma))
                w = envelope * m_j * mpmath.mpc(0, th) ** j / mpmath.sqrt(mpmath.factorial(j))
                exact = float(w.real) if j % 2 == 0 else float(w.imag)
                got = U[row, j // 2] if j % 2 == 0 else V[row, j // 2]
                if abs(exact) > 1e-290:
                    assert got == pytest.approx(exact, rel=1e-12), (theta, j)
                else:
                    assert abs(got) <= 1e-280, (theta, j)


def test_transform_weights_parity_exact():
    spec = lm.build_kappa_spec(lm.VanishingKillingY(2.0), GRID)
    thetas = np.array([1e-3, 0.5, 1.0, 7.3, 40.0])
    U, V = lm.transform_weight_matrices(spec, thetas)
    U_neg, V_neg = lm.transform_weight_matrices(spec, -thetas)
    assert np.array_equal(U_neg, U)
    assert np.array_equal(V_neg, -V)
    U0, V0 = lm.transform_weight_matrices(spec, [0.0])
    assert U0[0, 0] == 1.0 and not U0[0, 1:].any() and not V0.any()


@pytest.mark.parametrize("theta", [float("inf"), float("-inf"), float("nan")])
def test_transform_weights_reject_non_finite_theta(theta):
    spec = lm.KappaSpec(lm.VanishingKillingY(2.0), (0.0,), 8, 0.0)
    with pytest.raises(DomainError):
        lm.transform_weight_matrices(spec, [1.0, theta])


def test_inversion_check_takes_every_t_at_once(rng):
    spec = lm.build_kappa_spec(lm.VanishingKillingY(2.0), GRID)
    zetas = rng.standard_normal(spec.order + 1)
    ts = [0.0, 1.0, -1.0, 0.3, 2.5]
    one = lm.inversion_check(spec, zetas, 0.3)
    assert type(one) is float
    many = lm.inversion_check(spec, zetas, ts)
    assert isinstance(many, np.ndarray) and many.shape == (len(ts),)
    assert np.array_equal(many, [lm.inversion_check(spec, zetas, t) for t in ts])
    assert lm.inversion_check(spec, zetas, []).shape == (0,)


@pytest.mark.parametrize("window", [dict(nodes=0), dict(nodes=1), dict(theta_max=-1.0),
                                    dict(theta_max=0.0), dict(theta_max=float("inf")),
                                    dict(theta_max=float("nan"))],
                         ids=["nodes=0", "nodes=1", "theta_max=-1", "theta_max=0",
                              "theta_max=inf", "theta_max=nan"])
def test_inversion_check_rejects_degenerate_window(rng, window):
    spec = lm.build_kappa_spec(lm.VanishingKillingY(2.0), GRID)
    zetas = rng.standard_normal(spec.order + 1)
    with pytest.raises(DomainError):
        lm.inversion_check(spec, zetas, 0.5, **window)


def test_parseval_pairs():
    lhs, rhs = lm.parseval_check(lm.FixedCorrelation(0.0))
    assert lhs == pytest.approx(sqrt(pi), abs=1e-9)
    assert rhs == pytest.approx(sqrt(pi), abs=1e-12)
    lhs, rhs = lm.parseval_check(lm.FixedCorrelation(0.5))
    assert lhs == pytest.approx(sqrt(2 * pi), abs=1e-8)
    assert rhs == pytest.approx(sqrt(2 * pi), abs=1e-12)
    gamma = 3.0
    lhs, rhs = lm.parseval_check(lm.VanishingKillingY(gamma))
    from scipy.special import beta as beta_fn
    closed = sqrt(pi) * (gamma / 2) * beta_fn(gamma / 2, 0.5)
    assert rhs == pytest.approx(closed, abs=1e-9)
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_parseval_diverges_at_unit_mass():
    with pytest.raises(DomainError):
        lm.parseval_check(lm.FixedCorrelation(1.0))


def test_parseval_theta_side_from_transform_diagonal():
    # integral of Var(U) + Var(V) over theta equals the closed form
    ylaw = lm.VanishingKillingY(3.0)
    _, rhs = lm.parseval_check(ylaw)
    val = 2.0 * quad(lambda th: lm.transform_cov(ylaw, th, th).full, 0, np.inf,
                     epsabs=1e-11, epsrel=1e-11, limit=400)[0]
    assert val == pytest.approx(rhs, abs=1e-6)


def test_parseval_time_side_reports_planar_factor():
    ylaw = lm.VanishingKillingY(3.0)
    quadval, closed = lm.parseval_time_side(ylaw)
    assert quadval == pytest.approx(closed, abs=1e-6)
    _, theta_side = lm.parseval_check(ylaw)
    assert closed == pytest.approx(theta_side / (2 * pi), abs=1e-10)


def test_mixture_requires_density():
    law = lm.MomentOnlyY(lambda k: 0.5 ** k)
    with pytest.raises(DomainError):
        lm.kappa_cov(law, 0.0, 0.0, method="mixture")
    assert lm.kappa_cov(law, 0.0, 0.0, method="series", order=100) > 0.0


def test_mixture_from_limit_models():
    assert isinstance(lm.mixture_from_model(inc.LimitLinear(2.0)), lm.VanishingKillingY)
    pd = lm.mixture_from_model(inc.LimitPoissonDirichlet(1.5))
    assert pd.moment(1) == pytest.approx(1.0 / 3.0, abs=1e-12)  # b_1 = 2
    with pytest.raises(DomainError):
        lm.mixture_from_model(inc.SingleFlip())
