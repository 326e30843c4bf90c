import tracemalloc
import warnings
from fractions import Fraction
from math import comb, exp, fsum, pi, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (assert_within_3se, covariance_se, exact_levelset_cov, mean_and_se,
                      representation_matrix)
from oracles import hermite_weighted_all, inversion_check_dense, parseval_time_side
from cubefield import field as fld
from cubefield import increments as inc
from cubefield import limits as lm
from cubefield import walk
from cubefield.errors import DomainError, NumericError, ResourceLimitError
from cubefield.quadrature import quad as gk21
from cubefield.walsh import popcounts

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


def test_levelset_direct_is_the_sphere_sums():
    # two matrix products of length 2^L and 2^H: within their rounding of fsum
    rng = np.random.default_rng(5)
    for N in range(1, 17):
        values = rng.standard_normal(1 << N)
        theta = lm.levelset_direct(fld.FieldSample(N, values))
        sizes = popcounts(N)
        for v in range(N + 1):
            sphere = values[sizes == v]
            bound = ((1 << (N - N // 2)) + (1 << (N // 2))) * 2.0 ** -53 * np.abs(sphere).sum()
            assert abs(theta[v] - fsum(sphere)) <= bound, (N, v)


def test_levelset_direct_peak_is_two_small_products():
    # no 2^N index or weight array: the peak is the O(2^(N/2)) one-hot factors
    spec = walk.GreenSpec(20, inc.IIDBernoulli(0.3), 0.5)
    sample = fld.sample_field_spectral(spec, fld.SpectralNoise.draw(20, np.random.default_rng(0)))
    tracemalloc.start()
    try:
        lm.levelset_direct(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    B = representation_matrix(spec)
    closed = exact_levelset_cov(spec)
    assert float(np.abs(B @ B.T - closed).max()) < 1e-10
    assert float(np.abs(lm.levelset_cov_matrix(spec) - closed).max()) < 1e-10


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
    rep = zdraws @ representation_matrix(spec).T
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
    # Y = 1, the one law whose moments do not vanish, has no limit process
    with pytest.raises(DomainError):
        lm.FixedCorrelation(1.0)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 10.0])
def test_kappa_spec_refuses_the_poisson_dirichlet_regime(kappa):
    # E[Y^k] = 1/(1 + b_k) decays like 1/log k: Var(kappa_0) diverges
    with pytest.raises(DomainError, match="finite-variance"):
        lm.build_kappa_spec(inc.LimitPoissonDirichlet(kappa).mixture(), GRID)


def test_kappa_spec_admits_fast_killing_law():
    # gamma = 100 keeps E[Y^4096] = 0.012, yet the law has no mass at 1
    ylaw = lm.VanishingKillingY(100.0)
    spec = lm.build_kappa_spec(ylaw, GRID)
    series = lm.kappa_cov(ylaw, 0.0, 0.0, method="series", order=spec.order)
    mixture = lm.kappa_cov(ylaw, 0.0, 0.0, method="mixture")
    assert np.isfinite(spec.tail_bound)
    assert abs(series - mixture) <= spec.tail_bound


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


@pytest.mark.parametrize("method", ["series", "mixture"])
def test_kappa_cov_numpy_scalars_equal_floats(method):
    ylaw = lm.VanishingKillingY(2.0)
    for t, s in [(0.0, 0.0), (0.75, -1.5), (-0.3, 0.5)]:
        plain = lm.kappa_cov(ylaw, t, s, method=method, order=64)
        numpy = lm.kappa_cov(ylaw, np.float64(t), np.float64(s), method=method, order=64)
        assert type(numpy) is float and numpy == plain


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
    even = spec.basis[:, 0::2] @ zetas[0::2]
    odd = spec.basis[:, 1::2] @ zetas[1::2]
    assert np.abs(even + odd - total).max() < 1e-12
    # H_k parity: even part is symmetric in t, odd antisymmetric
    assert even[0] == pytest.approx(even[1], abs=1e-12)
    assert odd[0] == pytest.approx(-odd[1], abs=1e-12)
    assert even[0] == pytest.approx((total[0] + total[1]) / 2, abs=1e-12)
    assert odd[0] == pytest.approx((total[0] - total[1]) / 2, abs=1e-12)


BENCHMARK_GRID = tuple(np.arange(-2.0, 2.0 + 1e-9, 0.25))


@pytest.mark.parametrize("grid", [BENCHMARK_GRID, GRID, (0.5, -0.3), (0.3,), (0.0, 1.0)],
                         ids=["benchmark", "GRID", "pair", "point", "zero-one"])
@pytest.mark.parametrize("ylaw", [lm.VanishingKillingY(g) for g in (1.5, 2.0, 3.0, 4.0, 100.0)]
                         + [lm.FixedCorrelation(y) for y in (0.0, 0.5, 0.9)],
                         ids=lambda ylaw: ylaw.describe())
def test_truncation_order_matches_the_unscaled_rule(ylaw, grid):
    # the rule reads each row's variance increments relative to its variance,
    # so reading the Hermite functions, e^(-t^2/4) times the reference
    # H_k / sqrt(k!), leaves the order where the reference puts it
    terms = ylaw.moment(np.arange(lm.TRUNCATION_CAP + 1)) \
        * hermite_weighted_all(lm.TRUNCATION_CAP, grid) ** 2
    order = lm.TRUNCATION_CAP
    for end in range(lm.TRUNCATION_STEP, lm.TRUNCATION_CAP + 1, lm.TRUNCATION_STEP):
        added = terms[:, end - lm.TRUNCATION_STEP + 1:end + 1].sum(axis=1)
        if (added / terms[:, :end + 1].sum(axis=1)).max() < lm.TRUNCATION_REL_TOL:
            order = end
            break
    assert lm.build_kappa_spec(ylaw, grid).order == order


@pytest.mark.parametrize("ylaw", [lm.VanishingKillingY(2.0), lm.FixedCorrelation(0.5)],
                         ids=lambda ylaw: ylaw.describe())
def test_built_spec_runs_the_hermite_recurrence_once(monkeypatch, ylaw):
    calls = []
    recurrence = lm.hermite_functions
    monkeypatch.setattr(lm, "hermite_functions",
                        lambda *args: calls.append(args) or recurrence(*args))
    spec = lm.build_kappa_spec(ylaw, BENCHMARK_GRID)
    basis = spec.basis
    assert len(calls) == 1
    fresh = lm.KappaSpec(spec.ylaw, spec.grid, spec.order, spec.tail_bound).basis
    assert len(calls) == 2
    assert basis.shape == fresh.shape and basis.tobytes() == fresh.tobytes()


def test_far_points_give_finite_values():
    # H_k(t) / sqrt(k!) overflows near |t| = 53 and its square near 38; the
    # Hermite functions carry e^(-t^2/4) from the start, so neither the series
    # covariance, the basis nor the truncation rule meets an inf or a 0/0
    ylaw = lm.VanishingKillingY(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = lm.kappa_cov(ylaw, 38.0, 38.0)
        mixture = lm.kappa_cov(ylaw, 38.0, 38.0, method="mixture")
        spec = lm.build_kappa_spec(ylaw, (38.0,))
        far = lm.build_kappa_spec(ylaw, (0.0, 60.0))
        path = lm.kappa_sample(far, np.ones(far.order + 1))
    assert 0.0 < series and abs(series - mixture) <= spec.tail_bound
    assert np.isfinite(path).all() and path[0] > 0.0 and path[1] == 0.0
    # a grid whose every row underflows takes the smallest order
    assert lm.build_kappa_spec(ylaw, (60.0, -60.0)).order == lm.TRUNCATION_STEP


# ---------------------------------------------------------------------------
# the package's quadrature against QUADPACK and mpmath
#
# QUADPACK's QAWS integrates f(x) (x-a)^alpha (b-x)^beta with the endpoint
# powers as weights, so the Beta(gamma/2, 1) density and the (1-y)^(-1/2) of
# the diagonal never reach its rule: an oracle that shares neither the
# package's rule nor its substitutions.

_QUADPACK = dict(epsabs=0.0, epsrel=2e-14, limit=400)
_GAMMAS = st.floats(min_value=0.2, max_value=100.0)
_POINTS = st.floats(min_value=-3.0, max_value=3.0)


def _quadpack_mixture(gamma, t, s):
    """E[n(t, s; Y)] in x = 1 - Y, with x^(-1/2) (1-x)^(gamma/2-1) as the QAWS weight."""
    def f(x):
        if x == 0.0:  # QAWS evaluates the endpoints: the limit of the exponent there
            return exp(-0.5 * t * t) / (2 * pi * sqrt(2.0)) if t == s else 0.0
        return exp(-0.5 * ((t - s) ** 2 + 2 * t * s * x) / (x * (2 - x))) / (2 * pi * sqrt(2 - x))
    return 0.5 * gamma * quad(f, 0.0, 1.0, weight="alg", wvar=(-0.5, 0.5 * gamma - 1),
                              **_QUADPACK)[0]


def _quadpack_gap_laplace(gamma, lam):
    """(gamma/2) int_0^1 e^(-lam x) (1-x)^(gamma/2-1) dx, split where the layer at x = 0
    ends; lam <= 0 has no layer, and QAWS takes the whole interval."""
    cut = min(0.5, 50.0 / lam) if lam > 0 else 0.0
    near = quad(lambda x: exp(-lam * x) * (1 - x) ** (0.5 * gamma - 1), 0.0, cut, **_QUADPACK)[0]
    far = quad(lambda x: exp(-lam * x), cut, 1.0, weight="alg", wvar=(0.0, 0.5 * gamma - 1),
               **_QUADPACK)[0]
    return 0.5 * gamma * (near + far)


def _close(got, want, rel):
    return abs(got - want) <= rel * abs(want)


@settings(max_examples=40, deadline=None)
@given(_GAMMAS, _POINTS, _POINTS, st.booleans())
# t - s near 0 but not 0: a layer of width |t - s| at y = 1
@example(gamma=1.0, t=0.0, s=1.630337901139434e-10, diagonal=False)
def test_mixture_covariance_matches_quadpack(gamma, t, s, diagonal):
    s = t if diagonal else s
    got = lm.kappa_cov(lm.VanishingKillingY(gamma), t, s, method="mixture")
    want = _quadpack_mixture(gamma, t, s)
    assert _close(got, want, 1e-12), (got, want)


@settings(max_examples=40, deadline=None)
@given(_GAMMAS, st.floats(min_value=-3.0, max_value=4.0))
def test_gap_laplace_matches_quadpack(gamma, log_lam):
    lam = 10.0 ** log_lam
    got = lm.VanishingKillingY(gamma).gap_laplace(lam)
    want = _quadpack_gap_laplace(gamma, lam)
    assert _close(got, want, 1e-12), (got, want)


def test_gap_laplace_takes_an_array_of_lam():
    # negative lam is in the domain (the transform's exponential moments of
    # either sign); a non-finite lam, or a NaN or +inf log_scale, is not
    ylaw = lm.VanishingKillingY(1.5)
    lam = np.array([[0.0, 1e-3, 0.5], [7.0, 150.0, 1e6], [-1e-3, -7.0, -60.0]])
    got = ylaw.gap_laplace(lam)
    assert got.shape == lam.shape and got[0, 0] == pytest.approx(1.0, rel=1e-15)
    for value, one in zip(got.ravel(), lam.ravel()):
        assert _close(value, ylaw.gap_laplace(float(one)), 1e-13)
    for value, one in zip(got[2], lam[2]):
        assert _close(value, _quadpack_gap_laplace(1.5, one), 1e-12), (one, value)
    assert ylaw.gap_laplace(-60.0, -60.0) == pytest.approx(exp(-60.0) * got[2, 2], rel=1e-13)
    assert ylaw.gap_laplace(3.0, -np.inf) == 0.0
    for bad in (np.inf, -np.inf, np.nan, [1.0, np.nan]):
        with pytest.raises(DomainError):
            ylaw.gap_laplace(bad)
    for bad_scale in (np.nan, np.inf):
        with pytest.raises(DomainError):
            ylaw.gap_laplace(1.0, bad_scale)


@settings(max_examples=40, deadline=None)
@given(_GAMMAS, _POINTS, _POINTS)
def test_exp_moment_of_both_signs_matches_quadpack(gamma, theta, phi):
    # transform_cov's one gap_laplace call: e^(-(theta -+ phi)^2/2)
    # E[e^(-+theta phi (1 - Y))] is e^(-(theta^2 + phi^2)/2) E[e^(+-theta phi Y)]
    ylaw = lm.VanishingKillingY(gamma)
    x = theta * phi
    got = ylaw.gap_laplace([x, -x], [-0.5 * (theta - phi) ** 2, -0.5 * (theta + phi) ** 2])
    cov = lm.transform_cov(ylaw, theta, phi)
    assert cov == (got[0], 0.5 * (got[0] + got[1]), 0.5 * (got[0] - got[1]))
    log_scale = -0.5 * (theta * theta + phi * phi)
    for value, sign in zip(got, (1.0, -1.0)):
        want = exp(log_scale) * 0.5 * gamma * quad(
            lambda y: exp(sign * x * y), 0.0, 1.0, weight="alg", wvar=(0.5 * gamma - 1, 0.0),
            **_QUADPACK)[0]
        assert _close(value, want, 1e-12), (sign * x, value, want)


def test_transform_cov_is_one_quadrature(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return gk21(*args)
    monkeypatch.setattr(lm, "quad", counted)
    lm.transform_cov(lm.VanishingKillingY(2.5), 1.3, -0.7)
    assert len(calls) == 1
    calls.clear()
    lm.transform_cov(lm.FixedCorrelation(0.4), 1.3, -0.7)
    assert calls == []


def test_correlation_laws_share_one_interface():
    for law in (lm.FixedCorrelation, lm.VanishingKillingY):
        public = {name for name, value in vars(law).items()
                  if callable(value) and not name.startswith("_")}
        assert public == {"moment", "expect", "gap_laplace", "describe"}, law


def test_moment_tables_are_one_call():
    # the array route is the scalar arithmetic for VanishingKillingY; numpy's
    # power may round a FixedCorrelation moment one ulp from libm's pow
    k = np.arange(lm.TRUNCATION_CAP + 1)
    vk = lm.VanishingKillingY(2.5)
    assert np.array_equal(vk.moment(k), [vk.moment(int(j)) for j in k])
    fixed = lm.FixedCorrelation(-0.45)
    scalar = np.array([fixed.moment(int(j)) for j in k])
    assert np.all(np.abs(fixed.moment(k) - scalar) <= np.spacing(np.abs(scalar)))
    spec = lm.build_kappa_spec(vk, GRID)
    assert spec.half_moments is spec.half_moments
    assert np.array_equal(spec.half_moments, np.sqrt(vk.moment(np.arange(spec.order + 1))))


@settings(max_examples=15, deadline=None)
@given(_GAMMAS)
def test_parseval_sides_match_quadpack(gamma):
    # both sides equal sqrt(pi) E[(1-Y)^(-1/2)] = sqrt(pi) (gamma/2) B(gamma/2, 1/2)
    lhs, rhs = lm.parseval_check(lm.VanishingKillingY(gamma))
    want = sqrt(pi) * 0.5 * gamma * quad(lambda y: 1.0, 0.0, 1.0, weight="alg",
                                         wvar=(0.5 * gamma - 1, -0.5), **_QUADPACK)[0]
    assert _close(lhs, want, 1e-12) and _close(rhs, want, 1e-12), (lhs, rhs, want)


@settings(max_examples=15, deadline=None)
@given(_GAMMAS, _POINTS)
def test_mixture_diagonal_matches_mpmath(gamma, t):
    # the diagonal density is (1-y)^(-1/2)-singular at y = 1, where QUADPACK's
    # extrapolation left 1e-13; 30 digits, with y = u^(2/gamma) below 1/2 and
    # 1 - y = v^2 above, hold it to 1e-14
    mpmath = pytest.importorskip("mpmath")
    got = lm.kappa_cov(lm.VanishingKillingY(gamma), t, t, method="mixture")
    with mpmath.workdps(30):
        g, mt = mpmath.mpf(gamma), mpmath.mpf(t)

        def density(y, gap):
            det = gap * (1 + y)
            return mpmath.exp(-mt * mt * gap / det) / (2 * mpmath.pi * mpmath.sqrt(det))

        lower = mpmath.quad(lambda u: density(u ** (2 / g), 1 - u ** (2 / g)),
                            [0, mpmath.mpf(2) ** (-g / 2)])
        upper = mpmath.quad(lambda v: g * v * (1 - v * v) ** (g / 2 - 1)
                            * density(1 - v * v, v * v), [0, mpmath.sqrt(0.5)])
        want = lower + upper
    assert abs(got - want) <= 1e-14 * want, (got, float(want))


@pytest.mark.parametrize("gamma, t, s", [
    (1.0, 0.0, 1e-12), (1.0, 0.0, 1.630337901139434e-10), (1.0, 0.0, 1e-8),
    (1.0, 0.0, 1e-7), (1.0, 0.0, 3.7e-4), (1.0, 0.0, 3.9e-4), (10.0, 0.0, 1e-7),
    (10.0, 0.5, 0.5 + 1e-9), (0.3, 2.0, 2.0 + 3e-11), (3.0, -2.5, -2.5 - 2 ** -40),
    (3.0, 0.0, 1e-30)])
def test_mixture_near_the_diagonal_matches_mpmath(gamma, t, s):
    # n(t, s; y) has a layer e^(-(t-s)^2 / 4v^2) in v = sqrt(1 - y), which the
    # rule's first round missed below |t - s| ~ 1e-7 (4.8e-9 relative off at
    # gamma = 1, t = 0, s = 1e-8); 30 digits, with breakpoints that resolve the
    # layer, hold it to 1e-14
    mpmath = pytest.importorskip("mpmath")
    got = lm.kappa_cov(lm.VanishingKillingY(gamma), t, s, method="mixture")
    with mpmath.workdps(30):
        g, mt, ms = mpmath.mpf(gamma), mpmath.mpf(t), mpmath.mpf(s)

        def density(y, gap):
            det = gap * (1 + y)
            return (mpmath.exp(-((mt - ms) ** 2 + 2 * mt * ms * gap) / (2 * det))
                    / (2 * mpmath.pi * mpmath.sqrt(det)))

        lower = mpmath.quad(lambda u: density(u ** (2 / g), 1 - u ** (2 / g)),
                            [0, mpmath.mpf(2) ** (-g / 2)])
        end, cut, cuts = mpmath.sqrt(0.5), abs(mt - ms) / 16, [0]
        while cut < end:
            cuts.append(cut)
            cut *= 4
        upper = mpmath.quad(lambda v: g * v * (1 - v * v) ** (g / 2 - 1)
                            * density(1 - v * v, v * v), cuts + [end])
        want = lower + upper
    assert abs(got - want) <= 1e-14 * want, (got, float(want))


def test_quad_value_error_batch_and_infinite_range():
    value, error = gk21(np.exp, 0.0, 1.0)
    assert value == pytest.approx(np.e - 1.0, rel=1e-15) and 0 < error < 1e-13
    value, _ = gk21(lambda x: np.exp(-x), 2.0, np.inf)
    assert value == pytest.approx(exp(-2.0), rel=1e-14)
    values, errors = gk21(lambda x: np.stack([np.cos(x), np.sin(x)]), 0.0, pi / 2)
    assert values.shape == errors.shape == (2,)
    assert values == pytest.approx([1.0, 1.0], rel=1e-15)


def test_quad_refuses_a_non_finite_integrand():
    with pytest.raises(NumericError):
        gk21(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)


def test_quad_raises_past_its_panel_and_node_limits():
    # the integral of sin over a period is 0, so its relative tolerance is
    # below the roundoff floor of every panel: the rule runs out of panels,
    # or, for a batch of such integrands, out of nodes per round first
    with pytest.raises(NumericError, match="did not converge"):
        gk21(np.sin, 0.0, 2.0 * pi)
    with pytest.raises(ResourceLimitError):
        gk21(lambda x: np.sin(x) * np.ones((8000, 1, 1)), 0.0, 2.0 * pi)


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


def test_clt_gaps_fall_like_one_over_n():
    # compared at the t of the levels read, the gap halves with each doubling of N
    gaps = lm.levelset_clt_check(2.0, (50, 100, 200, 400), GRID)
    for N in (50, 100, 200):
        assert 1.9 <= gaps[N] / gaps[2 * N] <= 2.1, gaps


@pytest.mark.parametrize("N", [50, 400])
def test_clt_check_is_the_worst_per_pair_gap(N):
    # the check takes each N's limits as one batch integral with one shared
    # subdivision, so a limit can differ from its own scalar integral by an
    # ulp: bit-identical gaps at gamma = 0.5 and 2, 5.6e-17 apart at 10
    def read(t):  # the t of the level the scaled covariance reads
        return 2 * (int(N / 2 + sqrt(N) / 2 * t) - N / 2) / sqrt(N)
    for gamma in (0.5, 2.0, 10.0):
        ylaw = lm.VanishingKillingY(gamma)
        limit = {(t, s): lm.kappa_cov(ylaw, read(t), read(s), method="mixture")
                 for t in GRID for s in GRID}
        worst = max(abs(lm.scaled_levelset_cov(N, gamma, t, s) - limit[t, s])
                    for t in GRID for s in GRID)
        got = lm.levelset_clt_check(gamma, (N,), GRID)[N]
        assert abs(got - worst) <= 1e-15 * max(limit.values()), (gamma, got, worst)


def test_clt_check_takes_a_grid_past_one_batch():
    # 230 points make 26565 pairs: as one batch integral, a round that split
    # two panels would pass quadrature.quad's 2^21 integrand values
    N, gamma = 50, 0.2
    grid = np.linspace(-3.0, 3.0, 230)
    ylaw = lm.VanishingKillingY(gamma)
    read = [2 * (int(N / 2 + sqrt(N) / 2 * t) - N / 2) / sqrt(N) for t in grid]
    limit = {(t, s): lm.kappa_cov(ylaw, t, s, method="mixture")
             for t in set(read) for s in set(read)}
    cov = lm.scaled_levelset_cov(N, gamma, grid, grid)
    worst = max(abs(cov[i, j] - limit[t, s])
                for i, t in enumerate(read) for j, s in enumerate(read))
    got = lm.levelset_clt_check(gamma, (N,), grid)[N]
    assert abs(got - worst) <= 1e-15 * max(limit.values()), (got, worst)


def test_scaled_cov_grid_equals_pointwise_values():
    cov = lm.scaled_levelset_cov(100, 2.0, GRID, GRID[1:3])
    assert cov.shape == (len(GRID), 2)
    for i, t in enumerate(GRID):
        for j, s in enumerate(GRID[1:3]):
            assert cov[i, j] == lm.scaled_levelset_cov(100, 2.0, t, s)


def test_scaled_cov_past_the_overflowing_edge_rows_matches_exact_value():
    # at N = 1100 binom(N, N/2) is past the float range; the scaled central
    # entry is finite and accurate, and no warning is raised
    N, u = 1100, 550
    weights = walk.GreenSpec(N, inc.SingleFlip(), 1.0 - 2.0 / N).weights
    # binom(N,k) Q_k(u) is the coefficient of x^k in (1-x)^u (1+x)^(N-u)
    scaled = np.convolve(np.array([(-1) ** j * comb(u, j) for j in range(u + 1)], dtype=object),
                         np.array([comb(N - u, j) for j in range(N - u + 1)], dtype=object))
    total = sum(Fraction(weights[k]) * Fraction(int(scaled[k]) ** 2, comb(N, k))
                for k in range(N + 1))
    exact = float(Fraction(N, 4) * Fraction(comb(N, u) ** 2, 4 ** N) * total)
    assert lm.scaled_levelset_cov(N, 2.0, 0.0, 0.0) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_scaled_cov_rejects_grid_points_off_the_levels():
    with pytest.raises(DomainError):
        lm.scaled_levelset_cov(100, 2.0, [0.0, 25.0], [0.0])


def test_scaled_cov_memory_is_linear_in_the_grid():
    # O(n N) memory beyond the level chain: an (n, n, N+1) product of the
    # level factor was 301^2 * 401 floats, 277 MiB
    grid = np.linspace(-3.0, 3.0, 301)
    tracemalloc.start()
    try:
        lm.scaled_levelset_cov(400, 2.0, grid, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak / 2 ** 20


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
    u, v = (W[0] for W in lm.transform_weight_matrices(spec, [theta]))
    reps, chunk = 400_000, 20_000
    uu, vv, uv = [], [], []
    done = 0
    while done < reps:
        zetas = rng.standard_normal((chunk, spec.order + 1))
        U, V = zetas[:, 0::2] @ u, zetas[:, 1::2] @ v
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
            u, v = (W[0] for W in lm.transform_weight_matrices(spec, [theta]))
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
    assert lm.inversion_check(spec0, zetas, 0.3) < 1e-6
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


def test_log_factorials_within_one_ulp():
    # against 50-digit mpmath; math.log(k!) alone is 1.14 ulp off at k = 171
    mpmath = pytest.importorskip("mpmath")
    table = lm._log_factorials(512)
    assert table.shape == (513,) and not table.flags.writeable
    assert lm._log_factorials(512) is table
    with mpmath.workdps(50):
        for k in range(513):
            exact = mpmath.log(mpmath.factorial(k))
            assert abs(table[k] - exact) <= np.spacing(float(exact)), k
    assert np.array_equal(lm._log_factorials(40), table[:41])


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


def test_inversion_weights_are_built_once_per_spec(rng, monkeypatch):
    grid = (-1.0, 0.0, 0.5)
    ts = (0.0, 1.0, -1.0, 0.3)
    spec = lm.build_kappa_spec(lm.VanishingKillingY(2.0), grid)
    zetas = rng.standard_normal(spec.order + 1)
    fresh = [lm.inversion_check(lm.build_kappa_spec(lm.VanishingKillingY(2.0), grid), zetas, t)
             for t in ts]
    bare, hash_before = lm.build_kappa_spec(lm.VanishingKillingY(2.0), grid), hash(spec)
    built = []
    weights = lm.transform_weight_matrices
    monkeypatch.setattr(lm, "transform_weight_matrices",
                        lambda *args: built.append(args) or weights(*args))
    again = [lm.inversion_check(spec, zetas, t) for t in ts]
    assert again == fresh  # bit for bit
    assert len(built) == 1
    assert lm.inversion_check(spec, zetas, list(ts)).tolist() == fresh and len(built) == 1
    # the cached matrices are not fields: equality and hash stay those of the fields
    assert "inversion_weights" in vars(spec) and "inversion_weights" not in vars(bare)
    assert spec == bare and hash(spec) == hash(bare) == hash_before


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


@pytest.mark.parametrize("ylaw", [lm.VanishingKillingY(g) for g in (0.5, 2.0, 10.0, 50.0)]
                         + [lm.FixedCorrelation(0.9)], ids=lambda ylaw: ylaw.describe())
def test_inversion_matches_the_dense_trapezoid(rng, ylaw):
    # the rule at its alias-free size (186 nodes at order 512) against 4097
    # nodes on the same interval, over the whole window
    spec = lm.build_kappa_spec(ylaw, GRID)
    ts = np.linspace(-lm._INVERSION_WINDOW, lm._INVERSION_WINDOW, 65)
    for _ in range(3):
        zetas = rng.standard_normal(spec.order + 1)
        gap = lm.inversion_check(spec, zetas, ts) - inversion_check_dense(spec, zetas, ts)
        assert np.abs(gap).max() <= 1e-13


def test_inversion_window_edges(rng):
    spec = lm.build_kappa_spec(lm.VanishingKillingY(2.0), GRID)
    zetas = rng.standard_normal(spec.order + 1)
    edge = lm._INVERSION_WINDOW
    assert lm.inversion_check(spec, zetas, [edge, -edge]).max() < 1e-13
    for t in (np.nextafter(edge, np.inf), np.nextafter(-edge, -np.inf)):
        with pytest.raises(DomainError, match=r"\|t\| <= 16"):
            lm.inversion_check(spec, zetas, [0.0, t])


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
    quadval, closed = parseval_time_side(ylaw)
    assert quadval == pytest.approx(closed, abs=1e-6)
    _, theta_side = lm.parseval_check(ylaw)
    assert closed == pytest.approx(theta_side / (2 * pi), abs=1e-10)


def test_mixture_from_limit_models():
    assert isinstance(inc.LimitLinear(2.0).mixture(), lm.VanishingKillingY)
    with pytest.raises(DomainError, match="finite-variance"):
        inc.LimitPoissonDirichlet(1.5).mixture()
