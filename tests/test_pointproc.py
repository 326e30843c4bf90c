import time
import tracemalloc
from math import exp, fsum, log, sqrt

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import chi2

from conftest import assert_within_3se, mean_and_se
from oracles import beta_fixed_steps_density, beta_killed_product_sample, killed_green_check
from cubefield import increments as inc
from cubefield import pointproc as pp
from cubefield.errors import DomainError
from cubefield.walk import GreenSpec, green_spectral

DISCRETE = inc.DeFinettiDiscrete((0.2, 0.9), (0.5, 0.5))
SYMMETRIC = inc.SymmetricBetaSpin(2.0, 1.0)


# ---------------------------------------------------------------------------
# moments


def test_moment_identities_exact():
    for model in (DISCRETE, inc.DeFinettiBeta(1.5, 2.5), SYMMETRIC, inc.IIDBernoulli(0.3)):
        law = pp.YLaw.from_model(model, 0.45)
        half = pp.YLaw.from_model(model, 0.45, phi=0.5)
        for k in range(9):
            rho = inc.rho_k(law.spin, k)
            assert pp.moment_Y(law, k) * (1.0 + law.c * (1.0 - rho)) == pytest.approx(
                1.0, abs=1e-14)
            assert pp.moment_Y(half, k) ** 2 == pytest.approx(pp.moment_Y(law, k),
                                                              abs=1e-14)


def test_moment_trivial_cases():
    law = pp.YLaw.from_model(DISCRETE, 0.45)
    assert pp.moment_Y(law, 0) == 1.0
    frozen = pp.YLaw.from_model(inc.IIDBernoulli(0.0), 0.45)  # rho_k = 1
    for k in range(5):
        assert pp.moment_Y(frozen, k) == 1.0


def test_limit_linear_moment_matches_density_quadrature():
    # E[Y^k] = 1/(1+2k/gamma) is the k-th moment of (gamma/2) y^(gamma/2-1)
    gamma = 3.0
    for k in range(7):
        ref = quad(lambda y: y ** k * (gamma / 2) * y ** (gamma / 2 - 1), 0, 1,
                   epsabs=1e-13, epsrel=1e-13)[0]
        assert 1.0 / (1.0 + 2 * k / gamma) == pytest.approx(ref, abs=1e-10)


# ---------------------------------------------------------------------------
# samplers


def test_sample_Y_empty_product_frequency(rng):
    alpha = 0.5
    law = pp.YLaw.from_model(DISCRETE, alpha)
    draws = pp.sample_Y(law, rng, size=200_000)
    freq = float(np.mean(draws == 1.0))
    # T = 0 gives exactly 1.0; spins of this mixture are never exactly 1
    se = sqrt(alpha * (1 - alpha) / draws.size)
    assert_within_3se(freq, 1 - alpha, se, "empty-product mass")


def test_sample_Y_moments_mc(rng):
    law = pp.YLaw.from_model(inc.DeFinettiDiscrete((0.3,), (1.0,)), 0.5)
    draws = pp.sample_Y(law, rng, size=1_000_000)
    for k in range(1, 7):
        est, se = mean_and_se(draws ** k)
        assert_within_3se(est, pp.moment_Y(law, k), se, f"E[Y^{k}]")


def test_sample_Y_degenerate_spin(rng):
    law = pp.YLaw.from_model(inc.IIDBernoulli(0.0), 0.5)  # xi = 1 always
    draws = pp.sample_Y(law, rng, size=1000)
    assert np.all(draws == 1.0)


def test_sample_Y_zero_spin_atom(rng):
    # an atom exactly at omega = 1/2 puts spin mass at 0: products vanish
    law = pp.YLaw.from_model(inc.DeFinettiDiscrete((0.5,), (1.0,)), 0.5)
    draws = pp.sample_Y(law, rng, size=20_000)
    zero_freq = float(np.mean(draws == 0.0))
    se = sqrt(0.5 * 0.5 / draws.size)
    assert_within_3se(zero_freq, 0.5, se, "P(Y = 0) = P(T >= 1)")


def test_sample_Y_phi_matches_geometric_at_phi_one(rng):
    # the Gamma(1)-mixed Poisson count is geometric: the same law as T by inversion
    law = pp.YLaw.from_model(DISCRETE, 0.4)
    a = pp.sample_Y(law, rng, size=400_000)
    counts = rng.poisson(rng.gamma(1.0, size=400_000) * law.c).astype(np.int64)
    signs, logs = law.spin.log_products(counts, rng)
    b = signs * np.exp(logs)
    for k in range(1, 5):
        ea, sa = mean_and_se(a ** k)
        eb, sb = mean_and_se(b ** k)
        assert abs(ea - eb) <= 3.0 * sqrt(sa ** 2 + sb ** 2), f"moment {k}"


def test_sample_Y_phi_half_moments(rng):
    law = pp.YLaw.from_model(SYMMETRIC, 0.5, phi=0.5)
    draws = pp.sample_Y(law, rng, size=1_000_000)
    for k in (2, 4):
        est, se = mean_and_se(draws ** k)
        assert_within_3se(est, pp.moment_Y(law, k), se, f"E[Y_half^{k}]")
    # odd order: the closed form gives (1+c)^-phi, not 1
    est, se = mean_and_se(draws)
    assert_within_3se(est, (1.0 + 1.0) ** -0.5, se, "odd-order moment")


@pytest.mark.parametrize("model", [DISCRETE, inc.DeFinettiBeta(1.5, 2.5)])
@pytest.mark.parametrize("phi", [1.0, 0.5])
def test_sample_Y_is_the_hand_drawn_route(model, phi):
    # phi = 1: T by inversion; otherwise a Gamma(phi), then a Poisson count;
    # then the spin law's products, all on one generator
    law = pp.YLaw(model, 0.7, phi)
    draws = pp.sample_Y(law, np.random.default_rng(12), size=2000)
    ref_rng = np.random.default_rng(12)
    if phi == 1.0:
        counts = np.floor(np.log(1.0 - ref_rng.random(2000)) / log(law.alpha))
    else:
        counts = ref_rng.poisson(ref_rng.gamma(phi, size=2000) * law.c)
    signs, logs = model.log_products(counts.astype(np.int64), ref_rng)
    assert np.array_equal(draws, signs * np.exp(logs))


# ---------------------------------------------------------------------------
# transforms and signs


def test_laplace_at_zero_is_one():
    law = pp.YLaw.from_model(DISCRETE, 0.4)
    assert pp.laplace_neg_log_abs(law, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_laplace_beta_gamma_ratio():
    a, b = 2.0, 1.5
    law = pp.YLaw.from_model(inc.SymmetricBetaSpin(a, b), 0.45)
    theta = 1.7
    # per-step factor from the Beta magnitude, against direct quadrature
    norm = exp(gammaln(a) + gammaln(b) - gammaln(a + b))
    ref_step = quad(lambda r: r ** theta * r ** (a - 1) * (1 - r) ** (b - 1) / norm,
                    0, 1, epsabs=1e-12, epsrel=1e-12)[0]
    gamma_step = exp(gammaln(a + theta) + gammaln(a + b)
                     - gammaln(a + b + theta) - gammaln(a))
    assert gamma_step == pytest.approx(ref_step, abs=1e-8)
    c = law.c
    expected = 1.0 / (1.0 + c * (1.0 - gamma_step))
    assert pp.laplace_neg_log_abs(law, theta) == pytest.approx(expected, abs=1e-12)


def test_laplace_matches_mc(rng):
    law = pp.YLaw.from_model(DISCRETE, 0.4)
    theta = 1.7
    draws = np.abs(pp.sample_Y(law, rng, size=1_000_000)) ** theta
    est, se = mean_and_se(draws)
    assert_within_3se(est, pp.laplace_neg_log_abs(law, theta), se, "E[|Y|^theta]")


def test_laplace_rejects_zero_atom():
    law = pp.YLaw.from_model(inc.DeFinettiDiscrete((0.5,), (1.0,)), 0.4)
    with pytest.raises(DomainError):
        pp.laplace_neg_log_abs(law, 1.0)


def test_joint_sign_laplace_reduces_to_sign_probability():
    for model in (DISCRETE, SYMMETRIC):
        law = pp.YLaw.from_model(model, 0.4)
        for sign in (1, -1):
            assert pp.joint_sign_laplace(law, 0.0, sign) == pytest.approx(
                pp.sign_probability(law, sign), abs=1e-13)


def test_joint_sign_laplace_symmetric_structure():
    # symmetric spins with origin start: H(-1) = 1 - alpha, so the joint is
    # (1/2) Laplace(theta) +- (1/2)(1 - alpha)
    alpha, theta = 0.4, 1.3
    law = pp.YLaw.from_model(SYMMETRIC, alpha)
    lap = pp.laplace_neg_log_abs(law, theta)
    assert pp.joint_sign_laplace(law, theta, +1) == pytest.approx(
        0.5 * lap + 0.5 * (1 - alpha), abs=1e-13)
    assert pp.joint_sign_laplace(law, theta, -1) == pytest.approx(
        0.5 * lap - 0.5 * (1 - alpha), abs=1e-13)


def test_joint_sign_laplace_mc(rng):
    law = pp.YLaw.from_model(DISCRETE, 0.4)
    theta = 1.0
    y = pp.sample_Y(law, rng, size=1_000_000)
    pos = np.where(y > 0, np.abs(y) ** theta, 0.0)
    est, se = mean_and_se(pos)
    assert_within_3se(est, pp.joint_sign_laplace(law, theta, +1), se,
                      "E[1{Y>0} |Y|^theta]")


@pytest.mark.parametrize("alpha, theta, phi", [(0.05, 3.0, 1.0), (0.05, 3.0, 0.5),
                                               (0.3, 1.0, 1.0)])
def test_joint_sign_laplace_negative_side_keeps_its_digits(alpha, theta, phi):
    # the negative split is a difference of two close resolvents; against 200 bits
    mpmath = pytest.importorskip("mpmath")
    law = pp.YLaw.from_model(inc.SymmetricBetaSpin(0.7, 3.0), alpha, phi=phi)
    with mpmath.workprec(200):
        a, b = mpmath.mpf("0.7"), mpmath.mpf(3)
        c = mpmath.mpf(alpha) / (1 - mpmath.mpf(alpha))
        nu = mpmath.beta(a + theta, b) / mpmath.beta(a, b)  # E|xi|^theta, half on each side
        h_abs = (1 + c * (1 - nu)) ** -phi
        h_signed = (1 + c) ** -phi  # symmetric spins: the signed integral is 0
        exact = (h_abs - h_signed) / 2
        units = abs(pp.joint_sign_laplace(law, theta, -1) - exact) / exact * 2 ** 52
    assert units <= 4.0


def test_sign_probability_examples(rng):
    # vanishing killing with origin start: the product is the single initial +1
    law0 = pp.YLaw.from_model(DISCRETE, 1e-12)
    assert pp.sign_probability(law0, +1) == pytest.approx(1.0, abs=1e-9)
    # symmetric spins, alpha = 1/2: 3/4
    law_sym = pp.YLaw.from_model(SYMMETRIC, 0.5)
    assert pp.sign_probability(law_sym, +1) == pytest.approx(0.75, abs=1e-14)
    draws = pp.sample_Y(law_sym, rng, size=400_000)
    freq = float(np.mean(draws > 0))
    assert_within_3se(freq, 0.75, sqrt(0.75 * 0.25 / draws.size), "P(Y > 0)")
    # spin frozen at -1 (omega = 1): alternating sign, P(+) = 1/(1+alpha)
    alpha = 0.4
    law_flip = pp.YLaw.from_model(inc.DeFinettiDiscrete((1.0,), (1.0,)), alpha)
    c = alpha / (1 - alpha)
    assert pp.sign_probability(law_flip, +1) == pytest.approx(
        0.5 * (1 + 1 / (1 + 2 * c)), abs=1e-14)
    assert pp.sign_probability(law_flip, +1) == pytest.approx(1 / (1 + alpha), abs=1e-14)
    draws = pp.sample_Y(law_flip, rng, size=400_000)
    freq = float(np.mean(draws > 0))
    assert_within_3se(freq, 1 / (1 + alpha), sqrt(0.7 * 0.3 / draws.size), "P(+) flip")


def test_sign_probability_rejects_zero_atom():
    # P(Y = 0) > 0 here: the two signs no longer split the unit mass
    law = pp.YLaw.from_model(inc.DeFinettiDiscrete((0.5, 0.9), (0.3, 0.7)), 0.8)
    for sign in (1, -1):
        with pytest.raises(DomainError):
            pp.sign_probability(law, sign)


SKEWED = inc.DeFinettiBeta(0.05, 50)  # spin mass 2.1e-18 on [-1, 0]


def _skewed_sign_split(alpha):
    """P(Y < 0) and P(Y > 0) for SKEWED at the float alpha, to 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        nu_neg = mpmath.betainc(mpmath.mpf(SKEWED.b), mpmath.mpf(SKEWED.a), 0, mpmath.mpf(0.5),
                                regularized=True)
        c = mpmath.mpf(alpha) / (1 - mpmath.mpf(alpha))
        h = 1 / (1 + 2 * c * nu_neg)
        return float((1 - h) / 2), float((1 + h) / 2)


@pytest.mark.parametrize("alpha", [0.5, 0.999, 1 - 1e-9])
def test_sign_split_keeps_a_tiny_negative_mass(alpha):
    # 1 - (1 + 2c nu_-)^-1 and 1 - (nu_+ - nu_-) would round nu_- away
    negative, positive = _skewed_sign_split(alpha)
    law = pp.YLaw.from_model(SKEWED, alpha)
    assert pp.sign_probability(law, -1) == pytest.approx(negative, rel=1e-13, abs=0.0)
    assert pp.joint_sign_laplace(law, 0.0, -1) == pytest.approx(negative, rel=1e-13, abs=0.0)
    assert pp.sign_probability(law, +1) == pytest.approx(positive, rel=1e-15, abs=0.0)
    assert pp.joint_sign_laplace(law, 0.0, +1) == pytest.approx(positive, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("model, phi, alpha", [
    (DISCRETE, 0.5, 0.6), (SYMMETRIC, 2.5, 0.5), (inc.DeFinettiBeta(1.5, 2.5), 0.3, 0.7)])
def test_transforms_honour_phi(rng, model, phi, alpha):
    # each closed form is (1 + c(1 - m))^(-phi) of one spin integral m
    law = pp.YLaw.from_model(model, alpha, phi=phi)
    y = pp.sample_Y(law, rng, size=400_000)
    theta = 1.3
    mag = np.abs(y) ** theta
    checks = [(mag, pp.laplace_neg_log_abs(law, theta), "E[|Y|^theta]")]
    for sign in (1, -1):
        hit = np.sign(y) == sign
        checks.append((np.where(hit, mag, 0.0), pp.joint_sign_laplace(law, theta, sign),
                       f"E[1{{sign = {sign}}} |Y|^theta]"))
        checks.append((hit, pp.sign_probability(law, sign), f"P(sign = {sign})"))
    for samples, target, label in checks:
        est, se = mean_and_se(samples)
        assert abs(est - target) <= 5.0 * se, f"{label}: {est} vs {target}, SE {se}"


def test_sign_independent_of_magnitude_for_symmetric_spins(rng):
    # independence is a statement about products of at least one symmetric
    # spin: the empty product is deterministically (+1, magnitude 1), so the
    # unconditional killed pair is coupled through that atom and the test
    # conditions on T >= 1
    law = pp.YLaw.from_model(SYMMETRIC, 0.5)
    signs, logs = pp.sample_Y_signed_log(law, rng, 1_000_000)
    keep = logs != 0.0
    s, m = signs[keep], -logs[keep]
    corr = np.corrcoef(s, m)[0, 1]
    assert abs(corr) <= 3.0 / sqrt(keep.sum()), f"corr = {corr}"
    freq = float(np.mean(s > 0))
    assert_within_3se(freq, 0.5, sqrt(0.25 / keep.sum()), "conditional sign split")


# ---------------------------------------------------------------------------
# the product sampler: atom counts for point masses, chunked spins otherwise


def traced_peak(fn):
    """tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_single_atom_log_is_one_rounded_product(rng):
    # one atom x: log|Y| is T log|x| rounded once, and the sign is (-1)^T
    x = 1.0 - 2.0 * 0.7
    law = pp.YLaw.from_model(inc.IIDBernoulli(0.7), 0.9)
    signs, logs = pp.sample_Y_signed_log(law, rng, 100_000)
    steps = np.rint(logs / log(abs(x)))
    exact = steps * log(abs(x))
    assert np.all(np.abs(logs - exact) <= np.spacing(np.abs(exact)))
    assert np.array_equal(signs, np.where(steps % 2 == 1, -1.0, 1.0))


def test_single_atom_counts_are_geometric(rng):
    # T = log|Y| / log|x| against P(T = t) = (1 - alpha) alpha^t, t = 0..39 and a tail cell
    alpha, n = 0.9, 100_000
    law = pp.YLaw.from_model(inc.IIDBernoulli(0.3), alpha)
    _, logs = pp.sample_Y_signed_log(law, rng, n)
    steps = np.rint(logs / log(0.4)).astype(np.int64)
    counts = np.bincount(np.minimum(steps, 40), minlength=41)
    probs = (1 - alpha) * alpha ** np.arange(41.0)
    probs[40] = alpha ** 40
    expected = n * probs
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.999, df=40), f"chi-square {stat}"


@pytest.mark.parametrize("alpha", [0.3, 0.75, 0.99])
def test_two_atom_sign_frequencies(rng, alpha):
    # unequal weights, so the parity must be taken on the negative atom's count
    law = pp.YLaw.from_model(inc.DeFinettiDiscrete((0.2, 0.9), (0.7, 0.3)), alpha)
    n = 400_000
    signs, _ = pp.sample_Y_signed_log(law, rng, n)
    assert not np.any(signs == 0.0)
    for sign in (1, -1):
        p = pp.sign_probability(law, sign)
        assert_within_3se(float(np.mean(signs == sign)), p, sqrt(p * (1 - p) / n),
                          f"P(sign = {sign})")


def test_zero_atom_rows_vanish(rng):
    # a spin at 0 with weight w: P(Y != 0) = E[(1 - w)^T] = (1 - alpha) / (1 - alpha (1 - w))
    alpha, w, n = 0.8, 0.3, 200_000
    law = pp.YLaw.from_model(inc.DeFinettiDiscrete((0.5, 0.9), (w, 1 - w)), alpha)
    signs, logs = pp.sample_Y_signed_log(law, rng, n)
    zero = signs == 0.0
    assert np.array_equal(zero, np.isneginf(logs))
    assert np.all(np.isfinite(logs[~zero]))
    p = (1 - alpha) / (1 - alpha * (1 - w))
    assert_within_3se(float(np.mean(~zero)), p, sqrt(p * (1 - p) / n), "P(Y != 0)")


def test_atom_count_blocks_do_not_change_the_draws(monkeypatch):
    # the multinomial draws row by row, so any block size gives the same stream
    law = pp.YLaw.from_model(DISCRETE, 0.9)
    whole = pp.sample_Y_signed_log(law, np.random.default_rng(3), 5000)
    monkeypatch.setattr(inc, "_SPIN_CHUNK", 7)
    blocked = pp.sample_Y_signed_log(law, np.random.default_rng(3), 5000)
    assert np.array_equal(whole[0], blocked[0]) and np.array_equal(whole[1], blocked[1])


@pytest.mark.parametrize("chunk", [1, 7, 1 << 18])
def test_chunked_spins_match_per_row_products(monkeypatch, chunk):
    # DeFinettiBeta draws its spins in sequence, so the chunked rows can be
    # rebuilt from one draw of all spins on a copy of the generator
    monkeypatch.setattr(inc, "_SPIN_CHUNK", chunk)
    alpha, n = 0.8, 400
    law = pp.YLaw.from_model(inc.DeFinettiBeta(1.5, 2.5), alpha)
    signs, logs = pp.sample_Y_signed_log(law, np.random.default_rng(9), n)
    ref_rng = np.random.default_rng(9)
    steps = np.floor(np.log(1.0 - ref_rng.random(n)) / log(alpha)).astype(np.int64)
    spins = 1.0 - 2.0 * ref_rng.beta(1.5, 2.5, size=int(steps.sum()))
    ends = np.cumsum(steps)
    for i in range(n):
        row = spins[ends[i] - steps[i]:ends[i]]
        assert signs[i] == np.prod(np.sign(row))
        assert logs[i] == pytest.approx(fsum(np.log(np.abs(row))), rel=1e-13, abs=1e-13)
    assert steps.max() > 7  # some rows span several chunks of 7


def test_point_mass_peak_does_not_grow_with_alpha():
    # the benchmark's law: 161 MiB at alpha = 0.75 when every spin was drawn
    law = pp.YLaw.from_model(DISCRETE, 0.75)
    rng = np.random.default_rng(1)
    assert traced_peak(lambda: pp.sample_Y(law, rng, size=1_000_000)) < 64 << 20
    law = pp.YLaw.from_model(DISCRETE, 1 - 1e-3)
    assert traced_peak(lambda: pp.sample_Y(law, rng, size=100_000)) < 16 << 20


def test_sample_Y_peak_is_its_counts_signs_and_logs():
    # int64 counts and float64 logs of 10^6 (8 MiB each), int8 signs (1 MiB)
    # and one block of atom counts: 21.2 MiB
    law = pp.YLaw.from_model(DISCRETE, 0.75)
    rng = np.random.default_rng(1)
    assert traced_peak(lambda: pp.sample_Y(law, rng, size=1_000_000)) < 22 << 20


@pytest.mark.parametrize("model", [DISCRETE, inc.DeFinettiBeta(1.5, 2.5)])
def test_signs_are_one_byte(model):
    signs, logs = pp.sample_Y_signed_log(pp.YLaw(model, 0.75), np.random.default_rng(2), 1000)
    assert signs.dtype == np.int8 and logs.dtype == np.float64
    assert set(np.unique(signs).tolist()) == {-1, 1}


def test_continuous_peak_is_bounded_by_the_chunk():
    # about 2 * 10^6 spins: 76 MiB when every spin was held at once
    law = pp.YLaw.from_model(SYMMETRIC, 0.99)
    rng = np.random.default_rng(1)
    assert traced_peak(lambda: pp.sample_Y(law, rng, size=20_000)) < 24 << 20


# ---------------------------------------------------------------------------
# measure evolution


def test_evolve_measure_steps():
    start = inc.IIDBernoulli(0.0)  # the unit point mass at xi = 1
    t0 = pp.EvolvedMeasure(DISCRETE, 0)
    for k in range(5):
        assert t0.moment(k) == inc.rho_k(start, k)
    t1 = pp.EvolvedMeasure(inc.IIDBernoulli((1.0 - 0.6) / 2.0), 1)
    for k in range(5):
        assert t1.moment(k) == pytest.approx(0.6 ** k, abs=1e-14)


def test_evolve_measure_mc(rng):
    ev = pp.EvolvedMeasure(DISCRETE, 3)
    draws = ev.sample(rng, size=400_000)
    for k in range(1, 5):
        est, se = mean_and_se(draws ** k)
        assert_within_3se(est, ev.moment(k), se, f"evolved moment {k}")


def test_evolve_measure_mc_continuous_spins(rng):
    # the chunked-spin route: three Beta spins per row, negative ones included
    ev = pp.EvolvedMeasure(inc.DeFinettiBeta(1.5, 2.5), 3)
    draws = ev.sample(rng, size=200_000)
    for k in range(1, 5):
        est, se = mean_and_se(draws ** k)
        assert_within_3se(est, ev.moment(k), se, f"evolved moment {k}")


def test_evolve_measure_long_products_are_fast():
    # the atom counts of 10^5 steps are one multinomial draw per row
    ev = pp.EvolvedMeasure(DISCRETE, 10 ** 5)
    start = time.perf_counter()
    draws = ev.sample(np.random.default_rng(2), size=16)
    assert time.perf_counter() - start < 1.0
    assert draws.shape == (16,) and np.all(np.abs(draws) < 1e-300)


# ---------------------------------------------------------------------------
# killed de Finetti measure == Green function


def test_killed_measure_trivial():
    law = pp.YLaw.from_model(DISCRETE, 0.5)
    assert pp.killed_measure_moments(law, 0, 0) == pytest.approx(1.0, abs=1e-14)


def test_killed_measure_ties_to_green():
    law = pp.YLaw.from_model(DISCRETE, 0.5)
    assert killed_green_check(law, DISCRETE, 3) < 1e-10


def test_killed_measure_small_N_keeps_its_values():
    # below the rounding-bound cut the sum is returned as before, and it is the Green function
    model = inc.DeFinettiDiscrete((0.2, 0.7), (0.6, 0.4))
    law = pp.YLaw.from_model(model, 0.5)
    for N in range(1, 11):
        spec = GreenSpec(N, model, 0.5)
        for n in range(N + 1):
            want = green_spectral(spec, 0, (1 << n) - 1)
            assert pp.killed_measure_moments(law, n, N) == pytest.approx(want, rel=1e-12, abs=0)


def test_killed_measure_mc_route(rng):
    law = pp.YLaw.from_model(DISCRETE, 0.5)
    exact = pp.killed_measure_moments(law, 1, 3)
    v = 0.5 * (1.0 - pp.sample_Y(law, rng, size=400_000))
    mc = float(np.mean(v * (1.0 - v) ** 2))
    # V^n(1-V)^(N-n) is bounded by 1, crude but sufficient error bar
    assert abs(mc - exact) <= 3.0 / sqrt(400_000)


# ---------------------------------------------------------------------------
# the Beta(a, 1) example


def test_beta_fixed_steps_density_t1():
    a = 1.6
    for z in (-0.7, 0.2, 0.9):
        assert beta_fixed_steps_density(a, 1, z) == pytest.approx(
            a / 2 * abs(z) ** (a - 1), abs=1e-14)


def test_beta_example_density_normalizes_to_alpha():
    a, alpha = 1.6, 0.45
    val = 2 * quad(lambda z: pp.beta_example_density(a, alpha, z), 0, 1,
                   epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    assert abs(val - alpha) < 1e-9


def test_beta_example_density_is_geometric_mixture_of_fixed_steps():
    # independent route: partial sums of (1-alpha) alpha^t g_t(z)
    a, alpha, z = 2.3, 0.5, 0.4
    mix = sum((1 - alpha) * alpha ** t * beta_fixed_steps_density(a, t, z)
              for t in range(1, 200))
    assert pp.beta_example_density(a, alpha, z) == pytest.approx(mix, abs=1e-12)


def test_beta_example_histogram_chi_square(rng):
    a, alpha, n = 1.7, 0.5, 1_000_000
    draws = beta_killed_product_sample(a, 1, alpha, rng, size=n)
    at_one = draws == 1.0
    cont = draws[~at_one]
    se = sqrt(alpha * (1 - alpha) / n)
    assert_within_3se(1.0 - at_one.mean(), alpha, se, "continuous mass")
    # under the continuous part, |z|^(a(1-alpha)) is uniform on (0,1) and the
    # sign is a fair coin: chi-square over 2 x 20 equal-mass cells
    u = np.abs(cont) ** (a * (1 - alpha))
    cells = np.clip((u * 20).astype(int), 0, 19) + 20 * (cont > 0)
    counts = np.bincount(cells, minlength=40)
    expected = cont.size / 40.0
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.99, df=39), f"chi-square {stat}"


def test_beta_killed_product_integer_b_moments(rng):
    a, b, alpha = 2.0, 2, 0.5
    draws = np.abs(beta_killed_product_sample(a, b, alpha, rng, size=400_000))
    c = alpha / (1 - alpha)
    for theta in (1.0, 2.0):
        step = exp(gammaln(a + theta) + gammaln(a + b)
                   - gammaln(a + b + theta) - gammaln(a))
        target = 1.0 / (1.0 + c * (1.0 - step))
        est, se = mean_and_se(draws ** theta)
        assert_within_3se(est, target, se, f"|prod|^{theta} for integer b")


def test_beta_example_domain_errors():
    with pytest.raises(DomainError):
        pp.beta_example_density(0.0, 0.5, 0.3)
    with pytest.raises(DomainError):
        beta_killed_product_sample(1.0, 1.5, 0.5, np.random.default_rng(0))
