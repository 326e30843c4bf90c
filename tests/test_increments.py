import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb, isclose, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc, betaln

from conftest import assert_within_3se, mean_and_se
from cubefield import increments as inc
from cubefield import walk
from cubefield.errors import DomainError, ResourceLimitError
from cubefield.polynomials import KrawtchoukBasis, krawtchouk_eval


# ---------------------------------------------------------------------------
# independent law enumeration (test-side oracle, built from the definitions)


def oracle_pmf(model, N):
    pmf = np.zeros(1 << N)
    match model:
        case inc.SingleFlip():
            for j in range(N):
                pmf[1 << j] = 1.0 / N
        case inc.MFlip(m=m):
            for combo in combinations(range(N), m):
                mask = sum(1 << j for j in combo)
                pmf[mask] = 1.0 / comb(N, m)
        case inc.RandomSiteHalf():
            pmf[0] = 0.5
            for j in range(N):
                pmf[1 << j] += 0.5 / N
        case inc.IIDBernoulli(p=p):
            for z in range(1 << N):
                ones = bin(z).count("1")
                pmf[z] = p ** ones * (1 - p) ** (N - ones)
        case inc.DeFinettiDiscrete(atoms=atoms, weights=weights):
            for z in range(1 << N):
                ones = bin(z).count("1")
                pmf[z] = sum(w * a ** ones * (1 - a) ** (N - ones)
                             for a, w in zip(atoms, weights))
        case inc.MarkovEntries(initial=init, transition=rows):
            for z in range(1 << N):
                bits = [(z >> j) & 1 for j in range(N)]
                p = init[bits[0]]
                for j in range(1, N):
                    p *= rows[bits[j - 1]][bits[j]]
                pmf[z] = p
        case _:
            raise AssertionError(f"no oracle for {model}")
    return pmf


def oracle_rho(pmf, subset, N):
    return sum(pmf[z] * (-1.0) ** bin(z & subset).count("1") for z in range(1 << N))


ENUMERABLE = [
    inc.SingleFlip(),
    inc.MFlip(2),
    inc.MFlip(3),
    inc.RandomSiteHalf(),
    inc.IIDBernoulli(0.3),
    inc.IIDBernoulli(0.5),
    inc.DeFinettiDiscrete((0.2, 0.7), (0.6, 0.4)),
    inc.MarkovEntries((0.3, 0.7), ((0.8, 0.2), (0.4, 0.6))),
]


@pytest.mark.parametrize("model", ENUMERABLE, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("N", [3, 4, 6])
def test_rho_subset_matches_law_enumeration(model, N):
    if isinstance(model, inc.MFlip) and model.m > N:
        pytest.skip("flip count exceeds dimension")
    pmf = oracle_pmf(model, N)
    for subset in range(1 << N):
        expected = oracle_rho(pmf, subset, N)
        assert isclose(inc.rho_subset(model, subset, N), expected, abs_tol=1e-12)


@pytest.mark.parametrize("model", [m for m in ENUMERABLE if inc.is_exchangeable(m)],
                         ids=lambda m: type(m).__name__)
def test_rho_k_equals_any_subset_of_that_size(model):
    N = 6
    if isinstance(model, inc.MFlip) and model.m > N:
        pytest.skip("flip count exceeds dimension")
    for subset in [0b1, 0b101, 0b111000, 0b111111]:
        k = bin(subset).count("1")
        assert isclose(inc.rho_subset(model, subset, N), inc.rho_k(model, k, N),
                       abs_tol=1e-14)


def test_rho_all_subsets_consistency():
    N = 6
    for model in (inc.DeFinettiDiscrete((0.2, 0.7), (0.6, 0.4)),
                  inc.MarkovEntries((0.3, 0.7), ((0.8, 0.2), (0.4, 0.6)))):
        table = inc.rho_all_subsets(model, N)
        for subset in range(1 << N):
            assert isclose(table[subset], inc.rho_subset(model, subset, N), abs_tol=1e-13)


def stacked_markov_rho(model, N):
    """The doubling pass that stacks a fresh (2^r, 2) array every round."""
    T = np.array(model.transition)
    states = np.array([model.initial])
    states = np.vstack([states, states * (1.0, -1.0)])
    for _ in range(1, N):
        stepped = states @ T
        states = np.vstack([stepped, stepped * (1.0, -1.0)])
    return states.sum(axis=1)


def test_markov_rho_all_subsets_equals_stacked_pass():
    model = inc.MarkovEntries((0.3, 0.7), ((0.8, 0.2), (0.4, 0.6)))
    for N in range(1, 13):
        table = inc.rho_all_subsets(model, N)
        assert table.shape == (1 << N,)
        assert np.array_equal(table, stacked_markov_rho(model, N))
        for subset in range(1 << N):
            assert abs(table[subset] - inc.rho_subset(model, subset, N)) <= 1e-12


def test_frozen_examples():
    assert inc.rho_subset(inc.SingleFlip(), 0b0011, 4) == 0.0          # 1 - 2*2/4
    assert inc.rho_subset(inc.IIDBernoulli(0.5), 0b0110, 4) == 0.0
    assert inc.rho_k(inc.IIDBernoulli(0.3), 3, 8) == pytest.approx(0.4 ** 3, abs=1e-15)
    assert inc.rho_k(inc.DeFinettiBeta(2.0, 2.0), 1) == pytest.approx(0.0, abs=1e-15)
    # the hypergeometric value, equal to the degree-M Krawtchouk evaluation;
    # direct count: P(Z[a]=1) = M/N = 1/2, so the single-site spin mean is 0
    assert inc.rho_k(inc.MFlip(2), 1, 4) == pytest.approx(0.0, abs=1e-15)
    for k in range(5):
        assert inc.rho_k(inc.MFlip(2), k, 4) == pytest.approx(
            float(krawtchouk_eval(2, k, 4)), abs=1e-14)
    # lazy single-site refresh: 1 - k/N from the exact law
    assert inc.rho_k(inc.RandomSiteHalf(), 2, 4) == pytest.approx(0.5, abs=1e-15)


def test_markov_with_equal_rows_is_iid():
    p = 0.35
    markov = inc.MarkovEntries((1 - p, p), ((1 - p, p), (1 - p, p)))
    iid = inc.IIDBernoulli(p)
    for N in range(1, 9):
        for subset in range(1 << N):
            assert isclose(inc.rho_subset(markov, subset, N),
                           inc.rho_subset(iid, subset, N), abs_tol=1e-12)


def test_beta_moment_matches_quadrature():
    a, b = 1.7, 3.2
    model = inc.DeFinettiBeta(a, b)
    norm = np.exp(betaln(a, b))
    # the moment recurrence at low and high order, against the density integral
    for k in (1, 2, 5, 12, 25, 31, 40, 100, 200, 399, 400):
        ref = quad(lambda w: (1 - 2 * w) ** k * w ** (a - 1) * (1 - w) ** (b - 1) / norm,
                   0, 1, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert inc.rho_k(model, k) == pytest.approx(ref, abs=1e-10)


def exact_beta_spin_moments(a, b, kmax):
    """E[(1-2w)^k] for k <= kmax, w ~ Beta(a, b), from the binomial sums
    sum_j binom(k,j) (-2)^j E[w^j] in exact rationals, rounded once.

    With a = A/D and b = B/D, every E[w^j] = prod_{i<j} (A+iD)/(A+B+iD),
    j <= kmax, is an integer over den = prod_{i<kmax} (A+B+iD); the binomial
    sums for all k come from repeated pairwise sums of the terms.
    """
    fa, fb = Fraction(a), Fraction(b)
    D = lcm(fa.denominator, fb.denominator)
    A, B = int(fa * D), int(fb * D)
    head = [1]  # prod_{i<j} (A+iD)
    for i in range(kmax):
        head.append(head[-1] * (A + i * D))
    tail = [1]  # prod_{j<=i<kmax} (A+B+iD), built from j = kmax down
    for i in range(kmax - 1, -1, -1):
        tail.append(tail[-1] * (A + B + i * D))
    tail.reverse()
    row = [(-2) ** j * head[j] * tail[j] for j in range(kmax + 1)]
    sums = []
    for _ in range(kmax + 1):
        sums.append(row[0])
        row = [x + y for x, y in zip(row, row[1:])]
    return [s / tail[0] for s in sums]  # int / int rounds correctly


@pytest.mark.parametrize("a, b", [(2, 3), (0.5, 0.5), (0.05, 50), (50, 0.05), (7, 1.5),
                                  (0.3, 2), (100, 100)])
def test_beta_moments_match_exact_binomial_sums(a, b):
    model = inc.DeFinettiBeta(a, b)
    for k, want in enumerate(exact_beta_spin_moments(a, b, 400)):
        assert inc.rho_k(model, k) == pytest.approx(want, rel=1e-14, abs=0.0), k


@pytest.mark.parametrize("a", [0.5, 2.0, 100.0])
def test_beta_odd_moments_vanish_for_symmetric_shapes(a):
    model = inc.DeFinettiBeta(a, a)
    assert all(inc.rho_k(model, k) == 0.0 for k in range(1, 402, 2))


def test_beta_moment_does_not_depend_on_call_order():
    model = inc.DeFinettiBeta(1.3, 0.7)
    inc._beta_spin_moments.cache_clear()
    small_first = inc.rho_k(model, 5)
    inc.rho_k(model, 300)
    inc._beta_spin_moments.cache_clear()
    inc.rho_k(model, 300)
    assert inc.rho_k(model, 5) == small_first


def test_beta_spectrum_at_large_dimension_is_fast():
    inc._beta_spin_moments.cache_clear()
    start = time.perf_counter()
    rho = walk.GreenSpec(1000, inc.DeFinettiBeta(2.5, 3.0), 0.9).rho
    assert time.perf_counter() - start < 0.1
    assert rho.shape == (1001,) and np.all(np.abs(rho) <= 1.0)


def test_beta_pmf_with_integer_shapes():
    # popcounts are uint8; integer shapes past 255 must not add in uint8
    for a, b in ((2, 3), (300, 2), (2, 300)):
        want = [np.exp(betaln(a + k, b + 4 - k) - betaln(a, b))
                for k in (bin(z).count("1") for z in range(16))]
        assert np.array_equal(inc.DeFinettiBeta(a, b).pmf(4), want)


def test_symmetric_beta_spin_moments():
    model = inc.SymmetricBetaSpin(2.0, 1.0)
    assert inc.rho_k(model, 1) == 0.0
    assert inc.rho_k(model, 3) == 0.0
    # |xi| ~ Beta(2,1): E[xi^2] = 2/4 * ... = (2*3)/(3*4) = 1/2
    assert inc.rho_k(model, 2) == pytest.approx(0.5, abs=1e-14)
    # the cached table is the running product, float for float
    for a, b in ((2.0, 1.0), (0.3, 7.5)):
        model, val = inc.SymmetricBetaSpin(a, b), 1.0
        for k in range(401):
            assert inc.rho_k(model, k) == (0.0 if k % 2 else val)
            val *= (a + k) / (a + b + k)


# ---------------------------------------------------------------------------
# the killed gap b


def test_b_identity_for_finite_models():
    alpha = 0.4
    c = alpha / (1 - alpha)
    for model in ENUMERABLE:
        for subset in (0, 0b1, 0b1011):
            expected = c * (1 - inc.rho_subset(model, subset, 4))
            assert isclose(inc.b_subset(model, subset, 4, alpha), expected, abs_tol=1e-14)


def test_b_empty_subset_is_zero():
    assert inc.b_subset(inc.SingleFlip(), 0, 4, 0.7) == 0.0
    assert inc.b_subset(inc.LimitLinear(2.0), 0, None, None) == 0.0
    assert inc.b_subset(inc.LimitPoissonDirichlet(1.5), 0, None, None) == 0.0


def test_limit_linear_b():
    model = inc.LimitLinear(3.0)
    for k in range(6):
        assert inc.b_k(model, k, None, None) == pytest.approx(2 * k / 3.0, abs=1e-14)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("size", [1, 2, 3, 6])
def test_poisson_dirichlet_b_matches_quadrature(kappa, size):
    # kappa int (1 - (1-2w)^size) w^-1 (1-w)^(kappa-1) dw; the integrand is
    # bounded at w = 0 since 1 - (1-2w)^size ~ 2 size w
    def integrand(w):
        return (1 - (1 - 2 * w) ** size) / w * (1 - w) ** (kappa - 1)
    ref = kappa * quad(integrand, 0, 1, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    val = inc.b_k(inc.LimitPoissonDirichlet(kappa), size, None, None)
    assert val == pytest.approx(ref, abs=1e-8)


def exact_poisson_dirichlet_gap(kappa, k):
    """kappa sum_{j=1..k} (-1)^(j+1) 2^j/j binom(k,j) j! / (kappa)_j in exact rationals."""
    kappa = Fraction(kappa)
    total, ratio = Fraction(0), Fraction(1)
    for j in range(1, k + 1):
        ratio *= Fraction(k - j + 1) / (kappa + j - 1)  # k_[j] / kappa_(j)
        total += (-1) ** (j + 1) * Fraction(2 ** j, j) * ratio
    return kappa * total


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.5])
def test_poisson_dirichlet_b_matches_exact_rational_sum(kappa):
    model = inc.LimitPoissonDirichlet(kappa)
    for k in (1, 2, 3, 6, 10, 40, 60, 200):
        exact = exact_poisson_dirichlet_gap(kappa, k)
        assert abs(Fraction(inc.b_k(model, k, None, None)) - exact) <= 1e-14 * exact, k


def test_poisson_dirichlet_b_at_large_subsets():
    model = inc.LimitPoissonDirichlet(1.0)
    assert inc.b_subset(model, 2 ** 60 - 1, None, None) == pytest.approx(
        5.364753694983085, rel=1e-14, abs=0.0)
    assert np.isfinite(inc.b_k(model, 4096, None, None))


def test_poisson_dirichlet_gaps_take_constant_time():
    model = inc.LimitPoissonDirichlet(1.0)
    inc._beta_spin_moments.cache_clear()
    start = time.perf_counter()
    gaps = [model.gap(k) for k in range(16_385)]
    assert time.perf_counter() - start < 0.5
    assert all(type(g) is float for g in gaps) and gaps[0] == 0.0


def test_poisson_dirichlet_gap_table_is_compact():
    inc._beta_spin_moments.cache_clear()
    tracemalloc.start()
    try:
        assert np.isfinite(inc.LimitPoissonDirichlet(1.0).gap(2 ** 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        inc._beta_spin_moments.cache_clear()
    assert peak < 16 * 2 ** 20


def test_limit_models_reject_rho_and_sampling(rng):
    with pytest.raises(DomainError):
        inc.rho_subset(inc.LimitLinear(2.0), 0b1, 4)
    with pytest.raises(DomainError):
        inc.rho_k(inc.LimitPoissonDirichlet(1.0), 2, 4)
    with pytest.raises(DomainError):
        inc.sample_Z(inc.LimitLinear(2.0), 4, rng)
    with pytest.raises(DomainError):
        inc.rho_k(inc.MarkovEntries((0.5, 0.5), ((0.5, 0.5), (0.5, 0.5))), 1, 4)


# ---------------------------------------------------------------------------
# samplers


def test_sample_Z_structural(rng):
    for _ in range(200):
        assert bin(inc.sample_Z(inc.SingleFlip(), 6, rng)).count("1") == 1
        assert bin(inc.sample_Z(inc.MFlip(3), 6, rng)).count("1") == 3
        assert bin(inc.sample_Z(inc.RandomSiteHalf(), 6, rng)).count("1") <= 1


def test_sample_Z_definetti_mc(rng):
    model = inc.DeFinettiDiscrete((0.5,), (1.0,))
    draws = np.array([inc.sample_Z(model, 5, rng) & 1 for _ in range(100_000)])
    spins = 1.0 - 2.0 * draws
    est, se = mean_and_se(spins)
    assert_within_3se(est, inc.rho_k(model, 1, 5), se, "single-site spin mean")


def test_discrete_sample_is_generator_choice():
    model = inc.DeFinettiDiscrete((0.2, 0.5, 0.9, 0.0), (0.5, 0.2, 0.3, 0.0))
    points = [1.0 - 2.0 * a for a in model.atoms]
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(20_000):
        assert model.sample(ours) == theirs.choice(points, p=model.weights)
    assert np.array_equal(model.sample(ours, size=(50, 40)),
                          theirs.choice(points, p=model.weights, size=(50, 40)))
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_iid_bernoulli_sample_draws_nothing():
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    assert inc.IIDBernoulli(0.3).sample(rng) == 1.0 - 2.0 * 0.3
    assert np.array_equal(inc.IIDBernoulli(0.3).sample(rng, size=4), [1.0 - 2.0 * 0.3] * 4)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("model, nonpositive", [
    (inc.IIDBernoulli(0.7), 1.0),
    (inc.DeFinettiDiscrete((0.2, 0.5, 0.9, 0.0), (0.5, 0.2, 0.3, 0.0)), 0.2 + 0.3),
    (inc.SymmetricBetaSpin(2.0, 1.0), 0.5),
    (inc.SymmetricBetaSpin(0.3, 7.5), 0.5),
], ids=["iid", "discrete", "symmetric-2-1", "symmetric-0.3-7.5"])
def test_abs_moment_split_at_zero_is_the_nonpositive_mass(model, nonpositive):
    assert model.abs_moment_split(0.0)[0] == nonpositive


@pytest.mark.parametrize("a, b", [(2.0, 3.0), (0.5, 0.5), (0.05, 50.0)])
def test_beta_abs_moment_split_at_zero_is_the_incomplete_beta_tail(a, b):
    # xi <= 0 is omega >= 1/2, whose mass the regularized incomplete Beta gives
    want = 1.0 - betainc(a, b, 0.5)
    assert inc.DeFinettiBeta(a, b).abs_moment_split(0.0)[0] == pytest.approx(want, abs=1e-12)


def test_sample_Z_markov_mc(rng):
    model = inc.MarkovEntries((0.3, 0.7), ((0.8, 0.2), (0.4, 0.6)))
    subset = 0b101
    draws = np.array([inc.sample_Z(model, 3, rng) for _ in range(100_000)])
    signs = (-1.0) ** np.bitwise_count(np.bitwise_and(draws, subset))
    est, se = mean_and_se(signs)
    assert_within_3se(est, inc.rho_subset(model, subset, 3), se, "markov spin product")


def test_sample_spin_xi(rng):
    assert inc.sample_spin_xi(inc.DeFinettiDiscrete((0.0,), (1.0,)), rng) == 1.0
    assert inc.sample_spin_xi(inc.DeFinettiDiscrete((1.0,), (1.0,)), rng) == -1.0
    draws = np.array([np.sign(inc.sample_spin_xi(inc.SymmetricBetaSpin(2.0, 1.5), rng))
                      for _ in range(100_000)])
    est, se = mean_and_se(draws)
    assert_within_3se(est, 0.0, se, "spin sign symmetry")
    with pytest.raises(DomainError):
        inc.sample_spin_xi(inc.SingleFlip(), rng)


# ---------------------------------------------------------------------------
# properties and config parsing


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=63),
       st.integers(min_value=1, max_value=6))
def test_rho_bounded_and_normalized(atoms, subset, N):
    subset &= (1 << N) - 1
    weights = [1.0 / len(atoms)] * len(atoms)
    model = inc.DeFinettiDiscrete(tuple(atoms), tuple(weights))
    rho = inc.rho_subset(model, subset, N)
    assert -1.0 - 1e-12 <= rho <= 1.0 + 1e-12
    assert inc.rho_subset(model, 0, N) == 1.0


def test_model_dict_round_trip():
    models = ENUMERABLE + [
        inc.DeFinettiBeta(1.5, 2.0),
        inc.SymmetricBetaSpin(2.0, 1.0),
        inc.LimitLinear(2.0),
        inc.LimitPoissonDirichlet(0.8),
    ]
    for model in models:
        assert inc.model_from_dict(inc.model_to_dict(model)) == model


def test_model_from_dict_examples():
    assert inc.model_from_dict({"model": "mflip", "M": 2}) == inc.MFlip(2)
    assert inc.model_from_dict({"model": "single_flip"}) == inc.SingleFlip()
    with pytest.raises(DomainError):
        inc.model_from_dict({"model": "unknown-thing"})
    for name in ("iid-bernoulli", "definetti-discrete", "definetti-beta", "mflip",
                 "markov-entries", "symmetric-beta-spin", "limit-linear",
                 "limit-poisson-dirichlet"):
        with pytest.raises(DomainError):
            inc.model_from_dict({"model": name})  # missing parameter, e.g. M for mflip


def test_model_from_dict_rejects_keys_the_model_lacks():
    with pytest.raises(DomainError, match="'single-flip' takes no parameter p"):
        inc.model_from_dict({"model": "single-flip", "p": 0.3})
    with pytest.raises(DomainError, match="takes no parameter kapa"):
        inc.model_from_dict({"model": "limit-poisson-dirichlet", "kappa": 1.0, "kapa": 2.0})
    assert inc.model_from_dict({"model": "mflip", "m": 2}) == inc.MFlip(2)


MARKOV_CHAINS = {
    "benchmark": ((0.5, 0.5), ((0.8, 0.2), (0.3, 0.7))),
    "asymmetric": ((0.3, 0.7), ((0.8, 0.2), (0.4, 0.6))),
    "identity": ((0.3, 0.7), ((1.0, 0.0), (0.0, 1.0))),
    "absorbing-start": ((1.0, 0.0), ((0.8, 0.2), (0.3, 0.7))),
    "alternating": ((0.1, 0.9), ((0.0, 1.0), (1.0, 0.0))),
    "thirds": ((1 / 3, 2 / 3), ((1 / 7, 6 / 7), (5 / 11, 6 / 11))),
}


@pytest.mark.parametrize("chain", MARKOV_CHAINS.values(), ids=MARKOV_CHAINS.keys())
def test_markov_planar_pass_equals_stacked_pass(chain):
    # the stacked pass starts from position 1, so it covers N >= 1; the empty
    # subset alone (N = 0) has rho = 1
    model = inc.MarkovEntries(*chain)
    assert np.array_equal(inc.rho_all_subsets(model, 0), [1.0])
    for N in range(1, 17):
        table = inc.rho_all_subsets(model, N)
        assert table.shape == (1 << N,) and table.flags.c_contiguous
        assert np.array_equal(table.view(np.uint64), stacked_markov_rho(model, N).view(np.uint64))


@pytest.mark.parametrize("model", [inc.MarkovEntries(*MARKOV_CHAINS["benchmark"]),
                                   inc.IIDBernoulli(0.3)], ids=["markov", "iid"])
def test_rho_all_subsets_bounds(model):
    assert np.array_equal(inc.rho_all_subsets(model, 0), [1.0])
    with pytest.raises(DomainError):
        inc.rho_all_subsets(model, -1)
    # past the cap the call raises before it allocates: never run it for real
    assert inc.SPECTRAL_ENUMERATION_N_LIMIT == 24
    for N in (25, 30):
        with pytest.raises(ResourceLimitError):
            inc.rho_all_subsets(model, N)


def concatenated_markov_pmf(model, N):
    """The doubling pass that concatenates two fresh halves every round."""
    T = np.array(model.transition)
    out = np.array(model.initial)
    last = np.array([0, 1])
    for _ in range(1, N):
        out = np.concatenate([out * T[last, 0], out * T[last, 1]])
        last = np.concatenate([np.zeros_like(last), np.ones_like(last)])
    return out


@pytest.mark.parametrize("chain", MARKOV_CHAINS.values(), ids=MARKOV_CHAINS.keys())
def test_markov_pmf_in_place_equals_concatenated_pass(chain):
    model = inc.MarkovEntries(*chain)
    for N in range(1, 21):
        pmf = inc.increment_pmf(model, N)
        assert np.array_equal(pmf.view(np.uint64), concatenated_markov_pmf(model, N).view(np.uint64))


def test_markov_pmf_peak_is_its_result():
    model = inc.MarkovEntries(*MARKOV_CHAINS["benchmark"])
    tracemalloc.start()
    try:
        pmf = inc.increment_pmf(model, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pmf.nbytes + (1 << 16)


@pytest.mark.parametrize("model", [inc.MarkovEntries(*MARKOV_CHAINS["benchmark"]),
                                   inc.IIDBernoulli(0.3), inc.DeFinettiBeta(2.0, 3.0),
                                   inc.SymmetricBetaSpin(2.0, 1.0), inc.SingleFlip()],
                         ids=["markov", "iid", "beta", "symmetric-beta", "single-flip"])
def test_increment_pmf_raises_past_the_cap_before_allocating(model):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            inc.increment_pmf(model, inc.SPECTRAL_ENUMERATION_N_LIMIT + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


EXCHANGEABLE_LAWS = [inc.IIDBernoulli(0.3), inc.DeFinettiDiscrete((0.2, 0.7, 0.95), (0.3, 0.3, 0.4)),
                     inc.DeFinettiBeta(2.0, 3.0), inc.SymmetricBetaSpin(2.0, 1.0),
                     inc.SingleFlip(), inc.MFlip(3), inc.RandomSiteHalf()]


@pytest.mark.parametrize("model", EXCHANGEABLE_LAWS, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("N", [3, 20, 64])
def test_size_law_transforms_to_rho_by_size(model, N):
    # rho_k = sum_j binom(N,j) pmf_by_size[j] Q_k(j), and by self-duality
    # binom(N,j) Q_k(j) = binom(N,j) Q_j(k) is the exact integer scaled(j, k)
    basis = KrawtchoukBasis(N)
    size_law = [Fraction(p) for p in model.pmf_by_size(N)]
    rho = inc.rho_by_size(model, N)
    for k in range(N + 1):
        exact = sum(p * basis.scaled(j, k) for j, p in enumerate(size_law))
        assert abs(float(exact) - rho[k]) <= 1e-13, (k, float(exact), rho[k])


@pytest.mark.parametrize("model", EXCHANGEABLE_LAWS, ids=lambda m: type(m).__name__)
def test_increment_pmf_peak_is_its_result_plus_the_popcounts(model):
    tracemalloc.start()
    try:
        pmf = inc.increment_pmf(model, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pmf.nbytes + (2 << 20)
