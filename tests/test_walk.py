import tracemalloc

import numpy as np
import pytest

from conftest import assert_within_3se
from oracles import green_matrix_full_solve
from cubefield import field as fld
from cubefield import increments as inc
from cubefield import walk
from cubefield.errors import DomainError, NumericError, ResourceLimitError

MODELS = {
    "single-flip": inc.SingleFlip(),
    "mflip2": inc.MFlip(2),
    "iid-bernoulli": inc.IIDBernoulli(0.3),
    "definetti": inc.DeFinettiDiscrete((0.2, 0.7), (0.6, 0.4)),
    "lazy": inc.RandomSiteHalf(),
    "markov": inc.MarkovEntries((0.3, 0.7), ((0.8, 0.2), (0.4, 0.6))),
}


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_transition_matrix_doubly_stochastic(model):
    P = walk.transition_matrix(model, 4)
    assert P.min() >= 0.0
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(P.sum(axis=0) - 1.0).max() < 1e-12


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_t_step_matches_matrix_powers(model):
    N = 3
    P = walk.transition_matrix(model, N)
    for t in (0, 1, 2, 5, 17):
        Pt = np.linalg.matrix_power(P, t)
        for x in range(1 << N):
            for y in range(1 << N):
                assert walk.t_step_prob(model, N, t, x, y) == pytest.approx(
                    Pt[x, y], abs=1e-12)


def test_t_step_identity_at_zero():
    for x in range(8):
        for y in range(8):
            val = walk.t_step_prob(MODELS["definetti"], 3, 0, x, y)
            assert val == pytest.approx(1.0 if x == y else 0.0, abs=1e-14)


def test_one_step_mixing_bernoulli_half():
    for x in range(16):
        for y in range(16):
            assert walk.t_step_prob(inc.IIDBernoulli(0.5), 4, 1, x, y) == pytest.approx(
                1.0 / 16, abs=1e-14)


def test_long_run_uniform_for_aperiodic_walk():
    # the lazy single-site walk is ergodic: P_400 -> 2^-N
    for y in range(8):
        assert walk.t_step_prob(inc.RandomSiteHalf(), 3, 400, 0, y) == pytest.approx(
            1.0 / 8, abs=1e-9)


def test_simple_walk_is_parity_periodic():
    # the strict one-flip walk never mixes: after an even number of steps
    # the endpoint has even distance, so P_400 alternates between 1/4 and 0
    for y in range(8):
        target = 0.25 if bin(y).count("1") % 2 == 0 else 0.0
        assert walk.t_step_prob(inc.SingleFlip(), 3, 400, 0, y) == pytest.approx(
            target, abs=1e-9)


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_green_matches_resolvent_oracle(model, alpha):
    spec = walk.GreenSpec(3, model, alpha)
    gap = np.abs(walk.green_matrix_spectral(spec) - walk.green_matrix_oracle(spec)).max()
    assert gap < 1e-10


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
@pytest.mark.parametrize("alpha", [0.3, 0.9, 1 - 1e-6])
def test_oracle_column_solve_matches_full_solve(model, alpha):
    # the 2-norm condition number of the symmetric I - alpha P is at most
    # (1 + alpha)/(1 - alpha); two backward-stable solves of it part by up to
    # about eps * kappa of the scale, which passes 1e-13 only for alpha > 0.93
    kappa = (1.0 + alpha) / (1.0 - alpha)
    tol = max(1e-13, 16 * np.finfo(float).eps * kappa)
    for N in (1, 3, 6, 8):
        if isinstance(model, inc.MFlip) and model.m > N:
            continue
        spec = walk.GreenSpec(N, model, alpha)
        G = walk.green_matrix_oracle(spec)
        ref = green_matrix_full_solve(spec)
        assert np.abs(G - ref).max() <= tol * np.abs(ref).max(), N
        assert np.array_equal(G, G.T), N
        assert np.abs(G.sum(axis=1) - 1.0).max() <= tol, N


def test_oracle_uses_no_spectral_route(monkeypatch):
    spec = walk.GreenSpec(5, MODELS["markov"], 0.6)
    exchangeable = walk.GreenSpec(5, MODELS["definetti"], 0.6)
    before = [walk.green_matrix_oracle(s) for s in (spec, exchangeable)]

    def refuse(*args, **kwargs):
        raise AssertionError("the dense oracle reached the spectral route")

    monkeypatch.setattr(inc, "rho_all_subsets", refuse)
    monkeypatch.setattr(walk, "rho_by_size", refuse)
    monkeypatch.setattr(walk, "_fwht_inplace", refuse)
    for s, want in zip((spec, exchangeable), before):
        assert np.array_equal(walk.green_matrix_oracle(s), want)


def test_green_bernoulli_half_closed_form():
    spec = walk.GreenSpec(5, inc.IIDBernoulli(0.5), 0.35)
    table = walk.green_xor_table(spec)
    assert table[0] == pytest.approx(0.65 + 0.35 / 32, abs=1e-13)
    assert np.abs(table[1:] - 0.35 / 32).max() < 1e-13


def test_green_vanishing_killing_limit():
    spec = walk.GreenSpec(3, inc.SingleFlip(), 1e-12)
    assert walk.green_spectral(spec, 5, 5) == pytest.approx(1.0, abs=1e-10)
    assert walk.green_spectral(spec, 5, 2) == pytest.approx(0.0, abs=1e-10)


def test_green_symmetry_and_translation_invariance(rng):
    spec = walk.GreenSpec(4, inc.MarkovEntries((0.3, 0.7), ((0.8, 0.2), (0.4, 0.6))), 0.5)
    G = walk.green_matrix_spectral(spec)
    assert np.abs(G - G.T).max() < 1e-13
    for _ in range(100):
        x, y, shift = rng.integers(0, 16, size=3)
        assert G[x, y] == pytest.approx(G[x ^ shift, y ^ shift], abs=1e-13)


def test_green_positive_definite():
    for model in (MODELS["single-flip"], MODELS["markov"]):
        spec = walk.GreenSpec(8, model, 0.6) if not isinstance(model, inc.SingleFlip) \
            else walk.GreenSpec(8, model, 0.6)
        G = walk.green_matrix_spectral(spec)
        eigs = np.linalg.eigvalsh(G)
        assert eigs.min() >= -1e-12


def test_green_rows_sum_to_one():
    spec = walk.GreenSpec(4, MODELS["definetti"], 0.45)
    oracle = walk.green_matrix_oracle(spec)
    assert np.abs(oracle.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(walk.green_xor_table(spec).sum() - 1.0) < 1e-12


def test_green_hamming_aggregation():
    spec = walk.GreenSpec(4, inc.SingleFlip(), 0.7)
    pc = np.array([bin(x).count("1") for x in range(16)])
    x0 = 0b0011  # level 2
    for v in range(5):
        agg = sum(walk.green_spectral(spec, x0, y) for y in range(16) if pc[y] == v)
        assert walk.green_hamming(spec, 2, v) == pytest.approx(agg, abs=1e-10)
    total = sum(walk.green_hamming(spec, 2, v) for v in range(5))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_green_hamming_bernoulli_half_origin():
    spec = walk.GreenSpec(6, inc.IIDBernoulli(0.5), 0.4)
    assert walk.green_hamming(spec, 0, 0) == pytest.approx(0.6 + 0.4 / 64, abs=1e-13)


def test_green_hamming_past_float_range_raises_numeric_error():
    # binom(1100, 550) ~ 1e329 does not fit in a float
    spec = walk.GreenSpec(1100, inc.SingleFlip(), 0.9)
    with pytest.raises(NumericError):
        walk.green_hamming(spec, 0, 550)


def test_green_hamming_rejects_markov():
    spec = walk.GreenSpec(3, MODELS["markov"], 0.5)
    with pytest.raises(DomainError):
        walk.green_hamming(spec, 0, 1)


def test_step_is_xor(rng):
    x = 0b1010
    # increment identically zero: Z from a point-mass-at-0 mixture
    frozen = inc.DeFinettiDiscrete((0.0,), (1.0,))
    assert walk.step(x, frozen, 4, rng) == x
    for _ in range(50):
        y = walk.step(0, inc.SingleFlip(), 4, rng)
        assert bin(y).count("1") == 1


def test_one_step_uniform_chi_square(rng):
    # a Bernoulli(1/2) increment mixes in one step: endpoint uniform on {0,1}^4
    from scipy.stats import chi2
    n = 100_000
    ends = np.array([walk.step(0b1010, inc.IIDBernoulli(0.5), 4, rng)
                     for _ in range(n)])
    counts = np.bincount(ends, minlength=16)
    stat = float(((counts - n / 16) ** 2 / (n / 16)).sum())
    assert stat < chi2.ppf(0.99, df=15), f"chi-square {stat}"


def test_killed_endpoint_vanishing_killing(rng):
    spec = walk.GreenSpec(3, inc.SingleFlip(), 1e-12)
    assert all(walk.sample_killed_endpoint(spec, 6, rng) == 6 for _ in range(200))


def test_geometric_time_distribution(rng):
    alpha = 0.6
    draws = np.array([walk.sample_geometric_time(alpha, rng) for _ in range(100_000)])
    se0 = np.sqrt(0.4 * 0.6 / draws.size)
    assert_within_3se(np.mean(draws == 0), 1 - alpha, se0, "P(T=0)")
    mean_se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert_within_3se(draws.mean(), alpha / (1 - alpha), mean_se, "E[T]")


def test_killed_endpoint_bernoulli_half(rng):
    spec = walk.GreenSpec(3, inc.IIDBernoulli(0.5), 0.5)
    hits = np.array([walk.sample_killed_endpoint(spec, 5, rng) == 5
                     for _ in range(100_000)])
    p = 0.5 + 1.0 / 16
    se = np.sqrt(p * (1 - p) / hits.size)
    assert_within_3se(hits.mean(), p, se, "P(endpoint = start)")


def test_killed_endpoint_matches_green_row(rng):
    spec = walk.GreenSpec(3, inc.SingleFlip(), 0.6)
    n = 100_000
    ends = np.array([walk.sample_killed_endpoint(spec, 0, rng) for _ in range(n)])
    counts = np.bincount(ends, minlength=8) / n
    table = walk.green_xor_table(spec)
    for y in range(8):
        se = np.sqrt(table[y] * (1 - table[y]) / n)
        assert_within_3se(counts[y], table[y], se, f"endpoint mass at {y}")


def test_coupon_collector_frozen_values():
    assert walk.coupon_collector_prob(2, 2) == pytest.approx(0.5, abs=1e-15)
    assert walk.coupon_collector_prob(1, 2) == 0.0
    assert walk.coupon_collector_prob(1, 1) == 1.0
    assert walk.coupon_collector_prob(5, 1) == 0.0


def test_coupon_collector_mc(rng):
    # N=3 coverage times by direct simulation; P(T > 60) ~ 7.8e-11 so the
    # empirical mass on [3, 60] is exactly 1 for any reasonable seed
    N, cap, runs = 3, 60, 1_000_000
    draws = rng.integers(0, N, size=(runs, cap)).astype(np.uint8)
    masks = np.left_shift(1, draws)
    coverage = np.bitwise_or.accumulate(masks, axis=1)
    done = coverage == (1 << N) - 1
    assert done[:, -1].all()
    first = 1 + done.argmax(axis=1)
    exact_sum = sum(walk.coupon_collector_prob(t, N) for t in range(3, cap + 1))
    empirical_sum = float(np.mean(first <= cap))
    assert abs(exact_sum - empirical_sum) < 1e-9
    # per-t agreement at MC resolution
    for t in (3, 5, 9):
        freq = float(np.mean(first == t))
        p = walk.coupon_collector_prob(t, N)
        assert_within_3se(freq, p, np.sqrt(p * (1 - p) / runs), f"coverage at t={t}")


def test_resource_limits():
    spec = walk.GreenSpec(13, inc.SingleFlip(), 0.5)
    with pytest.raises(ResourceLimitError):
        walk.green_matrix_oracle(spec)
    big = walk.GreenSpec(25, MODELS["markov"], 0.5)
    with pytest.raises(ResourceLimitError):
        walk.green_spectral(big, 0, 1)


def test_spec_validation():
    with pytest.raises(DomainError):
        walk.GreenSpec(0, inc.SingleFlip(), 0.5)
    with pytest.raises(DomainError):
        walk.GreenSpec(3, inc.SingleFlip(), 1.0)
    with pytest.raises(DomainError):
        walk.GreenSpec(3, inc.LimitLinear(2.0), 0.5)


def test_exchangeable_green_large_dimension():
    # the O(N) path has no dimension cap
    spec = walk.GreenSpec(200, inc.IIDBernoulli(0.5), 0.3)
    assert walk.green_spectral(spec, 0, 0) == pytest.approx(0.7 + 0.3 * 2.0 ** -200,
                                                            abs=1e-13)


def test_subset_table_peak_memory():
    # the size index is one byte per subset: the peak is the float64 result
    # plus the 2^N uint8 popcounts, not a second 2^N 8-byte array
    spec = walk.GreenSpec(20, inc.IIDBernoulli(0.3), 0.9)
    spec.weights  # cached before tracing: only the table's own work is measured
    tracemalloc.start()
    try:
        table = spec.subset_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes + (1 << 20) + (1 << 19)


MARKOV_BENCH = inc.MarkovEntries((0.5, 0.5), ((0.8, 0.2), (0.3, 0.7)))


@pytest.mark.parametrize("alpha", [0.3, 0.9, 0.999])
def test_markov_subset_table_is_the_weight_chain(alpha):
    # the in-place chain does the same four float operations as the expression
    for N in (1, 5, 12):
        spec = walk.GreenSpec(N, MARKOV_BENCH, alpha)
        rho = inc.rho_all_subsets(MARKOV_BENCH, N)
        expected = 1.0 / (1.0 + inc.killing_gap(spec.c, rho))
        assert np.array_equal(spec.subset_table().view(np.uint64), expected.view(np.uint64))


def test_markov_full_cube_peaks_are_one_table():
    # each route works inside one 2^N float64 array (8 MiB at N = 20) plus
    # small buffers, never a (2^N, 2) state array or a second table
    N = 20
    spec = walk.GreenSpec(N, MARKOV_BENCH, 0.9)
    noise = fld.SpectralNoise.draw(N, np.random.default_rng(0))
    routes = {
        "rho_all_subsets": lambda: inc.rho_all_subsets(MARKOV_BENCH, N),
        "subset_table": spec.subset_table,
        "green_xor_table": lambda: walk.green_xor_table(spec),
        "sample_field_spectral": lambda: fld.sample_field_spectral(spec, noise),
    }
    for name, route in routes.items():
        tracemalloc.start()
        try:
            route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 << 20, (name, peak)


@pytest.mark.parametrize("N", [8, 16])
def test_markov_pointwise_fold_matches_xor_table(N):
    spec = walk.GreenSpec(N, MARKOV_BENCH, 0.8)
    table = walk.green_xor_table(spec)
    rng = np.random.default_rng(N)
    for x, y in [(0, 0), (0, (1 << N) - 1), (1, 2)] + [
            tuple(int(v) for v in rng.integers(1 << N, size=2)) for _ in range(20)]:
        assert walk.green_spectral(spec, x, y) == pytest.approx(table[x ^ y], rel=1e-12)

