import copy
import tracemalloc
from math import comb, sqrt

import numpy as np
import pytest

from conftest import assert_within_3se, covariance_se
from cubefield import field as fld
from cubefield import increments as inc
from cubefield import walk
from cubefield.errors import DomainError
from cubefield.walsh import fwht, popcounts

DEFINETTI = inc.DeFinettiDiscrete((0.2, 0.7), (0.6, 0.4))


def spec_of(N=4, model=None, alpha=0.5):
    return walk.GreenSpec(N, model if model is not None else inc.SingleFlip(), alpha)


def naive_field(spec, noise):
    """O(4^N) double loop over vertices and subsets."""
    n = 1 << spec.N
    coef = np.sqrt(spec.subset_table())
    out = np.zeros(n)
    for x in range(n):
        acc = 0.0
        for a in range(n):
            acc += coef[a] * (-1.0) ** bin(a & x).count("1") * noise.values[a]
        out[x] = acc * 2.0 ** (-spec.N / 2.0)
    return out


def basis_noise(N, subset):
    values = np.zeros(1 << N)
    values[subset] = 1.0
    return fld.SpectralNoise(N, values)


# ---------------------------------------------------------------------------
# spectral sampler


def test_zero_noise_gives_zero_field():
    spec = spec_of()
    sample = fld.sample_field_spectral(spec, fld.SpectralNoise.zero(4))
    assert np.all(sample.values == 0.0)


@pytest.mark.parametrize("model", [inc.SingleFlip(), DEFINETTI,
                                   inc.MarkovEntries((0.3, 0.7), ((0.8, 0.2), (0.4, 0.6)))],
                         ids=["single-flip", "definetti", "markov"])
def test_fast_path_matches_naive(model, rng):
    spec = spec_of(6, model)
    noise = fld.SpectralNoise.draw(6, rng)
    fast = fld.sample_field_spectral(spec, noise)
    assert np.abs(fast.values - naive_field(spec, noise)).max() < 1e-12


def test_spectral_covariance_mc(rng):
    spec = spec_of(3, inc.SingleFlip(), 0.5)
    draws = fld.sample_field_spectral_batch(spec, rng, 60_000)
    emp = draws.T @ draws / draws.shape[0]
    analytic = walk.green_matrix_spectral(spec)
    se = covariance_se(analytic, draws.shape[0])
    frac = np.mean(np.abs(emp - analytic) <= 3 * se)
    assert frac >= 0.99, f"only {frac:.3f} of entries within 3 SE"


def test_variance_bernoulli_half(rng):
    spec = spec_of(4, inc.IIDBernoulli(0.5), 0.5)
    draws = fld.sample_field_spectral_batch(spec, rng, 60_000)
    target = 0.5 + 0.5 / 16
    sq = draws[:, 3] ** 2
    assert_within_3se(sq.mean(), target, sq.std(ddof=1) / np.sqrt(sq.size),
                      "field variance")


# ---------------------------------------------------------------------------
# Cholesky sampler


def test_cholesky_covariance_equals_spectral_analytically():
    # covariance of the spectral linear map M z (M[x,A] = 2^-N/2 coef_A sign)
    # must equal the Green matrix that the Cholesky route factorizes
    spec = spec_of(4, DEFINETTI, 0.5)
    n = 16
    coef = np.sqrt(spec.subset_table())
    M = np.empty((n, n))
    for x in range(n):
        for a in range(n):
            M[x, a] = coef[a] * (-1.0) ** bin(a & x).count("1")
    M *= 2.0 ** (-spec.N / 2.0)
    spectral_cov = M @ M.T
    green = walk.green_matrix_spectral(spec)
    assert np.abs(spectral_cov - green).max() < 1e-10


def test_cholesky_single_point(rng):
    spec = spec_of(6, inc.SingleFlip(), 0.5)
    draws = np.array([fld.sample_field_cholesky(spec, [9], rng).values[0]
                      for _ in range(40_000)])
    target = walk.green_spectral(spec, 9, 9)
    sq = draws ** 2
    assert_within_3se(sq.mean(), target, sq.std(ddof=1) / np.sqrt(sq.size),
                      "single-point variance")


def test_cholesky_duplicate_points_fully_correlated(rng):
    spec = spec_of(4, inc.SingleFlip(), 0.5)
    sample = fld.sample_field_cholesky(spec, [7, 7], rng)
    assert sample.values[0] == pytest.approx(sample.values[1], abs=1e-5)
    assert sample.provenance == "cholesky+jitter"


def test_cholesky_vs_spectral_two_sample(rng):
    spec = spec_of(4, inc.SingleFlip(), 0.5)
    n = 10_000
    spectral = fld.sample_field_spectral_batch(spec, rng, n)
    chol = np.stack([fld.sample_field_cholesky(spec, range(16), rng).values
                     for _ in range(n)])
    analytic = walk.green_matrix_spectral(spec)
    se = covariance_se(analytic, n) * sqrt(2.0)  # both sides are estimates
    gap = np.abs(spectral.T @ spectral / n - chol.T @ chol / n)
    frac = np.mean(gap <= 3 * se)
    assert frac >= 0.99, f"only {frac:.3f} of entries within 3 SE"


def test_cholesky_wide_vertices_replay_pairwise_factor(rng):
    # N = 200: the points are Python ints past 64 bits
    spec = spec_of(200, inc.IIDBernoulli(0.3), 0.9)
    base = (1 << 199) | (1 << 130) | (1 << 64) | 0b1011
    points = [base] + [base ^ (1 << a) ^ (1 << b) for a, b in
                       [(0, 70), (3, 150), (64, 199), (100, 101), (7, 8), (130, 190)]]
    replay = copy.deepcopy(rng)
    draw = fld.sample_field_cholesky(spec, points, rng)
    cov = np.array([[walk.green_spectral(spec, x, y) for y in points] for x in points])
    want = np.linalg.cholesky(cov) @ replay.standard_normal(len(points))
    assert draw.points == tuple(points) and draw.provenance == "cholesky"
    assert np.abs(draw.values - want).max() <= 1e-12


def test_cholesky_markov_replay_oracle_factor(rng):
    spec = spec_of(6, inc.MarkovEntries((0.3, 0.7), ((0.8, 0.2), (0.4, 0.6))), 0.7)
    points = [0, 5, 17, 33, 40, 63, 9, 28]
    replay = copy.deepcopy(rng)
    draw = fld.sample_field_cholesky(spec, points, rng)
    cov = walk.green_matrix_oracle(spec)[np.ix_(points, points)]
    want = np.linalg.cholesky(cov) @ replay.standard_normal(len(points))
    assert draw.provenance == "cholesky"
    assert np.abs(draw.values - want).max() <= 1e-10


@pytest.mark.parametrize("point", [16, -1])
def test_cholesky_rejects_points_outside_cube(rng, point):
    with pytest.raises(DomainError):
        fld.sample_field_cholesky(spec_of(4, DEFINETTI, 0.5), [3, point], rng)


MARKOV = inc.MarkovEntries((0.3, 0.7), ((0.8, 0.2), (0.4, 0.6)))
WORD_EDGES = [0, (1 << 129) - 1, 1 << 63, 1 << 64, (1 << 64) - 1, 1 << 128,
              ((1 << 129) - 1) ^ (1 << 64), 5]


@pytest.mark.parametrize("N, model, points",
                         [(129, inc.IIDBernoulli(0.3), WORD_EDGES),
                          (300, inc.IIDBernoulli(0.3), [0, (1 << 300) - 1, 1 << 299, 7]),
                          (7, MARKOV, [0, 127, 64, 63, 5, 96, 33, 18])],
                         ids=["iid-three-words", "iid-distance-300", "markov"])
def test_cholesky_covariance_equals_python_int_distances(rng, N, model, points):
    # the draw must equal the one built from Python-int XORs, bit for bit,
    # also for vertices that straddle the 64-bit word boundaries
    spec = spec_of(N, model, 0.8)
    replay = copy.deepcopy(rng)
    draw = fld.sample_field_cholesky(spec, points, rng)
    xor = [[x ^ y for y in points] for x in points]
    if model.is_exchangeable:
        cov = spec.by_distance[np.array([[d.bit_count() for d in row] for row in xor])]
    else:
        cov = walk.green_xor_table(spec)[np.array(xor)]
    want = np.linalg.cholesky(cov) @ replay.standard_normal(len(points))
    assert draw.provenance == "cholesky"
    assert np.array_equal(draw.values, want)


# ---------------------------------------------------------------------------
# the full-cube transforms write only arrays they allocate


@pytest.mark.parametrize("model", [MARKOV, inc.IIDBernoulli(0.3)], ids=["markov", "iid"])
def test_full_cube_routes_leave_inputs_and_tables_unwritten(rng, model):
    spec = spec_of(8, model, 0.7)
    noise = fld.SpectralNoise.draw(8, rng)
    before = noise.values.copy()
    first = fld.sample_field_spectral(spec, noise)
    second = fld.sample_field_spectral(spec, noise)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(noise.values, before)
    assert np.array_equal(walk.green_xor_table(spec), walk.green_xor_table(spec))


def test_spectral_sampler_peak_is_the_subset_table():
    # the square root is taken in the table's own array: no second 2^N array
    spec = spec_of(20, inc.IIDBernoulli(0.3), 0.9)
    spec.weights  # cached before tracing, as in the table's own peak below
    noise = fld.SpectralNoise.draw(20, np.random.default_rng(0))
    peaks = []
    for route in (spec.subset_table, lambda: fld.sample_field_spectral(spec, noise)):
        tracemalloc.start()
        try:
            route()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + (1 << 20)


def test_fwht_leaves_field_and_noise_unwritten(rng):
    noise = fld.SpectralNoise.draw(6, rng)
    sample = fld.sample_field_spectral(spec_of(6, DEFINETTI), noise)
    kept = sample.values.copy()
    back = fwht(sample.values)
    assert np.array_equal(sample.values, kept)
    assert not np.shares_memory(back, sample.values)
    assert not noise.values.flags.writeable
    assert np.array_equal(fwht(noise.values), fwht(noise.values.copy()))


# ---------------------------------------------------------------------------
# spin sums


def test_spin_sum_top_order_single_term(rng):
    noise = fld.SpectralNoise.draw(5, rng)
    C = 0b10110
    x = 0b01010
    expected = (-1.0) ** bin(C & x).count("1") * noise.values[C]
    assert fld.spin_sum(x, C, 3, noise) == pytest.approx(expected, abs=1e-15)


def test_spin_sum_variance_and_orthogonality(rng):
    N, reps = 6, 60_000
    pc = popcounts(N)
    noise_mat = rng.standard_normal((reps, 1 << N))
    signs = np.array([(-1.0) ** bin(a & 0b110100).count("1") for a in range(1 << N)])
    s2 = (noise_mat * np.where(pc == 2, signs, 0.0)).sum(axis=1)
    s1 = (noise_mat * np.where(pc == 1, signs, 0.0)).sum(axis=1)
    sq = s2 ** 2
    assert_within_3se(sq.mean(), comb(N, 2), sq.std(ddof=1) / np.sqrt(reps),
                      "Var(S_2)")
    prod = s1 * s2
    assert_within_3se(prod.mean(), 0.0, prod.std(ddof=1) / np.sqrt(reps),
                      "Cov(S_1, S_2)")


def test_spin_sum_all_vertices_matches_pointwise(rng):
    noise = fld.SpectralNoise.draw(5, rng)
    full = (1 << 5) - 1
    for k in (1, 2, 5):
        table = fld.spin_sum_all_vertices(k, noise)
        for x in (0, 7, 19, 31):
            assert table[x] == pytest.approx(fld.spin_sum(x, full, k, noise), abs=1e-12)


def test_spin_sum_domain():
    noise = fld.SpectralNoise.zero(4)
    with pytest.raises(DomainError):
        fld.spin_sum(0, 0b0111, 4, noise)
    with pytest.raises(DomainError):
        fld.spin_sum(0, 0b0111, 0, noise)


# ---------------------------------------------------------------------------
# centering and marginals


def test_centered_field_identities(rng):
    spec = spec_of(5, DEFINETTI, 0.4)
    noise = fld.SpectralNoise.draw(5, rng)
    sample = fld.sample_field_spectral(spec, noise)
    centered = fld.centered_field(sample)
    assert abs(centered.values.mean()) < 1e-12
    # centering is exactly the empty-set component removal
    zeroed = noise.values.copy()
    zeroed[0] = 0.0
    again = fld.sample_field_spectral(spec, fld.SpectralNoise(5, zeroed))
    assert np.abs(centered.values - again.values).max() < 1e-12


def test_centered_covariance_shift(rng):
    spec = spec_of(4, inc.SingleFlip(), 0.5)
    reps = 60_000
    draws = fld.sample_field_spectral_batch(spec, rng, reps)
    centered = draws - draws.mean(axis=1, keepdims=True)
    prod = centered[:, 2] * centered[:, 9]
    target = walk.green_spectral(spec, 2, 9) - 1.0 / 16
    assert_within_3se(prod.mean(), target, prod.std(ddof=1) / np.sqrt(reps),
                      "centered covariance")


def test_marginal_average_full_set_equals_centered(rng):
    spec = spec_of(5, DEFINETTI, 0.4)
    noise = fld.SpectralNoise.draw(5, rng)
    centered = fld.centered_field(fld.sample_field_spectral(spec, noise))
    full = (1 << 5) - 1
    for x in (0, 11, 31):
        assert fld.marginal_average(noise, spec, x, full) == pytest.approx(
            centered.values[x], abs=1e-12)


def marginal_weight_vector(spec, x, subset):
    """The marginal average as a linear functional of the noise vector."""
    w = np.zeros(1 << spec.N)
    probe = np.zeros(1 << spec.N)
    for a in range(1 << spec.N):
        if a == 0 or (a | subset) != subset:
            continue
        probe[:] = 0.0
        probe[a] = 1.0
        w[a] = fld.marginal_average(fld.SpectralNoise(spec.N, probe.copy()),
                                    spec, x, subset)
    return w


def test_marginal_average_disjoint_independent(rng):
    spec = spec_of(6, DEFINETTI, 0.5)
    reps = 50_000
    w0 = marginal_weight_vector(spec, 0b010101, 0b000111)
    w1 = marginal_weight_vector(spec, 0b010101, 0b111000)
    # structurally independent: the two functionals read disjoint noise
    assert not np.any((w0 != 0) & (w1 != 0))
    noise_mat = rng.standard_normal((reps, 1 << 6))
    prod = (noise_mat @ w0) * (noise_mat @ w1)
    assert_within_3se(prod.mean(), 0.0, prod.std(ddof=1) / np.sqrt(reps),
                      "disjoint marginals")


def test_marginal_average_overlap_covariance(rng):
    spec = spec_of(6, DEFINETTI, 0.5)
    cx, cy = 0b001111, 0b111100
    x, y = 0b010101, 0b101010
    # closed form: sum over nonempty A inside the overlap
    overlap = cx & cy
    closed = 0.0
    sub = overlap
    while True:
        if sub != 0:
            w = 1.0 / (1.0 + spec.c * (1.0 - inc.rho_subset(spec.model, sub, 6)))
            closed += (-1.0) ** bin(sub & (x ^ y)).count("1") * w
        if sub == 0:
            break
        sub = (sub - 1) & overlap
    closed *= 2.0 ** (-(bin(cx).count("1") + bin(cy).count("1")) / 2.0)
    reps = 50_000
    wx = marginal_weight_vector(spec, x, cx)
    wy = marginal_weight_vector(spec, y, cy)
    noise_mat = rng.standard_normal((reps, 1 << 6))
    prod = (noise_mat @ wx) * (noise_mat @ wy)
    assert_within_3se(prod.mean(), closed, prod.std(ddof=1) / np.sqrt(reps),
                      "overlapping marginals")


# ---------------------------------------------------------------------------
# nested dimensions


def test_nested_fields_structural_increment():
    # the dimension step uses only noise coordinates containing the new index:
    # feeding basis noise e_A, the increment g_{x,N} - 2^{-1/2} g_{x,N-1}
    # vanishes identically whenever N is not in A
    alpha, N = 0.45, 4
    for subset in range(1 << N):
        noise = basis_noise(N, subset)
        fields = fld.nested_fields(noise, DEFINETTI, alpha)
        top, below = fields[-1].values, fields[-2].values
        increment = top - below[np.arange(1 << N) & ((1 << (N - 1)) - 1)] / sqrt(2.0)
        if subset >> (N - 1) & 1:
            continue
        assert np.abs(increment).max() < 1e-14, f"leak from subset {subset:04b}"


def test_nested_fields_regression_slope(rng):
    alpha, N, reps = 0.45, 4, 100_000
    num = 0.0
    den = 0.0
    spec_hi = spec_of(N, DEFINETTI, alpha)
    spec_lo = spec_of(N - 1, DEFINETTI, alpha)
    coef_hi = np.sqrt(spec_hi.subset_table())
    coef_lo = np.sqrt(spec_lo.subset_table())
    x = 0b1010
    noise_mat = rng.standard_normal((reps, 1 << N))
    from cubefield.walsh import subset_signs
    hi = (noise_mat * coef_hi) @ subset_signs(x, N) * 2.0 ** (-N / 2)
    lo = (noise_mat[:, : 1 << (N - 1)] * coef_lo) @ subset_signs(
        x & 0b111, N - 1) * 2.0 ** (-(N - 1) / 2)
    slope = (hi * lo).mean() / (lo * lo).mean()
    # SE of the regression slope through the origin
    resid = hi - slope * lo
    se = np.sqrt((resid ** 2).mean() / (lo * lo).mean() / reps)
    assert_within_3se(slope, 2.0 ** -0.5, se, "conditional-mean slope")


def test_nested_fields_triangular_blocks_uncorrelated(rng):
    # group the expansion by the maximal element of A; blocks must be orthogonal
    alpha, N, reps = 0.45, 3, 80_000
    spec = spec_of(N, DEFINETTI, alpha)
    coef = np.sqrt(spec.subset_table())
    x = 0b101
    from cubefield.walsh import subset_signs
    signs = subset_signs(x, N)
    blocks = []
    noise_mat = rng.standard_normal((reps, 1 << N))
    for j in range(N + 1):
        if j == 0:
            members = np.array([a == 0 for a in range(1 << N)])
        else:
            members = np.array([a.bit_length() == j for a in range(1 << N)])
        w = np.where(members, coef * signs, 0.0)
        blocks.append((noise_mat * w).sum(axis=1) * 2.0 ** (-N / 2))
    for i in range(N + 1):
        for j in range(i + 1, N + 1):
            prod = blocks[i] * blocks[j]
            assert_within_3se(prod.mean(), 0.0, prod.std(ddof=1) / np.sqrt(reps),
                              f"blocks {i},{j}")


def test_nested_fields_reject_dimension_bound_models(rng):
    noise = fld.SpectralNoise.draw(3, rng)
    with pytest.raises(DomainError):
        fld.nested_fields(noise, inc.SingleFlip(), 0.5)


# ---------------------------------------------------------------------------
# the V_infinity marginal


def test_infinite_marginal_unit_coefficients(rng):
    # frozen increment (Z = 0 a.s.): every b_A = 0, all weights 1
    frozen = inc.DeFinettiDiscrete((0.0,), (1.0,))
    noise = fld.SpectralNoise.draw(4, rng)
    C = 0b1011
    direct = 0.0
    sub = C
    while True:
        if sub != 0:
            direct += (-1.0) ** bin(sub & 0b0110).count("1") * noise.values[sub]
        if sub == 0:
            break
        sub = (sub - 1) & C
    direct *= 2.0 ** (-3 / 2.0)
    assert fld.infinite_field_marginal(frozen, 0b0110, C, noise, alpha=0.5) == \
        pytest.approx(direct, abs=1e-14)


def test_infinite_marginal_limit_linear_coefficients():
    gamma = 2.5
    model = inc.LimitLinear(gamma)
    for k, subset in ((1, 0b1), (2, 0b101), (3, 0b1011)):
        noise = basis_noise(4, subset)
        val = fld.infinite_field_marginal(model, 0, 0b1111, noise)
        expected = 2.0 ** (-2.0) * (1.0 + 2.0 * k / gamma) ** -0.5
        assert val == pytest.approx(expected, abs=1e-14)


def test_finite_killing_coefficients_converge_to_limit():
    # alpha_N = 1 - gamma/N with the one-flip walk: spin weights approach the
    # 2k/gamma limit; purely analytic comparison
    gamma, N = 2.0, 100_000
    alpha = 1.0 - gamma / N
    c = alpha / (1.0 - alpha)
    worst = 0.0
    for k in range(1, 9):
        finite = (1.0 + c * (2.0 * k / N)) ** -0.5
        limit = (1.0 + 2.0 * k / gamma) ** -0.5
        worst = max(worst, abs(finite - limit))
    assert worst < 1e-3


# ---------------------------------------------------------------------------
# density identity


def test_gff_density_zero_vector():
    spec = spec_of(3, inc.SingleFlip(), 0.5)
    assert fld.gff_log_density_check(spec, np.zeros(8)) == (0.0, 0.0)


@pytest.mark.parametrize("spec", [spec_of(2, inc.SingleFlip(), 0.5),
                                  spec_of(3, inc.IIDBernoulli(0.5), 0.5)],
                         ids=["single-flip-N2", "bernoulli-N3"])
def test_gff_density_identity(spec, rng):
    for _ in range(100):
        g = rng.standard_normal(1 << spec.N)
        lhs, rhs = fld.gff_log_density_check(spec, g)
        assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# exchangeable grouped form and the randomized spin order


def test_exchangeable_grouped_form_matches_subsets(rng):
    for N in (3, 6, 8):
        spec = spec_of(N, DEFINETTI, 0.5)
        noise = fld.SpectralNoise.draw(N, rng)
        grouped = fld.exchangeable_field_from_spins(spec, noise)
        direct = fld.sample_field_spectral(spec, noise).values
        assert np.abs(grouped - direct).max() < 1e-12


def test_kspin_pmf_normalization_and_degenerate_case():
    spec = spec_of(5, DEFINETTI, 0.4)
    pmf = fld.kspin_order_pmf(spec)
    assert abs(pmf.sum() - 1.0) < 1e-12
    # frozen increment: all rho_k = 1, weights 1, order law binom(N,k)/2^N
    frozen = spec_of(5, inc.DeFinettiDiscrete((0.0,), (1.0,)), 0.4)
    pk = fld.kspin_order_pmf(frozen)
    expected = np.array([comb(5, k) for k in range(6)]) / 32.0
    assert np.abs(pk - expected).max() < 1e-13


def test_kspin_pmf_large_dimension():
    # binom(1100, k) does not fit in a float; the order law must still be a
    # probability vector
    pmf = fld.kspin_order_pmf(spec_of(1100, DEFINETTI, 0.5))
    assert np.all(np.isfinite(pmf)) and pmf.min() >= 0.0
    assert abs(pmf.sum() - 1.0) < 1e-12


def test_kspin_conditional_mean_is_spectral_field(rng):
    spec = spec_of(4, DEFINETTI, 0.5)
    noise = fld.SpectralNoise.draw(4, rng)
    mean_field = fld.kspin_mixture_mean(spec, noise)
    direct = fld.sample_field_spectral(spec, noise).values
    assert np.abs(mean_field - direct).max() < 1e-12


def test_kspin_single_draw_covariance(rng):
    # one randomized-order draw is an unbiased representation, not the field
    # law itself: its covariance is 2^-N R sum_k m_k Q_k(d); vectorized
    # re-implementation of the draw (fresh order and noise each replicate),
    # spot-checked against the API sampler
    spec = spec_of(3, DEFINETTI, 0.5)
    m = spec.half_weights
    R = float(sum(comb(3, k) * m[k] for k in range(4)))
    from cubefield.polynomials import KrawtchoukBasis
    basis = KrawtchoukBasis(3)
    predicted = {d: 2.0 ** -3 * R * sum(m[k] * float(basis.q(k, d)) for k in range(4))
                 for d in range(4)}
    pmf = fld.kspin_order_pmf(spec)
    pc = popcounts(3)
    reps = 200_000
    orders = rng.choice(4, size=reps, p=pmf)
    noise_mat = rng.standard_normal((reps, 8))
    v0 = np.zeros(reps)
    v1 = np.zeros(reps)
    for k in range(4):
        rows = orders == k
        scale = 2.0 ** (-3 / 2.0) * R / comb(3, k)
        w0 = np.where(pc == k, 1.0, 0.0)
        w1 = np.where(pc == k, np.array([(-1.0) ** bin(a & 1).count("1")
                                         for a in range(8)]), 0.0)
        v0[rows] = scale * noise_mat[rows] @ w0
        v1[rows] = scale * noise_mat[rows] @ w1
    sq = v0 ** 2
    assert_within_3se(sq.mean(), predicted[0], sq.std(ddof=1) / np.sqrt(reps),
                      "draw variance")
    prod = v0 * v1
    assert_within_3se(prod.mean(), predicted[1], prod.std(ddof=1) / np.sqrt(reps),
                      "draw covariance at distance 1")
    # the API sampler agrees with the vectorized construction in law; check a
    # few draws structurally (scale factor and masked support)
    noise = fld.SpectralNoise.draw(3, rng)
    draw = fld.sample_random_kspin(spec, noise, rng)
    assert draw.scale == pytest.approx(2.0 ** (-1.5) * R / comb(3, draw.order), abs=1e-14)
    rebuilt = draw.scale * fld.spin_sum_all_vertices(draw.order, noise)
    assert np.abs(rebuilt - draw.values).max() < 1e-14


def test_kspin_rejects_atom_at_one():
    spec = spec_of(3, inc.DeFinettiDiscrete((1.0,), (1.0,)), 0.5)
    with pytest.raises(DomainError):
        fld.kspin_order_pmf(spec)
