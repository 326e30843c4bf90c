"""Killed endpoints drawn in one step against the Green kernels and the step loop."""

import time
import tracemalloc
import zlib
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2, chi2_contingency

from cubefield import increments as inc
from cubefield import pointproc, walk

LAWS = {
    "iid-bernoulli": inc.IIDBernoulli(0.3),
    "definetti-discrete": inc.DeFinettiDiscrete((0.2, 0.5, 0.9), (0.5, 0.2, 0.3)),
    "definetti-beta": inc.DeFinettiBeta(2.0, 3.0),
    "symmetric-beta-spin": inc.SymmetricBetaSpin(2.0, 1.0),
    "single-flip": inc.SingleFlip(),
    "random-site-half": inc.RandomSiteHalf(),
}
CASES = [(name, alpha) for name in LAWS for alpha in (0.6, 0.999)]
CASE_IDS = [f"{name}-{alpha}" for name, alpha in CASES]


def _seed(*key) -> int:
    """A fixed seed per test case."""
    return zlib.crc32(repr(key).encode())


def _pooled_chi2_sf(counts, probs) -> float:
    """Pearson p-value; the cells expected below 5, and if they total less
    than 5 the next smallest cells too, are pooled into one."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(probs, dtype=float) * counts.sum()
    order = np.argsort(expected)
    k = max(np.count_nonzero(expected < 5.0),
            int(np.searchsorted(np.cumsum(expected[order]), 5.0)) + 1)
    pooled, rest = order[:k], order[k:]
    obs = np.append(counts[rest], counts[pooled].sum())
    exp = np.append(expected[rest], expected[pooled].sum())
    return float(chi2.sf(((obs - exp) ** 2 / exp).sum(), obs.size - 1))


def _displacements(spec, x0, draws, rng):
    return np.array([walk.sample_killed_endpoint(spec, x0, rng) ^ x0 for _ in range(draws)])


@pytest.mark.parametrize("name, alpha", CASES, ids=CASE_IDS)
def test_endpoint_level_matches_green_hamming(name, alpha):
    N, draws = 30, 10_000
    spec = walk.GreenSpec(N, LAWS[name], alpha)
    rng = np.random.default_rng(_seed("level", name, alpha))
    moved = _displacements(spec, 0b1011 << 20 | 0b110101, draws, rng)
    levels = np.bincount([int(d).bit_count() for d in moved], minlength=N + 1)
    probs = [walk.green_hamming(spec, 0, v) for v in range(N + 1)]
    sf = _pooled_chi2_sf(levels, probs)
    assert sf > 1e-6, f"level chi-square p-value {sf}"


@pytest.mark.parametrize("name, alpha", CASES, ids=CASE_IDS)
def test_endpoint_matches_green_xor_table(name, alpha):
    # every vertex is its own cell: within a level the flipped subset must be uniform
    N, draws = 8, 10_000
    spec = walk.GreenSpec(N, LAWS[name], alpha)
    rng = np.random.default_rng(_seed("xor", name, alpha))
    cells = np.bincount(_displacements(spec, 0b10010110, draws, rng), minlength=1 << N)
    sf = _pooled_chi2_sf(cells, walk.green_xor_table(spec))
    assert sf > 1e-6, f"endpoint chi-square p-value {sf}"


@pytest.mark.parametrize("steps", [1, 5])
@pytest.mark.parametrize("name", LAWS)
def test_displacement_matches_step_loop(name, steps):
    N, draws = 6, 4000
    model = LAWS[name]
    rng = np.random.default_rng(_seed("loop", name, steps))
    fast = np.bincount([model.sample_displacement(N, steps, rng) for _ in range(draws)],
                       minlength=1 << N)
    slow = np.bincount([inc.IncrementModel.sample_displacement(model, N, steps, rng)
                        for _ in range(draws)], minlength=1 << N)
    table = np.array([fast, slow])
    small = table.sum(axis=0) < 10
    table = np.column_stack([table[:, ~small], table[:, small].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    sf = chi2_contingency(table).pvalue if table.shape[1] > 1 else 1.0
    assert sf > 1e-6, f"two-sample p-value {sf}"


def _site_parity_draw(N, steps, rng):
    """The sites hit an odd number of times, from an N-cell multinomial at every step count."""
    counts = rng.multinomial(steps, np.full(N, 1.0 / N))
    return sum(1 << j for j in np.flatnonzero(counts & 1).tolist())


@pytest.mark.parametrize("name", ["single-flip", "random-site-half"])
def test_single_site_zero_steps_leave_the_stream(name):
    # T = 0 returns 0 without a multinomial; the draws and the generator
    # state match the route that always draws one
    N, model = 50, LAWS[name]
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for steps in [0, 3, 0, 0, 1, 7, 0, 2] * 50:
        if name == "random-site-half":
            want = _site_parity_draw(N, int(theirs.binomial(steps, 0.5)), theirs)
        else:
            want = _site_parity_draw(N, steps, theirs)
        assert model.sample_displacement(N, steps, ours) == want
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("alpha", [0.6, 0.999])
@pytest.mark.parametrize("model", [inc.IIDBernoulli(0.3), inc.DeFinettiBeta(2.0, 3.0)],
                         ids=["iid-bernoulli", "definetti-beta"])
def test_level_moments_past_the_kernel_range(model, alpha):
    # given Y the level is Binomial(N, (1 - Y)/2), with w_k = E[Y^k]
    N, draws = 1000, 4000
    spec = walk.GreenSpec(N, model, alpha)
    law = pointproc.YLaw.from_model(model, alpha)
    w1, w2 = pointproc.moment_Y(law, 1), pointproc.moment_Y(law, 2)
    rng = np.random.default_rng(_seed("moments", repr(model), alpha))
    levels = np.array([int(d).bit_count() for d in _displacements(spec, 0, draws, rng)],
                      dtype=float)
    mean = N * (1 - w1) / 2
    var = N * (1 - w2) / 4 + N ** 2 * (w2 - w1 ** 2) / 4
    centered = levels - levels.mean()
    var_se = np.sqrt((np.mean(centered ** 4) - centered.var() ** 2) / draws)
    assert abs(levels.mean() - mean) <= 5 * np.sqrt(var / draws), (levels.mean(), mean)
    assert abs(levels.var(ddof=1) - var) <= 5 * var_se, (levels.var(ddof=1), var)


@pytest.mark.parametrize("name", LAWS)
def test_endpoint_cost_is_flat_as_alpha_nears_one(name):
    spec = walk.GreenSpec(50, LAWS[name], 1 - 1e-7)
    rng = np.random.default_rng(_seed("near-one", name))
    t0 = time.perf_counter()
    ends = [walk.sample_killed_endpoint(spec, 5, rng) for _ in range(1000)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"1000 draws took {elapsed:.2f} s"
    assert all(0 <= e < 1 << 50 for e in ends)


def test_one_draw_memory_is_bounded():
    spec = walk.GreenSpec(50, inc.DeFinettiBeta(2.0, 3.0), 1 - 1e-12)
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        walk.sample_killed_endpoint(spec, 0, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak} bytes"


@pytest.mark.parametrize("model", [inc.DeFinettiBeta(0.05, 50.0), inc.SymmetricBetaSpin(50.0, 0.1)],
                         ids=["definetti-beta", "symmetric-beta-spin"])
def test_early_stop_keeps_the_flip_probability(model):
    # spins near +-1 take some 2e4 draws to settle; 10^12 spins give Y = 0 in
    # float64, so the full product's flip probability is exactly 1/2
    rng = np.random.default_rng(17)
    for _ in range(20):
        assert 0.5 * (1.0 - model._product(10 ** 12, rng)) == 0.5


ROUNDING_LAWS = {
    "iid-bernoulli": inc.IIDBernoulli(0.999),
    "definetti-discrete": inc.DeFinettiDiscrete((0.01, 0.03, 0.97), (0.3, 0.4, 0.3)),
    "definetti-beta": inc.DeFinettiBeta(2.0, 3.0),
    "symmetric-beta-spin": inc.SymmetricBetaSpin(2.0, 1.0),
}


@pytest.mark.parametrize("name", ROUNDING_LAWS)
def test_flip_probability_rounding(name, monkeypatch):
    # the float 0.5 (1 - Y) against exact rationals on the same spins
    model = ROUNDING_LAWS[name]
    drawn = []
    sample = type(model).sample

    def recording(self, rng, size=None):
        spins = sample(self, rng, size)
        drawn.extend(spins.tolist())
        return spins

    monkeypatch.setattr(type(model), "sample", recording)
    steps_rng = np.random.default_rng(_seed("rounding", name))
    worst = Fraction(0)
    for i in range(300):
        steps = walk.sample_geometric_time((0.6, 0.9, 0.99)[i % 3], steps_rng)
        drawn.clear()
        flip = 0.5 * (1.0 - model._product(steps, np.random.default_rng(i)))
        if isinstance(model, inc._PointMasses):
            counts = np.random.default_rng(i).multinomial(steps, model.weights).tolist()
            y, slack = Fraction(1), Fraction(0)
            for (x, _), n in zip(model._spins, counts):
                y *= Fraction(x) ** n
        else:
            y = Fraction(1)
            for x in drawn:
                y *= Fraction(x)
            # spins left undrawn move the exact value by at most |Y|/2
            slack = abs(y) / 2 if len(drawn) < steps else Fraction(0)
        worst = max(worst, abs(Fraction(flip) - (1 - y) / 2) + slack)
    assert worst <= Fraction(1, 2 ** 52), float(worst * 2 ** 53)


ENGINE_LAWS = {name: LAWS[name] for name in ("iid-bernoulli", "definetti-discrete",
                                            "definetti-beta")}


@pytest.mark.parametrize("name", ENGINE_LAWS)
def test_size_one_and_batch_products_agree(name):
    # on a copy of one generator both routes draw the same multinomial counts,
    # or, below the first chunk of 64 where the size-1 route cannot stop
    # early, the same spins in one call
    model = ENGINE_LAWS[name]
    steps_rng = np.random.default_rng(_seed("engines", name))
    for seed in range(200):
        steps = int(steps_rng.integers(64))
        y = model._product(steps, np.random.default_rng(seed))
        signs, logs = model.log_products(np.array([steps]), np.random.default_rng(seed))
        assert signs[0] * np.exp(logs[0]) == pytest.approx(y, rel=1e-12, abs=0.0), (seed, steps)


def test_point_mass_sign_past_float_integers():
    # float(2^60 + 1) is even; an all-flip step taken 2^60 + 1 times flips every site
    rng = np.random.default_rng(3)
    assert inc.IIDBernoulli(1.0)._product(2 ** 60 + 1, rng) == -1.0
    assert inc.IIDBernoulli(1.0).sample_displacement(5, 2 ** 60 + 1, rng) == 0b11111
