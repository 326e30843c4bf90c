"""The Hamming-level kernel and the level-set covariances, entry by entry,
against the exact spectral closed form (oracles.exact_level_resolvent)."""

from fractions import Fraction
from math import comb, fsum, sqrt

import numpy as np
import pytest

from oracles import exact_level_resolvent
from cubefield import increments as inc
from cubefield import limits as lm
from cubefield import walk

MODELS = {"single-flip": inc.SingleFlip(), "mflip2": inc.MFlip(2),
          "iid-bernoulli": inc.IIDBernoulli(0.3)}
REL = 1e-12


def close(got: float, want: Fraction) -> bool:
    """Within REL of the exact value, relative to its own size (0 is exact)."""
    return abs(Fraction(float(got)) - want) <= REL * want


@pytest.mark.parametrize("N", [100, 400])
@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
@pytest.mark.parametrize("killing", ["0.9", "1-2/N"])
def test_level_kernel_and_covariances_match_exact_values(N, model, killing):
    # 21 x 21 levels, edges included: there the alternating Krawtchouk sums
    # the kernel used to be summed from were wrong by up to 1e240 at N = 400
    alpha = 0.9 if killing == "0.9" else 1.0 - 2.0 / N
    spec = walk.GreenSpec(N, model, alpha)
    levels = np.linspace(0, N, 21).round().astype(int).tolist()
    exact = exact_level_resolvent(model, N, alpha, levels, levels)
    cov = lm.levelset_cov_matrix(spec)
    for u, row in zip(levels, exact):
        for v, want in zip(levels, row):
            assert close(walk.green_hamming(spec, u, v), want), (u, v)
            assert close(lm.levelset_cov(spec, u, v), comb(N, u) * want), (u, v)
            assert close(cov[u, v], comb(N, u) * want), (u, v)
    for u in levels:
        total = fsum(walk.green_hamming(spec, u, v) for v in range(N + 1))
        assert abs(total - 1.0) <= REL, (u, total)


@pytest.mark.parametrize("N", [100, 400])
@pytest.mark.parametrize("killing", ["0.9", "1-2/N"])
def test_scaled_levelset_cov_matches_exact_values(N, killing):
    # the simple walk at alpha = 1 - gamma/N: gamma = N/10 or 2
    gamma = 0.1 * N if killing == "0.9" else 2.0
    grid = np.linspace(-3.0, 3.0, 13)
    levels = [int(N / 2 + sqrt(N) / 2 * t) for t in grid]
    exact = exact_level_resolvent(inc.SingleFlip(), N, 1.0 - gamma / N, levels, levels)
    cov = lm.scaled_levelset_cov(N, gamma, grid, grid)
    for i, (u, row) in enumerate(zip(levels, exact)):
        for j, want in enumerate(row):
            assert close(cov[i, j], Fraction(N * comb(N, u), 4 << N) * want), (i, j)
