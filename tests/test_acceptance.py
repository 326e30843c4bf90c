"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance] criterion NN ...: PASS/FAIL` line (visible
under `pytest -s` or in captured output).  Numbering follows the criteria
list; tolerances are pinned here, not configurable.
"""

import time
from contextlib import contextmanager
from math import comb, pi, sqrt

import numpy as np
import pytest

from conftest import covariance_se, exact_levelset_cov, mean_and_se, representation_matrix
from oracles import beta_killed_product_sample
from cubefield import cli
from cubefield import field as fld
from cubefield import increments as inc
from cubefield import limits as lm
from cubefield import pointproc as pp
from cubefield import walk
from cubefield.polynomials import KrawtchoukBasis
from cubefield.walsh import fwht, popcounts


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {number:02d} {name}: PASS")


SWEEP_MODELS = {
    "single-flip": inc.SingleFlip(),
    "mflip-2": inc.MFlip(2),
    "iid-bernoulli-0.3": inc.IIDBernoulli(0.3),
    "definetti-discrete": inc.DeFinettiDiscrete((0.2, 0.7), (0.6, 0.4)),
    "random-site-half": inc.RandomSiteHalf(),
    "markov-entries": inc.MarkovEntries((0.3, 0.7), ((0.8, 0.2), (0.4, 0.6))),
}


def test_01_green_oracle_equivalence():
    with criterion(1, "green oracle equivalence"):
        start = time.perf_counter()
        worst = 0.0
        for model in SWEEP_MODELS.values():
            for N in (2, 3, 4):
                for alpha in (0.3, 0.5, 0.9):
                    spec = walk.GreenSpec(N, model, alpha)
                    gap = np.abs(walk.green_matrix_spectral(spec)
                                 - walk.green_matrix_oracle(spec)).max()
                    worst = max(worst, float(gap))
        elapsed = time.perf_counter() - start
        assert worst < 1e-10, f"max spectral-vs-resolvent gap {worst}"
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s"


def test_02_one_step_mixing_closed_form():
    with criterion(2, "one-step mixing closed form"):
        for N in range(1, 11):
            spec = walk.GreenSpec(N, inc.IIDBernoulli(0.5), 0.6)
            table = walk.green_xor_table(spec)
            expected = np.full(1 << N, 0.6 * 2.0 ** -N)
            expected[0] += 0.4
            assert np.abs(table - expected).max() < 1e-12, f"N={N}"


def test_03_gff_density_identity():
    with criterion(3, "field density exponent identity"):
        rng = np.random.default_rng(301)
        cases = [(2, inc.SingleFlip()), (2, inc.DeFinettiDiscrete((0.2, 0.7), (0.6, 0.4))),
                 (3, inc.SingleFlip()), (3, inc.IIDBernoulli(0.3))]
        for N, model in cases:
            spec = walk.GreenSpec(N, model, 0.5)
            for _ in range(100):
                g = rng.standard_normal(1 << N)
                lhs, rhs = fld.gff_log_density_check(spec, g)
                assert abs(lhs - rhs) < 1e-9, f"N={N} model={model}"


def test_04_field_mc_covariance():
    with criterion(4, "field MC covariance at N=4"):
        start = time.perf_counter()
        rng = np.random.default_rng(404)
        spec = walk.GreenSpec(4, inc.SingleFlip(), 0.5)
        n = 200_000
        draws = fld.sample_field_spectral_batch(spec, rng, n)
        emp = draws.T @ draws / n
        analytic = walk.green_matrix_spectral(spec)
        se = covariance_se(analytic, n)
        within = np.abs(emp - analytic) <= 3.0 * se
        frac = float(np.mean(within))
        elapsed = time.perf_counter() - start
        assert frac >= 0.99, f"{frac:.4f} of 256 entries within 3 SE"
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s"


def test_05_product_law():
    with criterion(5, "product-law moments, divisibility, signs"):
        rng = np.random.default_rng(505)
        model = inc.DeFinettiDiscrete((0.2, 0.9), (0.5, 0.5))
        law = pp.YLaw.from_model(model, 0.5)
        draws = pp.sample_Y(law, rng, size=1_000_000)
        for k in range(1, 7):
            est, se = mean_and_se(draws ** k)
            target = pp.moment_Y(law, k)
            assert abs(est - target) <= 3 * se, f"moment {k}"
        # infinite divisibility of the moment sequence
        half = pp.YLaw.from_model(model, 0.5, phi=0.5)
        for k in range(9):
            assert abs(pp.moment_Y(half, k) ** 2 - pp.moment_Y(law, k)) < 1e-14
        # symmetric spins at alpha = 1/2: P(+) = 3/4, MC cross-check
        sym = pp.YLaw.from_model(inc.SymmetricBetaSpin(2.0, 1.0), 0.5)
        assert pp.sign_probability(sym, +1) == pytest.approx(0.75, abs=1e-13)
        sdraws = pp.sample_Y(sym, rng, size=400_000)
        freq = float(np.mean(sdraws > 0))
        assert abs(freq - 0.75) <= 3 * sqrt(0.75 * 0.25 / sdraws.size)
        # sign independent of magnitude given a nonempty product
        signs, logs = pp.sample_Y_signed_log(sym, rng, 1_000_000)
        keep = logs != 0.0
        corr = np.corrcoef(signs[keep], -logs[keep])[0, 1]
        assert abs(corr) <= 3.0 / sqrt(keep.sum()), f"corr {corr}"


def test_06_killed_measure_green_tie():
    with criterion(6, "killed de Finetti measure equals the Green function"):
        model = inc.DeFinettiDiscrete((0.2, 0.7), (0.6, 0.4))
        law = pp.YLaw.from_model(model, 0.5)
        spec = walk.GreenSpec(3, model, 0.5)
        worst = 0.0
        for x in range(8):
            for y in range(8):
                d = bin(x ^ y).count("1")
                gap = abs(pp.killed_measure_moments(law, d, 3)
                          - walk.green_spectral(spec, x, y))
                worst = max(worst, gap)
        assert worst < 1e-10, f"worst gap {worst}"


def test_07_beta_example():
    with criterion(7, "symmetric Beta killed-product density"):
        from scipy.integrate import quad
        from scipy.stats import chi2
        a, alpha = 1.7, 0.5
        mass = 2 * quad(lambda z: pp.beta_example_density(a, alpha, z), 0, 1,
                        epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        assert abs(mass - alpha) < 1e-9, f"continuous mass {mass}"
        rng = np.random.default_rng(707)
        n = 1_000_000
        draws = beta_killed_product_sample(a, 1, alpha, rng, size=n)
        cont = draws[draws != 1.0]
        u = np.abs(cont) ** (a * (1 - alpha))
        cells = np.clip((u * 20).astype(int), 0, 19) + 20 * (cont > 0)
        counts = np.bincount(cells, minlength=40)
        expected = cont.size / 40.0
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, df=39), f"chi-square {stat}"


def test_08_krawtchouk_exactness():
    with criterion(8, "Krawtchouk orthogonality, duality, spin identity"):
        for N in range(1, 13):
            basis = KrawtchoukBasis(N)
            for j in range(N + 1):
                for k in range(j, N + 1):
                    total = sum(comb(N, w) * basis.scaled(j, w) * basis.scaled(k, w)
                                for w in range(N + 1))
                    assert total == ((1 << N) * comb(N, j) if j == k else 0)
            for k in range(N + 1):
                for w in range(N + 1):
                    assert basis.scaled(k, w) * comb(N, w) == \
                        basis.scaled(w, k) * comb(N, k)
        for N in range(1, 11):
            basis = KrawtchoukBasis(N)
            pc = popcounts(N)
            for k in range(N + 1):
                sums = fwht(np.where(pc == k, 1.0, 0.0))
                for w in range(1 << N):
                    assert sums[w] == basis.scaled(k, int(pc[w]))


def test_09_level_sets():
    with criterion(9, "level-set representation and MC covariance"):
        for N in (7, 14, 20):
            spec = walk.GreenSpec(N, inc.SingleFlip(), 0.5)
            B = representation_matrix(spec)
            closed = exact_levelset_cov(spec)
            gap = float(np.abs(B @ B.T - closed).max())
            assert gap < 1e-10, f"N={N}: representation gap {gap}"
        rng = np.random.default_rng(909)
        spec5 = walk.GreenSpec(5, inc.SingleFlip(), 0.5)
        n = 200_000
        fields = fld.sample_field_spectral_batch(spec5, rng, n)
        indicator = np.zeros((32, 6))
        for x in range(32):
            indicator[x, bin(x).count("1")] = 1.0
        thetas = fields @ indicator
        emp = thetas.T @ thetas / n
        closed5 = lm.levelset_cov_matrix(spec5)
        se = covariance_se(closed5, n)
        frac = float(np.mean(np.abs(emp - closed5) <= 3 * se))
        assert frac >= 0.99, f"{frac:.4f} within 3 SE"


def test_10_levelset_clt_trend():
    with criterion(10, "level-set covariance converges to the mixture limit"):
        start = time.perf_counter()
        grid = (-1.5, -0.75, 0.0, 0.75, 1.5)
        gaps = lm.levelset_clt_check(2.0, (50, 100, 200, 400), grid)
        values = [gaps[n] for n in (50, 100, 200, 400)]
        for earlier, later in zip(values, values[1:]):
            assert later <= 1.1 * earlier, f"trend broken: {values}"
        assert values[-1] < 0.02, f"gap at N=400: {values[-1]}"
        assert time.perf_counter() - start < 60.0


def test_11_limit_process_and_transform():
    with criterion(11, "limit-process covariance, transform, inversion, Parseval"):
        grid = (-1.5, -0.75, 0.0, 0.75, 1.5)
        # series == mixture at 1e-8 where the series converges geometrically
        # (the two-route identity; fixed correlation laws)
        for rho in (0.0, 0.5, -0.3):
            law = lm.FixedCorrelation(rho)
            for t in grid:
                for s in grid:
                    series = lm.kappa_cov(law, t, s, method="series", order=200)
                    mixture = lm.kappa_cov(law, t, s, method="mixture")
                    assert abs(series - mixture) < 1e-8, f"rho={rho} ({t},{s})"
        # slow 1/k moment sequences: truncation honesty against the mixture
        y3 = lm.VanishingKillingY(3.0)
        spec3 = lm.build_kappa_spec(y3, grid)
        for t, s in [(0.0, 0.0), (0.75, -0.75), (1.5, 0.0)]:
            series = lm.kappa_cov(y3, t, s, method="series", order=spec3.order)
            mixture = lm.kappa_cov(y3, t, s, method="mixture")
            assert abs(series - mixture) <= spec3.tail_bound
        # transform variances by MC against the closed forms
        rng = np.random.default_rng(1111)
        y2 = lm.VanishingKillingY(2.0)
        spec2 = lm.build_kappa_spec(y2, grid)
        theta = 1.0
        target = lm.transform_cov(y2, theta, theta)
        u, v = (W[0] for W in lm.transform_weight_matrices(spec2, [theta]))
        uu, vv = [], []
        for _ in range(20):
            zetas = rng.standard_normal((20_000, spec2.order + 1))
            U, V = zetas[:, 0::2] @ u, zetas[:, 1::2] @ v
            uu.append(U * U)
            vv.append(V * V)
        est, se = mean_and_se(np.concatenate(uu))
        assert abs(est - target.even_part) <= 3 * se, "Var(U)"
        est, se = mean_and_se(np.concatenate(vv))
        assert abs(est - target.odd_part) <= 3 * se, "Var(V)"
        # inversion residual on shared noise
        zetas = np.random.default_rng(1112).standard_normal(spec2.order + 1)
        for t in (0.0, 1.0, -1.0):
            assert lm.inversion_check(spec2, zetas, t) < 1e-4, f"inversion at t={t}"
        # Parseval: exact at Y = 0, 1e-6 for the gamma = 3 mixture
        lhs, rhs = lm.parseval_check(lm.FixedCorrelation(0.0))
        assert abs(lhs - sqrt(pi)) < 1e-9 and abs(rhs - sqrt(pi)) < 1e-12
        lhs, rhs = lm.parseval_check(y3)
        assert abs(lhs - rhs) < 1e-6, f"Parseval gap {abs(lhs - rhs)}"


def test_12_performance_gate():
    with criterion(12, "fast-transform field sampling performance"):
        rng = np.random.default_rng(1212)
        spec = walk.GreenSpec(20, inc.SingleFlip(), 0.5)
        start = time.perf_counter()
        noise = fld.SpectralNoise.draw(20, rng)
        sample = fld.sample_field_spectral(spec, noise)
        elapsed = time.perf_counter() - start
        assert sample.values.shape == (1 << 20,)
        assert elapsed < 2.0, f"N=20 sampling took {elapsed:.2f}s"
        # the fast path agrees with the quadratic-cost double loop at N=10
        spec10 = walk.GreenSpec(10, inc.SingleFlip(), 0.5)
        noise10 = fld.SpectralNoise.draw(10, rng)
        fast = fld.sample_field_spectral(spec10, noise10).values
        coef = np.sqrt(spec10.subset_table())
        naive = np.empty(1 << 10)
        for x in range(1 << 10):
            acc = 0.0
            for a in range(1 << 10):
                acc += coef[a] * (-1.0) ** bin(a & x).count("1") * noise10.values[a]
            naive[x] = acc * 2.0 ** -5
        assert np.abs(fast - naive).max() < 1e-12


def test_13_cli_determinism(tmp_path):
    with criterion(13, "CLI determinism under a fixed seed"):
        commands = [
            ["green", "--model", "single-flip", "--N", "3", "--alpha", "0.5"],
            ["sample", "field", "--model", "iid-bernoulli", "--p", "0.3", "--N", "4",
             "--alpha", "0.5", "--seed", "42"],
            ["sample", "field", "--model", "single-flip", "--N", "3", "--alpha", "0.5",
             "--seed", "42", "--replicates", "5000", "--verify"],
            ["sample", "kappa", "--gamma", "2", "--grid", "-1:1:0.5", "--seed", "42",
             "--replicates", "2"],
            ["ylaw", "--model", "definetti-discrete", "--atoms", "0.3,0.8",
             "--weights", "0.5,0.5", "--alpha", "0.4", "--kmax", "4",
             "--mc-draws", "20000", "--seed", "42"],
            ["limits", "--gamma", "2", "--N-list", "50,100", "--grid", "-1.5:1.5:0.75",
             "--seed", "42"],
        ]
        for idx, base in enumerate(commands):
            outputs = []
            for attempt in ("first", "second"):
                d = tmp_path / f"{idx}-{attempt}"
                d.mkdir()
                argv = base + ["--out", str(d / "out.dat")]
                if base[0] in ("green", "ylaw"):
                    argv += ["--summary", str(d / "summary.json")]
                assert cli.main(argv) == 0, base
                blob = (d / "out.dat").read_bytes()
                if (d / "summary.json").exists():
                    blob += (d / "summary.json").read_bytes()
                outputs.append(blob)
            assert outputs[0] == outputs[1], f"command {base[0]} not reproducible"
