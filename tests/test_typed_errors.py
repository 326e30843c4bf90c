"""Arguments outside a function's domain raise one of the package's three
error types, at the call that receives them, and no raw numpy or Python error."""

import argparse
import os
import tracemalloc
from math import inf, nan

import numpy as np
import pytest

from cubefield import cli, field, walk
from cubefield import increments as inc
from cubefield import limits, pointproc as pp, polynomials
from cubefield.errors import DomainError, NumericError, ResourceLimitError

IID = inc.IIDBernoulli(0.3)
MIXTURE = inc.DeFinettiDiscrete((0.2, 0.7), (0.6, 0.4))
VK = limits.VanishingKillingY(2.0)
NOISE4 = field.SpectralNoise(4, np.arange(16.0))
LEVELS6 = walk.GreenSpec(6, inc.SingleFlip(), 0.5)
SPEC8 = limits.KappaSpec(VK, (0.0,), 8, 0.0)
NON_SPIN_LAWS = [inc.SingleFlip(), inc.MFlip(2), inc.RandomSiteHalf(),
                 inc.MarkovEntries((0.5, 0.5), ((0.9, 0.1), (0.2, 0.8)))]

CASES = [
    # shape and rate parameters: 0 < x < inf, NaN included
    ("DeFinettiBeta(nan, 1)", lambda: inc.DeFinettiBeta(nan, 1.0), DomainError),
    ("DeFinettiBeta(1, inf)", lambda: inc.DeFinettiBeta(1.0, inf), DomainError),
    ("SymmetricBetaSpin(nan, 1)", lambda: inc.SymmetricBetaSpin(nan, 1.0), DomainError),
    ("LimitLinear(nan)", lambda: inc.LimitLinear(nan), DomainError),
    ("LimitPoissonDirichlet(nan)", lambda: inc.LimitPoissonDirichlet(nan), DomainError),
    ("VanishingKillingY(nan)", lambda: limits.VanishingKillingY(nan), DomainError),
    ("VanishingKillingY(inf)", lambda: limits.VanishingKillingY(inf), DomainError),
    ("YLaw phi = inf", lambda: pp.YLaw(IID, 0.5, inf), DomainError),
    ("YLaw phi = nan", lambda: pp.YLaw(IID, 0.5, nan), DomainError),
    ("beta_example_density a = nan", lambda: pp.beta_example_density(nan, 0.5, 0.3), DomainError),
    # a NaN point of the density was read as |z| >= 1 or as a power of NaN
    ("beta_example_density zeta = nan", lambda: pp.beta_example_density(2.0, 0.5, nan),
     DomainError),
    # grid points and t of the limit process
    ("build_kappa_spec [nan]", lambda: limits.build_kappa_spec(VK, [nan]), DomainError),
    ("build_kappa_spec [0, inf]", lambda: limits.build_kappa_spec(VK, [0.0, inf]), DomainError),
    ("kappa_cov t = nan", lambda: limits.kappa_cov(VK, nan, 0.0), DomainError),
    ("kappa_cov s = -inf mixture", lambda: limits.kappa_cov(VK, 0.0, -inf, method="mixture"),
     DomainError),
    # a non-finite t was a silent NaN residual, and a t past the window aliases
    *[(f"inversion_check t = {t}", lambda t=t: limits.inversion_check(SPEC8, np.ones(9), t),
       DomainError) for t in (nan, inf, -100.0)],
    # a NaN transform point was a silent NaN (point mass) or a NumericError
    ("transform_cov FixedCorrelation theta = nan",
     lambda: limits.transform_cov(limits.FixedCorrelation(0.4), nan, 1.0), DomainError),
    ("transform_cov FixedCorrelation phi = inf",
     lambda: limits.transform_cov(limits.FixedCorrelation(0.4), 1.0, inf), DomainError),
    ("transform_cov VanishingKillingY theta = nan",
     lambda: limits.transform_cov(VK, nan, 1.0), DomainError),
    # a non-finite t reached the integer cast of the level (a RuntimeWarning)
    ("levelset_clt_check t = nan", lambda: limits.levelset_clt_check(2.0, [100], [nan]),
     DomainError),
    ("levelset_clt_check t = inf", lambda: limits.levelset_clt_check(2.0, [100], [0.0, inf]),
     DomainError),
    # levels past [0, N]: -1 read row N, N + 1 was a raw IndexError
    ("levelset_cov u = -1", lambda: limits.levelset_cov(LEVELS6, -1, 0), DomainError),
    ("levelset_cov v = N + 1", lambda: limits.levelset_cov(LEVELS6, 0, 7), DomainError),
    # coordinate sets and vertices past [N]: raw IndexErrors, or a vertex read mod 2^N
    ("spin_sum subset past N", lambda: field.spin_sum(0, 1 << 5, 1, NOISE4), DomainError),
    ("spin_sum x past N", lambda: field.spin_sum(1 << 9, 0b0011, 1, NOISE4), DomainError),
    ("infinite_field_marginal subset past N",
     lambda: field.infinite_field_marginal(IID, 0, 0b100001, NOISE4, alpha=0.5), DomainError),
    # raw exceptions that had no type of their own
    ("binomial_pmf(-1)", lambda: polynomials.binomial_pmf(-1), DomainError),
    ("sample_Y size = -1", lambda: pp.sample_Y(pp.YLaw(IID, 0.5), np.random.default_rng(0), -1),
     DomainError),
    ("sample_Y count past the Poisson range",
     lambda: pp.sample_Y(pp.YLaw(IID, 0.5, 1e20), np.random.default_rng(0), 3),
     ResourceLimitError),
    ("killed_measure_moments N = 1100",
     lambda: pp.killed_measure_moments(pp.YLaw(IID, 0.5), 3, 1100), NumericError),
    # the alternating moment sum cancels past float precision (was 0.22 off, and -2.1e-18)
    ("killed_measure_moments N = 60",
     lambda: pp.killed_measure_moments(pp.YLaw(MIXTURE, 0.5), 20, 60), NumericError),
    ("killed_measure_moments N = 80",
     lambda: pp.killed_measure_moments(pp.YLaw(MIXTURE, 0.5), 26, 80), NumericError),
    ("DeFinettiBeta.rho(2^40)", lambda: inc.DeFinettiBeta(2.0, 3.0).rho(1 << 40),
     ResourceLimitError),
    ("SymmetricBetaSpin.rho(2^40)", lambda: inc.SymmetricBetaSpin(2.0, 3.0).rho(1 << 40),
     ResourceLimitError),
    ("LimitPoissonDirichlet.gap(2^40)", lambda: inc.LimitPoissonDirichlet(1.0).gap(1 << 40),
     ResourceLimitError),
    ("EvolvedMeasure steps = -1", lambda: pp.EvolvedMeasure(IID, -1), DomainError),
    ("EvolvedMeasure.sample size = -1",
     lambda: pp.EvolvedMeasure(IID, 3).sample(np.random.default_rng(0), -1), DomainError),
    # CLI grids: a NaN or infinite part was a raw ValueError or OverflowError,
    # and 10^10 points were built as a Python list
    ("grid 0:1:nan", lambda: cli._parse_grid("0:1:nan"), DomainError),
    ("grid nan:1:0.5", lambda: cli._parse_grid("nan:1:0.5"), DomainError),
    ("grid 0:inf:1", lambda: cli._parse_grid("0:inf:1"), DomainError),
    ("grid -inf:0:1", lambda: cli._parse_grid("-inf:0:1"), DomainError),
    ("grid 0:1e7:1e-3", lambda: cli._parse_grid("0:1e7:1e-3"), ResourceLimitError),
    ("grid -1e308:1e308:1", lambda: cli._parse_grid("-1e308:1e308:1"), ResourceLimitError),
    ("grid 0:1:1e-320", lambda: cli._parse_grid("0:1:1e-320"), ResourceLimitError),
    # a killing rate outside (0, 1): ZeroDivisionError at 1, ValueError at 0 and
    # NaN, and a silent T = -1 at 1.5
    *[(f"sample_geometric_time alpha = {alpha}",
       lambda alpha=alpha: walk.sample_geometric_time(alpha, np.random.default_rng(0)),
       DomainError) for alpha in (1.0, 0.0, nan, 1.5)],
    # moment read rho^2.5 while sample multiplied 2 spins
    ("EvolvedMeasure steps = 2.5", lambda: pp.EvolvedMeasure(IID, 2.5), DomainError),
    # NaN after an overflow RuntimeWarning
    ("hermite_eval(400, 30)", lambda: polynomials.hermite_eval(400, 30.0), NumericError),
    ("hermite_eval(3, nan)", lambda: polynomials.hermite_eval(3, nan), DomainError),
    # the series of kappa reads sqrt(E[Y^k]): NaN at odd k for Y = -0.4
    ("build_kappa_spec FixedCorrelation(-0.4)",
     lambda: limits.build_kappa_spec(limits.FixedCorrelation(-0.4), [0.0]), DomainError),
    ("KappaSpec FixedCorrelation(-0.4) basis",
     lambda: limits.KappaSpec(limits.FixedCorrelation(-0.4), (0.0,), 8, 0.0).basis, DomainError),
    # model parameters from outside the program: raw ValueErrors, a string read as
    # its characters, a fractional flip count accepted
    ("MFlip(2.5)", lambda: inc.MFlip(2.5), DomainError),
    ("model_from_dict M = 'x'", lambda: inc.model_from_dict({"model": "mflip", "M": "x"}),
     DomainError),
    ("model_from_dict p = 'x'",
     lambda: inc.model_from_dict({"model": "iid-bernoulli", "p": "x"}), DomainError),
    ("model_from_dict atoms = '0.2'",
     lambda: inc.model_from_dict({"model": "definetti-discrete", "atoms": "0.2",
                                  "weights": [1.0]}), DomainError),
    ("model_from_dict transition row ['q']",
     lambda: inc.model_from_dict({"model": "markov-entries", "initial": [0.5, 0.5],
                                  "transition": [[0.9, "q"], [0.2, 0.8]]}), DomainError),
]
# guards that no other test reaches
POINTS2 = field.FieldSample(2, np.zeros(2), points=(0, 1))
CASES += [
    # law constructors
    ("IIDBernoulli(1.5)", lambda: inc.IIDBernoulli(1.5), DomainError),
    ("DeFinettiDiscrete lengths differ", lambda: inc.DeFinettiDiscrete((0.2, 0.7), (1.0,)),
     DomainError),
    ("DeFinettiDiscrete atom 1.5", lambda: inc.DeFinettiDiscrete((1.5,), (1.0,)), DomainError),
    ("DeFinettiDiscrete weights sum 0.5", lambda: inc.DeFinettiDiscrete((0.2,), (0.5,)),
     DomainError),
    ("MFlip(0)", lambda: inc.MFlip(0), DomainError),
    ("MarkovEntries initial (0.5, 0.6)",
     lambda: inc.MarkovEntries((0.5, 0.6), ((0.9, 0.1), (0.2, 0.8))), DomainError),
    ("MarkovEntries row (0.9, 0.2)",
     lambda: inc.MarkovEntries((0.5, 0.5), ((0.9, 0.2), (0.2, 0.8))), DomainError),
    # eigenvalues, gaps and enumerated laws
    ("rho_k k = -1", lambda: inc.rho_k(IID, -1), DomainError),
    ("rho_k SingleFlip without N", lambda: inc.rho_k(inc.SingleFlip(), 1), DomainError),
    ("rho_k SingleFlip k > N", lambda: inc.rho_k(inc.SingleFlip(), 5, 4), DomainError),
    ("rho_subset past N", lambda: inc.rho_subset(IID, 1 << 4, 4), DomainError),
    ("b_subset SingleFlip without N", lambda: inc.b_subset(inc.SingleFlip(), 1, None, 0.5),
     DomainError),
    ("sample_Z N = 0", lambda: inc.sample_Z(IID, 0, np.random.default_rng(0)), DomainError),
    ("increment_pmf N = 0", lambda: inc.increment_pmf(IID, 0), DomainError),
    ("increment_pmf LimitLinear", lambda: inc.increment_pmf(inc.LimitLinear(2.0), 3),
     DomainError),
    ("abs_moment_split theta = 1 with a spin atom at 0",
     lambda: inc.DeFinettiDiscrete((0.5,), (1.0,)).abs_moment_split(1.0), DomainError),
    ("model_from_dict({})", lambda: inc.model_from_dict({}), DomainError),
    ("model_to_dict(3)", lambda: inc.model_to_dict(3), DomainError),
    # polynomial tables
    ("KrawtchoukBasis(65)", lambda: polynomials.KrawtchoukBasis(65), DomainError),
    ("KrawtchoukBasis.scaled k = N + 1", lambda: polynomials.KrawtchoukBasis(3).scaled(4, 0),
     DomainError),
    ("krawtchouk_row w = N + 1", lambda: polynomials.krawtchouk_row(3, 4), DomainError),
    ("krawtchouk_matrix(0)", lambda: polynomials.krawtchouk_matrix(0), DomainError),
    ("hermite_functions degree -1", lambda: polynomials.hermite_functions(-1, 0.0), DomainError),
    # walk kernels
    ("transition_matrix N = 13", lambda: walk.transition_matrix(IID, 13), ResourceLimitError),
    # at N = 13 the XOR index and the matrix were 0.5 GiB each
    ("green_matrix_spectral N = 13",
     lambda: walk.green_matrix_spectral(walk.GreenSpec(13, IID, 0.5)), ResourceLimitError),
    ("t_step_prob t = -1", lambda: walk.t_step_prob(IID, 3, -1, 0, 0), DomainError),
    ("green_hamming v = N + 1", lambda: walk.green_hamming(LEVELS6, 0, 7), DomainError),
    # every 2^-1100 pmf_by_size entry underflows: the level chain would have no steps
    ("green_hamming IIDBernoulli(0.5) at N = 1100",
     lambda: walk.green_hamming(walk.GreenSpec(1100, inc.IIDBernoulli(0.5), 0.5), 0, 0),
     NumericError),
    ("coupon_collector_prob t = 0", lambda: walk.coupon_collector_prob(0, 3), DomainError),
    ("coupon_collector_prob N = 0", lambda: walk.coupon_collector_prob(1, 0), DomainError),
    # field samplers and checks: noise of the wrong shape, samples of the wrong kind
    ("SpectralNoise 15 values for N = 4", lambda: field.SpectralNoise(4, np.zeros(15)),
     DomainError),
    ("sample_field_spectral noise N = 4, spec N = 6",
     lambda: field.sample_field_spectral(LEVELS6, NOISE4), DomainError),
    ("sample_field_cholesky no points",
     lambda: field.sample_field_cholesky(LEVELS6, [], np.random.default_rng(0)), DomainError),
    ("spin_sum_all_vertices k = N + 1", lambda: field.spin_sum_all_vertices(5, NOISE4),
     DomainError),
    ("centered_field of points", lambda: field.centered_field(POINTS2), DomainError),
    ("infinite_field_marginal SingleFlip",
     lambda: field.infinite_field_marginal(inc.SingleFlip(), 0, 1, NOISE4, alpha=0.5),
     DomainError),
    ("infinite_field_marginal empty subset",
     lambda: field.infinite_field_marginal(IID, 0, 0, NOISE4, alpha=0.5), DomainError),
    ("gff_log_density_check N = 9",
     lambda: field.gff_log_density_check(walk.GreenSpec(9, IID, 0.5), np.zeros(512)),
     ResourceLimitError),
    ("gff_log_density_check 5 values for N = 3",
     lambda: field.gff_log_density_check(walk.GreenSpec(3, IID, 0.5), np.zeros(5)),
     DomainError),
    # level sets and the limit process
    ("levelset_direct of points", lambda: limits.levelset_direct(POINTS2), DomainError),
    ("levelset_representation 3 normals for N = 6",
     lambda: limits.levelset_representation(LEVELS6, np.ones(3)), DomainError),
    ("build_kappa_spec empty grid", lambda: limits.build_kappa_spec(VK, []), DomainError),
    ("kappa_sample 3 normals at order 8", lambda: limits.kappa_sample(SPEC8, np.ones(3)),
     DomainError),
    ("kappa_cov method 'exact'", lambda: limits.kappa_cov(VK, 0.0, 0.0, method="exact"),
     DomainError),
    # the product law's closed forms
    ("sign_probability sign = 0", lambda: pp.sign_probability(pp.YLaw(IID, 0.5), 0),
     DomainError),
    ("joint_sign_laplace sign = 0", lambda: pp.joint_sign_laplace(pp.YLaw(IID, 0.5), 1.0, 0),
     DomainError),
    ("laplace_neg_log_abs theta = -1",
     lambda: pp.laplace_neg_log_abs(pp.YLaw(IID, 0.5), -1.0), DomainError),
    ("killed_measure_moments phi = 1/2",
     lambda: pp.killed_measure_moments(pp.YLaw(IID, 0.5, 0.5), 1, 3), DomainError),
    ("killed_measure_moments ones > total",
     lambda: pp.killed_measure_moments(pp.YLaw(IID, 0.5), 4, 3), DomainError),
    # CLI parsing: a grid without three parts or with hi < lo, a config that is not JSON
    ("grid 0:1", lambda: cli._parse_grid("0:1"), DomainError),
    ("grid 1:0:0.5", lambda: cli._parse_grid("1:0:0.5"), DomainError),
    ("config that is not JSON",
     lambda: cli._model_from_args(argparse.Namespace(config=os.devnull, model=None)),
     DomainError),
]
# a law that is not a de Finetti spin law is refused where the product law is built
CASES += [(f"YLaw({type(m).__name__})", lambda m=m: pp.YLaw(m, 0.5), DomainError)
          for m in NON_SPIN_LAWS]
CASES += [(f"EvolvedMeasure({type(m).__name__})", lambda m=m: pp.EvolvedMeasure(m, 3),
           DomainError) for m in NON_SPIN_LAWS]


@pytest.mark.parametrize("call, error", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_raises_its_typed_error(call, error):
    with pytest.raises(error):
        call()


def test_grid_cap_admits_its_last_point():
    # GRID_POINT_LIMIT points exactly; one step more is refused
    last = cli.GRID_POINT_LIMIT - 1
    assert cli._parse_grid(f"0:{last}:1").size == cli.GRID_POINT_LIMIT
    with pytest.raises(ResourceLimitError):
        cli._parse_grid(f"0:{last + 1}:1")


def test_moment_table_cap_admits_the_sizes_in_use():
    # 2^20 needs a 2^21-entry table, under the 2^24 cap
    assert inc._table_length(1 << 20) == 1 << 21
    assert inc._table_length((1 << 24) - 1) == 1 << 24
    with pytest.raises(ResourceLimitError):
        inc._table_length(1 << 24)


@pytest.mark.parametrize("N", [13, 20, 24])
def test_dense_green_matrix_cap_raises_before_allocating(N):
    spec = walk.GreenSpec(N, IID, 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            walk.green_matrix_spectral(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
