"""Arguments outside a function's domain raise one of the package's three
error types, at the call that receives them, and no raw numpy or Python error."""

from math import inf, nan

import numpy as np
import pytest

from cubefield import increments as inc
from cubefield import limits, pointproc as pp, polynomials
from cubefield.errors import DomainError, NumericError, ResourceLimitError

IID = inc.IIDBernoulli(0.3)
MIXTURE = inc.DeFinettiDiscrete((0.2, 0.7), (0.6, 0.4))
VK = limits.VanishingKillingY(2.0)
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
    # grid points and t of the limit process
    ("build_kappa_spec [nan]", lambda: limits.build_kappa_spec(VK, [nan]), DomainError),
    ("build_kappa_spec [0, inf]", lambda: limits.build_kappa_spec(VK, [0.0, inf]), DomainError),
    ("kappa_cov t = nan", lambda: limits.kappa_cov(VK, nan, 0.0), DomainError),
    ("kappa_cov s = -inf mixture", lambda: limits.kappa_cov(VK, 0.0, -inf, method="mixture"),
     DomainError),
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


def test_moment_table_cap_admits_the_sizes_in_use():
    # 2^20 needs a 2^21-entry table, under the 2^24 cap
    assert inc._table_length(1 << 20) == 1 << 21
    assert inc._table_length((1 << 24) - 1) == 1 << 24
    with pytest.raises(ResourceLimitError):
        inc._table_length(1 << 24)
