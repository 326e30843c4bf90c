from fractions import Fraction
from math import comb

import numpy as np
import pytest

from cubefield.limits import levelset_representation
from cubefield.polynomials import KrawtchoukBasis


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def mean_and_se(samples):
    """Sample mean and its standard error."""
    samples = np.asarray(samples, dtype=float)
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(samples.size))


def assert_within_3se(estimate, target, se, label=""):
    gap = abs(estimate - target)
    assert gap <= 3.0 * se, f"{label}: |{estimate} - {target}| = {gap} > 3*SE = {3 * se}"


def covariance_se(analytic, n):
    """SE matrix for empirical second moments of a centered Gaussian vector."""
    d = np.diag(analytic)
    return np.sqrt((np.outer(d, d) + analytic ** 2) / n)


def representation_matrix(spec):
    """B with levelset_representation(spec, zeta) = B zeta: its columns are the
    representations of the unit vectors."""
    return np.column_stack([levelset_representation(spec, e) for e in np.eye(spec.N + 1)])


def exact_levelset_cov(spec):
    """Cov(theta_u, theta_v) = binom(N,u) binom(N,v) 2^-N sum_k w_k binom(N,k) Q_k(u) Q_k(v)
    from the exact Krawtchouk integers, with the float weights w_k = E[Y^k]
    taken as exact rationals and one rounding per entry."""
    N = spec.N
    basis = KrawtchoukBasis(N)
    w = [Fraction(x) for x in spec.weights]
    out = np.empty((N + 1, N + 1))
    for u in range(N + 1):
        for v in range(u, N + 1):
            # binom(N,k) Q_k(u) Q_k(v) = scaled(k,u) scaled(k,v) / binom(N,k)
            total = sum(w[k] * basis.scaled(k, u) * basis.scaled(k, v) / comb(N, k)
                        for k in range(N + 1))
            out[u, v] = out[v, u] = float(total * comb(N, u) * comb(N, v) / (1 << N))
    return out
