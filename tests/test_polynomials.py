from fractions import Fraction
from math import comb, exp, factorial

import numpy as np
import pytest

from oracles import hermite_weighted_all
from cubefield.errors import DomainError
from cubefield.polynomials import (KrawtchoukBasis, binomial_pmf, hermite_all,
                                   hermite_eval, hermite_functions,
                                   krawtchouk_eval, krawtchouk_row)
from cubefield.walsh import fwht, popcounts


def generating_function_table(N):
    """Oracle: integer coefficients of (1 - phi)^w (1 + phi)^(N - w) per w."""
    rows = []
    for w in range(N + 1):
        coeffs = [1]
        for factor in [(-1,)] * w + [(1,)] * (N - w):
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c
                nxt[i + 1] += factor[0] * c
            coeffs = nxt
        rows.append(coeffs)
    return rows


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 12])
def test_table_matches_generating_function(N):
    oracle = generating_function_table(N)
    basis = KrawtchoukBasis(N)
    for w in range(N + 1):
        for k in range(N + 1):
            assert basis.scaled(k, w) == oracle[w][k]


@pytest.mark.parametrize("N", [2, 4, 7])
def test_normalization_at_zero(N):
    for k in range(N + 1):
        assert krawtchouk_eval(k, 0, N) == 1


def test_frozen_values():
    # expand (1-phi)(1+phi)^3 = 1 + 2 phi + 0 phi^2 - 2 phi^3 - phi^4
    assert krawtchouk_eval(1, 1, 4) == Fraction(1, 2)
    assert krawtchouk_eval(2, 1, 4) == 0
    assert krawtchouk_eval(2, 1, 4) == krawtchouk_eval(1, 2, 4)


@pytest.mark.parametrize("N", range(1, 13))
def test_orthogonality_exact(N):
    # sum_w binom(N,w) T_j(w) T_k(w) = delta_jk 2^N binom(N,j), pure integers
    basis = KrawtchoukBasis(N)
    for j in range(N + 1):
        for k in range(j, N + 1):
            total = sum(comb(N, w) * basis.scaled(j, w) * basis.scaled(k, w)
                        for w in range(N + 1))
            expected = (1 << N) * comb(N, j) if j == k else 0
            assert total == expected


@pytest.mark.parametrize("N", range(1, 13))
def test_duality_exact(N):
    basis = KrawtchoukBasis(N)
    for k in range(N + 1):
        for w in range(N + 1):
            assert basis.scaled(k, w) * comb(N, w) == basis.scaled(w, k) * comb(N, k)


@pytest.mark.parametrize("N", range(1, 11))
def test_spin_identity(N):
    # binom(N,k) Q_k(||w||) = sum over |A| = k of the character at w; the sum
    # of +-1 terms is exact in float64, evaluated by one integer transform
    basis = KrawtchoukBasis(N)
    pc = popcounts(N)
    for k in range(N + 1):
        sums = fwht(np.where(pc == k, 1.0, 0.0))
        for w in range(1 << N):
            assert sums[w] == basis.scaled(k, int(pc[w]))


def hermite_explicit(k, t):
    """Oracle: H_k(t) = k! sum_j (-1)^j t^(k-2j) / (j! (k-2j)! 2^j)."""
    total = 0.0
    for j in range(k // 2 + 1):
        total += (-1) ** j * t ** (k - 2 * j) / (factorial(j) * factorial(k - 2 * j) * 2 ** j)
    return factorial(k) * total


def test_hermite_frozen_values():
    assert hermite_eval(0, 1.7) == 1.0
    assert hermite_eval(2, 0.0) == -1.0   # t^2 - 1 at 0
    assert hermite_eval(3, 1.0) == -2.0   # t^3 - 3t at 1


@pytest.mark.parametrize("t", [-2.3, -0.5, 0.0, 0.7, 1.9])
def test_hermite_matches_generating_function_coefficients(t):
    values = hermite_all(12, t)
    for k in range(13):
        ref = hermite_explicit(k, t)
        assert abs(values[k] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_hermite_weighted_consistency():
    t = 1.3
    h = hermite_all(30, t)
    hw = hermite_weighted_all(30, t)
    psi = hermite_functions(30, t)
    for k in range(31):
        assert np.isclose(hw[k], h[k] / np.sqrt(float(factorial(k))), rtol=1e-11)
        assert np.isclose(psi[k], exp(-t * t / 4) * hw[k], rtol=1e-13)


def test_hermite_functions_stay_within_cramers_bound():
    # H_k(t) / sqrt(k!) alone overflows near |t| = 53; the Hermite functions
    # stay within 1.09 for every t, and their rows underflow to 0 past |t| ~ 55
    t = np.array([-60.0, -38.0, 0.0, 0.5, 10.0, 38.0, 53.0, 60.0])
    psi = hermite_functions(512, t)
    assert psi.shape == (t.size, 513) and np.isfinite(psi).all()
    assert np.abs(psi).max() <= 1.09
    assert not psi[[0, -1]].any() and psi[1:-1].any(axis=1).all()
    assert np.array_equal(psi[:, :100], hermite_functions(99, t))


def test_float_row_matches_exact_table():
    N = 40
    basis = KrawtchoukBasis(N)
    for w in (0, 1, 17, 40):
        row = krawtchouk_row(N, w)
        exact = np.array([float(basis.q(k, w)) for k in range(N + 1)])
        assert np.abs(row - exact).max() < 1e-11


@pytest.mark.parametrize("N", [65, 400, 1000])
def test_binomial_pmf_is_correctly_rounded_past_the_exact_tables(N):
    # Python's int / int true division rounds the exact ratio once
    pmf = binomial_pmf(N)
    for k in range(N + 1):
        assert pmf[k] == comb(N, k) / 2 ** N, k


def test_domain_errors():
    with pytest.raises(DomainError):
        krawtchouk_eval(5, 1, 4)
    with pytest.raises(DomainError):
        krawtchouk_eval(1, -1, 4)
    with pytest.raises(DomainError):
        KrawtchoukBasis(0)
    with pytest.raises(DomainError):
        hermite_all(-1, 0.0)
