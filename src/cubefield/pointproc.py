"""Killed point processes on [-1, 1] and the product variables Y, Y_phi.

A mixture model for the walk increments carries a spin measure nu on
[-1, 1] (the law of xi = 1 - 2*omega).  The killed walk started at the
origin is described by the point process of T_alpha i.i.d. spins; their
product (+1 when T_alpha = 0),

    Y = prod_{j=1}^{T_alpha} xi_j,

has moments E[Y^k] = (1 + c (1 - rho_k))^-1 and ties the point-process
layer to the Green function:

    (1-alpha) G(x, y) = E[ ((1-Y)/2)^d ((1+Y)/2)^(N-d) ],  d = ||x XOR y||.

The phi-th convolution root Y_phi (negative-binomial point process, seen
as a mixed Poisson process) satisfies E[Y_phi^k] = E[Y^k]^phi; every
closed form below is (1 + c (1 - m))^(-phi) of one spin expectation m.

This module draws the spin count (T at phi = 1, the mixed Poisson count
otherwise) and holds the closed forms; the spin law itself
multiplies its spins (`log_products` in increments), as (sign, log|Y|)
pairs so products of hundreds of spins cannot underflow.  For a point-mass
spin law at phi = 1, Y depends only on T and the atom counts n, whose joint
law is (1 - alpha) alpha^t multinomial(t; n) prod_a w_a^(n_a); there one
uniform per draw is looked up in a cached inverse-CDF table of (T, n).
"""

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import comb, expm1, isnan, log, log1p

import numpy as np

from . import increments
from .errors import DomainError, NumericError, ResourceLimitError

# ---------------------------------------------------------------------------
# the product law


@dataclass(frozen=True)
class YLaw:
    """Product-of-points law: spin measure, killing alpha, divisibility index phi.

    phi = 1 is the geometric construction Y; phi = 1/2 is the half process
    entering the field's spin representation.  The walk starts at the
    origin, so the empty product (no spins) is +1.  The spin measure is a
    de Finetti increment law itself; any other law raises DomainError here.
    """
    spin: increments.IncrementModel
    alpha: float
    phi: float = 1.0

    def __post_init__(self):
        _require_spin_law(self.spin)
        increments._killing_c(self.alpha)
        increments._positive(phi=self.phi)

    @classmethod
    def from_model(cls, model, alpha, phi=1.0) -> "YLaw":
        return cls(model, alpha, phi)

    @property
    def c(self) -> float:
        return increments._killing_c(self.alpha)


def _require_spin_law(spin):
    if not getattr(spin, "is_definetti", False):
        raise DomainError(f"{type(spin).__name__} carries no spin measure")


def _resolvent(law: YLaw, deficit: float) -> float:
    """E[prod_j h(xi_j)] = (1 + c (1 - m))^(-phi) for m = int h dnu, deficit = 1 - m:
    the generating function at m of the Gamma(phi)-mixed Poisson(lambda c) spin count."""
    return (1.0 + law.c * deficit) ** (-law.phi)


def moment_Y(law: YLaw, k: int) -> float:
    """E[Y_phi^k] = (1 + c (1 - rho_k))^(-phi); rho_k refuses k < 0."""
    return _resolvent(law, 1.0 - increments.rho_k(law.spin, k))


def sample_Y_signed_log(law: YLaw, rng: np.random.Generator,
                        size: int) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log|Y_phi|) pairs: the product of a random number of i.i.d. spins.

    sign is an int8 in {-1, 0, +1}; a zero spin gives sign 0 and
    log|Y| = -inf.  Point-mass laws of two or more atoms at phi = 1 read
    (T, atom counts) off a cached inverse-CDF table (`_count_table`), one
    uniform and one binary search per draw, while the table holds at most
    2^16 entries.  Otherwise the count is the geometric T by inversion at
    phi = 1, else Poisson(lambda c) with lambda ~ Gamma(phi) (the same law
    at phi = 1), and the spin law's `log_products` multiplies the spins.
    """
    if size < 0:
        raise DomainError(f"size must be >= 0, got {size}")
    if law.phi == 1.0:
        table = _count_table(law.spin, law.alpha)
        if table is not None:
            return _table_draws(table, rng, size)
        u = rng.random(size)
        np.log(np.subtract(1.0, u, out=u), out=u)
        u /= log(law.alpha)
        counts = np.floor(u, out=u).astype(np.int64)
        del u
    else:
        lam = rng.gamma(law.phi, size=size) * law.c
        try:
            counts = rng.poisson(lam).astype(np.int64)
        except ValueError:  # numpy's Poisson stops short of lambda = 2^63
            raise ResourceLimitError(f"a Poisson spin count near 2^63 at phi = {law.phi}") from None
    return law.spin.log_products(counts, rng)


# the most entries a (T, atom counts) table may hold, 17 bytes each.  Measured
# on a 2-core VM for DeFinettiDiscrete((0.2, 0.9), (0.5, 0.5)): 8256 entries at
# alpha = 0.75 build in 6 ms (140 kB); 61075 at alpha = 0.9 in 21 ms (1.0 MB),
# which the table repays within 10^6 draws (70 ms against 114 ms by multinomial);
# 257403 at alpha = 0.95 took 65 ms (4.4 MB), more than it saved on 10^6 draws
_TABLE_ENTRIES = 1 << 16
_DRAW_BLOCK = 1 << 18  # uniforms and entry indices per block: 4 MiB


def _inversion_t_max(alpha: float) -> int:
    """The largest T that floor(log(1 - u) / log(alpha)) gives for a 53-bit
    uniform u: the one at 1 - u = 2^-53."""
    return int(np.floor(np.log(np.array([2.0 ** -53])) / log(alpha))[0])


@lru_cache(maxsize=4)
def _count_table(spin, alpha: float):
    """The inverse-CDF table of (T, atom counts) for a point-mass spin law at
    phi = 1: (cdf, signs, logs), read-only, or None for a law of one atom, a
    continuous law, or a table past _TABLE_ENTRIES entries.

    One entry per count vector n with |n| = t <= t_max (`_inversion_t_max`),
    the whole range of the inversion, in order of t and then of n
    (lexicographic), entries of probability 0 left out.  P(T = t, n) =
    (1 - alpha) alpha^t multinomial(t; n) prod_a w_a^(n_a) grows one level at
    a time, each entry the sum of alpha w_a P(t - 1, n - e_a) over atoms a, in
    long double; the CDF is summed in long double too and rounded once, and
    its last entry set to 1.0, so every u < 1 lands on an entry.  Each CDF
    entry is then within an ulp of the exact prefix sum (x86-64's 80-bit long
    double; where long double is double, a few ulps), so the table's law is
    within 2^-53 per entry of the exact one in total variation: 9.2e-13 for
    8256 entries.  The signs and logs are the spin law's `_signed_logs` of the
    counts, the matmul `log_products` runs on each block of counts.
    """
    if not isinstance(spin, increments._PointMasses) or len(spin.weights) == 1:
        return None
    atoms, t_max = len(spin.weights), _inversion_t_max(alpha)
    if comb(t_max + atoms, atoms) > _TABLE_ENTRIES or (t_max + 1) ** atoms > 1 << 62:
        return None
    # n as one integer in base t_max + 1, first atom most significant: key order is lexicographic
    radix = (t_max + 1) ** np.arange(atoms - 1, -1, -1, dtype=np.int64)
    step = np.asarray(spin.weights, dtype=np.longdouble) * np.longdouble(alpha)
    keys, probs = [np.zeros(1, dtype=np.int64)], [1.0 - np.array([alpha], dtype=np.longdouble)]
    for _ in range(t_max):
        level, where = np.unique(keys[-1][:, None] + radix, return_inverse=True)
        p = np.zeros(level.size, dtype=np.longdouble)
        for a, to in enumerate(where.reshape(-1, atoms).T):  # n - e_a -> n, distinct for one a
            p[to] += step[a] * probs[-1]
        keys.append(level)
        probs.append(p)
    probs = np.concatenate(probs)
    keep = probs > 0.0
    cdf = np.cumsum(probs[keep]).astype(np.float64)
    cdf[-1] = 1.0
    signs, logs = np.empty(cdf.size, dtype=np.int8), np.empty(cdf.size)
    spin._signed_logs(np.concatenate(keys)[keep, None] // radix % (t_max + 1), signs, logs)
    for table in (cdf, signs, logs):
        table.flags.writeable = False
    return cdf, signs, logs


def _table_draws(table, rng: np.random.Generator, size: int):
    """(sign, log|Y|) of `size` table entries, each by inverse CDF on one uniform,
    in blocks of _DRAW_BLOCK."""
    cdf, table_signs, table_logs = table
    signs, logs = np.empty(size, dtype=np.int8), np.empty(size)
    for lo in range(0, size, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, size)
        entry = cdf.searchsorted(rng.random(hi - lo), side="right")
        np.take(table_signs, entry, out=signs[lo:hi])
        np.take(table_logs, entry, out=logs[lo:hi])
    return signs, logs


def _signed_exp(signs, logs, size):
    """sign * exp(log|Y|), in the log array; a float when size is None."""
    vals = np.exp(logs, out=logs)
    vals *= signs
    return float(vals[0]) if size is None else vals


def sample_Y(law: YLaw, rng: np.random.Generator, size: int | None = None):
    """Y_phi: the product of T_alpha i.i.d. spins at phi = 1, of a
    Gamma(phi)-mixed Poisson number of them otherwise (`sample_Y_signed_log`).

    Route: for point-mass laws of two or more atoms at phi = 1, (T, atom
    counts) by inverse CDF on a cached table, whose law is within 2^-53 per
    entry of the exact one in total variation (9.2e-13 for the 8256 entries
    of DeFinettiDiscrete((0.2, 0.9), (0.5, 0.5)) at alpha = 0.75); else the
    count, then the product of its spins from the atom counts (point-mass
    laws) or from chunked spin draws (continuous laws).  Then sign *
    exp(log|Y|), in place in the log array; each table entry holds the
    (sign, log|Y|) that `log_products` forms from its counts.  The
    tracemalloc peak is the float64 logs and the int8 signs (9 bytes a
    draw) plus, on the table route, 4 MiB of uniforms and entry indices a
    block (14.7 MiB for 10^6 draws of that law, table build included), and
    on the others the int64 counts (8 bytes a draw more) and O(2^18) per
    chunk, at any alpha.  With one atom x, log|Y| is within half an ulp of
    (count) log|x|.
    """
    n = 1 if size is None else size
    return _signed_exp(*sample_Y_signed_log(law, rng, n), size)


# ---------------------------------------------------------------------------
# transforms and sign probabilities


def laplace_neg_log_abs(law: YLaw, theta: float) -> float:
    """Laplace transform E[e^(-theta * (-log|Y_phi|))] = E[|Y_phi|^theta]:

        (1 + c int (1 - |xi|^theta) nu)^(-phi).
    """
    return _resolvent(law, 1.0 - sum(_abs_moment_split(law, theta)))


def joint_sign_laplace(law: YLaw, theta: float, sign: int) -> float:
    """E[1{sign(Y_phi) = sign} |Y_phi|^theta] = (h_abs +- h_signed) / 2: E[|Y_phi|^theta]
    and E[sign(Y_phi) |Y_phi|^theta], the resolvents of int |xi|^theta nu and
    int sign(xi) |xi|^theta nu.

    Their deficits are d_abs and d_signed = d_abs + 2 nu_-, nu_- the |xi|^theta
    mass on [-1, 0], so a tiny nu_- is kept, and the minus sign is taken without
    subtracting two close resolvents: h_abs - h_signed =
    h_abs (1 - (1 + 2c nu_- / (1 + c d_abs))^(-phi)), through expm1 and log1p.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    nu_neg, nu_pos = _abs_moment_split(law, theta)
    d_abs = 1.0 - nu_neg - nu_pos
    h_abs = _resolvent(law, d_abs)
    if sign == 1:
        return 0.5 * (h_abs + _resolvent(law, d_abs + 2.0 * nu_neg))
    ratio = 2.0 * law.c * nu_neg / (1.0 + law.c * d_abs)
    return 0.5 * h_abs * -expm1(-law.phi * log1p(ratio))


def sign_probability(law: YLaw, sign: int) -> float:
    """P(Y_phi > 0) or P(Y_phi < 0):

        (1/2) (1 +- (1 + 2c nu_-)^(-phi)),

    the resolvent of int sign(xi) nu = 1 - 2 nu_-, nu_- the spin mass on
    [-1, 0]; the minus sign goes through expm1 and log1p, so a tiny nu_- keeps
    its digits.  A spin atom at 0 puts mass on Y = 0 and raises DomainError.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    nu_neg = _abs_moment_split(law, 0.0)[0]
    if sign == 1:
        return 0.5 * (1.0 + _resolvent(law, 2.0 * nu_neg))
    return 0.5 * -expm1(-law.phi * log1p(2.0 * law.c * nu_neg))


def _abs_moment_split(law: YLaw, theta: float) -> tuple[float, float]:
    """The spin law's |xi|^theta split, for theta >= 0 and no spin atom at 0."""
    if not theta >= 0:
        raise DomainError(f"theta must be >= 0, got {theta}")
    if law.spin.has_atom_at_zero():
        raise DomainError("spin measure has an atom at zero")
    return law.spin.abs_moment_split(theta)


# ---------------------------------------------------------------------------
# measure evolution and the Green-function tie


@dataclass(frozen=True)
class EvolvedMeasure:
    """psi_t, the product of t i.i.d. spins: the mixture parameter after t unkilled steps."""
    spin: increments.IncrementModel
    steps: int

    def __post_init__(self):
        _require_spin_law(self.spin)
        object.__setattr__(self, "steps", increments._integer("step count", self.steps))
        if self.steps < 0:
            raise DomainError(f"step count must be >= 0, got {self.steps}")

    def moment(self, k: int) -> float:
        """E[psi_t^k] = (int xi^k nu)^t."""
        return increments.rho_k(self.spin, k) ** self.steps

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """psi_t by the product engine of `sample_Y` with every row's count t."""
        n = 1 if size is None else size
        if n < 0:
            raise DomainError(f"size must be >= 0, got {n}")
        counts = np.full(n, self.steps, dtype=np.int64)
        return _signed_exp(*self.spin.log_products(counts, rng), size)


def killed_measure_moments(law: YLaw, ones: int, total: int) -> float:
    """E[V^n (1-V)^(N-n)] for V = (1 - Y)/2: the killed de Finetti moments.

    Equals (1-alpha) G(x, y) whenever ||x XOR y|| = n in dimension N.  The
    product is rewritten as 2^-N sum_m coeff_m E[Y^m] with integer
    coefficients, |coeff_m| <= binom(N, m).  The sum alternates and cancels:
    when its a-priori rounding bound (N+2) 2^-53 2^-N sum_m binom(N,m) |E[Y^m]|
    exceeds 1e-6 |value|, NumericError.
    """
    if law.phi != 1.0:
        raise DomainError("killed de Finetti moments are a phi = 1 statement")
    if not 0 <= ones <= total:
        raise DomainError(f"need 0 <= ones <= total, got {ones}, {total}")
    if comb(total, total // 2) > sys.float_info.max:
        raise NumericError(f"the binomial coefficients at N = {total} are past the float range")
    # (1-Y)^n (1+Y)^(N-n) expanded in powers of Y, exact coefficients
    coeffs = np.zeros(total + 1)
    for i in range(ones + 1):
        for j in range(total - ones + 1):
            coeffs[i + j] += (-1) ** i * comb(ones, i) * comb(total - ones, j)
    moments = np.array([moment_Y(law, m) for m in range(total + 1)])
    value = float(np.dot(coeffs, moments)) * 0.5 ** total
    binoms = np.array([comb(total, m) for m in range(total + 1)], dtype=float)
    bound = (total + 2) * 2.0 ** -53 * 0.5 ** total * float(np.dot(binoms, np.abs(moments)))
    if bound > 1e-6 * abs(value):
        raise NumericError(f"the killed moment sum at N = {total}, n = {ones} cancels past "
                           f"float precision: rounding bound {bound:.1e}, value {value:.1e}")
    return value


# ---------------------------------------------------------------------------
# the Beta(a, 1) worked example


def beta_example_density(a: float, alpha: float, zeta: float) -> float:
    """Continuous density of the killed product for the symmetric Beta(a,1) spin law.

    The killed product zeta = prod_{j<=T_alpha} xi_j has an atom of mass
    (1-alpha) at +1 plus this continuous part on (-1, 1):

        f(z) = (1-alpha) alpha (a/2) |z|^(a(1-alpha) - 1),

    obtained by mixing the fixed-t densities
    (a / (2 Gamma(t))) |z|^(a-1) (-a log|z|)^(t-1) over P(T = t) = (1-alpha) alpha^t;
    the geometric-exponential mixture collapses to the single power above.
    Integrates to alpha, so atom + density carry total mass 1.
    """
    increments._positive(a=a)
    increments._killing_c(alpha)
    if isnan(zeta):
        raise DomainError("zeta must not be NaN")
    z = abs(zeta)
    if z >= 1.0 or z == 0.0:
        return 0.0
    return (1.0 - alpha) * alpha * (a / 2.0) * z ** (a * (1.0 - alpha) - 1.0)
