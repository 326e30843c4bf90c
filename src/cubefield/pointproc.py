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

This module draws T and holds the closed forms; the spin law itself
multiplies its spins (`log_products` in increments), as (sign, log|Y|)
pairs so products of hundreds of spins cannot underflow.
"""

from dataclasses import dataclass
from math import comb, exp, expm1, log, log1p

import numpy as np
from scipy.special import gammaln

from . import increments
from .errors import DomainError
from .walk import GreenSpec, green_spectral

# ---------------------------------------------------------------------------
# spin measures: the de Finetti increment models themselves


SpinMeasure = increments.IIDBernoulli | increments.DeFinettiDiscrete \
    | increments.DeFinettiBeta | increments.SymmetricBetaSpin


def delta_spin(value: float) -> increments.IIDBernoulli:
    """Unit point mass at xi = value: the i.i.d. law with omega = (1 - value)/2."""
    return increments.IIDBernoulli((1.0 - value) / 2.0)


def spin_measure_of(model) -> SpinMeasure:
    """The spin measure attached to a mixture-type increment model: the model itself."""
    if not model.is_definetti:
        raise DomainError(f"{type(model).__name__} carries no spin measure")
    return model


# ---------------------------------------------------------------------------
# the product law


@dataclass(frozen=True)
class YLaw:
    """Product-of-points law: spin measure, killing alpha, divisibility index phi.

    phi = 1 is the geometric construction Y; phi = 1/2 is the half process
    entering the field's spin representation.  The walk starts at the
    origin, so the empty product (no spins) is +1.
    """
    spin: SpinMeasure
    alpha: float
    phi: float = 1.0

    def __post_init__(self):
        increments._killing_c(self.alpha)
        if self.phi <= 0:
            raise DomainError(f"phi must be positive, got {self.phi}")

    @classmethod
    def from_model(cls, model, alpha, phi=1.0) -> "YLaw":
        return cls(spin_measure_of(model), alpha, phi)

    @property
    def c(self) -> float:
        return increments._killing_c(self.alpha)


def _resolvent(law: YLaw, deficit: float) -> float:
    """E[prod_j h(xi_j)] = (1 + c (1 - m))^(-phi) for m = int h dnu, deficit = 1 - m:
    the generating function at m of the Gamma(phi)-mixed Poisson(lambda c) spin count."""
    return (1.0 + law.c * deficit) ** (-law.phi)


def moment_Y(law: YLaw, k: int) -> float:
    """E[Y_phi^k] = (1 + c (1 - rho_k))^(-phi)."""
    if k < 0:
        raise DomainError(f"moment order must be >= 0, got {k}")
    return _resolvent(law, 1.0 - increments.rho_k(law.spin, k))


def sample_Y_signed_log(law: YLaw, rng: np.random.Generator,
                        size: int) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log|Y|) pairs for the geometric (phi = 1) construction.

    sign is in {-1, 0, +1}; a zero spin gives sign 0 and log|Y| = -inf.
    T is drawn by inversion, then the product of T spins by the spin law's
    `log_products`.
    """
    if law.phi != 1.0:
        raise DomainError("the geometric construction is the phi = 1 law; use sample_Y_phi")
    u = rng.random(size)
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    u /= log(law.alpha)
    counts = np.floor(u, out=u).astype(np.int64)
    del u
    return law.spin.log_products(counts, rng)


def _signed_exp(signs, logs, size):
    """sign * exp(log|Y|), in the log array; a float when size is None."""
    vals = np.exp(logs, out=logs)
    vals *= signs
    return float(vals[0]) if size is None else vals


def sample_Y(law: YLaw, rng: np.random.Generator, size: int | None = None):
    """Y itself (phi = 1): the product of T_alpha i.i.d. spins.

    Route: T by inversion of a uniform, the product of T spins from the
    atom counts (point-mass laws) or from chunked spin draws (continuous
    laws), then sign * exp(log|Y|); see the spin law's `log_products`.  The
    tracemalloc peak is a few arrays of `size` floats plus O(2^18) per
    chunk, at any alpha: 10^6 draws of DeFinettiDiscrete((0.2, 0.9),
    (0.5, 0.5)) at alpha = 0.75 stay under 32 MiB.  With one atom x, log|Y|
    is within half an ulp of T log|x|.
    """
    n = 1 if size is None else size
    return _signed_exp(*sample_Y_signed_log(law, rng, n), size)


def sample_Y_phi(law: YLaw, rng: np.random.Generator, size: int | None = None):
    """Y_phi via the mixed-Poisson construction.

    Draw lambda ~ Gamma(phi), M ~ Poisson(lambda c), multiply M i.i.d.
    spins.  At phi = 1 M is geometric and this is the law of `sample_Y`.
    """
    n = 1 if size is None else size
    lam = rng.gamma(law.phi, size=n)
    counts = rng.poisson(lam * law.c)
    return _signed_exp(*law.spin.log_products(counts.astype(np.int64), rng), size)


# ---------------------------------------------------------------------------
# transforms and sign probabilities


def laplace_neg_log_abs(law: YLaw, theta: float) -> float:
    """Laplace transform E[e^(-theta * (-log|Y_phi|))] = E[|Y_phi|^theta]:

        (1 + c int (1 - |xi|^theta) nu)^(-phi).
    """
    if theta < 0:
        raise DomainError(f"theta must be >= 0, got {theta}")
    _require_no_zero_atoms(law)
    return _resolvent(law, 1.0 - sum(law.spin.abs_moment_split(theta)))


def joint_sign_laplace(law: YLaw, theta: float, sign: int) -> float:
    """E[1{sign(Y_phi) = sign} |Y_phi|^theta] = (h_abs +- h_signed) / 2: E[|Y_phi|^theta]
    and E[sign(Y_phi) |Y_phi|^theta], the resolvents of int |xi|^theta nu and
    int sign(xi) |xi|^theta nu.

    Their deficits d_abs and d_signed differ by 2 nu_-, nu_- the |xi|^theta
    mass on [-1, 0], so the minus sign is taken without subtracting two close
    resolvents: h_abs - h_signed = h_abs (1 - (1 + 2c nu_- / (1 + c d_abs))^(-phi)),
    through expm1 and log1p.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    if theta < 0:
        raise DomainError(f"theta must be >= 0, got {theta}")
    _require_no_zero_atoms(law)
    nu_neg, nu_pos = law.spin.abs_moment_split(theta)
    d_abs = 1.0 - nu_neg - nu_pos
    h_abs = _resolvent(law, d_abs)
    if sign == 1:
        return 0.5 * (h_abs + _resolvent(law, 1.0 - (nu_pos - nu_neg)))
    ratio = 2.0 * law.c * nu_neg / (1.0 + law.c * d_abs)
    return 0.5 * h_abs * -expm1(-law.phi * log1p(ratio))


def sign_probability(law: YLaw, sign: int) -> float:
    """P(Y_phi > 0) or P(Y_phi < 0):

        (1/2) (1 +- (1 + 2c nu_-)^(-phi)),

    the resolvent of int sign(xi) nu = 1 - 2 nu_-, nu_- the spin mass on
    [-1, 0].  A spin atom at 0 puts mass on Y = 0 and raises DomainError.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    _require_no_zero_atoms(law)
    return 0.5 * (1.0 + sign * _resolvent(law, 2.0 * law.spin.abs_moment_split(0.0)[0]))


def _require_no_zero_atoms(law: YLaw):
    if law.spin.has_atom_at_zero():
        raise DomainError("spin measure has an atom at zero")


# ---------------------------------------------------------------------------
# measure evolution and the Green-function tie


@dataclass(frozen=True)
class EvolvedMeasure:
    """psi_t, the product of t i.i.d. spins: the mixture parameter after t unkilled steps."""
    spin: SpinMeasure
    steps: int

    def moment(self, k: int) -> float:
        """E[psi_t^k] = (int xi^k nu)^t."""
        return increments.rho_k(self.spin, k) ** self.steps

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """psi_t by the product engine of `sample_Y` with every row's count t."""
        n = 1 if size is None else size
        counts = np.full(n, self.steps, dtype=np.int64)
        return _signed_exp(*self.spin.log_products(counts, rng), size)


def evolve_measure(spin: SpinMeasure, t: int) -> EvolvedMeasure:
    if t < 0:
        raise DomainError(f"step count must be >= 0, got {t}")
    return EvolvedMeasure(spin, t)


def killed_measure_moments(law: YLaw, ones: int, total: int,
                           method: str = "expansion",
                           rng: np.random.Generator | None = None,
                           draws: int = 200_000) -> float:
    """E[V^n (1-V)^(N-n)] for V = (1 - Y)/2: the killed de Finetti moments.

    Equals (1-alpha) G(x, y) whenever ||x XOR y|| = n in dimension N.  The
    expansion route rewrites the product as 2^-N sum_m coeff_m E[Y^m] with
    integer coefficients; the MC route averages over sampled Y.
    """
    if law.phi != 1.0:
        raise DomainError("killed de Finetti moments are a phi = 1 statement")
    if not 0 <= ones <= total:
        raise DomainError(f"need 0 <= ones <= total, got {ones}, {total}")
    if method == "expansion":
        # (1-Y)^n (1+Y)^(N-n) expanded in powers of Y, exact coefficients
        coeffs = np.zeros(total + 1)
        for i in range(ones + 1):
            for j in range(total - ones + 1):
                coeffs[i + j] += (-1) ** i * comb(ones, i) * comb(total - ones, j)
        moments = np.array([moment_Y(law, m) for m in range(total + 1)])
        return float(np.dot(coeffs, moments)) * 0.5 ** total
    if method == "mc":
        if rng is None:
            raise DomainError("the MC route needs an rng")
        y = sample_Y(law, rng, size=draws)
        v = 0.5 * (1.0 - y)
        return float(np.mean(v ** ones * (1.0 - v) ** (total - ones)))
    raise DomainError(f"unknown method {method!r}")


def killed_green_check(law: YLaw, model, N: int) -> float:
    """Max gap between the moment route and the spectral Green function over levels."""
    spec = GreenSpec(N, model, law.alpha)
    worst = 0.0
    for n in range(N + 1):
        x = (1 << n) - 1
        gap = abs(killed_measure_moments(law, n, N) - green_spectral(spec, 0, x))
        worst = max(worst, gap)
    return worst


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
    if a <= 0:
        raise DomainError(f"shape must be positive, got {a}")
    increments._killing_c(alpha)
    z = abs(zeta)
    if z >= 1.0 or z == 0.0:
        return 0.0
    return (1.0 - alpha) * alpha * (a / 2.0) * z ** (a * (1.0 - alpha) - 1.0)


def beta_fixed_steps_density(a: float, t: int, zeta: float) -> float:
    """Density of the product of exactly t spins under the symmetric Beta(a,1) law.

    (a / 2 Gamma(t)) |z|^(a-1) (-a log|z|)^(t-1), assembled in log space so
    large t neither overflows the power nor the factorial.
    """
    if t < 1:
        raise DomainError(f"step count must be >= 1, got {t}")
    z = abs(zeta)
    if z >= 1.0 or z == 0.0:
        return 0.0
    log_val = log(a / 2.0) + (a - 1.0) * log(z) \
        + (t - 1) * log(-a * log(z)) - gammaln(t)
    return exp(log_val)


def beta_killed_product_sample(a: float, b: int, alpha: float,
                               rng: np.random.Generator,
                               size: int | None = None):
    """Killed product for symmetric Beta(a, b) spins, integer b >= 1.

    For fixed T = t >= 1 the magnitude is exp(-sum_{j=0}^{b-1} U_j/(a+j))
    with U_j i.i.d. Gamma(t); the sign is an independent fair coin.  T = 0
    returns +1 (origin start).
    """
    if b < 1 or b != int(b):
        raise DomainError(f"b must be a positive integer, got {b}")
    increments._killing_c(alpha)
    n = 1 if size is None else size
    u = 1.0 - rng.random(n)
    t = np.floor(np.log(u) / log(alpha))
    log_mag = np.zeros(n)
    for j in range(int(b)):
        log_mag -= rng.gamma(np.where(t > 0, t, 1.0)) / (a + j)
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    vals = np.where(t == 0, 1.0, signs * np.exp(log_mag))
    return float(vals[0]) if size is None else vals
