"""Level-set sums, their central-limit scaling, and the complex transform.

Summing the field over Hamming spheres gives a Gaussian vector theta_v with

    Cov(theta_u, theta_v) = binom(N,u) binom(N,v) 2^-N
                            [1 + sum_k E[Y^k] binom(N,k) Q_k(u) Q_k(v)].

Scaled by (1/2) sqrt(N / 2^N) and indexed near N/2 + (sqrt(N)/2) t, the
level sets converge to the stationary-grid process

    kappa_t = (2 pi)^(-1/2) e^(-t^2/2) sum_k m_k H_k(t) zeta_k / sqrt(k!),

where m_k = E[Y_{1/2}^k] and Cov(kappa_t, kappa_s) = E[n(t, s; Y)] with n
the standard bivariate normal density mixed over the correlation Y,
E[Y^k] = m_k^2.  The Fourier transform kappa_hat has covariance
e^{-(theta^2+phi^2)/2} E[e^{theta phi Y}]; its real and imaginary parts
carry the even and odd spectral blocks.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import comb, exp, lgamma, log, pi, sqrt
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import IntegrationWarning, quad as _scipy_quad

from .errors import DomainError, NumericError
from .field import FieldSample
from .polynomials import (EXACT_N_LIMIT, hermite_weighted_all,
                          krawtchouk_weighted_matrix)
from .increments import SingleFlip
from .walk import GreenSpec
from .walsh import popcounts

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-13, limit=400)


def quad(fn, lo, hi, **opts):
    """scipy.integrate.quad at tight tolerance, roundoff chatter silenced.

    The endpoint-singular mixture integrands trip QAGS's roundoff warning
    while still returning ~1e-13 accuracy; correctness is asserted by the
    test suite on values, not warnings.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return _scipy_quad(fn, lo, hi, **opts)

TRUNCATION_STEP = 8
TRUNCATION_REL_TOL = 1e-10
TRUNCATION_CAP = 512
_HERMITE_ENVELOPE = 1.1  # sup_k k^(1/4) |H_k(t)| e^(-t^2/4) / sqrt(k!) is below this


# ---------------------------------------------------------------------------
# correlation-mixture laws


@dataclass(frozen=True)
class FixedCorrelation:
    """Y identically equal to a constant in (-1, 1]."""
    value: float

    def __post_init__(self):
        if not -1.0 < self.value <= 1.0:
            raise DomainError(f"correlation must lie in (-1, 1], got {self.value}")

    def moment(self, k: int) -> float:
        return self.value ** k

    def expect(self, fn: Callable[[float], float]) -> float:
        return float(fn(self.value))

    def gap_laplace(self, lam: float) -> float:
        """E[e^(-lam (1 - Y))]."""
        return exp(-lam * (1.0 - self.value))

    def scaled_exp_moment(self, x: float, log_scale: float) -> float:
        """e^log_scale E[e^(xY)] with the exponents combined (no overflow)."""
        return exp(log_scale + x * self.value)

    def describe(self) -> str:
        return f"Y = {self.value}"


@dataclass(frozen=True)
class VanishingKillingY:
    """Y with density (gamma/2) y^(gamma/2 - 1) on (0, 1).

    The limit law of the killed-product variable when the killing rate
    scales like gamma/N; moments E[Y^k] = 1 / (1 + 2k/gamma).
    """
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")

    def moment(self, k: int) -> float:
        return 1.0 / (1.0 + 2.0 * k / self.gamma)

    def expect(self, fn: Callable[[float], float]) -> float:
        g = self.gamma
        val = quad(lambda y: fn(y) * (g / 2.0) * y ** (g / 2.0 - 1.0), 0.0, 1.0,
                   **_QUAD_OPTS)[0]
        return float(val)

    def gap_laplace(self, lam: float) -> float:
        """E[e^(-lam (1 - Y))], robust for large lam.

        For lam beyond O(1) the mass sits in a width-1/lam layer at y = 1
        that generic adaptive quadrature can miss entirely; substituting
        s = lam (1-y) makes the integrand O(1) on a fixed window:

            E[e^(-lam(1-Y))] = (g/2lam) int_0^lam (1 - s/lam)^(g/2-1) e^(-s) ds.
        """
        if lam < 0:
            raise DomainError(f"lam must be >= 0, got {lam}")
        if lam <= 1.0:
            return self.expect(lambda y: exp(-lam * (1.0 - y)))
        g = self.gamma
        hi = min(lam, 60.0 + g)
        val = quad(lambda s: (1.0 - s / lam) ** (g / 2.0 - 1.0) * exp(-s),
                   0.0, hi, **_QUAD_OPTS)[0]
        return g / (2.0 * lam) * float(val)

    def scaled_exp_moment(self, x: float, log_scale: float) -> float:
        """e^log_scale E[e^(xY)] with the exponents combined (no overflow)."""
        if x > 0:
            return exp(log_scale + x) * self.gap_laplace(x)
        return exp(log_scale) * self.expect(lambda y: exp(x * y))

    def describe(self) -> str:
        return f"Y ~ (gamma/2) y^(gamma/2-1), gamma = {self.gamma}"


@dataclass(frozen=True)
class MomentOnlyY:
    """A moment sequence E[Y^k] with no usable density (series routes only)."""
    moments: Callable[[int], float]
    label: str = "moment sequence"

    def moment(self, k: int) -> float:
        return float(self.moments(k))

    def expect(self, fn):
        raise DomainError(f"{self.label} provides moments only, no mixture expectations")

    def gap_laplace(self, lam):
        raise DomainError(f"{self.label} provides moments only, no mixture expectations")

    def scaled_exp_moment(self, x, log_scale):
        raise DomainError(f"{self.label} provides moments only, no mixture expectations")

    def describe(self) -> str:
        return self.label


def mixture_from_model(model) -> "CorrelationMixture":
    """The correlation-mixture law attached to a limit-regime increment model."""
    if not model.is_limit:
        raise DomainError(f"{type(model).__name__} is not a limit-regime model")
    return model.mixture()


def mixture_from_product_law(law) -> MomentOnlyY:
    """Moment adapter for a finite-killing product law (pointproc.YLaw).

    Such laws keep correlation mass at 1 (the no-jump event), so the
    admissibility check in build_kappa_spec rejects them with a pointer to
    the limit-regime laws; the adapter exists so that rejection is reachable
    through the public API.
    """
    from .pointproc import moment_Y
    return MomentOnlyY(lambda k: moment_Y(law, k),
                       label=f"finite-killing product law (alpha = {law.alpha})")


CorrelationMixture = FixedCorrelation | VanishingKillingY | MomentOnlyY


# ---------------------------------------------------------------------------
# level sets at finite N


def levelset_direct(sample: FieldSample) -> np.ndarray:
    """theta_v = sum of field values over each Hamming sphere, v = 0..N."""
    if not sample.is_full_cube():
        raise DomainError("level sets need a full-hypercube sample")
    return np.bincount(popcounts(sample.N), weights=sample.values,
                       minlength=sample.N + 1)


def levelset_representation(spec: GreenSpec, zetas: np.ndarray) -> np.ndarray:
    """Level sets from N+1 independent normals (exchangeable models):

        theta_v = binom(N,v) 2^(-N/2) [zeta_0 +
                  sum_k (1+c(1-rho_k))^(-1/2) sqrt(binom(N,k)) Q_k(v) zeta_k].
    """
    zetas = np.asarray(zetas, dtype=float)
    if zetas.shape != (spec.N + 1,):
        raise DomainError(f"need {spec.N + 1} normals, got shape {zetas.shape}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked by _finite
            theta = _representation_matrix(spec) @ zetas
    except OverflowError as err:  # binom(N, v) itself is past the float range
        raise NumericError(f"binom({spec.N}, v) is past the float range") from err
    return _finite(theta, "level-set representation", spec.N)


def _representation_matrix(spec: GreenSpec, dtype=np.float64) -> np.ndarray:
    """B with theta = B zeta; row v, column k."""
    N = spec.N
    m = np.sqrt(spec.weights.astype(dtype))
    half = dtype(2.0) ** dtype(-N / 2.0)
    pref = np.array([comb(N, v) for v in range(N + 1)], dtype=dtype) * half
    # row v is binom(N,v) 2^(-N/2) m_k sqrt(binom(N,k)) Q_k(v)
    return pref[:, None] * m[None, :] * krawtchouk_weighted_matrix(N, dtype)


def levelset_cov(spec: GreenSpec, u: int, v: int) -> float:
    """Cov(theta_u, theta_v) in closed form (exchangeable models)."""
    return float(levelset_cov_matrix(spec)[u, v])


def levelset_cov_matrix(spec: GreenSpec, dtype=np.float64) -> np.ndarray:
    """All level-set covariances at once.

    Computed as binom(N,u) binom(N,v) 2^-N sum_k E[Y^k] r_k(u) r_k(v) with
    r_k = sqrt(binom(N,k)) Q_k.  The sum alternates in sign, so rows near
    the edges (u near 0 or N) lose their digits past N ~ 50 (README, "Size
    caps"); past N ~ 1050 the result leaves the float range.
    """
    N = spec.N
    w = spec.weights.astype(dtype)  # E[Y^k], k = 0..N
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _finite
        rows = krawtchouk_weighted_matrix(N, dtype)
        if N <= EXACT_N_LIMIT:
            pref = np.array([comb(N, v) for v in range(N + 1)], dtype=dtype) \
                * dtype(2.0) ** dtype(-N / 2.0)
        else:
            pref = np.exp(np.array([_log_binom(N, v) for v in range(N + 1)])
                          - N * log(2.0) / 2.0).astype(dtype)
        cov = pref[:, None] * pref[None, :] * ((rows * w) @ rows.T)
    return _finite(cov, "level-set covariance", N)


def _log_binom(N: int, v: int) -> float:
    return lgamma(N + 1) - lgamma(v + 1) - lgamma(N - v + 1)


def _finite(values: np.ndarray, what: str, N: int) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise NumericError(f"the {what} at N={N} is past the float range")
    return values


# ---------------------------------------------------------------------------
# the limit process kappa


@dataclass(frozen=True)
class KappaSpec:
    """A truncated spectral description of the limit process on a t-grid."""
    ylaw: CorrelationMixture
    grid: tuple
    order: int
    tail_bound: float

    @property
    def half_moments(self) -> np.ndarray:
        return np.sqrt([self.ylaw.moment(k) for k in range(self.order + 1)])

    @cached_property
    def basis(self) -> np.ndarray:
        """(2 pi)^(-1/2) e^(-t^2/2) m_k H_k(t) / sqrt(k!): rows t in the grid,
        columns k = 0..order, so kappa over the grid is basis @ zeta."""
        t = np.array(self.grid)
        envelope = np.exp(-0.5 * t * t) / sqrt(2.0 * pi)
        return envelope[:, None] * self.half_moments * hermite_weighted_all(self.order, t)


def build_kappa_spec(ylaw: CorrelationMixture, grid) -> KappaSpec:
    """Pick the truncation order by the variance-increment rule.

    Raise the order in steps of TRUNCATION_STEP until the variance added over
    the whole grid drops below TRUNCATION_REL_TOL relatively, hard cap
    TRUNCATION_CAP, and record an envelope bound on the remaining tail.
    Moment sequences that do not vanish (a correlation atom at 1) are
    rejected: the series variance diverges.
    """
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise DomainError("the evaluation grid is empty")
    if ylaw.moment(4096) > 1e-2:
        raise DomainError(
            f"inadmissible moment sequence for {ylaw.describe()}: E[Y^k] does not vanish "
            "(correlation mass at 1); use a limit-regime law")
    mk = np.array([ylaw.moment(k) for k in range(TRUNCATION_CAP + 1)])
    terms = mk * hermite_weighted_all(TRUNCATION_CAP, grid) ** 2  # rows t, columns k
    starts = np.arange(1, TRUNCATION_CAP + 1, TRUNCATION_STEP)  # first degree of each step
    ends = np.minimum(starts + TRUNCATION_STEP - 1, TRUNCATION_CAP)
    inc = np.add.reduceat(terms, starts, axis=1)
    var = np.cumsum(np.hstack([terms[:, :1], inc]), axis=1)[:, 1:]  # variance after each step
    below = np.flatnonzero((inc / var).max(axis=0) < TRUNCATION_REL_TOL)
    order = int(ends[below[0]] if below.size else ends[-1])
    return KappaSpec(ylaw, grid, order, _series_tail_bound(ylaw, order))


def _series_tail_bound(ylaw, order: int, horizon: int = 1 << 20) -> float:
    """Envelope bound on the truncated part of the covariance series at (0, 0).

    Uses |H_k(t)| e^(-t^2/4) / sqrt(k!) <= 1.1 k^(-1/4), so the dropped mass
    is at most (1.1^2 / 2 pi) sum_{k > order} M_k k^(-1/2); the sum is taken
    over a geometric knot grid (M_k is nonincreasing) plus a ~1/k-decay
    extension past the horizon.
    """
    knots = np.unique(np.geomspace(order + 1, horizon, 512).astype(np.int64))
    mk = np.array([ylaw.moment(int(k)) for k in knots])
    total = 0.0
    for i, lo in enumerate(knots):
        hi = knots[i + 1] if i + 1 < len(knots) else horizon + 1
        total += mk[i] * float(lo) ** -0.5 * float(hi - lo)
    total += 2.0 * mk[-1] * sqrt(float(horizon))
    return _HERMITE_ENVELOPE ** 2 * total / (2.0 * pi)


def kappa_sample(spec: KappaSpec, zetas: np.ndarray) -> np.ndarray:
    """kappa_t over the grid from one shared normal vector zeta_0..zeta_K."""
    zetas = np.asarray(zetas, dtype=float)
    if zetas.shape != (spec.order + 1,):
        raise DomainError(f"need {spec.order + 1} normals, got shape {zetas.shape}")
    return spec.basis @ zetas


def kappa_sample_split(spec: KappaSpec, zetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(even-order part, odd-order part) of kappa over the grid, same zetas."""
    zetas = np.asarray(zetas, dtype=float)
    return spec.basis[:, 0::2] @ zetas[0::2], spec.basis[:, 1::2] @ zetas[1::2]


def bivariate_normal_density(t: float, s: float, rho: float) -> float:
    """Standard bivariate normal density with correlation rho."""
    if not -1.0 < rho < 1.0:
        raise DomainError(f"correlation must lie in (-1, 1), got {rho}")
    q = (t * t - 2.0 * rho * t * s + s * s) / (1.0 - rho * rho)
    return exp(-0.5 * q) / (2.0 * pi * sqrt(1.0 - rho * rho))


def kappa_cov(ylaw: CorrelationMixture, t: float, s: float,
              method: str = "series", order: int = TRUNCATION_CAP) -> float:
    """Cov(kappa_t, kappa_s) by either route.

    series:  (1/2pi) e^(-(t^2+s^2)/2) sum_{k<=order} E[Y^k] H_k(t) H_k(s) / k!
    mixture: E[n(t, s; Y)] over the correlation law (needs a density/atom law).

    The two agree exactly in the limit (the bivariate-normal kernel is the
    closed form of the full series); truncation error of the series route is
    bounded by the spec tail bound and decays only like order^(-1/2) for
    moment sequences with M_k ~ 1/k.
    """
    if method == "mixture":
        return float(ylaw.expect(lambda y: bivariate_normal_density(t, s, y)))
    if method != "series":
        raise DomainError(f"unknown method {method!r}")
    ht, hs = hermite_weighted_all(order, [t, s])
    mk = np.array([ylaw.moment(k) for k in range(order + 1)])
    return exp(-0.5 * (t * t + s * s)) / (2.0 * pi) * float(np.dot(mk, ht * hs))


# ---------------------------------------------------------------------------
# finite-N to limit comparison


def scaled_levelset_cov(N: int, gamma: float, t: float, s: float) -> float:
    """Covariance of (1/2) sqrt(N/2^N) theta_{floor(N/2 + sqrt(N)/2 t)} for the
    simple walk with killing alpha_N = 1 - gamma/N."""
    u = int(N / 2 + sqrt(N) / 2 * t)
    v = int(N / 2 + sqrt(N) / 2 * s)
    if not (0 <= u <= N and 0 <= v <= N):
        raise DomainError(f"scaled index out of range: t={t}, s={s} at N={N}")
    w = GreenSpec(N, SingleFlip(), 1.0 - gamma / N).weights  # E[Y^k] at finite N
    R = krawtchouk_weighted_matrix(N)
    ru, rv = R[u], R[v]
    pref_u = sqrt(N) / 2.0 * exp(_log_binom(N, u) - N * log(2.0))
    pref_v = sqrt(N) / 2.0 * exp(_log_binom(N, v) - N * log(2.0))
    return pref_u * pref_v * float(np.dot(w, ru * rv))


def levelset_clt_check(gamma: float, dims, t_grid) -> dict:
    """Sup over grid pairs of |finite-N scaled covariance - E[n(t,s;Y)]| per N."""
    ylaw = VanishingKillingY(gamma)
    t_grid = [float(t) for t in t_grid]
    limit = {(t, s): kappa_cov(ylaw, t, s, method="mixture")
             for t in t_grid for s in t_grid}
    gaps = {}
    for N in dims:
        worst = 0.0
        for t in t_grid:
            for s in t_grid:
                worst = max(worst, abs(scaled_levelset_cov(N, gamma, t, s) - limit[(t, s)]))
        gaps[int(N)] = worst
    return gaps


# ---------------------------------------------------------------------------
# the complex transform


class TransformCov(NamedTuple):
    full: float       # e^{-(theta^2+phi^2)/2} E[e^{theta phi Y}]
    even_part: float  # same prefactor, E[cosh(..)]: Cov(U_theta, U_phi)
    odd_part: float   # same prefactor, E[sinh(..)]: Cov(V_theta, V_phi)


def transform_cov(ylaw: CorrelationMixture, theta: float, phi: float) -> TransformCov:
    """Covariances of the transform and of its even/odd (real/imaginary) parts.

    The prefactor e^{-(theta^2+phi^2)/2} and the expectation are combined in
    the exponent (their product stays bounded even when each side overflows).
    """
    log_pref = -0.5 * (theta * theta + phi * phi)
    x = theta * phi
    plus = float(ylaw.scaled_exp_moment(x, log_pref))
    minus = float(ylaw.scaled_exp_moment(-x, log_pref))
    return TransformCov(plus, 0.5 * (plus + minus), 0.5 * (plus - minus))


def transform_weight_matrices(spec: KappaSpec, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Series weights of (U_theta, V_theta) for a whole theta grid at once.

    The weight on zeta_j is w_j = e^{-theta^2/2} m_j (i theta)^j / sqrt(j!):
    U holds the real even-j weights (column k for zeta_{2k}), V the imaginary
    odd-j ones (zeta_{2k+1}); rows are theta values.  The moduli are one exp
    of the log-modulus j log|theta| - log(j!)/2 - theta^2/2, so no factor
    over- or underflows on its own; the signs go on afterwards, and theta = 0
    is set exactly to U = (m_0, 0, ...), V = 0.
    """
    from scipy.special import gammaln
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if not np.all(np.isfinite(thetas)):
        raise DomainError("transform weights need finite theta values")
    m = spec.half_moments
    j = np.concatenate([np.arange(0, spec.order + 1, 2), np.arange(1, spec.order + 1, 2)])
    n_even = (spec.order + 2) // 2
    size = np.abs(thetas)
    zero = size == 0.0
    W = np.multiply.outer(np.log(np.where(zero, 1.0, size)), j)
    W -= 0.5 * gammaln(j + 1.0)
    W -= (0.5 * thetas * thetas)[:, None]
    np.exp(W, out=W)
    W *= np.where(j // 2 % 2 == 0, 1.0, -1.0) * m[j]
    W[thetas < 0.0, n_even:] *= -1.0
    W[zero] = 0.0
    W[zero, 0] = m[0]
    return W[:, :n_even], W[:, n_even:]


def transform_weights(spec: KappaSpec, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Series weights (u_k on zeta_{2k}, v_k on zeta_{2k+1}) at one theta."""
    U, V = transform_weight_matrices(spec, [theta])
    return U[0], V[0]


def transform_sample(spec: KappaSpec, zetas: np.ndarray, theta_grid) -> tuple[np.ndarray, np.ndarray]:
    """(U_theta, V_theta) over a theta grid from one shared zeta vector."""
    zetas = np.asarray(zetas, dtype=float)
    if zetas.shape != (spec.order + 1,):
        raise DomainError(f"need {spec.order + 1} normals, got shape {zetas.shape}")
    U, V = transform_weight_matrices(spec, theta_grid)
    return U @ zetas[0::2], V @ zetas[1::2]


def transform_sample_batch(spec: KappaSpec, zetas: np.ndarray,
                           theta: float) -> tuple[np.ndarray, np.ndarray]:
    """(U, V) at a single theta for a (replicates, order+1) matrix of zetas."""
    zetas = np.asarray(zetas, dtype=float)
    if zetas.ndim != 2 or zetas.shape[1] != spec.order + 1:
        raise DomainError(f"need (replicates, {spec.order + 1}) normals, "
                          f"got shape {zetas.shape}")
    u, v = transform_weights(spec, float(theta))
    return zetas[:, 0::2] @ u, zetas[:, 1::2] @ v


def inversion_check(spec: KappaSpec, zetas: np.ndarray, t,
                    theta_max: float | None = None, nodes: int = 8192) -> float | np.ndarray:
    """|(1/2pi) integral e^{-i theta t} kappa_hat_theta dtheta  -  kappa_t|.

    kappa_hat = U + iV comes from the same zetas as kappa_t.  U is even in
    theta and V odd, so the integral is (1/pi) times the trapezoid rule for
    U cos(theta t) + V sin(theta t) on nodes // 2 + 1 points of
    [0, theta_max].  One transform serves every t: a float t gives a float,
    a 1-D sequence an array.  The window must cover the highest retained
    order (the k-th basis function peaks near theta = sqrt(k)), so
    theta_max defaults to sqrt(2 order) + 8.
    """
    if nodes < 2:
        raise DomainError(f"the inversion needs at least 2 nodes, got {nodes}")
    theta_max = sqrt(2.0 * spec.order) + 8.0 if theta_max is None else theta_max
    if not (np.isfinite(theta_max) and theta_max > 0.0):
        raise DomainError(f"theta_max must be finite and positive, got {theta_max}")
    ts = np.asarray(t, dtype=float)
    grid = np.atleast_1d(ts)
    thetas = np.linspace(0.0, theta_max, nodes // 2 + 1)
    U, V = transform_sample(spec, zetas, thetas)
    phase = np.multiply.outer(grid, thetas)
    integral = np.trapezoid(np.cos(phase) * U + np.sin(phase) * V, thetas) / pi
    basis = KappaSpec(spec.ylaw, tuple(grid.tolist()), spec.order, spec.tail_bound).basis
    # row sums rather than a BLAS product, so each residual is the same float
    # whichever other t share the call
    residuals = np.abs(integral - (basis * zetas).sum(axis=1))
    return float(residuals[0]) if ts.ndim == 0 else residuals


def parseval_check(ylaw: CorrelationMixture) -> tuple[float, float]:
    """(quadrature of integral e^{-theta^2} E[e^{theta^2 Y}] dtheta,
        closed form E[sqrt(pi / (1 - Y))]).

    The two sides of the transform-plane energy identity.  The integrand
    e^{-theta^2} E[e^{theta^2 Y}] = E[e^{-theta^2 (1-Y)}] decays only
    algebraically when Y charges the neighbourhood of 1, hence the
    boundary-layer-aware gap_laplace evaluation.
    """
    rhs = float(ylaw.expect(_inv_sqrt_gap))
    if not np.isfinite(rhs):
        raise DomainError("E[1/sqrt(1-Y)] diverges: correlation mass at 1")
    lhs = 2.0 * quad(lambda th: ylaw.gap_laplace(th * th), 0.0, np.inf, **_QUAD_OPTS)[0]
    return lhs, rhs


def _inv_sqrt_gap(y: float) -> float:
    if y >= 1.0:
        return np.inf
    return sqrt(pi / (1.0 - y))


def parseval_time_side(ylaw: CorrelationMixture) -> tuple[float, float]:
    """(quadrature of integral Var(kappa_s) ds, closed form (1/(2 sqrt(pi))) E[(1-Y)^(-1/2)]).

    The direct-plane energy; equals the transform-plane value divided by 2 pi.
    """
    closed = float(ylaw.expect(lambda y: 1.0 / (2.0 * sqrt(pi) * sqrt(1.0 - y))
                               if y < 1.0 else np.inf))
    if not np.isfinite(closed):
        raise DomainError("E[1/sqrt(1-Y)] diverges: correlation mass at 1")
    quadval = 2.0 * quad(lambda s: kappa_cov(ylaw, s, s, method="mixture"),
                         0.0, np.inf, **_QUAD_OPTS)[0]
    return quadval, closed
