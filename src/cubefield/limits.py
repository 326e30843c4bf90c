"""Level-set sums, their central-limit scaling, and the complex transform.

Summing the field over Hamming spheres gives a Gaussian vector theta_v with

    Cov(theta_u, theta_v) = binom(N,u) binom(N,v) 2^-N
                            [1 + sum_k E[Y^k] binom(N,k) Q_k(u) Q_k(v)].

The sum alternates in sign: the covariances and the CLT scaling read binom(N,u) R[u, v]
instead, R the killed law of the Hamming level (walk.GreenSpec.level_resolvent), and the
representation from N+1 normals reads krawtchouk_matrix.

Scaled by (1/2) sqrt(N / 2^N) and indexed near N/2 + (sqrt(N)/2) t, the
level sets converge to the stationary-grid process

    kappa_t = (2 pi)^(-1/2) e^(-t^2/2) sum_k m_k H_k(t) zeta_k / sqrt(k!),

where m_k = E[Y_{1/2}^k] and Cov(kappa_t, kappa_s) = E[n(t, s; Y)] with n
the standard bivariate normal density mixed over the correlation Y,
E[Y^k] = m_k^2.  The Fourier transform kappa_hat has covariance
e^{-(theta^2+phi^2)/2} E[e^{theta phi Y}]; its real and imaginary parts
carry the even and odd spectral blocks.

A correlation law here is a law, not a moment sequence: FixedCorrelation
(a constant in (-1, 1)) or VanishingKillingY (the Beta(gamma/2, 1) limit of
the killed product).  Each gives the mixture covariance, the transform and
Parseval's identity finite values.  The series of kappa needs the real
m_k = E[Y^k]^(1/2), so a law with a negative moment (a FixedCorrelation
below 0) has no limit process, and build_kappa_spec and a spec's
half_moments raise DomainError for it; the Poisson-Dirichlet regime, whose
moments decay only like 1/log k, has none either and is refused where its
law would be built (LimitPoissonDirichlet.mixture).

A moment table is one moment(k) call on an integer array of k; every
expectation E[fn(Y, 1 - Y)] goes through expect, and every exponential
moment (both signs of the transform covariance, Parseval's integrand)
through gap_laplace.  For VanishingKillingY each is one call of the numpy
Gauss-Kronrod rule quadrature.quad, with the law's endpoint singularities
substituted away first (the rule has no extrapolation).
"""

from dataclasses import dataclass
from functools import cache, cached_property
from math import ceil, exp, fsum, log, pi, sqrt
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NumericError
from .field import FieldSample
from .polynomials import hermite_functions, krawtchouk_matrix
from .increments import SingleFlip, _positive
from .quadrature import quad
from .walk import GreenSpec, _level_columns, green_hamming
from .walsh import _split_bits, popcounts

TRUNCATION_STEP = 8
TRUNCATION_REL_TOL = 1e-10
TRUNCATION_CAP = 512
_HERMITE_ENVELOPE = 1.1  # sup_k k^(1/4) |H_k(t)| e^(-t^2/4) / sqrt(k!) is below this
_TAIL_HORIZON = 1 << 20  # the tail bound sums knots up to here, then a 1/k-decay extension
# e^(-lam x) < 4e-18 past x = 40/lam: the gap layer that carries every float digit
_GAP_LAYER = 40.0
# below this width in v = sqrt(1 - y), a layer of the integrand at y = 1 falls
# short of the nearest node of the rule's first round (v = 3.8e-4), so no
# round sees it; expect splits v at such a layer.  Below the floor the layer
# holds a share of the integral far under one ulp (and v^2 would underflow)
_LAYER_REACH = 3.8e-4
_LAYER_FLOOR = 1e-100
# inversion_check takes |t| <= _INVERSION_WINDOW.  Its trapezoid rule with step
# h errs only by kappa at t +- 2 pi / h, the rule's aliases (Trefethen and
# Weideman, SIAM Review 56, 2014), and past |s| = _KAPPA_REACH each term of
# kappa_s is below 1.09 e^(-s^2/4) |zeta_k| < 5e-19 |zeta_k|: a step with
# 2 pi / h >= _INVERSION_WINDOW + _KAPPA_REACH keeps the window alias-free
_INVERSION_WINDOW = 16.0
_KAPPA_REACH = 13.0
# grid pairs per batch integral of the CLT check: a round that splits up to
# 190 panels stays within quadrature.quad's 2^21 integrand values
_PAIR_BATCH = 256
# log 2 = _LN2_HI + _LN2_LO to 2e-26 relative; _LN2_HI has 32 significant
# bits, so s * _LN2_HI is exact for s < 2^21
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")


# ---------------------------------------------------------------------------
# correlation-mixture laws


@dataclass(frozen=True)
class FixedCorrelation:
    """Y identically equal to a constant in (-1, 1); Y = 1 has no limit process."""
    value: float

    def __post_init__(self):
        if not -1.0 < self.value < 1.0:
            raise DomainError(f"correlation must lie in (-1, 1), got {self.value}")

    def moment(self, k):
        return self.value ** k

    def expect(self, fn: Callable, layer: float = 0.0) -> float:
        """E[fn(Y, 1 - Y)]; a point mass has no layer at y = 1 to resolve,
        so layer is not read."""
        return float(fn(self.value, 1.0 - self.value))

    def gap_laplace(self, lam, log_scale=0.0):
        """e^log_scale E[e^(-lam (1 - Y))], as for VanishingKillingY."""
        lam, log_scale = _exp_moment_args(lam, log_scale)
        return np.exp(log_scale - lam * (1.0 - self.value))

    def describe(self) -> str:
        return f"Y = {self.value}"


@dataclass(frozen=True)
class VanishingKillingY:
    """Y with density (gamma/2) y^(gamma/2 - 1) on (0, 1).

    The limit law of the killed-product variable when the killing rate
    scales like gamma/N; moments E[Y^k] = 1 / (1 + 2k/gamma).  Its
    expectations split at y = 1/2, and each half is substituted so that the
    quadrature sees no endpoint singularity the law puts there.
    """
    gamma: float

    def __post_init__(self):
        _positive(gamma=self.gamma)

    def moment(self, k):
        return 1.0 / (1.0 + 2.0 * k / self.gamma)

    def _below_half(self, w):
        """Nodes y and weights of the part y < 1/2, from w in [0, 1].

        y = u^p with the integer p = ceil(6/gamma) turns the density into
        (gamma p/2) u^(gamma p/2 - 1), a power of at least 2, and keeps an
        integrand that is smooth in y smooth in u."""
        g = self.gamma
        p = ceil(6.0 / g)
        end = 0.5 ** (1.0 / p)
        u = end * w
        return u ** p, end * (0.5 * g * p) * u ** (0.5 * g * p - 1.0)

    def expect(self, fn: Callable, layer: float = 0.0):
        """E[fn(Y, 1 - Y)] for an fn that takes arrays.

        fn may return a batch of integrands, shape batch + its argument's
        shape; they share one subdivision and the result is an array.
        Below y = 1/2 as in _below_half.  Above it, y = 1 - v^2 hands fn the
        gap 1 - y = v^2 exactly, and the Jacobian 2v cancels a (1 - y)^(-1/2)
        singularity at y = 1.  layer is the width in v of a layer that fn
        has at y = 1 (the mixture density's e^(-(t-s)^2 / 4v^2)).  Between
        _LAYER_FLOOR and _LAYER_REACH the rule would miss it, so v is split:
        v = layer w on [0, layer], and v = layer (end/layer)^w on the rest,
        where the layer's tail decays on the scale of v itself.  All parts
        are scaled onto [0, 1] and integrated as one sum, to one tolerance.
        """
        g = self.gamma
        end = sqrt(0.5)

        def above(v, dv):  # the part y > 1/2 at the nodes v, with dv = dv/dw
            gap = v * v
            return dv * g * v * (1.0 - gap) ** (0.5 * g - 1.0) * fn(1.0 - gap, gap)

        if _LAYER_FLOOR < layer < _LAYER_REACH:
            rate = log(end / layer)

            def integrand(w):
                y, weight = self._below_half(w)
                v = layer * np.exp(rate * w)
                return weight * fn(y, 1.0 - y) + above(layer * w, layer) + above(v, rate * v)
        else:
            def integrand(w):
                y, weight = self._below_half(w)
                return weight * fn(y, 1.0 - y) + above(end * w, end)

        value = quad(integrand, 0.0, 1.0)[0]
        return float(value) if value.ndim == 0 else value

    def gap_laplace(self, lam, log_scale=0.0):
        """e^log_scale E[e^(-lam (1 - Y))] for finite real lam (floats, or
        arrays that broadcast), log_scale folded into the exponent so that a
        caller can keep it bounded where e^(-lam (1 - Y)) alone overflows.

        Below y = 1/2 as in _below_half.  Above it the gap x = 1 - y is
        scaled to x = h w with h = min(1/2, 40/lam): the layer of width 1/lam
        at y = 1, which a fixed subdivision would miss at large lam, then
        spans a fixed share of w in [0, 1], so one subdivision serves every
        lam of an array, and past x = 40/lam the factor e^(-lam x) < 4e-18
        carries no digit.  lam <= 80, negative lam included, has h = 1/2.
        """
        lam, log_scale = _exp_moment_args(lam, log_scale)
        g = self.gamma
        h = 0.5 / np.maximum(1.0, lam / (2.0 * _GAP_LAYER))
        lam, h, log_scale = lam[..., None, None], h[..., None, None], log_scale[..., None, None]

        def integrand(w):
            y, weight = self._below_half(w)
            x = h * w
            return (weight * np.exp(log_scale - lam * (1.0 - y))
                    + 0.5 * g * h * np.exp(log_scale - lam * x) * (1.0 - x) ** (0.5 * g - 1.0))

        value = quad(integrand, 0.0, 1.0)[0]
        return float(value) if value.ndim == 0 else value

    def describe(self) -> str:
        return f"Y ~ (gamma/2) y^(gamma/2-1), gamma = {self.gamma}"


CorrelationMixture = FixedCorrelation | VanishingKillingY


def _exp_moment_args(lam, log_scale):
    """gap_laplace's lam (finite) and log_scale (below +inf) as float arrays."""
    lam, log_scale = np.asarray(lam, dtype=float), np.asarray(log_scale, dtype=float)
    if not (np.isfinite(lam) & (log_scale < np.inf)).all():
        raise DomainError(f"lam must be finite and log_scale < inf, got {lam}, {log_scale}")
    return lam, log_scale


# ---------------------------------------------------------------------------
# level sets at finite N


def levelset_direct(sample: FieldSample) -> np.ndarray:
    """theta_v = sum of field values over each Hamming sphere, v = 0..N.

    With x = (h, l) split as walsh splits its tables, the sums over |h| = i,
    |l| = j are onehot_H^T X onehot_L, X the values viewed as (2^H, 2^L), and
    theta_v adds their anti-diagonal i + j = v.
    """
    if not sample.is_full_cube():
        raise DomainError("level sets need a full-hypercube sample")
    high, low = _split_bits(sample.N)
    onehot_high, onehot_low = (np.eye(n + 1)[popcounts(n)] for n in (high, low))
    by_sizes = onehot_high.T @ (sample.values.reshape(1 << high, 1 << low) @ onehot_low)
    return np.bincount(np.add.outer(np.arange(high + 1), np.arange(low + 1)).ravel(),
                       weights=by_sizes.ravel())


def levelset_representation(spec: GreenSpec, zetas: np.ndarray) -> np.ndarray:
    """Level sets from N+1 independent normals (exchangeable models):

        theta_v = binom(N,v) 2^(-N/2) [zeta_0 +
                  sum_k (1+c(1-rho_k))^(-1/2) sqrt(binom(N,k)) Q_k(v) zeta_k],

    formed as binom(N,v) Q_k(v) times m_k sqrt(binom(N,k) 2^-N): no product overflows.
    """
    zetas = np.asarray(zetas, dtype=float)
    if zetas.shape != (spec.N + 1,):
        raise DomainError(f"need {spec.N + 1} normals, got shape {zetas.shape}")
    B = _binomials(spec)[:, None] * krawtchouk_matrix(spec.N)
    B *= spec.half_weights * np.sqrt(spec.binom_pmf)
    theta = B @ zetas
    if not np.isfinite(theta).all():
        raise NumericError(f"the level-set representation at N={spec.N} is past the float range")
    return theta


def levelset_cov(spec: GreenSpec, u: int, v: int) -> float:
    """Cov(theta_u, theta_v) = binom(N,u) green_hamming(spec, u, v), as in levelset_cov_matrix."""
    return float(green_hamming(spec, u, v) * _binomials(spec)[u])


def levelset_cov_matrix(spec: GreenSpec) -> np.ndarray:
    """All level-set covariances, binom(N,u) R[u, v] with R = spec.level_resolvent
    (exchangeable models): each entry is accurate relative to its own size."""
    return _binomials(spec)[:, None] * spec.level_resolvent


def _binomials(spec: GreenSpec) -> np.ndarray:
    """binom(N,k) = 2^N binom_pmf[k], exact; NumericError past N = 1029 (binom(N, N/2) > 2^1024)."""
    if spec.N > 1029:
        raise NumericError(f"binom({spec.N}, {spec.N // 2}) is past the float range")
    return np.ldexp(spec.binom_pmf, spec.N)


# ---------------------------------------------------------------------------
# the limit process kappa


@dataclass(frozen=True)
class KappaSpec:
    """A truncated spectral description of the limit process on a t-grid."""
    ylaw: CorrelationMixture
    grid: tuple
    order: int
    tail_bound: float

    @cached_property
    def half_moments(self) -> np.ndarray:
        return np.sqrt(_series_moments(self.ylaw, self.order))

    @cached_property
    def basis(self) -> np.ndarray:
        """_basis_at on the grid, so kappa over the grid is basis @ zeta.
        build_kappa_spec fills it from the Hermite table of its truncation
        rule, so a built spec runs the recurrence once."""
        return _basis_at(self, self.grid)

    @cached_property
    def inversion_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """transform_weight_matrices on inversion_check's theta grid, built
        once per spec: 186 x (order + 1) floats, 0.8 MB at order 512."""
        return transform_weight_matrices(self, _inversion_thetas(self.order))


def build_kappa_spec(ylaw: CorrelationMixture, grid) -> KappaSpec:
    """Pick the truncation order by the variance-increment rule.

    Raise the order in steps of TRUNCATION_STEP until the variance added over
    the whole grid drops below TRUNCATION_REL_TOL relatively, hard cap
    TRUNCATION_CAP, and record an envelope bound on the remaining tail.
    Each CorrelationMixture gives Var(kappa_t) a convergent series, but the
    series reads sqrt(E[Y^k]): a negative moment raises DomainError.
    """
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise DomainError("the evaluation grid is empty")
    _require_finite(grid)
    mk = _series_moments(ylaw, TRUNCATION_CAP)
    psi = hermite_functions(TRUNCATION_CAP, grid)
    terms = mk * psi ** 2  # rows t, columns k
    starts = np.arange(1, TRUNCATION_CAP + 1, TRUNCATION_STEP)  # first degree of each step
    ends = np.minimum(starts + TRUNCATION_STEP - 1, TRUNCATION_CAP)
    inc = np.add.reduceat(terms, starts, axis=1)
    var = np.cumsum(np.hstack([terms[:, :1], inc]), axis=1)[:, 1:]  # variance after each step
    # a row whose every term underflows (|t| past about 55) takes no part: kappa
    # is 0 there at any order.  In the others a step before the first term that
    # does not underflow has added nothing yet, and is not converged
    live = var[:, -1] > 0.0
    inc, var = inc[live], var[live]
    ratio = np.divide(inc, var, out=np.full_like(inc, np.inf), where=var > 0.0)
    below = np.flatnonzero(ratio.max(axis=0, initial=0.0) < TRUNCATION_REL_TOL)
    order = int(ends[below[0]] if below.size else ends[-1])
    spec = KappaSpec(ylaw, grid, order, _series_tail_bound(ylaw, order))
    # a column k of the table depends on columns k - 1 and k - 2 only, so its
    # first order + 1 columns are the bits the basis' own recurrence would give
    vars(spec)["basis"] = _basis_at(spec, grid, psi[:, :order + 1])
    return spec


def _basis_at(spec: KappaSpec, t, psi: np.ndarray | None = None) -> np.ndarray:
    """(2 pi)^(-1/2) e^(-t^2/2) m_k H_k(t) / sqrt(k!) with the spec's m_k: rows
    t, columns k = 0..order.  psi, when given, holds the Hermite functions
    e^(-t^2/4) H_k(t) / sqrt(k!) at these t; the other e^(-t^2/4) goes on
    last, so no factor overflows."""
    t = np.array(t, dtype=float)
    if psi is None:
        psi = hermite_functions(spec.order, t)
    envelope = np.exp(-0.25 * t * t) / sqrt(2.0 * pi)
    return envelope[:, None] * spec.half_moments * psi


def _series_moments(ylaw, order: int) -> np.ndarray:
    """E[Y^k] for k = 0..order.  The series of kappa reads their square
    roots, so a negative one raises DomainError."""
    mk = ylaw.moment(np.arange(order + 1))
    if (mk < 0.0).any():
        raise DomainError(f"the series of kappa needs E[Y^k] >= 0 for every k; "
                          f"{ylaw.describe()} has E[Y^{int(np.argmax(mk < 0.0))}] < 0")
    return mk


def _series_tail_bound(ylaw, order: int) -> float:
    """Envelope bound on the truncated part of the covariance series at (0, 0).

    Uses |H_k(t)| e^(-t^2/4) / sqrt(k!) <= 1.1 k^(-1/4), so the dropped mass
    is at most (1.1^2 / 2 pi) sum_{k > order} M_k k^(-1/2); the sum is taken
    over a geometric knot grid (M_k is nonincreasing) plus a ~1/k-decay
    extension past the horizon.
    """
    knots = np.unique(np.geomspace(order + 1, _TAIL_HORIZON, 512).astype(np.int64))
    mk = ylaw.moment(knots)
    total = 0.0
    for m, lo, hi in zip(mk, knots, np.append(knots[1:], _TAIL_HORIZON + 1)):
        total += m * float(lo) ** -0.5 * float(hi - lo)
    total += 2.0 * mk[-1] * sqrt(float(_TAIL_HORIZON))
    return _HERMITE_ENVELOPE ** 2 * total / (2.0 * pi)


def _require_finite(points):
    if not np.all(np.isfinite(points)):
        raise DomainError(f"points must be finite, got {points}")


def _spec_normals(spec: KappaSpec, zetas) -> np.ndarray:
    """zetas as the float vector zeta_0..zeta_order that spec reads."""
    zetas = np.asarray(zetas, dtype=float)
    if zetas.shape != (spec.order + 1,):
        raise DomainError(f"need {spec.order + 1} normals, got shape {zetas.shape}")
    return zetas


def kappa_sample(spec: KappaSpec, zetas: np.ndarray) -> np.ndarray:
    """kappa_t over the grid from one shared normal vector zeta_0..zeta_K."""
    return spec.basis @ _spec_normals(spec, zetas)


def _normal_density(t: float, s: float, y, gap):
    """Standard bivariate normal density at (t, s) with correlation y, given
    y and gap = 1 - y as arrays.  The exponent's numerator (t-s)^2 + 2ts gap
    and the determinant gap (1 + y) keep their digits as y -> 1, and both
    are symmetric in (t, s) to the bit."""
    det = gap * (1.0 + y)
    q = ((t - s) ** 2 + 2.0 * (t * s) * gap) / det
    return np.exp(-0.5 * q) / (2.0 * pi * np.sqrt(det))


def kappa_cov(ylaw: CorrelationMixture, t: float, s: float,
              method: str = "series", order: int = TRUNCATION_CAP) -> float:
    """Cov(kappa_t, kappa_s) by either route.

    series:  (1/2pi) e^(-(t^2+s^2)/2) sum_{k<=order} E[Y^k] H_k(t) H_k(s) / k!,
             summed on the Hermite functions e^(-t^2/4) H_k(t) / sqrt(k!),
             so no term overflows
    mixture: E[n(t, s; Y)] over the correlation law.

    The two agree exactly in the limit (the bivariate-normal kernel is the
    closed form of the full series); truncation error of the series route is
    bounded by the spec tail bound and decays only like order^(-1/2) for
    moment sequences with M_k ~ 1/k.
    """
    t, s = float(t), float(s)
    _require_finite((t, s))
    if method == "mixture":
        return ylaw.expect(lambda y, gap: _normal_density(t, s, y, gap), layer=abs(t - s))
    if method != "series":
        raise DomainError(f"unknown method {method!r}")
    ht, hs = hermite_functions(order, [t, s])
    mk = ylaw.moment(np.arange(order + 1))
    return exp(-0.25 * (t * t + s * s)) / (2.0 * pi) * float(np.dot(mk, ht * hs))


# ---------------------------------------------------------------------------
# finite-N to limit comparison


def scaled_levelset_cov(N: int, gamma: float, t, s) -> float | np.ndarray:
    """Covariance of (1/2) sqrt(N/2^N) theta_{floor(N/2 + sqrt(N)/2 t)} for the
    simple walk with killing alpha_N = 1 - gamma/N, which needs N > gamma.

    Floats t and s give a float, 1-D sequences the matrix (rows t, columns
    s): (N/4) binom_pmf[u] R[u, v], solving only the columns v of the level
    chain's resolvent, each the same floats whichever others share the call."""
    if not 0.0 < gamma < N:
        raise DomainError(f"alpha_N = 1 - gamma/N is outside (0,1) at N = {N}, gamma = {gamma}")
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    u, v = _levels(N, t), _levels(N, s)
    spec = GreenSpec(N, SingleFlip(), 1.0 - gamma / N)
    levels, inverse = np.unique(v, return_inverse=True)
    cov = ((N / 4.0) * spec.binom_pmf[u])[:, None] * _level_columns(spec, levels)[u][:, inverse]
    return float(cov[0, 0]) if t.ndim == 0 and s.ndim == 0 else cov


def _levels(N: int, t: np.ndarray) -> np.ndarray:
    """The level floor(N/2 + sqrt(N)/2 t) that the scaling reads for each t.

    The range is checked on the float, before the cast: NaN fails it, and
    inf or a huge t never reaches the integer conversion."""
    x = N / 2 + sqrt(N) / 2 * np.atleast_1d(t)
    if not np.all((-1.0 < x) & (x < N + 1.0)):  # the cast truncates toward 0
        raise DomainError(f"scaled index out of range: t={t} at N={N}")
    return x.astype(int)


def levelset_clt_check(gamma: float, dims, t_grid) -> dict:
    """Sup over grid pairs of |finite-N scaled covariance - E[n(t_u, s_v; Y)]| per N.

    The covariance at (t, s) reads the levels u, v, so it is compared with the
    limit at t_u = 2(u - N/2)/sqrt(N) and s_v, the points those levels stand
    for, and not at the nominal t and s: the rounding to a level moves t by
    up to 2/sqrt(N), which would otherwise swamp the 1/N convergence.

    The limits of one N are batch integrals over the pairs i <= j (the
    mixture is symmetric in (t, s)), _PAIR_BATCH pairs to a batch.
    Distinct levels read t at least 2/sqrt(N) apart, far wider than the
    layer kappa_cov resolves near the diagonal, so no pair needs it.
    """
    ylaw = VanishingKillingY(gamma)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    gaps = {}
    for N in dims:
        N = int(N)
        cov = scaled_levelset_cov(N, gamma, t_grid, t_grid)
        t_read = 2.0 * (_levels(N, t_grid) - N / 2) / sqrt(N)
        rows, cols = np.triu_indices(t_read.size)
        limit = np.empty_like(cov)
        for lo in range(0, rows.size, _PAIR_BATCH):
            i, j = rows[lo:lo + _PAIR_BATCH], cols[lo:lo + _PAIR_BATCH]
            t, s = t_read[i, None, None], t_read[j, None, None]
            limit[i, j] = limit[j, i] = ylaw.expect(lambda y, gap: _normal_density(t, s, y, gap))
        gaps[N] = float(np.abs(cov - limit).max())
    return gaps


# ---------------------------------------------------------------------------
# the complex transform


class TransformCov(NamedTuple):
    full: float       # e^{-(theta^2+phi^2)/2} E[e^{theta phi Y}]
    even_part: float  # same prefactor, E[cosh(..)]: Cov(U_theta, U_phi)
    odd_part: float   # same prefactor, E[sinh(..)]: Cov(V_theta, V_phi)


def transform_cov(ylaw: CorrelationMixture, theta: float, phi: float) -> TransformCov:
    """Covariances of the transform and of its even/odd (real/imaginary) parts.

    e^{-(theta^2+phi^2)/2} E[e^{+-theta phi Y}] = e^{-(theta-+phi)^2/2}
    E[e^{-+theta phi (1-Y)}]: both signs are one gap_laplace call, with
    each exponent formed without cancellation and bounded above by 0.
    """
    x = theta * phi
    scale = [-0.5 * (theta - phi) ** 2, -0.5 * (theta + phi) ** 2]
    plus, minus = ylaw.gap_laplace([x, -x], scale).tolist()
    return TransformCov(plus, 0.5 * (plus + minus), 0.5 * (plus - minus))


def transform_weight_matrices(spec: KappaSpec, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Series weights of (U_theta, V_theta) for a whole theta grid at once.

    The weight on zeta_j is w_j = e^{-theta^2/2} m_j (i theta)^j / sqrt(j!):
    U holds the real even-j weights (column k for zeta_{2k}), V the imaginary
    odd-j ones (zeta_{2k+1}); rows are theta values.  The moduli are one exp
    of the log-modulus j log|theta| - log(j!)/2 - theta^2/2, so no factor
    over- or underflows on its own; log(j!) comes from _log_factorials.  The
    signs go on afterwards, and theta = 0 is set exactly to
    U = (m_0, 0, ...), V = 0.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    _require_finite(thetas)
    m = spec.half_moments
    j = np.concatenate([np.arange(0, spec.order + 1, 2), np.arange(1, spec.order + 1, 2)])
    n_even = (spec.order + 2) // 2
    size = np.abs(thetas)
    zero = size == 0.0
    W = np.multiply.outer(np.log(np.where(zero, 1.0, size)), j)
    W -= 0.5 * _log_factorials(spec.order)[j]
    W -= (0.5 * thetas * thetas)[:, None]
    np.exp(W, out=W)
    W *= np.where(j // 2 % 2 == 0, 1.0, -1.0) * m[j]
    W[thetas < 0.0, n_even:] *= -1.0
    W[zero] = 0.0
    W[zero, 0] = m[0]
    return W[:, :n_even], W[:, n_even:]


@cache
def _log_factorials(order: int) -> np.ndarray:
    """log(k!) for k = 0..order (read-only), built once per order.

    From the exact integer k! = m 2^s with m in [1, 2): log m (m the
    correctly rounded quotient) plus s log 2, with log 2 split in two so
    that s * _LN2_HI is exact, summed by fsum.  Within half an ulp plus
    1.7e-16 of the true value; math.log(k!) alone is up to 1.16 ulp off
    past 170!, where it leaves the float range (50-digit mpmath, k <= 512).
    1.2 ms at order 512.
    """
    table = np.empty(order + 1)
    factorial = 1
    for k in range(order + 1):
        factorial *= max(k, 1)
        s = factorial.bit_length() - 1
        table[k] = fsum((s * _LN2_HI, s * _LN2_LO, log(factorial / (1 << s))))
    table.flags.writeable = False
    return table


def transform_sample(spec: KappaSpec, zetas: np.ndarray, theta_grid) -> tuple[np.ndarray, np.ndarray]:
    """(U_theta, V_theta) over a theta grid from one shared zeta vector."""
    zetas = _spec_normals(spec, zetas)
    U, V = transform_weight_matrices(spec, theta_grid)
    return U @ zetas[0::2], V @ zetas[1::2]


def _inversion_thetas(order: int) -> np.ndarray:
    """inversion_check's nodes on [0, theta_max], theta_max = sqrt(2 order) + 8,
    which covers the highest retained order (the k-th weight peaks near
    theta = sqrt(k)).  The fewest nodes whose step h has 2 pi / h >=
    _INVERSION_WINDOW + _KAPPA_REACH, so no t in the window aliases: 186 at
    order 512.  The count depends on the order alone."""
    theta_max = sqrt(2.0 * order) + 8.0
    nodes = ceil(theta_max * (_INVERSION_WINDOW + _KAPPA_REACH) / (2.0 * pi)) + 1
    return np.linspace(0.0, theta_max, nodes)


def inversion_check(spec: KappaSpec, zetas: np.ndarray, t) -> float | np.ndarray:
    """|(1/2pi) integral e^{-i theta t} kappa_hat_theta dtheta  -  kappa_t|.

    kappa_hat = U + iV comes from the same zetas as kappa_t.  U is even in
    theta and V odd, so the integral is (1/pi) times the trapezoid rule for
    U cos(theta t) + V sin(theta t) on the nodes of _inversion_thetas.  On
    this smooth, Gaussian-decaying integrand the rule's only error is
    aliasing, and the step keeps it below rounding for |t| <= 16, the
    window; a t outside it, NaN or infinite raises DomainError.  The
    weights on the nodes are the spec's inversion_weights, so repeated
    checks on one spec build them once, and one transform serves every t:
    a float t gives a float, a 1-D sequence an array.
    """
    zetas = _spec_normals(spec, zetas)
    ts = np.asarray(t, dtype=float)
    grid = np.atleast_1d(ts)
    if not np.all(np.abs(grid) <= _INVERSION_WINDOW):
        raise DomainError(f"inversion_check takes |t| <= {_INVERSION_WINDOW}, the window its "
                          f"trapezoid rule keeps free of aliasing; got t = {ts.tolist()}")
    thetas = _inversion_thetas(spec.order)
    W_even, W_odd = spec.inversion_weights
    U, V = W_even @ zetas[0::2], W_odd @ zetas[1::2]
    phase = np.multiply.outer(grid, thetas)
    integral = np.trapezoid(np.cos(phase) * U + np.sin(phase) * V, thetas) / pi
    basis = _basis_at(spec, grid)
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
    boundary-layer-aware gap_laplace, which takes every node of a round
    at once.  Both sides are finite for every law the types admit.
    """
    rhs = ylaw.expect(lambda y, gap: np.sqrt(pi / gap))
    lhs = 2.0 * float(quad(lambda th: ylaw.gap_laplace(th * th), 0.0, np.inf)[0])
    return lhs, rhs
