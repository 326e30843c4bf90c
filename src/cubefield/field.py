"""Sampling and analysis of the Gaussian field with killed-walk covariance.

The whole field is one linear image of i.i.d. standard normals (g_A)
indexed by subsets:

    g_x = 2^(-N/2) [ g_0 + sum_{A != 0} (1 + c(1-rho_A))^(-1/2)
                              prod_{j in A} (-1)^x[j] g_A ],

so Cov(g_x, g_y) = (1-alpha) G(x, y; alpha).  A single SpectralNoise
object is the coupling unit: every coupled construction (centered field,
marginal averages, nested dimensions, level sets) takes the noise as an
argument instead of drawing internally.
"""

from dataclasses import dataclass
from itertools import combinations
from math import sqrt

import numpy as np

from . import increments
from .errors import DomainError, NumericError, ResourceLimitError
from .walk import GreenSpec, check_vertex, green_matrix_oracle, green_xor_table, transition_matrix
from .walsh import _fwht_inplace, _split_table, bit_positions, iter_submasks, popcounts

CHOLESKY_POINT_LIMIT = 4096
DENSITY_CHECK_N_LIMIT = 8


@dataclass(frozen=True)
class SpectralNoise:
    """The family (g_A): one standard normal per subset bitmask of [N]."""
    N: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (1 << self.N,):
            raise DomainError(
                f"noise for N={self.N} needs {1 << self.N} entries, got {self.values.shape}")
        self.values.flags.writeable = False

    @classmethod
    def draw(cls, N: int, rng: np.random.Generator) -> "SpectralNoise":
        increments.check_enumerable(N)
        return cls(N, rng.standard_normal(1 << N))

    @classmethod
    def zero(cls, N: int) -> "SpectralNoise":
        return cls(N, np.zeros(1 << N))


@dataclass(frozen=True)
class FieldSample:
    """Field values, either on the full cube (points None) or a query list."""
    N: int
    values: np.ndarray
    points: tuple | None = None
    provenance: str = "spectral"

    def is_full_cube(self) -> bool:
        return self.points is None


def sample_field_spectral(spec: GreenSpec, noise: SpectralNoise) -> FieldSample:
    """Evaluate the linear form at every vertex with one fast transform, O(N 2^N).

    Each block of weights becomes sqrt(w_A) g_A 2^-floor(N/2) in cache; a power
    of two passes the transform bit for bit, and an odd N's 2^-1/2 comes after."""
    if noise.N != spec.N:
        raise DomainError(f"noise dimension {noise.N} != spec dimension {spec.N}")
    weight_rows = spec._weight_rows()  # capped at the enumeration limit before it allocates
    scale = 2.0 ** -(spec.N // 2)

    def fill(block, rows):
        weight_rows(block, rows)
        np.sqrt(block, out=block)
        block *= noise.values.reshape(-1, block.shape[1])[rows]
        block *= scale
    values = _split_table(spec.N, fill)
    _fwht_inplace(values)
    if spec.N % 2:
        values *= 2.0 ** -0.5
    return FieldSample(spec.N, values)


def sample_field_spectral_batch(spec: GreenSpec, rng: np.random.Generator,
                                replicates: int) -> np.ndarray:
    """(replicates, 2^N) array of independent full-cube fields; the MC workhorse."""
    coef = spec.subset_table()
    np.sqrt(coef, out=coef)
    fields = rng.standard_normal((replicates, 1 << spec.N))
    fields *= coef
    _fwht_inplace(fields)
    fields *= 2.0 ** (-spec.N / 2.0)
    return fields


def sample_field_cholesky(spec: GreenSpec, points, rng: np.random.Generator) -> FieldSample:
    """Draw the field on an arbitrary point list through a covariance factorization.

    Same law as the spectral sampler restricted to the points; the covariance
    is read from spec.by_distance (exchangeable models) or green_xor_table.
    On a factorization failure the diagonal is jittered once by 1e-12 * trace/m.
    """
    points = tuple(int(p) for p in points)
    m = len(points)
    if m == 0 or m > CHOLESKY_POINT_LIMIT:
        raise DomainError(f"point count must be in [1, {CHOLESKY_POINT_LIMIT}], got {m}")
    for x in points:
        check_vertex(x, spec.N)
    # past N = 64 a vertex does not fit one machine word: split each into words
    n_words = -(-spec.N // 64)
    words = np.frombuffer(b"".join(x.to_bytes(8 * n_words, "little") for x in points),
                          dtype="<u8").reshape(m, n_words)
    if spec.model.is_exchangeable:
        dist = np.zeros((m, m), dtype=np.intp)
        for col in words.T:
            dist += np.bitwise_count(col[:, None] ^ col[None, :])
        cov = spec.by_distance[dist]
    else:
        # enumerable models have N <= 24, so the single word's XOR is the table index
        col = words[:, 0]
        cov = green_xor_table(spec)[col[:, None] ^ col[None, :]]
    provenance = "cholesky"
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(cov) / m
        try:
            factor = np.linalg.cholesky(cov + jitter * np.eye(m))
            provenance = "cholesky+jitter"
        except np.linalg.LinAlgError as err:
            raise NumericError(
                "covariance is not positive semidefinite even after regularization") from err
    values = factor @ rng.standard_normal(m)
    return FieldSample(spec.N, values, points=points, provenance=provenance)


def spin_sum(x: int, subset: int, k: int, noise: SpectralNoise) -> float:
    """Order-k spin sum over a ground set C:

        S_k(x; C) = sum_{A subseteq C, |A| = k} prod_{j in A} (-1)^x[j] g_A.

    Cov(S_j(x), S_k(y)) = delta_jk binom(|C|,k) Q_k(||x XOR y||; |C|).
    """
    check_vertex(x, noise.N)
    _check_subset(subset, noise.N)
    bits = bit_positions(subset)
    if not 1 <= k <= len(bits):
        raise DomainError(f"order must lie in [1, |C|={len(bits)}], got {k}")
    total = 0.0
    for combo in combinations(bits, k):
        mask = 0
        for pos in combo:
            mask |= 1 << pos
        sign = -1.0 if (mask & x).bit_count() & 1 else 1.0
        total += sign * noise.values[mask]
    return total


def spin_sum_all_vertices(k: int, noise: SpectralNoise) -> np.ndarray:
    """S_k(x; [N]) for every vertex x at once: a popcount-masked fast transform."""
    if not 0 <= k <= noise.N:
        raise DomainError(f"order must lie in [0, {noise.N}], got {k}")
    masked = np.where(popcounts(noise.N) == k, noise.values, 0.0)
    _fwht_inplace(masked)
    return masked


def centered_field(sample: FieldSample) -> FieldSample:
    """Subtract the grand mean; removes the empty-set noise component exactly."""
    if not sample.is_full_cube():
        raise DomainError("centering needs a full-hypercube sample")
    return FieldSample(sample.N, sample.values - sample.values.mean(),
                       provenance=sample.provenance + "+centered")


def marginal_average(noise: SpectralNoise, spec: GreenSpec, x: int, subset: int) -> float:
    """Centered marginal over the coordinates in C:

        2^(-|C|/2) sum_{A subseteq C, A != 0} prod_{j in A}(-1)^x[j]
                   (1 + c(1-rho_A))^(-1/2) g_A.

    Marginals over disjoint C are independent (they read disjoint noise).
    """
    _check_subset(subset, spec.N)
    return _marginal(noise, x, subset,
                     lambda A: increments.b_subset(spec.model, A, spec.N, spec.alpha))


def nested_fields(noise: SpectralNoise, model, alpha: float) -> list[FieldSample]:
    """Coupled fields for N = 1..noise.N from one noise family.

    Requires a model whose law of each entry is dimension-free, so the
    subset coefficients agree across N; then

        E[g_{x_N} | fields up to N-1] = 2^(-1/2) g_{x_{N-1}}.
    """
    if model.depends_on_dimension:
        raise DomainError(
            f"{type(model).__name__} changes with the dimension; nested coupling undefined")
    fields = []
    for n in range(1, noise.N + 1):
        sub_noise = SpectralNoise(n, noise.values[: 1 << n].copy())
        spec = GreenSpec(n, model, alpha)
        fields.append(sample_field_spectral(spec, sub_noise))
    return fields


def infinite_field_marginal(model, x: int, subset: int, noise: SpectralNoise,
                            alpha: float | None = None) -> float:
    """V_infinity marginal: like marginal_average but with weights (1 + b_A)^(-1/2).

    Limit-regime models ignore alpha; finite models need it and must be
    dimension-free.
    """
    if model.depends_on_dimension:
        raise DomainError(
            f"{type(model).__name__} changes with the dimension; no V_infinity limit")
    return _marginal(noise, x, subset, lambda A: increments.b_subset(model, A, None, alpha))


def _check_subset(subset: int, N: int):
    """Raise DomainError unless the coordinate set lies within [N]."""
    if subset >> N:
        raise DomainError(f"coordinate set {subset:#x} is not within [{N}]")


def _marginal(noise: SpectralNoise, x: int, subset: int, gap) -> float:
    """2^(-|C|/2) sum_{A subseteq C, A != 0} prod_{j in A}(-1)^x[j] (1 + gap(A))^(-1/2) g_A."""
    if subset == 0:
        raise DomainError("the coordinate set must be nonempty")
    _check_subset(subset, noise.N)
    total = 0.0
    for A in iter_submasks(subset):
        if A == 0:
            continue
        sign = -1.0 if (A & x).bit_count() & 1 else 1.0
        total += sign * noise.values[A] / sqrt(1.0 + gap(A))
    return total * 2.0 ** (-subset.bit_count() / 2.0)


def gff_log_density_check(spec: GreenSpec, g: np.ndarray) -> tuple[float, float]:
    """Both sides of the field's density exponent, for verification.

    Left: the killed-walk Dirichlet energy with cemetery boundary,
        -(1/(4(1-alpha))) sum_{x,y in V+} P+(y|x) (g_x-g_y)^2 - (1/4) sum g_x^2,
    where P+(y|x) = alpha P(y|x) inside and P+(cemetery|x) = 1-alpha, with
    g = 0 on the cemetery.  Right: the Gaussian quadratic form
        -(1/(2(1-alpha))) g^T G^-1 g with G inverted from the dense oracle.

    G needs no singularity guard: its eigenvalues 1/(1 - alpha rho_A) lie in
    [1/(1+alpha), 1/(1-alpha)], so log det G >= -177 up to the N = 8 cap.
    """
    if spec.N > DENSITY_CHECK_N_LIMIT:
        raise ResourceLimitError(f"the density check is capped at N={DENSITY_CHECK_N_LIMIT}")
    g = np.asarray(g, dtype=float)
    if g.shape != (1 << spec.N,):
        raise DomainError(f"need one value per vertex, got shape {g.shape}")
    alpha = spec.alpha
    P = transition_matrix(spec.model, spec.N)
    diff2 = (g[:, None] - g[None, :]) ** 2
    energy = alpha * float(np.sum(P * diff2)) + (1.0 - alpha) * float(np.sum(g * g))
    lhs = -energy / (4.0 * (1.0 - alpha)) - 0.25 * float(np.sum(g * g))

    G = green_matrix_oracle(spec) / (1.0 - alpha)
    rhs = -float(g @ np.linalg.solve(G, g)) / (2.0 * (1.0 - alpha))
    return lhs, rhs


@dataclass(frozen=True)
class KSpinDraw:
    """One randomized spin-order draw: the chosen order, its scale, and the field."""
    order: int
    scale: float
    values: np.ndarray


def kspin_order_pmf(spec: GreenSpec) -> np.ndarray:
    """Order distribution p_k proportional to binom(N,k) (1+c(1-rho_k))^(-1/2)."""
    if spec.model.has_omega_atom_at_one():
        raise DomainError("mixing measure has an atom at 1")
    weights = spec.binom_pmf * spec.half_weights
    return weights / weights.sum()


def _kspin_scales(spec: GreenSpec) -> np.ndarray:
    """2^(-N/2) R / binom(N,k) for k = 0..N, R = sum_k binom(N,k) m_k."""
    normalizer = float(np.dot(spec.binom_pmf, spec.half_weights))
    return 2.0 ** (-spec.N / 2.0) * normalizer / spec.binom_pmf


def sample_random_kspin(spec: GreenSpec, noise: SpectralNoise,
                        rng: np.random.Generator) -> KSpinDraw:
    """Draw a random spin order K and return the coupled K-spin field.

    The draw is conditionally unbiased given the noise: averaging the
    returned field over K with kspin_order_pmf recovers the spectral field
    exactly (see kspin_mixture_mean).  A single draw is NOT Gaussian with
    the field covariance; its covariance is

        2^-N R sum_k m_k Q_k(||x XOR y||),  R = sum_k binom(N,k) m_k,

    with m_k the half weights.
    """
    pmf = kspin_order_pmf(spec)
    k = int(rng.choice(spec.N + 1, p=pmf))
    scale = float(_kspin_scales(spec)[k])
    return KSpinDraw(k, scale, scale * spin_sum_all_vertices(k, noise))


def kspin_mixture_mean(spec: GreenSpec, noise: SpectralNoise) -> np.ndarray:
    """E_K[random k-spin field | noise]: identical to the spectral field."""
    pmf = kspin_order_pmf(spec)
    scales = _kspin_scales(spec)
    total = np.zeros(1 << spec.N)
    for k in range(spec.N + 1):
        total += pmf[k] * scales[k] * spin_sum_all_vertices(k, noise)
    return total
