"""Increment laws for the hypercube walk and their spectral functionals.

A walk step is X_{t+1} = X_t XOR Z.  Each law of Z determines, for every
subset A of [N], the eigenvalue of the Walsh character of A,

    rho_A = E[prod_{j in A} (-1)^Z[j]],

and the killed-walk gap b_A = c (1 - rho_A) with c = alpha/(1-alpha).
Exchangeable laws have rho_A depending on |A| only.  The Limit* variants
describe N -> infinity regimes and carry only b_A.

Each law is a small frozen dataclass carrying its own rho, law, samplers
(one step, and the XOR of T steps) and gap; the de Finetti laws are also
their own spin measure.  Every 2^N table of an exchangeable law is one
popcount gather of an (N+1)-vector; only MarkovEntries builds its own.
Every operation is pure given an explicit numpy
Generator, so instances are safe to share across threads.
"""

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb, exp, fsum, isclose, log

import numpy as np
from scipy.special import betaln, gammaln, roots_jacobi

from .errors import DomainError, ResourceLimitError
from .polynomials import krawtchouk_eval
from .walsh import popcounts

# the largest N whose 2^N subsets are enumerated: one float64 table is 128 MiB
SPECTRAL_ENUMERATION_N_LIMIT = 24
_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=200)
# once |Y| <= 2^-54, 1 - Y rounds to 1 and so does every further product
# with spins in [-1, 1]: the flip probability 0.5 (1 - Y) is final
_Y_SETTLED = 2.0 ** -54
# spin draws per chunk of a product: doubling from the first to the last size
_FIRST_CHUNK, _LAST_CHUNK = 64, 4096
# spins, or atom-count cells, per call to the generator in a batch of products
_SPIN_CHUNK = 1 << 18
# columns per Markov doubling step: two planes of 2^15 float64 are 512 KiB
_MARKOV_CHUNK = 1 << 15


def killing_gap(c, rho):
    """The killed-walk gap b = c (1 - rho) of an eigenvalue (or array of them)."""
    return c * (1.0 - rho)


def _killing_c(alpha) -> float:
    if alpha is None or not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    return alpha / (1.0 - alpha)


class IncrementModel:
    """An increment law: rho(k, N) for sizes k >= 1, pmf(N), sample_Z(N, rng), gap.

    Exchangeable laws give pmf_by_size(N), the probability of one increment
    with j ones, j = 0..N, and pmf(N) is its gather over the popcounts."""
    is_limit = False
    is_definetti = False
    is_exchangeable = True
    depends_on_dimension = False  # the law of a single entry changes with N

    def sample_displacement(self, N: int, steps: int, rng: np.random.Generator) -> int:
        """The XOR of `steps` i.i.d. increments as an N-bit mask.

        This default draws them one by one; laws with a closed-form sum
        override it.
        """
        mask = 0
        for _ in range(steps):
            mask ^= self.sample_Z(N, rng)
        return mask

    def rho_subset(self, subset: int, N: int) -> float:
        return rho_k(self, int(subset).bit_count(), N)

    def rho_all_subsets(self, N: int) -> np.ndarray:
        return rho_by_size(self, N)[popcounts(N)]

    def pmf(self, N: int) -> np.ndarray:
        return self.pmf_by_size(N)[popcounts(N)]

    def gap(self, k: int, N: int | None, alpha: float | None) -> float:
        """b_k = c (1 - rho_k) for a subset of size k."""
        return killing_gap(_killing_c(alpha), rho_k(self, k, N))

    def has_omega_atom_at_one(self) -> bool:
        return False


class _DeFinetti(IncrementModel):
    """i.i.d. Bernoulli(omega) entries given a random omega.

    The model is also its spin measure, the law of xi = 1 - 2*omega on [-1, 1].
    """
    is_definetti = True

    def sample_Z(self, N: int, rng: np.random.Generator) -> int:
        xi = self.sample(rng)  # the spin before the N uniforms: the stream order
        return _mask(rng.random(N) < 0.5 * (1.0 - xi))

    def sample_displacement(self, N: int, steps: int, rng: np.random.Generator) -> int:
        """The XOR of `steps` i.i.d. increments, in one draw.

        Given the spins xi_t = 1 - 2 omega_t, a coordinate flips an odd number
        of times with probability (1 - Y)/2, Y = prod_t xi_t, independently of
        the others: draw Y, then N Bernoulli((1 - Y)/2) flips.

        Rounding: given the drawn spins, the float 0.5 (1 - Y) is off the
        exact flip probability by some e, and the uniform comparator resolves
        2^-53, so the endpoint law is within N (e + 2^-53) of the exact one
        in total variation.  Measured against 200-bit arithmetic, 10^4 draws
        per law at alpha = 0.3 ... 1 - 1e-7: e <= 1.03 * 2^-53 for twelve
        point-mass laws of one to four atoms (pow products); e <= 0.94 *
        2^-53 for DeFinettiBeta(2, 3), DeFinettiBeta(0.5, 0.5) and
        SymmetricBetaSpin(2, 1) (chunked np.prod), rising to 4.9 * 2^-53
        for DeFinettiBeta(0.05, 50) and 3.0 * 2^-53 for
        SymmetricBetaSpin(50, 0.5), whose spins sit near +-1: a product of
        n spins carries a relative error up to n 2^-53, and such laws
        multiply many spins before |Y| falls.
        """
        flip = 0.5 * (1.0 - self._product(steps, rng))
        return _mask(rng.random(N) < flip)

    def _product(self, steps: int, rng: np.random.Generator) -> float:
        """Y = the product of `steps` i.i.d. spins, or a stand-in of the same
        flip probability once |Y| <= 2^-54.

        Spins are drawn in chunks of 64, 128, ... up to 4096, and the draws
        stop once the flip probability is settled, so cost and memory stay
        bounded at any alpha.

        The size-1 route beside `log_products`, for killed endpoints, which
        draw one product per call.  Through `log_products` one endpoint draw
        at N = 50, alpha = 0.999 took 13-20 µs, not 10, for IIDBernoulli;
        36-41, not 11, for DeFinettiDiscrete; 48-58, not 22, for
        DeFinettiBeta(2, 3) (2-core Xeon).
        """
        y, size = 1.0, _FIRST_CHUNK
        while steps > 0 and abs(y) > _Y_SETTLED:
            size = min(size, steps)
            y *= float(np.prod(self.sample(rng, size=size)))
            steps -= size
            size = min(2 * size, _LAST_CHUNK)
        return y

    def log_products(self, counts: np.ndarray, rng: np.random.Generator):
        """(sign, log|Y|) per row for Y_i the product of `counts[i]` fresh spins.

        The spins are drawn in chunks of 2^18 and each row's logs are summed
        within its own segment, in draw order; a row longer than a chunk adds
        up its chunk sums.  The error of log|Y| grows with that row's own
        spin count, never with the rows drawn before it.  Memory is O(rows)
        plus O(2^18) per chunk; time is O(rows + sum counts).  A row holding
        a zero spin gets sign 0 and log-magnitude -inf.

        The batch route beside `_product`, for Y in batches of 10^5-10^6
        rows; single draws stay on `_product`, 1.3-4x faster at one row.
        """
        signs, logs = np.ones(counts.shape), np.zeros(counts.shape)
        ends = np.cumsum(counts)
        total = int(counts.sum())
        for lo in range(0, total, _SPIN_CHUNK):
            hi = min(lo + _SPIN_CHUNK, total)
            draws = np.asarray(self.sample(rng, size=hi - lo), dtype=float)
            # rows first..last own draws lo..hi-1; seg counts each one's share
            first = int(np.searchsorted(ends, lo, side="right"))
            last = int(np.searchsorted(ends, hi - 1, side="right"))
            seg = np.diff(np.minimum(ends[first:last + 1], hi) - lo, prepend=0)
            row = np.repeat(np.arange(seg.size), seg)
            odd = np.bincount(row[draws < 0.0], minlength=seg.size) & 1
            signs[first:last + 1] *= 1.0 - 2.0 * odd
            with np.errstate(divide="ignore"):
                np.log(np.abs(draws, out=draws), out=draws)
            logs[first:last + 1] += np.bincount(row, weights=draws, minlength=seg.size)
        signs[np.isneginf(logs)] = 0.0
        return signs, logs

    def has_atom_at_zero(self) -> bool:
        return False


class _PointMasses(_DeFinetti):
    """omega takes finitely many values: the atoms, with probabilities the weights."""

    @property
    def _spins(self):
        return [(1.0 - 2.0 * a, w) for a, w in zip(self.atoms, self.weights)]

    def rho(self, k, N=None):
        return fsum(w * x ** k for x, w in self._spins)

    def pmf_by_size(self, N):
        j = np.arange(N + 1)
        out = np.zeros(N + 1)
        for a, w in zip(self.atoms, self.weights):
            out += w * a ** j * (1.0 - a) ** (N - j)
        return out

    def abs_moment_split(self, theta):
        """(integral over [-1,0], integral over (0,1]) of |xi|^theta: at theta = 0, the masses."""
        if theta > 0 and self.has_atom_at_zero():
            raise DomainError("measure has an atom at zero; |xi|^theta integrals undefined")
        neg = sum(w * abs(x) ** theta for x, w in self._spins if x <= 0)
        pos = sum(w * x ** theta for x, w in self._spins if x > 0)
        return neg, pos

    def has_atom_at_zero(self):
        return any(w > 0 and x == 0.0 for x, w in self._spins)

    def has_omega_atom_at_one(self):
        return any(w > 0 and a >= 1.0 - 1e-15 for a, w in zip(self.atoms, self.weights))

    def sample(self, rng, size=None):
        # Generator.choice's own lookup (same uniforms, same atoms), without checking p per call
        return self._points[self._cdf.searchsorted(rng.random(size), side="right")]

    @cached_property
    def _points(self):
        return np.array([x for x, _ in self._spins])

    @cached_property
    def _cdf(self):
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        return cdf

    def _product(self, steps, rng):
        """Y = prod_a xi_a^(n_a) with n ~ Multinomial(steps, weights): cost independent of steps."""
        y = 1.0
        for (x, _), n in zip(self._spins, rng.multinomial(steps, self.weights).tolist()):
            # the sign from the integer count: float(n) loses the parity past 2^53
            y *= (-1.0 if x < 0 and n & 1 else 1.0) * abs(x) ** n
        return y

    def log_products(self, counts, rng):
        """(sign, log|Y|) per row for Y_i the product of `counts[i]` fresh spins.

        No spin is drawn: the spins of row i fall on the atoms x_a as n ~
        Multinomial(counts[i], weights), so log|Y| = sum_a n_a log|x_a| and
        the sign is the parity of the integer counts on negative atoms.  With
        one atom log|Y| is the single rounded product counts[i] * log|x|,
        within half an ulp of it; with A atoms, A rounded products summed.
        Rows go to the generator in blocks of 2^18 count cells, so time and
        memory are O(rows) at any alpha.  A row holding a zero spin gets
        sign 0 and log-magnitude -inf.
        """
        signs, logs = np.ones(counts.shape), np.zeros(counts.shape)
        points = self._points
        negative, zero = points < 0.0, points == 0.0
        log_abs = np.log(np.abs(np.where(zero, 1.0, points)))  # zero atoms are flagged apart
        rows = max(1, _SPIN_CHUNK // points.size)
        for lo in range(0, counts.size, rows):
            hi = min(lo + rows, counts.size)
            n = rng.multinomial(counts[lo:hi], self.weights)
            np.matmul(n, log_abs, out=logs[lo:hi])
            odd = n[:, negative].sum(axis=1) & 1
            np.subtract(1.0, 2.0 * odd, out=signs[lo:hi])
            if zero.any():
                hit = n[:, zero].any(axis=1)
                signs[lo:hi][hit] = 0.0
                logs[lo:hi][hit] = -np.inf
        return signs, logs


@dataclass(frozen=True)
class IIDBernoulli(_PointMasses):
    """Entries of Z i.i.d. Bernoulli(p); the mixing measure is a point mass at p."""
    p: float
    atoms = property(lambda self: (self.p,))  # one atom of mass 1
    weights = (1.0,)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"p must be in [0,1], got {self.p}")

    def sample(self, rng, size=None):
        """The constant spin 1 - 2p; nothing is drawn from rng."""
        return 1.0 - 2.0 * self.p if size is None else np.full(size, 1.0 - 2.0 * self.p)


@dataclass(frozen=True)
class DeFinettiDiscrete(_PointMasses):
    """Exchangeable Z: draw omega from finitely many atoms, then i.i.d. Bernoulli(omega)."""
    atoms: tuple
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(float(a) for a in self.atoms))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.atoms) != len(self.weights) or not self.atoms:
            raise DomainError("atoms and weights must be nonempty and equal length")
        if any(not 0.0 <= a <= 1.0 for a in self.atoms):
            raise DomainError("atoms must lie in [0,1]")
        if any(w < 0 for w in self.weights) or not isclose(sum(self.weights), 1.0, abs_tol=1e-12):
            raise DomainError("weights must be nonnegative and sum to 1")


@dataclass(frozen=True)
class DeFinettiBeta(_DeFinetti):
    """Exchangeable Z with omega ~ Beta(a, b)."""
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise DomainError("Beta parameters must be positive")

    def rho(self, k, N=None):
        """E[(1-2w)^k] for w ~ Beta(a,b), from a cached table of the moments.

        rho_k = 2F1(-k, a; a+b; 2), and Gauss's contiguous relation in the
        first parameter (DLMF 15.5.11) gives the three-term recurrence

            m_0 = 1,  m_1 = (b - a)/(a + b),
            m_{n+1} = ((b - a) m_n + n m_{n-1}) / (a + b + n),

        run forward.  Its two solutions behave like n^-a and (-1)^n n^-b, the
        contributions of the ends xi = 1 and xi = -1 of the law; both decay
        polynomially, so neither dominates the other and a rounding error is
        carried at the size of the moments rather than amplified.  Measured:
        within 5e-15 relative of exact rational binomial sums for k <= 400
        on nine shapes from Beta(0.05, 50) to Beta(100, 100), and within
        6e-14 of a 200-digit run of the same recurrence for k <= 5000.
        When a == b the odd moments come out exactly 0.0.  A forward
        recurrence gives the same prefix at any table length, so a value
        does not depend on which sizes were asked for before.
        """
        return _beta_spin_moments(float(self.a), float(self.b), _table_length(k)).item(k)

    def pmf_by_size(self, N):
        j = np.arange(N + 1)
        return np.exp(betaln(self.a + j, self.b + N - j) - betaln(self.a, self.b))

    def abs_moment_split(self, theta):
        from scipy.integrate import quad  # ~290 modules: loaded only where something integrates
        dens = self._omega_density
        # xi <= 0 is omega >= 1/2
        neg = quad(lambda w: (2 * w - 1.0) ** theta * dens(w), 0.5, 1.0, **_QUAD_OPTS)[0]
        pos = quad(lambda w: (1.0 - 2 * w) ** theta * dens(w), 0.0, 0.5, **_QUAD_OPTS)[0]
        return neg, pos

    def _omega_density(self, w):
        if w <= 0.0 or w >= 1.0:
            return 0.0
        ln = (self.a - 1) * log(w) + (self.b - 1) * log(1 - w) \
            - (gammaln(self.a) + gammaln(self.b) - gammaln(self.a + self.b))
        return exp(ln)

    def sample(self, rng, size=None):
        return 1.0 - 2.0 * rng.beta(self.a, self.b, size=size)


@dataclass(frozen=True)
class SymmetricBetaSpin(_DeFinetti):
    """Spin measure symmetric about 0 whose magnitude |xi| is Beta(a, b) on (0,1].

    Equivalently omega = (1 - xi)/2 is symmetric about 1/2.
    """
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise DomainError("Beta parameters must be positive")

    def rho(self, k, N=None):
        if k % 2 == 1:
            return 0.0
        return _beta_moments(float(self.a), float(self.b), _table_length(k)).item(k)

    def pmf_by_size(self, N):
        j = np.arange(N + 1)
        nodes, weights = roots_jacobi(N // 2 + 1, self.b - 1.0, self.a - 1.0)
        weights = weights / weights.sum()
        # xi = +r and -r branches, each with probability 1/2
        out = np.zeros(N + 1)
        for x, w in zip(nodes, weights):
            r = (1.0 + x) / 2.0  # Jacobi node on [-1,1] -> magnitude on [0,1]
            lo, hi = (1.0 - r) / 2.0, (1.0 + r) / 2.0
            out += 0.5 * w * (lo ** j * hi ** (N - j) + hi ** j * lo ** (N - j))
        return out

    def abs_moment_split(self, theta):
        """E[R^theta] = Gamma(a+theta) Gamma(a+b) / (Gamma(a+b+theta) Gamma(a)), half a side."""
        a, ab = self.a, self.a + self.b
        half = 0.5 * exp(gammaln(a + theta) - gammaln(a) - (gammaln(ab + theta) - gammaln(ab)))
        return half, half

    def sample(self, rng, size=None):
        r = rng.beta(self.a, self.b, size=size)
        signs = np.where(rng.random(size=size) < 0.5, 1.0, -1.0)
        return signs * r


class _DimensionDependent(IncrementModel):
    """The law of a single entry changes with N, so rho needs the dimension."""
    depends_on_dimension = True

    def rho(self, k, N):
        if N is None:
            raise DomainError("this model needs the dimension N")
        if k > N:
            raise DomainError(f"subset size {k} exceeds dimension {N}")
        return self._rho(k, N)


@dataclass(frozen=True)
class SingleFlip(_DimensionDependent):
    """Z is a uniformly random unit vector: the simple walk."""

    def _rho(self, k, N):
        return 1.0 - 2.0 * k / N

    def pmf_by_size(self, N):
        out = np.zeros(N + 1)
        out[1] = 1.0 / N
        return out

    def sample_Z(self, N, rng):
        return 1 << int(rng.integers(N))

    def sample_displacement(self, N, steps, rng):
        """The sites hit an odd number of times among `steps` uniform draws.

        No float flip probability enters: the parity of Multinomial(steps,
        1/N each) counts.
        """
        if steps == 0:
            return 0  # multinomial(0, ...) draws nothing: the stream is the same
        return _mask(rng.multinomial(steps, np.full(N, 1.0 / N)) & 1)


@dataclass(frozen=True)
class MFlip(_DimensionDependent):
    """Exactly m entries of Z are 1, uniformly placed."""
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"flip count must be >= 1, got {self.m}")

    def _check_fits(self, N):
        if self.m > N:
            raise DomainError(f"flip count {self.m} exceeds dimension {N}")

    def _rho(self, k, N):
        self._check_fits(N)
        return float(krawtchouk_eval(self.m, k, N))

    def pmf_by_size(self, N):
        self._check_fits(N)
        out = np.zeros(N + 1)
        out[self.m] = 1.0 / comb(N, self.m)
        return out

    def sample_Z(self, N, rng):
        self._check_fits(N)
        mask = 0
        for pos in rng.choice(N, size=self.m, replace=False):
            mask |= 1 << int(pos)
        return mask


@dataclass(frozen=True)
class RandomSiteHalf(_DimensionDependent):
    """One uniformly chosen entry of Z is Bernoulli(1/2), the rest are 0.

    The lazy simple walk: Z = 0 with probability 1/2, Z = e_j with
    probability 1/(2N) each.
    """

    def _rho(self, k, N):
        # Z = 0 w.p. 1/2, Z = e_j w.p. 1/(2N): the signed product
        # averages to 1/2 + (N - 2k)/(2N) = 1 - k/N.
        return 1.0 - k / N

    def pmf_by_size(self, N):
        out = np.zeros(N + 1)
        out[0] = 0.5
        out[1] = 0.5 / N
        return out

    def sample_Z(self, N, rng):
        return int(rng.integers(2)) << int(rng.integers(N))

    def sample_displacement(self, N, steps, rng):
        """Each step is a SingleFlip step with probability 1/2: thin, then flip."""
        return SingleFlip().sample_displacement(N, int(rng.binomial(steps, 0.5)), rng)


@dataclass(frozen=True)
class MarkovEntries(IncrementModel):
    """Entries Z[1..N] form a homogeneous two-state Markov chain (not exchangeable)."""
    initial: tuple
    transition: tuple
    is_exchangeable = False

    def __post_init__(self):
        init = tuple(float(v) for v in self.initial)
        rows = tuple(tuple(float(v) for v in row) for row in self.transition)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "transition", rows)
        if len(init) != 2 or not isclose(sum(init), 1.0, abs_tol=1e-12) or min(init) < 0:
            raise DomainError("initial must be a distribution on {0,1}")
        if len(rows) != 2 or any(
            len(r) != 2 or min(r) < 0 or not isclose(sum(r), 1.0, abs_tol=1e-12) for r in rows
        ):
            raise DomainError("transition must be 2x2 row-stochastic")

    def rho(self, k, N=None):
        raise DomainError("rho_k needs an exchangeable model; use rho_subset")

    def rho_subset(self, subset, N):
        if subset == 0:
            return 1.0
        T = np.array(self.transition)
        v = np.array(self.initial)
        top = subset.bit_length()
        # signed transfer pass over positions 1..max(A); later positions keep mass 1
        if subset & 1:
            v = v * (1.0, -1.0)
        for pos in range(1, top):
            v = v @ T
            if subset >> pos & 1:
                v = v * (1.0, -1.0)
        return float(v.sum())

    def rho_all_subsets(self, N):
        """rho_A for every subset, by a doubling pass inside the 2^N result.

        The result, viewed as two planes of 2^(N-1) columns, holds the mass
        vector over {0,1} of each subset of positions 1..N-1: plane j is the
        mass on state j.  Round r steps the 2^r subsets of positions 1..r to
        position r+1 and copies them, negating plane 1, into the next 2^r
        columns (position r+1 in the subset).  The last round sums the two
        planes straight into the result: v0 + v1 without position N, v0 - v1
        with it.  Each round steps its columns in chunks through one
        512 KiB buffer with `matmul`, whose rounding an elementwise 2x2 step
        does not reproduce, so the peak is the result plus that buffer.
        """
        if N == 0:
            return np.ones(1)
        if N == 1:
            i0, i1 = self.initial
            return np.array([i0 + i1, i0 - i1])
        Tt = np.ascontiguousarray(np.array(self.transition).T)
        out = np.empty(1 << N)
        half = 1 << (N - 1)
        planes = out.reshape(2, half)
        planes[:, 0] = self.initial
        planes[0, 1] = self.initial[0]
        planes[1, 1] = -self.initial[1]
        step = np.empty((2, min(half, _MARKOV_CHUNK)))
        for r in range(1, N):
            done = 1 << r
            for lo in range(0, done, _MARKOV_CHUNK):
                hi = min(lo + _MARKOV_CHUNK, done)
                t = step[:, :hi - lo]
                np.matmul(Tt, planes[:, lo:hi], out=t)
                if done < half:
                    planes[:, lo:hi] = t
                    planes[0, done + lo:done + hi] = t[0]
                    np.negative(t[1], out=planes[1, done + lo:done + hi])
                else:  # last round: v0 + v1 and v0 - v1 over the stepped columns
                    np.add(t[0], t[1], out=planes[0, lo:hi])
                    np.subtract(t[0], t[1], out=planes[1, lo:hi])
        return out

    def pmf(self, N):
        """pmf over prefixes, doubling one position per round inside the 2^N result.

        After round r, out[:2^r] holds the law of positions 1..r, bit p-1 =
        position p; the prefixes ending in state s are the half with bit
        r-1 equal to s.  The round writes their extensions by state 1 to
        out[2^r:2^(r+1)] and scales them in place by T[s][0], so the peak is
        the result itself.
        """
        (t00, t01), (t10, t11) = self.transition
        out = np.empty(1 << N)
        out[:2] = self.initial
        for r in range(1, N):
            done, half = 1 << r, 1 << (r - 1)
            np.multiply(out[:half], t01, out=out[done:done + half])
            np.multiply(out[half:done], t11, out=out[done + half:2 * done])
            out[:half] *= t00
            out[half:done] *= t10
        return out

    def sample_Z(self, N, rng):
        init, rows = self.initial, self.transition
        state = int(rng.random() < init[1])
        mask = state
        for pos in range(1, N):
            state = int(rng.random() < rows[state][1])
            mask |= state << pos
        return mask


class _Limit(IncrementModel):
    """An N -> infinity regime: it defines only the gap b_k, no rho and no walk."""
    is_limit = True

    def rho(self, k, N=None):
        raise DomainError("limit-regime models define only b_A, not rho")

    def sample_Z(self, N, rng):
        raise DomainError(f"{type(self).__name__} is not samplable")


@dataclass(frozen=True)
class LimitLinear(_Limit):
    """Limit regime with b_A = 2|A|/gamma (vanishing killing, alpha_N = 1 - gamma/N)."""
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise DomainError("gamma must be positive")

    def gap(self, k, N=None, alpha=None):
        return 2.0 * k / self.gamma

    def mixture(self):
        from .limits import VanishingKillingY
        return VanishingKillingY(self.gamma)


@dataclass(frozen=True)
class LimitPoissonDirichlet(_Limit):
    """Limit regime b_A = kappa * int (1-(1-2w)^|A|) w^-1 (1-w)^(kappa-1) dw."""
    kappa: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise DomainError("kappa must be positive")

    def gap(self, k, N=None, alpha=None):
        """b_k = 2 sum_{j<k} E[(1-2w)^j] for w ~ Beta(1, kappa).

        1 - (1-2w)^k = 2w sum_{j<k} (1-2w)^j, and kappa (1-w)^(kappa-1) is the
        Beta(1, kappa) density, so the defining integral is a partial sum of
        the DeFinettiBeta(1, kappa) moments (DeFinettiBeta.rho): one cached running sum.
        """
        sums = _beta_spin_moments(1.0, float(self.kappa), _table_length(k - 1), True)
        return 2.0 * sums.item(k - 1) if k else 0.0

    def mixture(self):
        raise DomainError(
            f"the Poisson-Dirichlet limit (kappa = {self.kappa}) has no finite-variance "
            "limit process: E[Y^k] = 1/(1 + b_k) decays like 1/(kappa log k), so the "
            "series for Var(kappa_0) diverges")


def _table_length(k: int) -> int:
    """A power of two above k, so one cached table serves every size below it."""
    return 1 << k.bit_length()


def _spin_moments(a: float, b: float):
    """E[xi^n] for n = 0, 1, ..., xi = 1 - 2w with w ~ Beta(a, b): see DeFinettiBeta.rho."""
    prev, cur, n = 1.0, (b - a) / (a + b), 1.0
    yield prev
    while True:  # n counts in floats, exact below 2^53: no int object per step
        yield cur
        prev, cur = cur, ((b - a) * cur + n * prev) / (a + b + n)
        n += 1.0


@lru_cache(maxsize=32)
def _beta_spin_moments(a: float, b: float, length: int, summed: bool = False) -> np.ndarray:
    """E[xi^n] for n < length, xi = 1 - 2w with w ~ Beta(a, b); if summed, the running
    sums sum_{j<=n} E[xi^j], added in order (as np.cumsum would), without the moments."""
    moments = _spin_moments(a, b)
    table = np.fromiter(accumulate(moments) if summed else moments, float, length)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def _beta_moments(a: float, b: float, length: int) -> np.ndarray:
    """E[R^n] = prod_{i<n} (a+i)/(a+b+i) for n < length, R ~ Beta(a, b), as a running product."""
    i = np.arange(length - 1)
    table = np.cumprod(np.concatenate(([1.0], (a + i) / (a + b + i))))
    table.flags.writeable = False
    return table


def _mask(bits: np.ndarray) -> int:
    """The integer whose bit j is set where bits[j] is nonzero."""
    return int.from_bytes(np.packbits(bits, bitorder="little"), "little")


def is_exchangeable(model) -> bool:
    return model.is_exchangeable


def rho_k(model, k: int, N: int | None = None) -> float:
    """Eigenvalue for any subset of size k; exchangeable models only."""
    if k < 0:
        raise DomainError(f"subset size must be >= 0, got {k}")
    if k == 0:
        return 1.0
    return model.rho(k, N)


def rho_by_size(model, N: int) -> np.ndarray:
    """rho_k for k = 0..N as a vector; exchangeable models only."""
    return np.array([rho_k(model, k, N) for k in range(N + 1)])


def rho_subset(model, subset: int, N: int) -> float:
    """Eigenvalue rho_A = E[prod_{j in A} (-1)^Z[j]] for a subset bitmask."""
    if subset < 0 or subset >> N:
        raise DomainError(f"subset {subset:#x} is not within [{N}]")
    if model.is_limit:
        raise DomainError("limit-regime models define only b_A, not rho")
    return model.rho_subset(subset, N)


def rho_all_subsets(model, N: int) -> np.ndarray:
    """rho_A for every subset bitmask of [N] as a 2^N vector.

    Exchangeable laws reduce to a popcount lookup.  MarkovEntries runs a
    doubling pass that appends one chain position per round; round r steps
    2^r subsets, so the pass is O(2^N).  It works on two planes (the mass on
    each state) inside the 2^N result and peaks at the result plus 512 KiB.
    N is capped at SPECTRAL_ENUMERATION_N_LIMIT, checked before anything
    is allocated.
    """
    if N < 0:
        raise DomainError(f"dimension must be >= 0, got {N}")
    check_enumerable(N)
    return model.rho_all_subsets(N)


def check_enumerable(N: int):
    """Raise ResourceLimitError if the 2^N subsets of [N] are past the enumeration cap."""
    if N > SPECTRAL_ENUMERATION_N_LIMIT:
        raise ResourceLimitError(
            f"subset enumeration is capped at N={SPECTRAL_ENUMERATION_N_LIMIT}, got {N}")


def b_subset(model, subset: int, N: int | None, alpha: float | None) -> float:
    """Killed-walk gap b_A; limit-regime models ignore alpha."""
    if model.is_limit:
        return model.gap(int(subset).bit_count())
    c = _killing_c(alpha)
    if N is None:
        if model.depends_on_dimension:
            raise DomainError(f"{type(model).__name__} needs the dimension N for b_A")
        N = max(int(subset).bit_length(), 1)
    return killing_gap(c, rho_subset(model, subset, N))


def b_k(model, k: int, N: int | None, alpha: float | None) -> float:
    """Exchangeable-size version of b_subset."""
    return model.gap(k, N, alpha)


def sample_spin_xi(model, rng: np.random.Generator) -> float:
    """One draw of the spin xi = 1 - 2*omega in [-1, 1]."""
    if not model.is_definetti:
        raise DomainError(f"{type(model).__name__} has no mixing measure")
    return float(model.sample(rng))


def sample_Z(model, N: int, rng: np.random.Generator) -> int:
    """One increment draw as an N-bit mask."""
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got {N}")
    return model.sample_Z(N, rng)


def increment_pmf(model, N: int) -> np.ndarray:
    """Probability of every increment value z in {0,1}^N as a 2^N vector.

    Enumerates the law directly from the model definition, independently of
    the spectral coefficients; this is the oracle side of dual-route checks.
    N is capped at SPECTRAL_ENUMERATION_N_LIMIT, checked before anything is
    allocated.
    """
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got {N}")
    if model.is_limit:
        raise DomainError("limit-regime models have no increment law")
    check_enumerable(N)
    return model.pmf(N)


_MODEL_NAMES = {
    "iid-bernoulli": IIDBernoulli,
    "definetti-discrete": DeFinettiDiscrete,
    "definetti-beta": DeFinettiBeta,
    "single-flip": SingleFlip,
    "mflip": MFlip,
    "random-site-half": RandomSiteHalf,
    "markov-entries": MarkovEntries,
    "symmetric-beta-spin": SymmetricBetaSpin,
    "limit-linear": LimitLinear,
    "limit-poisson-dirichlet": LimitPoissonDirichlet,
}
_KEY_ALIASES = {"m": "M"}  # reports print MFlip's flip count as "M"


def model_from_dict(spec: dict) -> IncrementModel:
    """Build a model from a JSON-style dict, e.g. {"model": "mflip", "M": 2}; extra keys raise."""
    if "model" not in spec:
        raise DomainError("model spec needs a 'model' key")
    name = str(spec["model"]).lower().replace("_", "-")
    cls = _MODEL_NAMES.get(name)
    if cls is None:
        raise DomainError(f"unknown model name {spec['model']!r}; known: {sorted(_MODEL_NAMES)}")
    lowered = {k.lower(): v for k, v in spec.items() if k != "model"}
    if extra := sorted(lowered.keys() - {f.name for f in fields(cls)}):
        raise DomainError(f"model {name!r} takes no parameter {', '.join(extra)}")
    try:
        return cls(**{f.name: f.type(lowered[f.name]) for f in fields(cls)})
    except KeyError as missing:
        raise DomainError(f"model {name!r} is missing parameter {missing}") from None


def model_to_dict(model) -> dict:
    """Inverse of model_from_dict, for reports and reproducibility."""
    for name, cls in _MODEL_NAMES.items():
        if type(model) is cls:
            out = {"model": name}
            for f in fields(model):
                out[_KEY_ALIASES.get(f.name, f.name)] = _plain(getattr(model, f.name))
            return out
    raise DomainError(f"unknown model {model!r}")


def _plain(value):
    """Tuples (nested ones too) as JSON lists."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value
