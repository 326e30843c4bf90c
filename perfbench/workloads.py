"""The four workloads: inputs from the seed, stages, and their checks.

Each workload generates every input from its seed in __init__ (that is the
set-up the benchmark times), builds its independent references in
prepare() (not timed: it is the benchmark's own work), and exposes stages
whose every call into cubefield goes through ctx.call.  Every output is
checked against a route that does not share the code under test: the
exact-integer spectral forms in reference.py, the dense oracle, a standard
error or chi-square bound, or a round trip.
"""

import copy
import csv
import itertools
import json
import os
import tempfile
from math import comb, sqrt

import numpy as np

import reference as ref
from harness import Stage, close

from cubefield import cli, field, increments, limits, pointproc, polynomials, walk, walsh

MARKOV = ((0.5, 0.5), ((0.8, 0.2), (0.3, 0.7)))  # initial law, transition rows
HERE = os.path.dirname(os.path.abspath(__file__))
CHUNK = 1 << 18  # checks walk 2^N arrays in slices, so the program sets the memory peak


def _model(spec: tuple):
    kind = spec[0]
    if kind == "iid":
        return increments.IIDBernoulli(spec[1])
    if kind == "singleflip":
        return increments.SingleFlip()
    if kind == "beta":
        return increments.DeFinettiBeta(spec[1], spec[2])
    if kind == "mflip":
        return increments.MFlip(spec[1])
    if kind == "markov":
        return increments.MarkovEntries(*MARKOV)
    raise ValueError(kind)


def _random_vertex(rng, N: int) -> int:
    return int.from_bytes(rng.bytes(N // 8 + 1), "little") & ((1 << N) - 1)


def _mask(rng, N: int, weight: int) -> int:
    out = 0
    for pos in rng.choice(N, size=weight, replace=False):
        out |= 1 << int(pos)
    return out


def _popcounts(N: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << N, dtype=np.uint64))


def _signs(subsets: np.ndarray, mask: int) -> np.ndarray:
    """(-1)^|A & mask| for each subset A of a uint64 array."""
    return 1.0 - 2.0 * (np.bitwise_count(subsets & np.uint64(mask)) & 1)


def _chunks(N: int):
    for lo in range(0, 1 << N, CHUNK):
        yield lo, min(lo + CHUNK, 1 << N)


def _weights(rho: np.ndarray, c: float) -> np.ndarray:
    return 1.0 / (1.0 + c * (1.0 - rho))


def _csv_lines(path: str, wanted) -> tuple[int, dict]:
    """The number of lines of a file and the lines at the wanted indices, read as a stream."""
    found, count = {}, 0
    wanted = set(wanted)
    with open(path, "rb") as fh:
        for count, line in enumerate(fh, 1):
            if count - 1 in wanted:
                found[count - 1] = line.decode().rstrip("\n")
    return count, found


def _cli_dir():
    """A scratch directory inside the benchmark's own folder, removed on exit."""
    return tempfile.TemporaryDirectory(prefix=".tmp-cli-", dir=HERE)


def _run_cli(ctx, name: str, argv: list[str], outputs: list[str]) -> bool:
    code = ctx.call(f"cli.{name}", cli.main, argv)
    ctx.check(f"cli {name} exit code", code == 0, code)
    written = sum(os.path.getsize(p) for p in outputs if os.path.exists(p))
    ctx.count(f"cli.{name}.bytes_written", written)
    return code == 0


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


class Workload:
    """Inputs in __init__, references in prepare(), run-level checks in finish()."""

    def prepare(self):
        pass

    def stages(self) -> list[Stage]:
        raise NotImplementedError

    def finish(self, ctx):
        pass


# ---------------------------------------------------------------------------


class CubeMC(Workload):
    """Full-cube Monte Carlo verification at N = 10 (the --verify path)."""

    N = 10
    REPLICATES = 4000
    MODELS = (("iid", 0.3), ("mflip", 2), ("markov",))

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(seed, 0)
        self.alpha = float(rng.choice([0.6, 0.7, 0.75, 0.8, 0.9]))
        self.cli_seed = int(rng.integers(1 << 30))

    def prepare(self):
        N = self.N
        pc = _popcounts(N)
        hadamard = 1.0 - 2.0 * (np.bitwise_count(
            np.bitwise_and.outer(np.arange(1 << N, dtype=np.uint64),
                                 np.arange(1 << N, dtype=np.uint64))) & 1)
        self.ref_weights, self.ref_tables = {}, {}
        c = self.alpha / (1.0 - self.alpha)
        for m in self.MODELS:
            if m[0] == "markov":
                rho = ref.markov_rho_all(*MARKOV, N)
            else:
                rho = np.array([r / ref.ONE for r in ref.rho_fixed(m, N)])[pc]
            w = _weights(rho, c)
            self.ref_weights[m] = w
            self.ref_tables[m] = hadamard @ w / (1 << N)
        self.xor = np.bitwise_xor.outer(np.arange(1 << N), np.arange(1 << N))
        self.green9 = ref.ExactGreen(("iid", 0.3), 9, self.alpha)
        self.green6 = ref.ExactGreen(("mflip", 2), 6, self.alpha)

    def stages(self) -> list[Stage]:
        out = [Stage(f"mc-{m[0]}", self._mc_stage(i, m)) for i, m in enumerate(self.MODELS)]
        return out + [Stage("cli", self._cli_stage)]

    def _mc_stage(self, index: int, m: tuple):
        executions = itertools.count()

        def run(ctx):
            N, R = self.N, self.REPLICATES
            spec = walk.GreenSpec(N, _model(m), self.alpha)
            rng = _rng(self.seed, 1, index, next(executions))
            draws = ctx.call("field.sample_field_spectral_batch",
                             field.sample_field_spectral_batch, spec, rng, R)
            ctx.count("field.sample_field_spectral_batch.vertices", R << N)
            emp = draws.T @ draws
            emp /= R
            analytic = ctx.call("walk.green_matrix_spectral", walk.green_matrix_spectral, spec)
            ctx.check("green_matrix_spectral vs Hadamard reference",
                      np.max(np.abs(analytic - self.ref_tables[m][self.xor])) < 1e-12)
            diag = np.diag(analytic)
            se = np.sqrt((np.outer(diag, diag) + analytic ** 2) / R)
            frac = float(np.mean(np.abs(emp - analytic) <= 3.0 * se))
            ctx.check("MC covariance within 3 SE", frac >= 0.99, frac)
            # spectral domain: each transformed coordinate has variance w_A
            hat = ctx.call("walsh.fwht", walsh.fwht, draws)
            _count_fwht(ctx, R, N)
            del draws
            var = np.einsum("ij,ij->j", hat, hat) * 2.0 ** -N / R
            del hat
            z = (var / self.ref_weights[m] - 1.0) / sqrt(2.0 / R)
            ctx.check("per-subset variance within 6 SE", float(np.max(np.abs(z))) < 6.0,
                      float(np.max(np.abs(z))))
            table = ctx.call("walk.green_xor_table", walk.green_xor_table, spec)
            oracle = ctx.call("walk.green_matrix_oracle", walk.green_matrix_oracle, spec)
            gap = float(np.max(np.abs(table[self.xor] - oracle)))
            ctx.check("green_xor_table vs dense oracle", gap < 1e-10, gap)
        return run

    def _cli_stage(self, ctx):
        with _cli_dir() as d:
            out, summ = os.path.join(d, "green.csv"), os.path.join(d, "green.json")
            argv = ["green", "--model", "iid-bernoulli", "--p", "0.3", "--N", "9",
                    "--alpha", repr(self.alpha), "--out", out, "--summary", summ]
            if _run_cli(ctx, "green", argv, [out, summ]):
                with open(summ) as fh:
                    summary = json.load(fh)
                ctx.check("green summary oracle", summary["oracle_max_discrepancy"] < 1e-10,
                          summary["oracle_max_discrepancy"])
                rng = _rng(self.seed, 2, self.cli_seed)
                pairs = [(int(x), int(y)) for x, y in rng.integers(0, 1 << 9, size=(8, 2))]
                count, lines = _csv_lines(out, [1 + (x << 9) + y for x, y in pairs])
                ctx.check("green row count", count == 4 ** 9 + 1, count)
                for x, y in pairs:
                    row = lines[1 + (x << 9) + y].split(",")
                    want = self.green9.point((x ^ y).bit_count())
                    ctx.check("green row value", [int(row[0]), int(row[1])] == [x, y]
                              and close(float(row[2]), want, 1e-9, 1e-15), (row, want))
            out = os.path.join(d, "verify.json")
            argv = ["sample", "field", "--model", "mflip", "--M", "2", "--N", "6",
                    "--alpha", repr(self.alpha), "--verify", "--replicates", "20000",
                    "--seed", str(self.cli_seed), "--out", out]
            if _run_cli(ctx, "sample_field", argv, [out]):
                with open(out) as fh:
                    report = json.load(fh)
                ctx.check("verify within 3 SE", report["fraction_within_3se"] >= 0.99,
                          report["fraction_within_3se"])
                entries = report["entries"]
                ctx.check("verify entry count", len(entries) == 4096, len(entries))
                for e in entries[::257]:
                    want = self.green6.point((e["x"] ^ e["y"]).bit_count())
                    ctx.check("verify analytic entry", close(e["analytic"], want, 1e-9, 1e-15))


def _count_fwht(ctx, rows: int, N: int):
    butterflies = rows * N * (1 << (N - 1))
    ctx.count("walsh.fwht.butterflies", butterflies)
    # each of the N passes reads and writes every float64 once
    ctx.count("walsh.fwht.bytes_computed", 16 * rows * N * (1 << N))


# ---------------------------------------------------------------------------


class CubeLarge(Workload):
    """Single full-cube draws at N = 22 and 20: the FWHT on one long row."""

    # largest first: the first N = 20 draw after the N = 22 one finds the heap
    # already grown, as every later one does.  IIDBernoulli is drawn at N = 20
    # only: at N = 22 it would repeat the same transforms, and a pass must
    # stay short enough for three measured cycles in one run
    CONFIGS = ((("markov",), 22), (("iid", 0.3), 20), (("markov",), 20))
    CLI_N = 18
    SIZES = (20, 22)

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(seed, 0)
        self.alpha = float(rng.choice([0.6, 0.7, 0.75, 0.8, 0.9]))
        self.noise = {N: field.SpectralNoise(N, rng.standard_normal(1 << N)) for N in self.SIZES}
        self.subsets = {N: [_random_vertex(rng, N) for _ in range(16)] for N in self.SIZES}
        self.spots = {N: [0] + [_random_vertex(rng, N) for _ in range(2)] for N in self.SIZES}
        self.cli_seed = int(rng.integers(1 << 30))
        self.cli_rows = [int(x) for x in rng.integers(0, 1 << self.CLI_N, size=3)]

    def prepare(self):
        self.pc = {N: _popcounts(N) for N in self.SIZES}
        self.K = {N: np.array(ref.krawtchouk_matrix(N), dtype=float) for N in self.SIZES}
        self.exact = {N: ref.ExactGreen(("iid", 0.3), N, self.alpha)
                      for N in self.SIZES + (self.CLI_N,)}
        # the CLI draws its noise from replicate stream 0 of its seed
        N = self.CLI_N
        noise = np.random.default_rng(
            np.random.SeedSequence(entropy=self.cli_seed, spawn_key=(0,))).standard_normal(1 << N)
        w = np.array([self.exact[N].weight(k) for k in range(N + 1)])[_popcounts(N)]
        scaled = np.sqrt(w) * noise
        subsets = np.arange(1 << N, dtype=np.uint64)
        self.cli_values = {x: float(np.dot(scaled, _signs(subsets, x))) * 2.0 ** (-N / 2)
                           for x in self.cli_rows}

    def stages(self) -> list[Stage]:
        return [Stage(f"large-{m[0]}-{N}", self._draw_stage(m, N)) for m, N in self.CONFIGS] + \
            [Stage("cli", self._cli_stage)]

    def _draw_stage(self, m: tuple, N: int):
        def run(ctx):
            model, noise, pc = _model(m), self.noise[N], self.pc[N]
            spec = walk.GreenSpec(N, model, self.alpha)
            sample = ctx.call("field.sample_field_spectral", field.sample_field_spectral,
                              spec, noise)
            ctx.count("field.sample_field_spectral.vertices", 1 << N)
            levels = ctx.call("limits.levelset_direct", limits.levelset_direct, sample)
            back = ctx.call("walsh.fwht", walsh.fwht, sample.values)
            _count_fwht(ctx, 1, N)
            del sample
            back *= 2.0 ** (-N / 2.0)
            rho = ctx.call("increments.rho_all_subsets", increments.rho_all_subsets, model, N)
            for A in self.subsets[N]:
                direct = ctx.call("increments.rho_subset", increments.rho_subset, model, A, N)
                ok = close(rho[A], direct, 0.0, 1e-12)
                if m[0] == "iid":
                    ok = ok and close(rho[A], self.exact[N].rho_k(A.bit_count()), 0.0, 1e-12)
                ctx.check("rho_all_subsets entry", ok, (A, rho[A], direct))
            # the draw is W(sqrt(w) noise) 2^(-N/2); S_k is the size-k mass of sqrt(w) noise
            gap, top, S = 0.0, 0.0, np.zeros(N + 1)
            for lo, hi in _chunks(N):
                scaled = np.sqrt(_weights(rho[lo:hi], spec.c)) * noise.values[lo:hi]
                gap = max(gap, float(np.max(np.abs(back[lo:hi] - scaled))))
                top = max(top, float(np.max(np.abs(scaled))))
                S += np.bincount(pc[lo:hi], weights=scaled, minlength=N + 1)
            del back
            ctx.check("fwht round trip of the draw", gap <= 1e-9 * top, gap)
            # theta_v = 2^(-N/2) sum_k K_v(k) S_k
            want = self.K[N] @ S * 2.0 ** (-N / 2.0)
            scale = float(np.max(np.abs(self.K[N]) @ np.abs(S))) * 2.0 ** (-N / 2.0)
            gap = float(np.max(np.abs(levels - want)))
            ctx.check("level sets by Krawtchouk transform", gap <= 1e-9 * scale, gap)
            table = ctx.call("walk.green_xor_table", walk.green_xor_table, spec)
            ctx.check("Green table is a probability vector",
                      abs(float(table.sum()) - 1.0) < 1e-9 and float(table.min()) > -1e-12)
            # G(d) = 2^-N sum_A w_A (-1)^|A & d|
            sums = dict.fromkeys(self.spots[N], 0.0)
            for lo, hi in _chunks(N):
                w = _weights(rho[lo:hi], spec.c)
                subsets = np.arange(lo, hi, dtype=np.uint64)
                for d in sums:
                    sums[d] += float(np.dot(w, _signs(subsets, d)))
            for d, total in sums.items():
                want = total / (1 << N)
                ok = close(table[d], want, 1e-9, 1e-15)
                if m[0] == "iid":
                    ok = ok and close(table[d], self.exact[N].point(d.bit_count()), 1e-9, 1e-15)
                ctx.check("Green table entry by direct sum", ok, (d, table[d], want))
        return run

    def _cli_stage(self, ctx):
        N = self.CLI_N
        with _cli_dir() as d:
            out = os.path.join(d, "field.csv")
            argv = ["sample", "field", "--model", "iid-bernoulli", "--p", "0.3", "--N", str(N),
                    "--alpha", repr(self.alpha), "--seed", str(self.cli_seed), "--out", out]
            if _run_cli(ctx, "sample_field", argv, [out]):
                count, lines = _csv_lines(out, [1 + x for x in self.cli_values])
                ctx.check("field row count", count == (1 << N) + 1, count)
                for x, want in self.cli_values.items():
                    bits, value = lines[1 + x].split(",")
                    ctx.check("field row value", int(bits, 2) == x
                              and close(float(value), want, 1e-9, 1e-12), (x, value, want))


# ---------------------------------------------------------------------------


class Exchangeable(Workload):
    """O(N) Krawtchouk routes: pointwise Green, Cholesky draws, level sets, endpoints."""

    # green_hamming is left out at these sizes: past N ~ 64 it loses every digit
    # (absolute error 2e-3 at N = 100, 1e12 at N = 200); see README.md
    GREEN = ((("iid", 0.3), 400, 0.9, 40), (("singleflip",), 300, 0.95, 40),
             (("beta", 2, 3), 200, 0.9, 8))
    CHOLESKY = ((("iid", 0.3), 200, 0.9, 32), (("singleflip",), 300, 0.95, 16),
                (("beta", 2, 3), 100, 0.9, 8))
    LEVELSET = (("singleflip",), 400, 0.9)
    ENDPOINT = (("iid", 0.3), 50, 0.999, 32)
    CHECK_DEGREES = 4

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(seed, 0)
        self.pairs = {}
        for m, N, _, n_pairs in self.GREEN:
            pairs = []
            for i in range(n_pairs):
                d = int(rng.integers(0, 9)) if i % 2 == 0 else int(rng.integers(0, N + 1))
                x = _random_vertex(rng, N)
                pairs.append((x, x ^ _mask(rng, N, d)))
            self.pairs[m] = pairs
        self.points = {}
        for m, N, _, size in self.CHOLESKY:
            base, pts = _random_vertex(rng, N), set()
            while len(pts) < size:
                pts.add(base ^ _mask(rng, N, int(rng.integers(0, 6))))
            self.points[m] = sorted(pts)
        self.zetas = rng.standard_normal(self.LEVELSET[1] + 1)
        self.start = _random_vertex(rng, self.ENDPOINT[1])
        self.basis_N = int(rng.integers(48, 65))
        self.basis_pairs = [tuple(int(v) for v in rng.integers(0, self.basis_N + 1, size=2))
                            for _ in range(8)]
        self.endpoint_levels: list[int] = []
        self.endpoint_probs: list[float] = []

    def prepare(self):
        self.exact = {(m, N): ref.ExactGreen(m, N, a) for m, N, a, *_ in self.GREEN + self.CHOLESKY}
        m, N, a = self.LEVELSET
        self.exact[(m, N)] = ref.ExactGreen(m, N, a)
        m, N, a, _ = self.ENDPOINT
        self.exact[(m, N)] = ref.ExactGreen(m, N, a)
        self.factors = {}
        for m, N, _, _ in self.CHOLESKY:
            g, pts = self.exact[(m, N)], self.points[m]
            cov = np.array([[g.point((x ^ y).bit_count()) for y in pts] for x in pts])
            self.factors[m] = np.linalg.cholesky(cov)
        self.basis_K = ref.krawtchouk_matrix(self.basis_N)

    def stages(self) -> list[Stage]:
        out = [Stage(f"green-{m[0]}", self._green_stage(m, N, a)) for m, N, a, *_ in self.GREEN]
        return out + [Stage("cholesky", self._cholesky_stage()),
                      Stage("levelset", self._levelset_stage),
                      Stage("endpoint", self._endpoint_stage()),
                      Stage("krawtchouk", self._krawtchouk_stage)]

    def _green_stage(self, m: tuple, N: int, alpha: float):
        def run(ctx):
            model, exact = _model(m), self.exact[(m, N)]
            for k in range(N + 1):
                got = ctx.call("increments.rho_k", increments.rho_k, model, k, N)
                ctx.check("rho_k", close(got, exact.rho_k(k), 0.0, 1e-12), (k, got))
            spec = walk.GreenSpec(N, model, alpha)
            for x, y in self.pairs[m]:
                got = ctx.call("walk.green_spectral", walk.green_spectral, spec, x, y)
                want = exact.point((x ^ y).bit_count())
                ctx.check("green_spectral", close(got, want, 1e-9, 1e-13), (got, want))
        return run

    def _cholesky_stage(self):
        executions = itertools.count()

        def run(ctx):
            k = next(executions)
            for i, (m, N, alpha, size) in enumerate(self.CHOLESKY):
                spec = walk.GreenSpec(N, _model(m), alpha)
                rng = _rng(self.seed, 3, i, k)
                replay = copy.deepcopy(rng)
                draw = ctx.call("field.sample_field_cholesky", field.sample_field_cholesky,
                                spec, self.points[m], rng)
                ctx.count("field.sample_field_cholesky.points", size)
                # the draw is L z for the normals z the sampler took from its generator
                want = self.factors[m] @ replay.standard_normal(size)
                gap = float(np.max(np.abs(draw.values - want)))
                ctx.check("Cholesky draw replayed against the exact factor",
                          gap <= 1e-7 * max(1.0, float(np.max(np.abs(want)))), gap)
        return run

    def _levelset_stage(self, ctx):
        m, N, alpha = self.LEVELSET
        spec = walk.GreenSpec(N, _model(m), alpha)
        exact = self.exact[(m, N)]
        cov = ctx.call("limits.levelset_cov_matrix", limits.levelset_cov_matrix, spec)
        theta = ctx.call("limits.levelset_representation", limits.levelset_representation,
                         spec, self.zetas)
        for j in range(self.CHECK_DEGREES):
            # Krawtchouk orthogonality makes q_j = Q_j(.) an eigenvector-like probe:
            # Cov q_j = w_j binom(N,u) Q_j(u), and q_j . theta = zeta_j sqrt(q_j' Cov q_j)
            q = np.array([exact.K[j][v] / comb(N, j) for v in range(N + 1)])
            binom = np.array([float(comb(N, u)) for u in range(N + 1)])
            lhs = cov @ q
            rhs = exact.weight(j) * binom * q
            scale = np.abs(cov) @ np.abs(q)
            ctx.check("level-set covariance against the Krawtchouk eigenvector",
                      bool(np.all(np.abs(lhs - rhs) <= 1e-8 * scale)), j)
            proj = float(q @ theta)
            want = self.zetas[j] * sqrt(float(q @ lhs))
            ctx.check("representation against the covariance",
                      close(proj, want, 1e-8, 1e-8 * float(np.abs(q) @ np.abs(theta))),
                      (j, proj, want))

    def _endpoint_stage(self):
        executions = itertools.count()

        def run(ctx):
            m, N, alpha, draws = self.ENDPOINT
            spec = walk.GreenSpec(N, _model(m), alpha)
            exact = self.exact[(m, N)]
            rng = _rng(self.seed, 4, next(executions))
            for _ in range(draws):
                end = ctx.call("walk.sample_killed_endpoint", walk.sample_killed_endpoint,
                               spec, self.start, rng)
                ctx.check("endpoint is a vertex", 0 <= end < 1 << N, end)
                self.endpoint_levels.append((end ^ self.start).bit_count())
            self.endpoint_probs = []
            for v in range(N + 1):
                got = ctx.call("walk.green_hamming", walk.green_hamming, spec, 0, v)
                ctx.check("green_hamming row", close(got, exact.level(0, v), 1e-9, 1e-9), v)
                self.endpoint_probs.append(got)
        return run

    def _krawtchouk_stage(self, ctx):
        N, K = self.basis_N, self.basis_K
        basis = ctx.call("polynomials.KrawtchoukBasis", polynomials.KrawtchoukBasis, N)
        for j, k in self.basis_pairs:
            total = sum(comb(N, w) * basis.scaled(j, w) * basis.scaled(k, w) for w in range(N + 1))
            ctx.check("Krawtchouk orthogonality", total == ((1 << N) * comb(N, j) if j == k else 0))
            ctx.check("Krawtchouk self-duality",
                      basis.scaled(k, j) * comb(N, j) == basis.scaled(j, k) * comb(N, k))
            ctx.check("Krawtchouk exact value", basis.scaled(j, k) == K[j][k])
            row = ctx.call("polynomials.krawtchouk_row", polynomials.krawtchouk_row, N, k)
            want = np.array([K[i][k] / comb(N, i) for i in range(N + 1)])
            ctx.check("krawtchouk_row", float(np.max(np.abs(row - want))) < 1e-9)

    def finish(self, ctx):
        """Chi-square of every endpoint level drawn in the run against green_hamming."""
        if not self.endpoint_probs:
            return  # the endpoint stage raised; that failure is already counted
        counts = np.bincount(self.endpoint_levels, minlength=self.ENDPOINT[1] + 1)
        stat, dof = ref.chi2_pooled(counts, self.endpoint_probs)
        ctx.check("endpoint levels chi-square", ref.chi2_sf(stat, dof) > 1e-6, (stat, dof))


# ---------------------------------------------------------------------------


class Limit(Workload):
    """Hermite series, mixture quadrature and the product sampler; no 2^N array."""

    GRID = "-2:2:0.25"
    KAPPA_PATHS = 64
    Y_DRAWS = 1_000_000
    Y_LAW = ((0.2, 0.9), (0.5, 0.5), 0.75)
    CLT_GAMMA = 2.0
    CLT_DIMS = (50, 100, 200, 400)

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(seed, 0)
        self.gamma = float(rng.choice([1.5, 2.0, 3.0, 4.0]))
        self.grid = np.arange(-2.0, 2.0 + 1e-9, 0.25)
        self.theta_grid = np.linspace(-3.0, 3.0, 25)
        self.inversion_t = [float(t) for t in rng.uniform(-1.5, 1.5, size=3)]
        self.cli_seed = int(rng.integers(1 << 30))

    def prepare(self):
        self.basis = ref.hermite_basis(limits.TRUNCATION_CAP, self.grid, self.gamma)
        atoms, weights, alpha = self.Y_LAW
        self.y_moments = [ref.discrete_y_moment(atoms, weights, alpha, k) for k in range(9)]
        self.y_positive = ref.discrete_y_positive(atoms, weights, alpha)

    def stages(self) -> list[Stage]:
        return [Stage("kappa", self._kappa_stage()), Stage("ylaw", self._y_stage()),
                Stage("transform", self._transform_stage()), Stage("cli", self._cli_stage)]

    def _kappa_stage(self):
        executions = itertools.count()

        def run(ctx):
            ylaw = limits.VanishingKillingY(self.gamma)
            spec = ctx.call("limits.build_kappa_spec", limits.build_kappa_spec, ylaw, self.grid)
            rng = _rng(self.seed, 5, next(executions))
            order = spec.order
            for _ in range(self.KAPPA_PATHS):
                z = rng.standard_normal(order + 1)
                path = ctx.call("limits.kappa_sample", limits.kappa_sample, spec, z)
                want = self.basis[:, : order + 1] @ z
                ctx.check("kappa path against the Hermite series",
                          float(np.max(np.abs(path - want))) < 1e-10)
            series = ctx.call("limits.kappa_cov", limits.kappa_cov, ylaw, 0.0, 0.0, order=order)
            mixture = ctx.call("limits.kappa_cov", limits.kappa_cov, ylaw, 0.0, 0.0,
                               method="mixture")
            ctx.check("truncation within the reported tail bound",
                      abs(series - mixture) <= spec.tail_bound, (series, mixture, spec.tail_bound))
        return run

    def _y_stage(self):
        executions = itertools.count()

        def run(ctx):
            atoms, weights, alpha = self.Y_LAW
            law = pointproc.YLaw.from_model(increments.DeFinettiDiscrete(atoms, weights), alpha)
            rng = _rng(self.seed, 6, next(executions))
            draws = ctx.call("pointproc.sample_Y", pointproc.sample_Y, law, rng,
                             size=self.Y_DRAWS)
            ctx.count("pointproc.sample_Y.draws", self.Y_DRAWS)
            n = len(draws)
            for k in range(1, 5):
                closed = ctx.call("pointproc.moment_Y", pointproc.moment_Y, law, k)
                ctx.check("moment_Y closed form", close(closed, self.y_moments[k], 1e-12))
                powers = draws ** k
                se = float(np.std(powers)) / sqrt(n)
                ctx.check("sample_Y moment within 5 SE",
                          abs(float(np.mean(powers)) - closed) <= 5 * se, k)
            pos = ctx.call("pointproc.sign_probability", pointproc.sign_probability, law, +1)
            ctx.check("sign_probability closed form", close(pos, self.y_positive, 1e-12))
            frac = float(np.mean(draws > 0))
            ctx.check("sample_Y sign within 5 SE",
                      abs(frac - pos) <= 5 * sqrt(pos * (1 - pos) / n), frac)
        return run

    def _transform_stage(self):
        executions = itertools.count()

        def run(ctx):
            ylaw = limits.VanishingKillingY(self.gamma)
            spec = ctx.call("limits.build_kappa_spec", limits.build_kappa_spec, ylaw, self.grid)
            z = _rng(self.seed, 7, next(executions)).standard_normal(spec.order + 1)
            U, V = ctx.call("limits.transform_sample", limits.transform_sample,
                            spec, z, self.theta_grid)
            mid = len(self.theta_grid) // 2
            ctx.check("transform at theta = 0 is (zeta_0, 0)",
                      close(U[mid], z[0], 1e-12, 1e-14) and abs(V[mid]) < 1e-14)
            for t in self.inversion_t:
                gap = ctx.call("limits.inversion_check", limits.inversion_check, spec, z, t)
                ctx.check("Fourier inversion", gap < 1e-4, gap)
            lhs, rhs = ctx.call("limits.parseval_check", limits.parseval_check, ylaw)
            ctx.check("Parseval", close(lhs, rhs, 1e-8), (lhs, rhs))
            gaps = ctx.call("limits.levelset_clt_check", limits.levelset_clt_check,
                            self.CLT_GAMMA, self.CLT_DIMS, (-1.5, -0.75, 0.0, 0.75, 1.5))
            values = [gaps[n] for n in self.CLT_DIMS]
            ctx.check("level-set CLT gap shrinks with N",
                      all(b <= 1.1 * a for a, b in zip(values, values[1:])) and values[-1] < 0.02,
                      values)
        return run

    def _cli_stage(self, ctx):
        with _cli_dir() as d:
            out = os.path.join(d, "kappa.csv")
            reps = 16
            argv = ["sample", "kappa", "--gamma", repr(self.gamma), "--grid", self.GRID,
                    "--replicates", str(reps), "--seed", str(self.cli_seed), "--out", out]
            if _run_cli(ctx, "sample_kappa", argv, [out]):
                with open(out, newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
                ctx.check("kappa row count", len(rows) == reps * len(self.grid), len(rows))
                spec = ctx.call("limits.build_kappa_spec", limits.build_kappa_spec,
                                limits.VanishingKillingY(self.gamma), self.grid)
                for rep in (0, reps - 1):
                    z = np.random.default_rng(np.random.SeedSequence(
                        entropy=self.cli_seed, spawn_key=(rep,))).standard_normal(spec.order + 1)
                    want = self.basis[:, : spec.order + 1] @ z
                    got = np.array([float(r[2]) for r in rows if int(r[0]) == rep])
                    ctx.check("kappa CLI path", got.shape == want.shape
                              and float(np.max(np.abs(got - want))) < 1e-10, rep)
            atoms, weights, alpha = self.Y_LAW
            out, summ = os.path.join(d, "ylaw.csv"), os.path.join(d, "ylaw.json")
            argv = ["ylaw", "--model", "definetti-discrete",
                    "--atoms", ",".join(map(str, atoms)), "--weights", ",".join(map(str, weights)),
                    "--alpha", repr(alpha), "--kmax", "6", "--mc-draws", "200000",
                    "--seed", str(self.cli_seed), "--out", out, "--summary", summ]
            if _run_cli(ctx, "ylaw", argv, [out, summ]):
                with open(out, newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
                for k, closed, est, se in rows:
                    k = int(k)
                    ctx.check("ylaw closed form", close(float(closed), self.y_moments[k], 1e-12))
                    ctx.check("ylaw MC within 5 SE",
                              abs(float(est) - float(closed)) <= 5 * float(se) + 1e-15, k)
                with open(summ) as fh:
                    summary = json.load(fh)
                ctx.check("ylaw sign probability",
                          close(summary["sign_positive"], self.y_positive, 1e-12))
            out = os.path.join(d, "limits.json")
            argv = ["limits", "--gamma", repr(self.CLT_GAMMA),
                    "--N-list", ",".join(map(str, self.CLT_DIMS)),
                    "--seed", str(self.cli_seed), "--out", out]
            if _run_cli(ctx, "limits", argv, [out]):
                with open(out) as fh:
                    report = json.load(fh)
                ctx.check("limits inversion residuals",
                          max(report["inversion_residuals"].values()) < 1e-4)
                ctx.check("limits Parseval", close(report["parseval"]["lhs"],
                                                   report["parseval"]["rhs"], 1e-8))
                gaps = [report["clt_gaps"][str(n)] for n in self.CLT_DIMS]
                ctx.check("limits CLT gaps shrink",
                          all(b <= 1.1 * a for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 0.02)


WORKLOADS = {"cube-mc": CubeMC, "cube-large": CubeLarge,
             "exchangeable": Exchangeable, "limit": Limit}
