"""Re-measure the single-operation timings quoted as the ROADMAP baseline.

    python3 perfbench/baseline.py

Each line names the operation, its model and N, and the median of a few
repeats (the first call is shown apart where it differs: it pays for
fresh memory).  Not part of the benchmark runs; README.md keeps the table.
"""

import statistics
import sys
import tempfile
import time
from pathlib import Path

from run import pin_blas_threads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
pin_blas_threads()  # the same thread caps as the benchmark, before numpy loads

import numpy as np  # noqa: E402

from cubefield import cli, field, increments, walk, walsh  # noqa: E402
from workloads import MARKOV  # noqa: E402

MARKOV_MODEL = increments.MarkovEntries(*MARKOV)


def timed(fn, repeats: int) -> tuple[float, float]:
    """(first call, median of the following repeats), seconds."""
    times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times[0], statistics.median(times[1:])


def report(label: str, first: float, median: float, unit_scale=1e3, unit="ms"):
    print(f"{label:<58} {median * unit_scale:10.1f} {unit}"
          f"   (first call {first * unit_scale:.1f} {unit})")


def main():
    rng = np.random.default_rng(0)
    # first, while the process heap is still small: the cold first call is
    # what a one-shot measurement sees
    for N in (20, 22):
        report(f"increments.rho_all_subsets, MarkovEntries (2-state), N = {N}",
               *timed(lambda: increments.rho_all_subsets(MARKOV_MODEL, N), 5))
    for N in (20, 22):
        v = rng.standard_normal(1 << N)
        report(f"walsh.fwht, one row, N = {N}", *timed(lambda: walsh.fwht(v), 3))
    for size in (16, 256):
        spec = walk.GreenSpec(20, increments.SingleFlip(), 0.9)
        pts = [int(x) for x in rng.choice(1 << 20, size=size, replace=False)]
        report(f"field.sample_field_cholesky, SingleFlip, N = 20, {size} points",
               *timed(lambda: field.sample_field_cholesky(spec, pts, rng), 2))
    spec = walk.GreenSpec(200, increments.DeFinettiBeta(2, 3), 0.9)
    report("walk.green_spectral, DeFinettiBeta(2,3), N = 200",
           *timed(lambda: walk.green_spectral(spec, 0, (1 << 60) - 1), 3))
    # alpha = 1 - 1e-7 walks 1e7 steps on average; time the step rate instead
    for name, model in (("SingleFlip", increments.SingleFlip()),
                        ("IIDBernoulli(0.3)", increments.IIDBernoulli(0.3))):
        steps = 20_000
        t0 = time.perf_counter()
        x = 0
        for _ in range(steps):
            x = walk.step(x, model, 50, rng)
        per_step = (time.perf_counter() - t0) / steps
        print(f"{f'walk.sample_killed_endpoint, {name}, N = 50, alpha = 1 - 1e-7':<58}"
              f" {per_step * 1e7:10.1f} s    (computed: {per_step * 1e6:.2f} us/step x 1e7)")
    with tempfile.TemporaryDirectory(prefix=".tmp-baseline-", dir=HERE) as tmp:
        out = str(Path(tmp) / "green.csv")
        argv = ["green", "--model", "iid-bernoulli", "--p", "0.3", "--N", "10",
                "--alpha", "0.9", "--out", out]
        first, median = timed(lambda: cli.main(argv), 1)
        report(f"cli green --N 10 ({Path(out).stat().st_size / 2**20:.1f} MiB CSV)",
               first, median, 1.0, "s ")
        out = str(Path(tmp) / "kappa.csv")
        argv = ["sample", "kappa", "--gamma", "2", "--replicates", "1000", "--out", out]
        report("cli sample kappa, 1000 replicates", *timed(lambda: cli.main(argv), 1),
               1.0, "s ")


if __name__ == "__main__":
    main()
