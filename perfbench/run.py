"""cubefield benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload cube-mc --seed 1 --seconds 20 --trace 0

Prints every metric by name with its unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones, and the spans are written to perfbench/.traces/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness  # stdlib only; numpy and cubefield load after the thread caps are set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Throughputs a user of each route sees, from the untraced call timings:
# (name, numerator calls or counter, timed functions, stage filter).
RATES = (
    ("field_vertices_per_s", ("field.sample_field_spectral_batch.vertices",
                              "field.sample_field_spectral.vertices"),
     ("field.sample_field_spectral_batch", "field.sample_field_spectral"), None),
    ("green_evals_per_s", ("walk.green_spectral", "walk.green_hamming"),
     ("walk.green_spectral", "walk.green_hamming"), None),
    ("cholesky_draws_per_s", ("field.sample_field_cholesky",),
     ("field.sample_field_cholesky",), None),
    ("endpoint_draws_per_s", ("walk.sample_killed_endpoint",),
     ("walk.sample_killed_endpoint",), None),
    ("kappa_paths_per_s", ("limits.kappa_sample",),
     ("limits.build_kappa_spec", "limits.kappa_sample"), "kappa"),
    ("y_draws_per_s", ("pointproc.sample_Y.draws",), ("pointproc.sample_Y",), None),
)


def pin_blas_threads() -> int:
    """One BLAS/OpenMP thread, whatever the caller's environment says.

    The Python layers are single-threaded, and on a small shared machine a
    second BLAS thread mostly adds scheduling noise.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def setup_time(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import cubefield and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def environment(args, cores: int, run_id: str) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cubefield").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_id": run_id,
        "git_sha": _command(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
        if (ROOT / ".git").exists() else None,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "nproc": cores, "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "cache_bytes": _cache_sizes(),
        "machine": platform.machine(),
    }


def _command(argv) -> str | None:
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _cache_sizes() -> dict:
    text = _command(["getconf", "-a"]) or ""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            out[parts[0]] = int(parts[1])
    return out


def rates(executions) -> dict:
    out = {}
    for name, numerators, timed, stage in RATES:
        chosen = [ex for ex in executions if stage is None or ex.stage == stage]
        num = sum(ex.counts.get(n, 0) + ex.calls.get(n, 0) for ex in chosen for n in numerators)
        busy = sum(ex.busy.get(f, 0.0) for ex in chosen for f in timed)
        if num and busy:
            out[name] = num / busy
    return out


def per_layer(names: list[str], executions) -> dict:
    traced = [ex for ex in executions if ex.traced]
    out = {}
    for name in names:
        if name.endswith(".peak_mb"):
            fn = name[: -len(".peak_mb")]
            value = max((ex.peaks.get(fn, 0) for ex in executions if ex.warmup), default=0)
            value /= 1 << 20
        elif name.endswith(".calls"):
            fn = name[: -len(".calls")]
            value = harness.per_pass(traced, lambda ex: ex.calls.get(fn, 0))
        elif name.endswith(".busy_s"):
            fn = name[: -len(".busy_s")]
            value = harness.per_pass(traced, lambda ex: ex.busy.get(fn, 0.0))
        elif name == "trace.overhead_s":
            timed = [ex for ex in executions if not ex.warmup]
            value = harness.per_pass(timed, lambda ex: ex.seconds, traced=True) - \
                harness.per_pass(timed, lambda ex: ex.seconds, traced=False)
        elif name == "trace.spans":
            value = harness.per_pass(traced, lambda ex: sum(ex.calls.values()))
        else:
            value = harness.per_pass(traced, lambda ex: ex.counts.get(name, 0))
        out[name] = value
    return out


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cores = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cubefield  # the program under test, from this checkout's src/
    except ImportError as err:
        print(f"error: cannot import cubefield from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if not Path(cubefield.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: cubefield came from {cubefield.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    run_id = harness.new_run_id()
    env = environment(args, cores, run_id)
    setups = setup_time(args.workload, args.seed)

    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    inputs_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    workload.prepare()
    reference_s = time.perf_counter() - t0

    layer_names = [m["name"] for m in config["per_layer"]]
    memory = frozenset(n[: -len(".peak_mb")] for n in layer_names if n.endswith(".peak_mb"))
    ctx = harness.Context(run_id, memory)
    executions = harness.run_stages(workload.stages(), args.seconds, bool(args.trace), ctx)
    final = harness.execute(harness.Stage("final", workload.finish), ctx)

    attempted = sum(ex.attempted for ex in executions) + final.attempted
    failed = sum(ex.failed for ex in executions) + final.failed
    timed = [ex for ex in executions if not ex.warmup]
    untraced = [ex for ex in timed if not ex.traced]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": harness.per_pass(untraced, lambda ex: ex.seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB
    }
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}

    print(f"# cubefield benchmark {args.workload} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# in-process inputs {inputs_s:.3f} s, references {reference_s:.3f} s (not timed)")
    print(f"setup_s {e2e['setup_s']:.4f} s (median of {len(setups)} fresh processes, "
          f"max {max(setups):.4f} s)")
    print(f"wall_s {e2e['wall_s']:.4f} s (one full pass, checks included: "
          f"sum of stage medians)")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MiB")
    print(f"fail_ratio {failed / max(attempted, 1):.6f} "
          f"({failed} failed of {attempted} operations)")
    cli_s = harness.per_pass(untraced, lambda ex: sum(
        v for k, v in ex.busy.items() if k.startswith("cli.")))
    if cli_s:
        print(f"cli_s {cli_s:.4f} s (CLI commands per pass, in-process)")
    for name, value in rates(timed).items():
        print(f"{name} {value:.6g} 1/s")
    stages = {}
    for ex in timed:
        stages.setdefault(ex.stage, []).append(ex.seconds)
    for stage, times in stages.items():
        print(f"stage {stage} s " + json.dumps(harness.tail(times)))
    latencies = {}
    for ex in untraced:
        for fn, values in ex.latencies.items():
            latencies.setdefault(fn, []).extend(values)
    for fn, values in sorted(latencies.items()):
        print(f"call {fn} s " + json.dumps(harness.tail(values)))
    for line in ctx.failures:
        print(f"FAILED {line}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(layer_names, executions)
        trace_dir = HERE / ".traces"
        trace_dir.mkdir(exist_ok=True)
        harness.write_spans(trace_dir / f"{args.workload}-{args.seed}-{run_id}.jsonl", ctx.spans)
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in config["end_to_end"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
