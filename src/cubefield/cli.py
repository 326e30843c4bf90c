"""Command-line interface: reproducible tables, samples, and reports.

Every command takes an increment-model specification, a root seed, and an
output path; the same configuration and seed produce byte-identical files
(ordering is canonical and no timestamps are written).  JSON reports carry
a schema_version field.  Exit codes: 0 success, 2 usage error, 3
numeric/domain error.
"""

import argparse
import csv
import json
import sys
from math import floor

import numpy as np

from . import field, increments, limits, pointproc, walk
from .errors import DomainError, NumericError, ResourceLimitError

SCHEMA_VERSION = 1
USAGE_EXIT = 2
NUMERIC_EXIT = 3


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one replicate chunk, derived by counter."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _bit_strings(width: int) -> list[str]:
    """The width-digit binary string of every integer in [0, 2^width), in order."""
    table = [""]
    for _ in range(width):
        table = ["0" + b for b in table] + ["1" + b for b in table]
    return table


def _write_json(path, payload):
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    # compact, so json.dumps runs its C encoder (indent forces the Python one)
    text = json.dumps(payload, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _model_from_args(args) -> increments.IncrementModel:
    spec = {}
    if args.config:
        with open(args.config) as fh:
            spec.update(json.load(fh).get("model_spec", {}))
    if args.model:
        spec["model"] = args.model
    for key in ("p", "a", "b", "M"):
        val = getattr(args, key, None)
        if val is not None:
            spec[key] = val
    if getattr(args, "atoms", None):
        spec["atoms"] = [float(x) for x in args.atoms.split(",")]
    if getattr(args, "weights", None):
        spec["weights"] = [float(x) for x in args.weights.split(",")]
    if not spec:
        raise DomainError("no model specified (use --model or --config)")
    return increments.model_from_dict(spec)


def _parse_grid(text: str) -> np.ndarray:
    """'lo:hi:step': lo, lo + step, ... up to hi, never past it (1e-9 step of slack)."""
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise DomainError(f"grid must be lo:hi:step, got {text!r}") from None
    if step <= 0 or hi < lo:
        raise DomainError(f"bad grid bounds {text!r}")
    n = floor((hi - lo) / step + 1e-9)
    return np.array([lo + i * step for i in range(n + 1)])


# ---------------------------------------------------------------------------
# commands


def cmd_green(args) -> int:
    model = _model_from_args(args)
    spec = walk.GreenSpec(args.N, model, args.alpha)
    table = walk.green_xor_table(spec)
    n = 1 << args.N
    values = table.tolist()
    if args.format == "json":
        _write_json(args.out, {"header": ["x", "y", "value"],
                               "rows": [[x, y, values[x ^ y]]
                                        for x in range(n) for y in range(n)]})
    else:
        # the same bytes as csv.writer: no field here needs quoting.  One
        # write per x: its rows are the "y," column beside reps[y ^ x]
        reps = np.array([repr(v) for v in values], dtype=object)
        y_col = [f"{y}," for y in range(n)]
        idx = np.arange(n)
        with open(args.out, "w", newline="") as fh:
            fh.write("x,y,value\r\n")
            for x in range(n):
                fh.write(f"{x}," + f"\r\n{x},".join(map(str.__add__, y_col, reps[idx ^ x]))
                         + "\r\n")
    summary = {
        "command": "green",
        "model_spec": increments.model_to_dict(model),
        "N": args.N,
        "alpha": args.alpha,
        "rows": n * n,
    }
    if args.N <= walk.ORACLE_N_LIMIT:
        # both sides are functions of x XOR y, so row 0 holds every entry
        oracle = walk.green_matrix_oracle(spec)
        summary["oracle_max_discrepancy"] = float(np.max(np.abs(table - oracle[0])))
    if args.summary:
        _write_json(args.summary, summary)
    return 0


def cmd_sample_field(args) -> int:
    if args.replicates > 1 and not args.verify:
        print("error: --replicates needs --verify; a plain draw writes one field",
              file=sys.stderr)
        return USAGE_EXIT
    model = _model_from_args(args)
    spec = walk.GreenSpec(args.N, model, args.alpha)
    n = 1 << args.N
    if args.verify:
        sums = np.zeros((n, n))
        count = 0
        chunk = 20_000
        done = 0
        part = 0
        while done < args.replicates:
            take = min(chunk, args.replicates - done)
            draws = field.sample_field_spectral_batch(spec, replicate_rng(args.seed, part), take)
            sums += draws.T @ draws
            count += take
            done += take
            part += 1
        emp = sums / count
        analytic = walk.green_matrix_spectral(spec)
        # SE of a covariance estimate: sqrt((C_xx C_yy + C_xy^2) / n)
        se = np.sqrt((np.outer(np.diag(analytic), np.diag(analytic)) + analytic ** 2) / count)
        z = (emp - analytic) / se
        columns = (analytic.ravel().tolist(), emp.ravel().tolist(),
                   se.ravel().tolist(), z.ravel().tolist())
        entries = [
            {"x": i >> args.N, "y": i & (n - 1), "analytic": a, "estimate": e, "se": s, "z": zv}
            for i, (a, e, s, zv) in enumerate(zip(*columns))
        ]
        within = int(np.sum(np.abs(z) <= 3.0))
        _write_json(args.out, {
            "command": "sample-field-verify",
            "model_spec": increments.model_to_dict(model),
            "N": args.N, "alpha": args.alpha, "replicates": count, "seed": args.seed,
            "entries": entries,
            "n_entries": n * n,
            "n_within_3se": within,
            "fraction_within_3se": within / (n * n),
        })
        return 0
    noise = field.SpectralNoise.draw(args.N, replicate_rng(args.seed, 0))
    sample = field.sample_field_spectral(spec, noise)
    values = sample.values.tolist()
    half = args.N // 2  # x_bits of x is hi[x >> half] + lo[x & (2^half - 1)]
    hi, lo = _bit_strings(args.N - half), _bit_strings(half)
    if args.format == "json":
        bits = (h + low for h in hi for low in lo)
        _write_json(args.out, {"header": ["x_bits", "value"],
                               "rows": [[b, v] for b, v in zip(bits, values)]})
    else:
        # the same bytes as csv.writer: no field here needs quoting.  One
        # write per value i of the high half: the 2^half rows of x >> half == i
        lo_cols = [low + "," for low in lo]
        with open(args.out, "w", newline="") as fh:
            fh.write("x_bits,value\r\n")
            for i, h in enumerate(hi):
                reps = map(repr, values[i << half:(i + 1) << half])
                fh.write(h + f"\r\n{h}".join(map(str.__add__, lo_cols, reps)) + "\r\n")
    return 0


def cmd_sample_kappa(args) -> int:
    ylaw = limits.VanishingKillingY(args.gamma)
    grid = _parse_grid(args.grid)
    spec = limits.build_kappa_spec(ylaw, grid)
    rows = []
    for rep in range(args.replicates):
        zetas = replicate_rng(args.seed, rep).standard_normal(spec.order + 1)
        values = limits.kappa_sample(spec, zetas)
        rows.extend((rep, float(t), float(v)) for t, v in zip(grid, values))
    _write_csv(args.out, ["replicate", "t", "value"], rows)
    return 0


def cmd_ylaw(args) -> int:
    model = _model_from_args(args)
    law = pointproc.YLaw.from_model(model, args.alpha)
    rng = replicate_rng(args.seed, 0)
    draws = pointproc.sample_Y(law, rng, size=args.mc_draws)
    moment_rows = []
    for k in range(args.kmax + 1):
        closed = pointproc.moment_Y(law, k)
        powers = draws ** k
        est = float(np.mean(powers))
        se = float(np.std(powers, ddof=1) / np.sqrt(len(powers)))
        moment_rows.append((k, closed, est, se))
    # evaluate every output before writing any: a rejected law leaves no partial set
    outputs = [(_write_csv, args.out, ["k", "closed_form", "mc_estimate", "se"], moment_rows)]
    if args.laplace_out:
        thetas = _parse_grid(args.theta_grid)
        rows = [(float(th), pointproc.laplace_neg_log_abs(law, float(th))) for th in thetas]
        outputs.append((_write_csv, args.laplace_out, ["theta", "value"], rows))
    if args.histogram_out:
        counts, edges = np.histogram(draws, bins=40, range=(-1.0, 1.0))
        rows = [(float(lo), float(hi), int(c))
                for lo, hi, c in zip(edges[:-1], edges[1:], counts)]
        outputs.append((_write_csv, args.histogram_out, ["bin_low", "bin_high", "count"], rows))
    if args.summary:
        outputs.append((_write_json, args.summary, {
            "command": "ylaw",
            "model_spec": increments.model_to_dict(model),
            "alpha": args.alpha, "seed": args.seed, "mc_draws": args.mc_draws,
            "sign_positive": pointproc.sign_probability(law, +1),
            "sign_negative": pointproc.sign_probability(law, -1),
        }))
    for write, path, *content in outputs:
        write(path, *content)
    return 0


def cmd_limits(args) -> int:
    if args.fixed_y is not None:
        ylaw = limits.FixedCorrelation(args.fixed_y)
    elif args.gamma is not None:
        ylaw = limits.VanishingKillingY(args.gamma)
    else:
        raise DomainError("limits needs --gamma or --fixed-y")
    grid = _parse_grid(args.grid)
    report = {"command": "limits", "seed": args.seed, "law": ylaw.describe()}
    if args.gamma is not None:
        gaps = limits.levelset_clt_check(args.gamma, args.N_list, grid)
        report["gamma"] = args.gamma
        report["clt_gaps"] = {str(n): gaps[n] for n in args.N_list}
    spec = limits.build_kappa_spec(ylaw, grid)
    rng = replicate_rng(args.seed, 0)
    zetas = rng.standard_normal(spec.order + 1)
    residuals = limits.inversion_check(spec, zetas, args.inversion_t)
    inversion = {repr(float(t)): float(r) for t, r in zip(args.inversion_t, residuals)}
    lhs, rhs = limits.parseval_check(ylaw)
    tcov_rows = []
    for th in grid:
        cov = limits.transform_cov(ylaw, float(th), float(th))
        tcov_rows.append((float(th), cov.full, cov.even_part, cov.odd_part))
    if args.transform_out:
        _write_csv(args.transform_out, ["theta", "full", "U_part", "V_part"], tcov_rows)
    report.update({
        "truncation_order": spec.order,
        "tail_bound": spec.tail_bound,
        "inversion_residuals": inversion,
        "parseval": {"lhs": lhs, "rhs": rhs},
    })
    _write_json(args.out, report)
    return 0


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return value
    parse.__name__ = "integer"  # argparse names the type in "invalid integer value"
    return parse


_positive_int = _int_at_least(1)


def _positive_int_list(text):
    return [_positive_int(v) for v in text.split(",")]


def _alpha_value(text):
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must be in (0,1), got {text}")
    return value


def _add_model_arguments(parser):
    parser.add_argument("--model", help="model name, e.g. single-flip, iid-bernoulli, mflip")
    parser.add_argument("--config", help="JSON file with a model_spec object")
    parser.add_argument("--p", type=float, help="Bernoulli parameter")
    parser.add_argument("--a", type=float, help="Beta shape a")
    parser.add_argument("--b", type=float, help="Beta shape b")
    parser.add_argument("--M", type=int, help="flip count for mflip")
    parser.add_argument("--atoms", help="comma-separated mixture atoms")
    parser.add_argument("--weights", help="comma-separated mixture weights")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubefield",
        description="Gaussian fields on hypercubes from killed long-range walks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    green = sub.add_parser("green", help="killed-walk Green table with oracle check")
    _add_model_arguments(green)
    green.add_argument("--N", type=_positive_int, required=True)
    green.add_argument("--alpha", type=_alpha_value, required=True)
    green.add_argument("--out", required=True)
    green.add_argument("--format", choices=("csv", "json"), default="csv")
    green.add_argument("--summary", help="JSON summary path")
    green.set_defaults(func=cmd_green)

    sample = sub.add_parser("sample", help="draw fields or limit-process paths")
    sample_sub = sample.add_subparsers(dest="target", required=True)

    sfield = sample_sub.add_parser("field", help="full-hypercube field sample")
    _add_model_arguments(sfield)
    sfield.add_argument("--N", type=_positive_int, required=True)
    sfield.add_argument("--alpha", type=_alpha_value, required=True)
    sfield.add_argument("--seed", type=int, default=0)
    sfield.add_argument("--replicates", type=_positive_int, default=1)
    sfield.add_argument("--verify", action="store_true",
                        help="emit an empirical-vs-analytic covariance report")
    sfield.add_argument("--out", required=True)
    sfield.add_argument("--format", choices=("csv", "json"), default="csv")
    sfield.set_defaults(func=cmd_sample_field)

    skappa = sample_sub.add_parser("kappa", help="limit-process draws on a t grid")
    skappa.add_argument("--gamma", type=float, required=True)
    skappa.add_argument("--grid", default="-2:2:0.25", help="t grid as lo:hi:step")
    skappa.add_argument("--seed", type=int, default=0)
    skappa.add_argument("--replicates", type=_positive_int, default=1)
    skappa.add_argument("--out", required=True)
    skappa.set_defaults(func=cmd_sample_kappa)

    ylaw = sub.add_parser("ylaw", help="product-law moments, transforms, signs")
    _add_model_arguments(ylaw)
    ylaw.add_argument("--alpha", type=_alpha_value, required=True)
    ylaw.add_argument("--kmax", type=_int_at_least(0), default=8)
    # a standard error needs two draws
    ylaw.add_argument("--mc-draws", type=_int_at_least(2), default=100_000)
    ylaw.add_argument("--seed", type=int, default=0)
    ylaw.add_argument("--theta-grid", default="0:3:0.5")
    ylaw.add_argument("--out", required=True, help="moments CSV path")
    ylaw.add_argument("--laplace-out", help="Laplace-curve CSV path")
    ylaw.add_argument("--histogram-out", help="sampler histogram CSV path")
    ylaw.add_argument("--summary", help="JSON summary path")
    ylaw.set_defaults(func=cmd_ylaw)

    lim = sub.add_parser("limits", help="CLT gaps, transform grid, Parseval, inversion")
    lim.add_argument("--gamma", type=float)
    lim.add_argument("--fixed-y", type=float,
                     help="use a constant correlation law instead of the gamma mixture")
    lim.add_argument("--N-list", type=_positive_int_list, default="50,100,200,400")
    lim.add_argument("--grid", default="-1.5:1.5:0.75")
    lim.add_argument("--inversion-t", type=float, nargs="*", default=[0.0, 1.0, -1.0])
    lim.add_argument("--seed", type=int, default=0)
    lim.add_argument("--out", required=True, help="JSON report path")
    lim.add_argument("--transform-out", help="transform covariance CSV path")
    lim.set_defaults(func=cmd_limits)

    return parser


def _join_negative_grid_values(argv):
    """Let `--grid -2:2:0.25` parse: fold values starting with '-' into `=` form."""
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in ("--grid", "--theta-grid") and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            merged.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_negative_grid_values(list(argv)))
    try:
        return args.func(args)
    except (DomainError, NumericError, ResourceLimitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return NUMERIC_EXIT
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
