import csv
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cubefield
from cubefield import cli, field, increments, pointproc, walk


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_green_command_outputs_and_oracle(tmp_path):
    out = tmp_path / "green.csv"
    summary = tmp_path / "summary.json"
    code = run(["green", "--model", "single-flip", "--N", "3", "--alpha", "0.5",
                "--out", str(out), "--summary", str(summary)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["x", "y", "value"]
    assert len(rows) == 64
    report = json.loads(summary.read_text())
    assert report["oracle_max_discrepancy"] < 1e-10
    assert report["schema_version"] == 1


def test_green_bernoulli_half_table(tmp_path):
    out = tmp_path / "green.csv"
    run(["green", "--model", "iid-bernoulli", "--p", "0.5", "--N", "3",
         "--alpha", "0.4", "--out", str(out)])
    _, rows = read_csv(out)
    for x, y, value in rows:
        expected = 0.6 + 0.4 / 8 if x == y else 0.4 / 8
        assert float(value) == pytest.approx(expected, abs=1e-13)


def test_usage_error_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["green", "--model", "single-flip", "--N", "0", "--alpha", "0.5",
             "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_domain_error_exits_3(tmp_path, capsys):
    code = run(["green", "--model", "mflip", "--M", "9", "--N", "3", "--alpha", "0.5",
                "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_parameter_the_model_lacks_exits_3(tmp_path, capsys):
    code = run(["green", "--model", "single-flip", "--p", "0.3", "--N", "3", "--alpha", "0.5",
                "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "takes no parameter p" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_missing_model_exits_3(tmp_path):
    code = run(["green", "--N", "3", "--alpha", "0.5", "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_config_file_model(tmp_path):
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"model_spec": {"model": "mflip", "M": 2}}))
    out = tmp_path / "green.csv"
    code = run(["green", "--config", str(config), "--N", "4", "--alpha", "0.5",
                "--out", str(out), "--summary", str(tmp_path / "s.json")])
    assert code == 0
    report = json.loads((tmp_path / "s.json").read_text())
    assert report["model_spec"] == {"model": "mflip", "M": 2}
    assert report["oracle_max_discrepancy"] < 1e-10


@pytest.mark.parametrize("spec", [
    {"model_spec": {"model": "mflip", "M": "x"}},
    {"model_spec": {"model": "mflip", "M": 2.5}},
    {"model_spec": {"model": "definetti-discrete", "atoms": "0.2", "weights": [1.0]}},
    {"model_spec": {"model": "iid-bernoulli", "p": [0.3]}},
    {"model_spec": "mflip"},
], ids=["M-x", "M-2.5", "atoms-string", "p-list", "spec-string"])
def test_config_values_of_the_wrong_kind_exit_3(tmp_path, capsys, spec):
    config = tmp_path / "model.json"
    config.write_text(json.dumps(spec))
    out = tmp_path / "green.csv"
    code = run(["green", "--config", str(config), "--N", "4", "--alpha", "0.5", "--out", str(out)])
    assert code == 3
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_sample_field_verify_report(tmp_path):
    out = tmp_path / "report.json"
    code = run(["sample", "field", "--model", "single-flip", "--N", "3",
                "--alpha", "0.5", "--replicates", "60000", "--seed", "7",
                "--verify", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n_entries"] == 64
    assert report["fraction_within_3se"] >= 0.99
    entry = report["entries"][0]
    assert set(entry) == {"x", "y", "analytic", "estimate", "se", "z"}
    analytic = walk.green_matrix_spectral(walk.GreenSpec(3, cubefield.SingleFlip(), 0.5))
    assert [(e["x"], e["y"], e["analytic"]) for e in report["entries"]] == \
        [(x, y, float(analytic[x, y])) for x in range(8) for y in range(8)]


def test_sample_field_values_csv(tmp_path):
    out = tmp_path / "field.csv"
    code = run(["sample", "field", "--model", "single-flip", "--N", "3",
                "--alpha", "0.5", "--seed", "3", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["x_bits", "value"]
    assert len(rows) == 8
    assert all(len(r[0]) == 3 for r in rows)


def write_rows_with_csv_writer(path, header, rows):
    """The generic CSV writer: csv.writer rows with repr floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


# N = 1, 2, 5 and 9 add tiny cubes and both odd and even splits of x_bits;
# 14, 15 and 18 fill several chunks of the table writer, the last one in part
@pytest.mark.parametrize("model_args, N", [(["--model", "single-flip"], 3),
                                           (["--model", "iid-bernoulli", "--p", "0.3"], 10),
                                           (["--model", "single-flip"], 1),
                                           (["--model", "iid-bernoulli", "--p", "0.3"], 2),
                                           (["--model", "single-flip"], 5),
                                           (["--model", "iid-bernoulli", "--p", "0.3"], 9),
                                           (["--model", "single-flip"], 14),
                                           (["--model", "iid-bernoulli", "--p", "0.3"], 15),
                                           (["--model", "iid-bernoulli", "--p", "0.3"], 18)])
def test_sample_field_files_match_generic_writers(tmp_path, model_args, N):
    seed, alpha = 7, 0.6
    args = ["sample", "field", *model_args, "--N", str(N), "--alpha", str(alpha),
            "--seed", str(seed)]
    assert run([*args, "--out", str(tmp_path / "field.csv")]) == 0
    assert run([*args, "--format", "json", "--out", str(tmp_path / "field.json")]) == 0
    model = cli._model_from_args(cli.build_parser().parse_args(args + ["--out", "-"]))
    noise = field.SpectralNoise.draw(N, cli.replicate_rng(seed, 0))
    values = field.sample_field_spectral(walk.GreenSpec(N, model, alpha), noise).values
    rows = [(format(x, f"0{N}b"), float(v)) for x, v in enumerate(values)]
    write_rows_with_csv_writer(tmp_path / "want.csv", ["x_bits", "value"], rows)
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    report = json.loads((tmp_path / "field.json").read_text())
    assert report == {"header": ["x_bits", "value"], "rows": [list(r) for r in rows],
                      "schema_version": 1}


@pytest.mark.parametrize("model_args, N", [(["--model", "single-flip"], 3),
                                           (["--model", "iid-bernoulli", "--p", "0.3"], 6),
                                           (["--model", "single-flip"], 1),
                                           (["--model", "iid-bernoulli", "--p", "0.3"], 2),
                                           (["--model", "single-flip"], 5),
                                           (["--model", "iid-bernoulli", "--p", "0.3"], 9)])
def test_green_files_match_generic_writers(tmp_path, model_args, N):
    alpha = 0.6
    args = ["green", *model_args, "--N", str(N), "--alpha", str(alpha)]
    assert run([*args, "--out", str(tmp_path / "green.csv"),
                "--summary", str(tmp_path / "summary.json")]) == 0
    assert run([*args, "--format", "json", "--out", str(tmp_path / "green.json")]) == 0
    model = cli._model_from_args(cli.build_parser().parse_args(args + ["--out", "-"]))
    table = walk.green_xor_table(walk.GreenSpec(N, model, alpha))
    rows = [(x, y, float(table[x ^ y])) for x in range(1 << N) for y in range(1 << N)]
    write_rows_with_csv_writer(tmp_path / "want.csv", ["x", "y", "value"], rows)
    assert (tmp_path / "green.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    report = json.loads((tmp_path / "green.json").read_text())
    assert report == {"header": ["x", "y", "value"], "rows": [list(r) for r in rows],
                      "schema_version": 1}
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["rows"] == 4 ** N
    # the summary reads row 0 of both sides; the full matrices give the same maximum
    spec = walk.GreenSpec(N, model, alpha)
    full = np.abs(walk.green_matrix_spectral(spec) - walk.green_matrix_oracle(spec)).max()
    assert summary["oracle_max_discrepancy"] == float(full)


def test_sample_field_replicates_without_verify_is_usage_error(tmp_path, capsys):
    out = tmp_path / "field.csv"
    code = run(["sample", "field", "--model", "single-flip", "--N", "3",
                "--alpha", "0.5", "--replicates", "2", "--out", str(out)])
    assert code == 2
    assert "--verify" in capsys.readouterr().err
    assert not out.exists()


def test_sample_field_verify_with_csv_format_is_usage_error(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run(["sample", "field", "--model", "single-flip", "--N", "3", "--alpha", "0.5",
                "--replicates", "10", "--verify", "--format", "csv", "--out", str(out)])
    assert code == 2
    assert "--verify" in capsys.readouterr().err
    assert not out.exists()
    # --format json is what --verify writes
    assert run(["sample", "field", "--model", "single-flip", "--N", "3", "--alpha", "0.5",
                "--replicates", "10", "--verify", "--format", "json",
                "--out", str(tmp_path / "report.json")]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["replicates"] == 10


@pytest.mark.parametrize("N", [cli.VERIFY_N_LIMIT + 1, 20])
def test_sample_field_verify_past_its_cap_exits_3_before_allocating(tmp_path, capsys, N):
    # the 2^N x 2^N tables and 4^N report entries: never run the uncapped path past N = 9
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        code = run(["sample", "field", "--model", "single-flip", "--N", str(N), "--alpha", "0.5",
                    "--verify", "--format", "json", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert f"capped at N={cli.VERIFY_N_LIMIT}" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 1 << 20


@pytest.mark.parametrize("grid", ["0:1:nan", "nan:1:0.5", "0:inf:1", "0:1e7:1e-3"])
def test_bad_grids_exit_3_without_output(tmp_path, capsys, grid):
    out = tmp_path / "kappa.csv"
    code = run(["sample", "kappa", "--gamma", "2", "--grid", grid, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_sample_kappa_grid(tmp_path):
    out = tmp_path / "kappa.csv"
    code = run(["sample", "kappa", "--gamma", "2", "--grid", "-2:2:0.25",
                "--seed", "1", "--replicates", "3", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["replicate", "t", "value"]
    assert len(rows) == 3 * 17


@pytest.mark.parametrize("text, want", [
    ("0:1:0.6", [0.0, 0.6]),
    ("-2:2:1.5", [-2.0, -0.5, 1.0]),
    ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.30000000000000004]),
    ("-1.5:1.5:0.75", [-1.5, -0.75, 0.0, 0.75, 1.5]),
    ("2:2:1", [2.0]),
])
def test_grid_stays_inside_its_bounds(text, want):
    # the count is truncated, not rounded: 0:1:0.6 used to end at 1.2
    assert cli._parse_grid(text).tolist() == want


def test_ylaw_report(tmp_path):
    out = tmp_path / "moments.csv"
    lap = tmp_path / "laplace.csv"
    summary = tmp_path / "ylaw.json"
    code = run(["ylaw", "--model", "symmetric-beta-spin", "--a", "2.0", "--b", "1.0",
                "--alpha", "0.5", "--kmax", "6", "--mc-draws", "200000", "--seed", "5",
                "--out", str(out), "--laplace-out", str(lap), "--summary", str(summary)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["k", "closed_form", "mc_estimate", "se"]
    for k, closed, est, se in rows:
        if int(k) == 0:
            assert float(closed) == 1.0
        assert abs(float(closed) - float(est)) <= 3.5 * max(float(se), 1e-12)
    _, lap_rows = read_csv(lap)
    assert float(lap_rows[0][0]) == 0.0 and float(lap_rows[0][1]) == pytest.approx(1.0)
    report = json.loads(summary.read_text())
    assert report["sign_positive"] == pytest.approx(0.75, abs=1e-12)


def test_ylaw_histogram_bins_every_draw(tmp_path):
    out, hist = tmp_path / "moments.csv", tmp_path / "histogram.csv"
    code = run(["ylaw", "--model", "symmetric-beta-spin", "--a", "2.0", "--b", "1.0",
                "--alpha", "0.5", "--mc-draws", "5000", "--seed", "2",
                "--out", str(out), "--histogram-out", str(hist)])
    assert code == 0
    header, rows = read_csv(hist)
    assert header == ["bin_low", "bin_high", "count"]
    assert len(rows) == 40
    edges = np.array([[float(lo), float(hi)] for lo, hi, _ in rows])
    assert edges[0, 0] == -1.0 and edges[-1, 1] == 1.0
    assert np.array_equal(edges[1:, 0], edges[:-1, 1])
    assert sum(int(count) for _, _, count in rows) == 5000


@pytest.mark.parametrize("flag, value", [("--mc-draws", "1"), ("--mc-draws", "0"),
                                         ("--kmax", "-1"), ("--alpha", "1.5")])
def test_ylaw_argument_ranges_are_usage_errors(tmp_path, capsys, flag, value):
    # one draw has no standard error; a negative kmax asks for no moment; a
    # killing rate lies in (0, 1)
    out = tmp_path / "moments.csv"
    argv = ["ylaw", "--model", "iid-bernoulli", "--p", "0.3", "--alpha", "0.5",
            "--mc-draws", "100", "--out", str(out), flag, value]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_ylaw_smallest_ranges_run(tmp_path):
    out = tmp_path / "moments.csv"
    code = run(["ylaw", "--model", "iid-bernoulli", "--p", "0.3", "--alpha", "0.5",
                "--mc-draws", "2", "--kmax", "0", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["k", "closed_form", "mc_estimate", "se"]
    assert rows == [["0", "1.0", "1.0", "0.0"]]


def test_ylaw_running_powers_match_pow_of_the_same_draws(tmp_path):
    # the table builds Y^k as a running product; each entry is then within
    # about k 2^-53 of draws ** k, and Y > 0 here, so no mean cancels
    out = tmp_path / "moments.csv"
    draws_n, seed = 5000, 3
    code = run(["ylaw", "--model", "definetti-discrete", "--atoms", "0.2,0.9",
                "--weights", "0.5,0.5", "--alpha", "0.75", "--kmax", "12",
                "--mc-draws", str(draws_n), "--seed", str(seed), "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0] == ["0", "1.0", "1.0", "0.0"]
    law = pointproc.YLaw.from_model(increments.DeFinettiDiscrete((0.2, 0.9), (0.5, 0.5)), 0.75)
    draws = pointproc.sample_Y(law, cli.replicate_rng(seed, 0), size=draws_n)
    assert [int(row[0]) for row in rows] == list(range(13))
    for k, _, est, se in rows[1:]:
        powers = draws ** int(k)
        assert float(est) == pytest.approx(np.mean(powers), rel=1e-13, abs=0.0)
        assert float(se) == pytest.approx(np.std(powers, ddof=1) / np.sqrt(draws_n),
                                          rel=1e-13, abs=0.0)


def test_ylaw_zero_spin_atom_is_a_domain_error(tmp_path, capsys):
    # omega = 1/2 is a spin at 0: Y = 0 has mass, so P(Y > 0) + P(Y < 0) < 1
    summary = tmp_path / "ylaw.json"
    code = run(["ylaw", "--model", "definetti-discrete", "--atoms", "0.5,0.9",
                "--weights", "0.3,0.7", "--alpha", "0.8", "--mc-draws", "1000",
                "--out", str(tmp_path / "moments.csv"), "--summary", str(summary)])
    assert code == 3
    assert "atom at zero" in capsys.readouterr().err
    assert not summary.exists()


def test_ylaw_domain_error_leaves_no_partial_output(tmp_path, capsys):
    # the moments exist for this law, but its Laplace curve and sign split
    # do not: no file may be written before every table is evaluated
    paths = [tmp_path / name for name in ("m.csv", "l.csv", "h.csv", "s.json")]
    code = run(["ylaw", "--model", "definetti-discrete", "--atoms", "0.5,0.9",
                "--weights", "0.3,0.7", "--alpha", "0.8", "--out", str(paths[0]),
                "--laplace-out", str(paths[1]), "--histogram-out", str(paths[2]),
                "--summary", str(paths[3])])
    assert code == 3
    assert "atom at zero" in capsys.readouterr().err
    assert [p for p in paths if p.exists()] == []


def test_limits_fixed_correlation_parseval(tmp_path):
    from math import pi, sqrt
    out = tmp_path / "limits.json"
    code = run(["limits", "--fixed-y", "0", "--grid", "-1:1:0.5", "--seed", "1",
                "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["parseval"]["lhs"] == pytest.approx(sqrt(pi), abs=1e-8)
    assert report["parseval"]["rhs"] == pytest.approx(sqrt(pi), abs=1e-12)
    assert "clt_gaps" not in report


def test_limits_negative_fixed_correlation_exits_3(tmp_path, capsys):
    # E[Y^k] < 0 at odd k: the series of kappa has no real basis
    out, tcov = tmp_path / "limits.json", tmp_path / "transform.csv"
    code = run(["limits", "--fixed-y", "-0.4", "--out", str(out), "--transform-out", str(tcov)])
    assert code == 3
    assert "E[Y^1] < 0" in capsys.readouterr().err
    assert not out.exists() and not tcov.exists()


def test_limits_takes_one_law(tmp_path, capsys):
    # --gamma with --fixed-y wrote the fixed law's report with the gamma law's CLT gaps
    out = tmp_path / "limits.json"
    with pytest.raises(SystemExit) as exc:
        run(["limits", "--gamma", "2", "--fixed-y", "0.4", "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert run(["limits", "--out", str(out)]) == 3
    assert "needs --gamma or --fixed-y" in capsys.readouterr().err
    assert not out.exists()


def test_limits_inversion_t_past_the_window_exits_3(tmp_path, capsys, monkeypatch):
    # the window is checked before the CLT integrals, 0.26-0.51 s on this grid
    clt_calls = []

    def clt_check(gamma, dims, grid):
        clt_calls.append(dims)
        return dict.fromkeys(dims, 0.0)

    monkeypatch.setattr(cli.limits, "levelset_clt_check", clt_check)
    out, tcov = tmp_path / "limits.json", tmp_path / "transform.csv"
    code = run(["limits", "--gamma", "2", "--grid", "-3:3:0.05", "--inversion-t", "0", "100",
                "--out", str(out), "--transform-out", str(tcov)])
    assert code == 3
    assert "|t| <= 16" in capsys.readouterr().err
    assert clt_calls == []
    assert list(tmp_path.iterdir()) == []


def test_limits_inversion_at_the_window_edge(tmp_path):
    out = tmp_path / "limits.json"
    assert run(["limits", "--gamma", "2", "--N-list", "50", "--inversion-t", "0", "15.5",
                "-15.5", "--out", str(out)]) == 0
    residuals = json.loads(out.read_text())["inversion_residuals"]
    assert sorted(residuals) == ["-15.5", "0.0", "15.5"]
    assert max(residuals.values()) < 1e-13


def test_sample_kappa_far_grid_is_finite(tmp_path):
    # H_k(t) / sqrt(k!) overflowed near |t| = 53 and wrote the row 0,60.0,nan
    out = tmp_path / "kappa.csv"
    assert run(["sample", "kappa", "--gamma", "2", "--grid", "-60:60:30", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    values = np.array([float(v) for _, _, v in rows])
    assert values.size == 5 and np.isfinite(values).all() and values[2] != 0.0
    assert values[0] == values[-1] == 0.0


def test_one_parser_serves_every_call(tmp_path):
    # the parser is built once per process and each parse stands alone: a
    # --fixed-y run followed by a --gamma run writes what two fresh processes write
    def argvs(d):
        return [["limits", "--fixed-y", "0.4", "--grid", "-1:1:1", "--seed", "3",
                 "--out", str(d / "fixed.json"), "--transform-out", str(d / "fixed.csv")],
                ["limits", "--gamma", "2", "--N-list", "50", "--grid", "-1:1:1",
                 "--out", str(d / "gamma.json")]]
    one, fresh = tmp_path / "one", tmp_path / "fresh"
    one.mkdir()
    fresh.mkdir()
    cli.build_parser.cache_clear()
    assert [run(argv) for argv in argvs(one)] == [0, 0]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    src = str(Path(cubefield.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv in argvs(fresh):
        done = subprocess.run([sys.executable, "-m", "cubefield.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    names = ["fixed.json", "fixed.csv", "gamma.json"]
    assert [(one / n).read_bytes() for n in names] == [(fresh / n).read_bytes() for n in names]
    assert "clt_gaps" not in json.loads((one / "fixed.json").read_text())


def test_limits_loads_no_scipy(tmp_path):
    # a fresh interpreter: the whole limits report, inversion weights included,
    # runs on numpy alone (scipy.special's gammaln loaded 66 SciPy modules)
    script = textwrap.dedent("""
        import sys
        from cubefield import cli
        assert cli.main(["limits", "--gamma", "2", "--out", "limits.json"]) == 0
        loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert not loaded, loaded
    """)
    src = str(Path(cubefield.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_limits_report(tmp_path):
    out = tmp_path / "limits.json"
    tcov = tmp_path / "transform.csv"
    code = run(["limits", "--gamma", "2", "--N-list", "50,100", "--grid",
                "-1.5:1.5:0.75", "--seed", "2", "--out", str(out),
                "--transform-out", str(tcov)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["clt_gaps"]["100"] <= 1.1 * report["clt_gaps"]["50"]
    assert all(v < 1e-4 for v in report["inversion_residuals"].values())
    assert report["parseval"]["lhs"] == pytest.approx(report["parseval"]["rhs"], abs=1e-6)
    header, rows = read_csv(tcov)
    assert header == ["theta", "full", "U_part", "V_part"]
    for _, full, u_part, v_part in rows:
        assert float(u_part) + float(v_part) == pytest.approx(float(full), abs=1e-12)


@pytest.mark.parametrize("value", ["50,abc", "50,,100", "0", "50,-1", ""])
def test_limits_N_list_parse_errors_are_usage_errors(tmp_path, capsys, value):
    out = tmp_path / "limits.json"
    with pytest.raises(SystemExit) as exc:
        run(["limits", "--gamma", "2", "--N-list", value, "--out", str(out)])
    assert exc.value.code == 2
    assert "--N-list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dims, bad", [("50,100", 50), ("100,60", 60)])
def test_limits_N_at_most_gamma_is_a_domain_error(tmp_path, capsys, dims, bad):
    # alpha_N = 1 - gamma/N leaves (0,1) once N <= gamma
    out = tmp_path / "limits.json"
    code = run(["limits", "--gamma", "60", "--N-list", dims, "--grid", "-1:1:1",
                "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert f"N = {bad}, gamma = 60" in err
    assert not out.exists()


def test_limits_without_inversion_points(tmp_path):
    out = tmp_path / "limits.json"
    code = run(["limits", "--fixed-y", "0.5", "--grid", "-1:1:1", "--inversion-t",
                "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["inversion_residuals"] == {}


@pytest.mark.parametrize("argv_builder", [
    lambda d: ["green", "--model", "definetti-discrete", "--atoms", "0.2,0.7",
               "--weights", "0.6,0.4", "--N", "3", "--alpha", "0.5",
               "--out", str(d / "a.csv"), "--summary", str(d / "a.json")],
    lambda d: ["sample", "field", "--model", "single-flip", "--N", "4",
               "--alpha", "0.5", "--seed", "11", "--out", str(d / "a.csv")],
    lambda d: ["sample", "kappa", "--gamma", "2", "--grid", "-1:1:0.5",
               "--seed", "11", "--replicates", "2", "--out", str(d / "a.csv")],
    lambda d: ["ylaw", "--model", "definetti-discrete", "--atoms", "0.3",
               "--weights", "1.0", "--alpha", "0.4", "--kmax", "4",
               "--mc-draws", "20000", "--seed", "11", "--out", str(d / "a.csv"),
               "--summary", str(d / "a.json")],
], ids=["green", "field", "kappa", "ylaw"])
def test_repeat_runs_are_byte_identical(tmp_path, argv_builder):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    d1.mkdir()
    d2.mkdir()
    assert run(argv_builder(d1)) == 0
    assert run(argv_builder(d2)) == 0
    for name in ("a.csv", "a.json"):
        f1, f2 = d1 / name, d2 / name
        if f1.exists():
            assert f1.read_bytes() == f2.read_bytes(), name


def test_quadrature_never_loads_scipy_integrate(tmp_path):
    # a fresh interpreter: the import loads no SciPy, and no route that integrates
    # (the mixture covariance, Parseval, the transform covariances, the CLT check
    # and the Beta spin's |xi|^theta split behind --laplace-out) loads scipy.integrate
    script = textwrap.dedent("""
        import math, sys
        import cubefield
        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
        from cubefield import cli, limits
        assert cli.main(["green", "--model", "definetti-beta", "--a", "2", "--b", "3",
                         "--N", "4", "--alpha", "0.6", "--out", "green.csv"]) == 0
        assert cli.main(["sample", "field", "--model", "iid-bernoulli", "--p", "0.3",
                         "--N", "5", "--alpha", "0.6", "--out", "field.csv"]) == 0
        ylaw = limits.VanishingKillingY(2.0)
        cov = limits.kappa_cov(ylaw, 0.5, -0.5, method="mixture")
        assert math.isfinite(cov) and cov > 0
        lhs, rhs = limits.parseval_check(ylaw)
        assert math.isclose(lhs, rhs, rel_tol=1e-10)
        assert limits.transform_cov(ylaw, 1.0, -0.5).full > 0
        gaps = limits.levelset_clt_check(2.0, [50], [0.0, 0.5])
        assert 0 < gaps[50] < 0.05
        assert cli.main(["ylaw", "--model", "definetti-beta", "--a", "2", "--b", "3",
                         "--alpha", "0.6", "--mc-draws", "100", "--out", "y.csv",
                         "--laplace-out", "laplace.csv"]) == 0
        assert "scipy.integrate" not in sys.modules, "scipy.integrate was loaded"
    """)
    src = str(Path(cubefield.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
