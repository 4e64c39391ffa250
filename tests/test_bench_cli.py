import argparse
import dataclasses
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmgl
from mmgl import bench, cli
from mmgl import data_gen as dg
from mmgl import graph_model as gm
from mmgl import mm_solver as ms


def toy_signals_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n",
                    encoding="utf-8")


def small_spec(tmp_path, **overrides):
    kwargs = dict(family="er", p=12, prob_edge=0.3, n=40, sigma=0.1,
                  alpha=1.0, beta=1.0, seed=5, out_dir=str(tmp_path / "exp"))
    kwargs.update(overrides)
    return bench.ExperimentSpec(**kwargs)


# ----------------------------------------------------------------- harness

def test_experiment_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        small_spec(tmp_path, family="smallworld")
    with pytest.raises(ValueError):
        small_spec(tmp_path, solver="newton")
    with pytest.raises(ValueError):
        small_spec(tmp_path, solver="pg-oracle")
    with pytest.raises(ValueError):
        small_spec(tmp_path, monte_carlo_runs=0)
    with pytest.raises(ValueError, match="--runs 1 or mmgl solve"):
        small_spec(tmp_path, family="signals-file", signals_path="x.csv", monte_carlo_runs=2)


def test_run_single_writes_trace_and_edges(tmp_path):
    spec = small_spec(tmp_path)
    result, wall = bench.run_single(spec, run_index=0)
    assert result.converged
    assert wall >= 0
    out = tmp_path / "exp"
    # repr(float(f)) round-trips, so the text pins f bit for bit
    assert (out / "trace_run0.csv").read_text(encoding="utf-8") == "iter,f,active_count\n" + "".join(
        f"{k},{float(f)!r},{a}\n" for k, f, a in
        zip(result.trace.iterations, result.trace.f, result.trace.active_count))
    w, p = gm.load_edges_csv(out / "edges_run0.csv", p=12)
    np.testing.assert_array_equal(w, result.w_star)


def test_toy_p2_identical_rows_learns_unit_edge(tmp_path):
    # identical signal rows give d = [0]; with alpha = beta = 1 the learned
    # weight is exactly 1
    sig = tmp_path / "toy.csv"
    toy_signals_csv(sig, [[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]])
    spec = small_spec(tmp_path, family="signals-file", signals_path=str(sig))
    result, _ = bench.run_single(spec)
    lines = (tmp_path / "exp" / "edges_run0.csv").read_text().splitlines()
    assert lines == ["i,j,weight", "0,1,1.0"]


def test_empty_ground_truth_still_converges(tmp_path):
    # the barrier constrains the learned graph, not the true one
    spec = small_spec(tmp_path, prob_edge=0.0, n=60)
    result, _ = bench.run_single(spec)
    assert result.converged
    assert np.all(gm.degrees(result.w_star, spec.p) > 0)


def test_montecarlo_single_run_matches_run_single(tmp_path):
    spec = small_spec(tmp_path, monte_carlo_runs=1)
    summary = bench.run_montecarlo(spec)
    result, _ = bench.run_single(small_spec(tmp_path, out_dir=str(tmp_path / "solo")))
    assert summary.runs == 1
    assert summary.mean_iterations == result.iters
    assert summary.median_iterations == result.iters
    assert summary.convergence_rate == 1.0


def test_montecarlo_seeds_differ(tmp_path):
    spec_a = small_spec(tmp_path, monte_carlo_runs=2, out_dir=str(tmp_path / "a"))
    bench.run_montecarlo(spec_a)
    spec_b = small_spec(tmp_path, monte_carlo_runs=2, seed=99, out_dir=str(tmp_path / "b"))
    bench.run_montecarlo(spec_b)
    t_a = (tmp_path / "a" / "trace_run0.csv").read_text(encoding="utf-8").splitlines()
    t_b = (tmp_path / "b" / "trace_run0.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[1] for row in t_a[1:]] != [row.split(",")[1] for row in t_b[1:]]
    # run files exist per run
    assert (tmp_path / "a" / "trace_run1.csv").exists()
    assert (tmp_path / "a" / "edges_run1.csv").exists()
    assert (tmp_path / "a" / "spec.echo").exists()
    assert (tmp_path / "a" / "timing.csv").exists()


def test_montecarlo_summary_deterministic_bytes(tmp_path):
    spec_a = small_spec(tmp_path, monte_carlo_runs=3, out_dir=str(tmp_path / "a"))
    spec_b = small_spec(tmp_path, monte_carlo_runs=3, out_dir=str(tmp_path / "b"))
    bench.run_montecarlo(spec_a)
    bench.run_montecarlo(spec_b)
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (tmp_path / "b" / "summary.csv").read_bytes()
    assert (tmp_path / "a" / "spec.echo").read_text() != ""


# ---------------------------------------------------------------------- CLI

def test_cli_gen_solve_bench_plotdata_pipeline(tmp_path, capsys):
    gen_dir = tmp_path / "data"
    rc = cli.main(["gen", "--family", "er", "--p", "10", "--prob-edge", "0.4",
                   "--n", "30", "--seed", "3", "--out", str(gen_dir)])
    assert rc == 0
    assert (gen_dir / "edges_true.csv").exists()
    X = gm.load_signals_csv(gen_dir / "signals.csv")
    assert X.shape == (10, 30)

    solve_dir = tmp_path / "run"
    rc = cli.main(["solve", "--signals", str(gen_dir / "signals.csv"),
                   "--alpha", "1.0", "--beta", "1.0", "--out", str(solve_dir)])
    assert rc == 0
    assert (solve_dir / "trace_run0.csv").exists()
    assert (solve_dir / "edges_run0.csv").exists()
    assert (solve_dir / "spec.echo").exists()

    # no --seed: a signals file needs none, for bench as for solve
    rc = cli.main(["bench", "--signals", str(gen_dir / "signals.csv"), "--runs", "1",
                   "--out", str(tmp_path / "mc-signals")])
    assert rc == 0
    assert (tmp_path / "mc-signals" / "summary.csv").exists()
    # a signals file is one instance: more runs would repeat one solve
    rc = cli.main(["bench", "--signals", str(gen_dir / "signals.csv"), "--runs", "2",
                   "--out", str(tmp_path / "mc-signals-2")])
    assert rc == cli.EXIT_IO
    assert "error: a signals file is one instance" in capsys.readouterr().err
    assert not (tmp_path / "mc-signals-2").exists()

    bench_dir = tmp_path / "mc"
    rc = cli.main(["bench", "--family", "er", "--p", "10", "--prob-edge", "0.4",
                   "--n", "30", "--runs", "2", "--seed", "7", "--out", str(bench_dir)])
    assert rc == 0
    assert (bench_dir / "summary.csv").exists()

    plot_csv = tmp_path / "plot.csv"
    rc = cli.main(["plotdata", str(bench_dir), "--out", str(plot_csv)])
    assert rc == 0
    lines = plot_csv.read_text().splitlines()
    assert lines[0] == "solver,run,iter,f"
    fs = [float(line.split(",")[3]) for line in lines[1:] if line.split(",")[1] == "0"]
    assert all(a >= b for a, b in zip(fs, fs[1:]))  # mm trace non-increasing


def write_trace(path, fs):
    path.write_text("iter,f,active_count\n" + "".join(f"{k},{f!r},3\n" for k, f in enumerate(fs)),
                    encoding="utf-8")


def test_cli_plotdata_from_hand_written_traces(tmp_path, capsys):
    mm, newton = tmp_path / "mm", tmp_path / "newton"
    mm.mkdir()
    newton.mkdir()
    (mm / "spec.echo").write_text("solver=mm\n", encoding="utf-8")
    (newton / "spec.echo").write_text("graph_path=a,b.csv\nsolver=newton-oracle\n", encoding="utf-8")
    write_trace(mm / "trace_run0.csv", [5.0, 3.0, 2.5])
    write_trace(newton / "trace_run10.csv", [4.0])
    write_trace(newton / "trace_run2.csv", [1e-05, 5e-324, 1e16, 1 / 3, 1.0])
    out = tmp_path / "plot.csv"
    assert cli.main(["plotdata", str(mm), str(newton), "--out", str(out)]) == cli.EXIT_OK
    assert f"wrote {out} (3 traces)" in capsys.readouterr().out
    # each row is f"{solver},{run},{iter},{float(f)!r}", runs in numeric order
    assert out.read_bytes() == "".join(f"{row}\n" for row in [
        "solver,run,iter,f", "mm,0,0,5.0", "mm,0,1,3.0", "mm,0,2,2.5",
        "newton-oracle,2,0,1e-05", "newton-oracle,2,1,5e-324", "newton-oracle,2,2,1e+16",
        "newton-oracle,2,3,0.3333333333333333", "newton-oracle,2,4,1.0",
        "newton-oracle,10,0,4.0"]).encode()

    # a bundle with no traces, a run number that is no integer, a bad row
    # or header: exit 1 with the directory, file or path:line named
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "spec.echo").write_text("solver=mm\n", encoding="utf-8")
    stray = tmp_path / "stray"
    stray.mkdir()
    write_trace(stray / "trace_run0.csv", [1.0])
    write_trace(stray / "trace_runX.csv", [1.0])
    bad_row = tmp_path / "bad-row"
    bad_row.mkdir()
    (bad_row / "trace_run0.csv").write_text("iter,f,active_count\n0,1.0,3\n1,oops,3\n", encoding="utf-8")
    bad_header = tmp_path / "bad-header"
    bad_header.mkdir()
    (bad_header / "trace_run0.csv").write_text("k,f,active\n0,1.0,3\n", encoding="utf-8")
    for bundle, named in [(empty, f"no trace_run*.csv files in {empty}"),
                          (stray, f"{stray / 'trace_runX.csv'}: run number"),
                          (bad_row, f"{bad_row / 'trace_run0.csv'}:3: malformed trace row"),
                          (bad_header, f"{bad_header / 'trace_run0.csv'}:1: unexpected trace header")]:
        assert cli.main(["plotdata", str(mm), str(bundle), "--out", str(out)]) == cli.EXIT_IO
        assert named in capsys.readouterr().err


# sha256 of each file that a small `mmgl gen`, `mmgl bench` and `mmgl
# plotdata` write, with timing.csv and spec.echo's out_dir line left out.
# At p = 20 the signals, and so every file, are the same bits at 1, 2 and 4
# BLAS threads.
PINNED_BUNDLE = {
    "gen/edges_true.csv": "8a2b57837f2a23fd7d7e024b9fece2212b79f5f8ead8804285af9bf251b3e22a",
    "gen/signals.csv": "0ec172575ec3279e722f62d930015a7e31d386502d03b88f05affd8c33ffa148",
    "mc/edges_run0.csv": "f413bda02d6f996023926abafe93cba2f9751e69e585f69a9d2b3d503467b7e6",
    "mc/edges_run1.csv": "e258e6fc3b470927af45cfc63aadbac4b77fb98807079e0c85853dcf55fcea69",
    "mc/edges_run2.csv": "591b38cb938c3a05df7d2844bbde55ba4c74dde1027e64b22a8a5d6a132abacb",
    "mc/spec.echo": "5ed9a79df63046fa14ce18ac1f7408930b06727862f154343099f84a0ec322d3",
    "mc/summary.csv": "e4a46cace83d4f835eea42e806db380cbf7f8704d8deb5e5034ba929cdf1973b",
    "mc/trace_run0.csv": "fc4f0acbfa2c2a15139ed85e4936650880697c5149b242c28b1a3b8816c45f1d",
    "mc/trace_run1.csv": "799975897405d22455055ca5aeb1f81df6f35c7dbb46f16ec1a5791c8c1b4149",
    "mc/trace_run2.csv": "629de9ad470956006955221cafc720c3ba629899d570e9f8b21efd4a8e9b52d3",
    "plot.csv": "4fea1c0c0cc409d54d23c52140d19f3e2fd66944a2f1faa8487891619f6d55c5",
}


def test_bundle_matches_pinned_bytes(tmp_path):
    family = ["--family", "er", "--p", "20", "--prob-edge", "0.2", "--n", "100", "--seed", "3"]
    assert cli.main(["gen", *family, "--out", str(tmp_path / "gen")]) == cli.EXIT_OK
    assert cli.main(["bench", *family, "--runs", "3", "--out", str(tmp_path / "mc")]) == cli.EXIT_OK
    assert cli.main(["plotdata", str(tmp_path / "mc"), "--out", str(tmp_path / "plot.csv")]) == cli.EXIT_OK
    digests = {}
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file() and path.name != "timing.csv":
            data = path.read_bytes()
            if path.name == "spec.echo":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"out_dir="))
            digests[path.relative_to(tmp_path).as_posix()] = hashlib.sha256(data).hexdigest()
    assert digests == PINNED_BUNDLE


def test_cli_solve_exit_code_on_max_iters(tmp_path):
    rc = cli.main(["solve", "--family", "er", "--p", "10", "--prob-edge", "0.4",
                   "--n", "30", "--seed", "3", "--max-iters", "1", "--epsilon", "1e-14",
                   "--out", str(tmp_path / "x")])
    assert rc == cli.EXIT_MAX_ITERS


def test_cli_solve_reports_non_finite_objective(tmp_path, capsys):
    # sqrt(alpha/beta) far below the elimination threshold: every edge
    # retires in iteration 1 and f becomes +inf
    rc = cli.main(["solve", "--family", "er", "--p", "20", "--seed", "3",
                   "--alpha", "1e-20", "--beta", "1", "--out", str(tmp_path / "nf")])
    assert rc == cli.EXIT_MAX_ITERS
    out = capsys.readouterr().out
    assert "mm: stopped on non-finite f (a node lost its last edge) after 1 iterations" in out
    assert "max_iters" not in out


@pytest.mark.parametrize("reason, args", [
    ("converged", ["--p", "8", "--prob-edge", "0.5", "--n", "20", "--seed", "2"]),
    ("max_iters", ["--p", "10", "--prob-edge", "0.4", "--n", "30", "--seed", "3",
                   "--max-iters", "1", "--epsilon", "1e-14"]),
    ("non_finite", ["--p", "20", "--seed", "3", "--alpha", "1e-20", "--beta", "1"]),
    # a tolerance below round-off: no step halves the residual after 37
    ("stationary", ["--solver", "newton-oracle", "--p", "30", "--seed", "6",
                    "--alpha", "10", "--beta", "10", "--tol", "1e-300"]),
])
def test_cli_solve_prints_stop_reason(tmp_path, capsys, monkeypatch, reason, args):
    results = []
    real_run_single = bench.run_single

    def run_single(spec, run_index=0):
        results.append(real_run_single(spec, run_index))
        return results[-1]

    monkeypatch.setattr(bench, "run_single", run_single)
    rc = cli.main(["solve", "--family", "er", *args, "--out", str(tmp_path / reason)])
    assert results[0][0].reason == reason
    assert rc == (cli.EXIT_OK if reason == "converged" else cli.EXIT_MAX_ITERS)
    assert f": {cli._STOP_MESSAGES[reason]} after" in capsys.readouterr().out


def test_cli_bench_names_stop_reasons(tmp_path, capsys):
    # at a tolerance below round-off, seeds 5 and 6 stop stationary after 38
    # and 37 steps; seed 7 would after 49, so the cap of 40 stops it
    out = tmp_path / "newton"
    rc = cli.main(["bench", "--solver", "newton-oracle", "--family", "er", "--p", "30", "--runs", "3",
                   "--seed", "5", "--alpha", "10", "--beta", "10", "--tol", "1e-300",
                   "--max-iters", "40", "--out", str(out)])
    assert rc == cli.EXIT_MAX_ITERS
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("convergence rate 0.00%")
    assert lines[1:] == ["stop reasons: max_iters 1, stationary 2", f"outputs in {out}"]
    # when every run converges, stdout names no reasons
    out = tmp_path / "mm"
    rc = cli.main(["bench", "--family", "er", "--p", "10", "--prob-edge", "0.4", "--n", "30",
                   "--runs", "2", "--seed", "7", "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1] == f"outputs in {out}"


def test_cli_bench_when_every_run_stops_at_iteration_0(tmp_path):
    # w = 1 is already optimal at alpha = 2, beta = 1, d = [1]
    sig = tmp_path / "x.csv"
    toy_signals_csv(sig, [[0.0], [1.0]])
    out = tmp_path / "newton0"
    rc = cli.main(["bench", "--signals", str(sig), "--solver", "newton-oracle", "--alpha", "2",
                   "--beta", "1", "--runs", "1", "--seed", "0", "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert (out / "summary.csv").read_text().splitlines()[1] == "newton-oracle,1,1,1.0,0.0,0.0"
    assert (out / "timing.csv").read_text().splitlines()[1].endswith(",0.0")


def test_cli_max_iters_caps_the_newton_oracle(tmp_path, capsys):
    # uncapped, this instance converges after 35 steps
    out = tmp_path / "capped"
    rc = cli.main(["solve", "--solver", "newton-oracle", "--family", "er", "--p", "30", "--seed", "5",
                   "--alpha", "10", "--beta", "10", "--max-iters", "3", "--out", str(out)])
    assert rc == cli.EXIT_MAX_ITERS
    assert "newton-oracle: hit max_iters after 3 iterations" in capsys.readouterr().out
    assert len((out / "trace_run0.csv").read_text().splitlines()) == 5  # header, start, 3 steps


def test_cli_solve_oracle_backend(tmp_path):
    rc = cli.main(["solve", "--family", "er", "--p", "8", "--prob-edge", "0.5",
                   "--n", "20", "--seed", "2", "--solver", "newton-oracle",
                   "--tol", "1e-5", "--out", str(tmp_path / "newton")])
    assert rc == 0
    echo = (tmp_path / "newton" / "spec.echo").read_text()
    assert "solver=newton-oracle" in echo


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_cli_rejects_the_projected_gradient_oracle_name(tmp_path, command):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--family", "er", "--p", "8", "--seed", "2", "--solver", "pg-oracle",
                  "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("flag", [["--elim-enabled", "false"], ["--initial-step", "1.0"],
                                  ["--backtrack-factor", "0.5"], ["--config", "x.cfg"],
                                  ["--oracle-max-iters", "9"]])
def test_cli_rejects_removed_solver_flags(tmp_path, flag):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["solve", "--family", "er", "--p", "8", "--seed", "2", *flag,
                  "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2


def test_cli_generation_flags_parse_alike():
    # gen, solve and bench share one declaration of the generation flags
    parser = cli.build_parser()
    names = ("p", "prob_edge", "p_in", "p_out", "n", "sigma")
    flags = ["--p", "9", "--prob-edge", "0.2", "--p-in", "0.4", "--p-out", "0.01",
             "--n", "50", "--sigma", "0.3"]
    defaults = bench.ExperimentSpec()
    for cmd in ("gen", "solve", "bench"):
        args = parser.parse_args([cmd, "--family", "er", "--seed", "1", "--out", "o"])
        assert [getattr(args, k) for k in names] == [getattr(defaults, k) for k in names]
        assert [getattr(args, k) for k in names] == [100, 0.1, 0.3, 0.05, 1200, 0.1]
        args = parser.parse_args([cmd, "--family", "er", *flags, "--seed", "1", "--out", "o"])
        assert [getattr(args, k) for k in names] == [9, 0.2, 0.4, 0.01, 50, 0.3]
    # each generation flag reaches its spec field, for gen as for solve and bench
    for cmd in ("gen", "solve", "bench"):
        args = parser.parse_args([cmd, "--family", "sbm", *flags, "--seed", "4", "--out", "o"])
        spec = cli._experiment_spec(args, parser)
        assert [getattr(spec, k) for k in names] == [9, 0.2, 0.4, 0.01, 50, 0.3]
        assert (spec.family, spec.seed, spec.out_dir) == ("sbm", 4, "o")
    # a default solve or bench spec carries the dataclass defaults throughout
    for cmd in ("solve", "bench"):
        args = parser.parse_args([cmd, "--family", "er", "--seed", "1", "--out", "o"])
        spec = cli._experiment_spec(args, parser)
        assert spec.solver_config == ms.SolverConfig()
        assert (spec.alpha, spec.beta, spec.solver) == (defaults.alpha, defaults.beta, defaults.solver)
        # and each explicit flag of the chosen solver reaches its field
        args = parser.parse_args([cmd, "--family", "er", "--seed", "1", "--out", "o",
                                  "--epsilon", "1e-5", "--max-iters", "7", "--elim-threshold", "0"])
        spec = cli._experiment_spec(args, parser)
        assert spec.solver_config == ms.SolverConfig(epsilon=1e-5, max_iters=7, elimination_threshold=0.0)
        args = parser.parse_args([cmd, "--family", "er", "--seed", "1", "--out", "o",
                                  "--solver", "newton-oracle", "--tol", "1e-3", "--max-iters", "7"])
        spec = cli._experiment_spec(args, parser)
        assert spec.solver == "newton-oracle"
        assert spec.solver_config == ms.SolverConfig(max_iters=7, tol=1e-3)


def test_cli_flag_dests_name_spec_fields():
    # _experiment_spec matches dests to field names, so a dest that names
    # no field would be dropped without a word
    fields = {f.name for f in dataclasses.fields(bench.ExperimentSpec)}
    fields |= {f.name for f in dataclasses.fields(ms.SolverConfig)}
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for cmd in ("gen", "solve", "bench"):
        dests = {a.dest for a in commands.choices[cmd]._actions if a.dest != "help"}
        assert dests <= fields, (cmd, sorted(dests - fields))


@pytest.mark.parametrize("flags", [
    ["--tol", "1e-300"],
    ["--solver", "newton-oracle", "--epsilon", "0.1"],
    ["--solver", "newton-oracle", "--elim-threshold", "0.5"],
])
def test_cli_refuses_settings_the_solver_does_not_read(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["solve", "--family", "er", "--p", "30", "--seed", "5", "--alpha", "10", "--beta", "10",
                  *flags, "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2
    assert f"{flags[-2]} does not apply to --solver" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_readme_cli_section_names_only_real_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {flag for sub in commands.choices.values() for flag in sub._option_string_actions}
    assert named and named <= known, sorted(named - known)


@pytest.mark.parametrize("family, gen", [
    (["--family", "er", "--p", "30", "--prob-edge", "0.2"], lambda: dg.gen_er(30, 0.2, 11)),
    (["--family", "sbm", "--p", "40", "--p-in", "0.5", "--p-out", "0.02"],
     lambda: dg.gen_sbm(40, 0.5, 0.02, 11)),
])
def test_cli_gen_signals_round_trip_bit_identical(tmp_path, family, gen):
    out = tmp_path / "data"
    rc = cli.main(["gen", *family, "--n", "70", "--sigma", "0.2", "--seed", "11", "--out", str(out)])
    assert rc == cli.EXIT_OK
    X = dg.gen_signals(gen(), dg.SignalModel(sigma=0.2, n=70), 11)
    assert np.array_equal(gm.load_signals_csv(out / "signals.csv"), X)


def test_cli_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["solve", "--out", str(tmp_path / "x")])  # no problem source
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["bench", "--family", "er", "--out", str(tmp_path / "y")])  # no seed
    assert excinfo.value.code == 2


def test_cli_io_error_reports_path(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\nbroken\n", encoding="utf-8")
    rc = cli.main(["solve", "--signals", str(bad), "--out", str(tmp_path / "z")])
    assert rc == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "bad.csv:2" in err


def test_cli_gen_from_loaded_graph(tmp_path):
    src = tmp_path / "g.csv"
    src.write_text("i,j,weight\n0,1,1.0\n1,2,2.0\n", encoding="utf-8")
    out = tmp_path / "from-file"
    rc = cli.main(["gen", "--graph", str(src), "--n", "25", "--seed", "4", "--out", str(out)])
    assert rc == 0
    X = gm.load_signals_csv(out / "signals.csv")
    assert X.shape == (3, 25)


def test_cli_solve_from_loaded_graph(tmp_path, capsys):
    # real-world connectivity ingestion path: signals generated on the
    # loaded graph, then the adjacency is learned back from them
    src = tmp_path / "g.csv"
    src.write_text("i,j,weight\n0,1,1.0\n1,2,2.0\n0,3,1.5\n2,3,1.0\n", encoding="utf-8")
    out = tmp_path / "learned"
    rc = cli.main(["solve", "--graph", str(src), "--n", "400", "--sigma", "0.1",
                   "--seed", "6", "--alpha", "1.0", "--beta", "1.0", "--out", str(out)])
    assert rc == 0
    w, p = gm.load_edges_csv(out / "edges_run0.csv", p=4)
    assert p == 4
    assert np.all(gm.degrees(w, 4) > 0)
    # spec.echo records the node count of the file, not the --p default
    assert "p=4" in (out / "spec.echo").read_text(encoding="utf-8").splitlines()
    # a missing file fails before the bundle directory is made
    missing = tmp_path / "missing"
    rc = cli.main(["solve", "--graph", str(tmp_path / "none.csv"), "--seed", "6", "--out", str(missing)])
    assert rc == cli.EXIT_IO
    assert "none.csv" in capsys.readouterr().err
    assert not missing.exists()


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency; scipy stays off the import path
    env = dict(os.environ, PYTHONPATH=str(Path(mmgl.__file__).parents[1]))
    code = "import sys, mmgl, mmgl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
