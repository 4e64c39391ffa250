import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmgl
from mmgl import baseline_oracle as bo
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
        small_spec(tmp_path, monte_carlo_runs=0)


def test_run_single_writes_trace_and_edges(tmp_path):
    spec = small_spec(tmp_path)
    result, wall = bench.run_single(spec, run_index=0)
    assert result.converged
    assert wall >= 0
    out = tmp_path / "exp"
    trace = bench.load_trace_csv(out / "trace_run0.csv")
    np.testing.assert_array_equal(trace.iterations, result.trace.iterations)
    np.testing.assert_array_equal(trace.f, result.trace.f)
    assert (out / "trace_run0.csv").read_text().splitlines()[1:] == [
        f"{k},{float(f)!r},{a}" for k, f, a in
        zip(result.trace.iterations, result.trace.f, result.trace.active_count)]
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
    t_a = bench.load_trace_csv(tmp_path / "a" / "trace_run0.csv")
    t_b = bench.load_trace_csv(tmp_path / "b" / "trace_run0.csv")
    assert not np.array_equal(t_a.f, t_b.f)
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


def test_emit_plot_data(tmp_path):
    trace = ms.ConvergenceTrace(
        iterations=np.array([0, 1, 2]),
        f=np.array([5.0, 3.0, 2.5]),
        active_count=np.array([3, 3, 2]),
        wall_time=np.zeros(3),
    )
    out = tmp_path / "plot.csv"
    bench.emit_plot_data([("mm", 0, trace)], out)
    lines = out.read_text().splitlines()
    assert lines[0] == "solver,run,iter,f"
    assert len(lines) == 4
    assert lines[1] == "mm,0,0,5.0"

    bench.emit_plot_data([("mm", 0, trace), ("pg-oracle", 1, trace)], out)
    lines = out.read_text().splitlines()
    assert {line.split(",")[0] for line in lines[1:]} == {"mm", "pg-oracle"}

    # each row is f"{solver},{run},{iter},{float(f)!r}"
    odd = ms.ConvergenceTrace(
        iterations=np.arange(5),
        f=np.array([1e-05, 5e-324, 1e16, 1 / 3, 1.0]),
        active_count=np.full(5, 3),
        wall_time=np.zeros(5),
    )
    bench.emit_plot_data([("mm", 0, trace), ("pg-oracle", 7, odd)], out)
    assert out.read_text().splitlines() == [
        "solver,run,iter,f", "mm,0,0,5.0", "mm,0,1,3.0", "mm,0,2,2.5",
        "pg-oracle,7,0,1e-05", "pg-oracle,7,1,5e-324", "pg-oracle,7,2,1e+16",
        "pg-oracle,7,3,0.3333333333333333", "pg-oracle,7,4,1.0"]

    with pytest.raises(ValueError):
        bench.emit_plot_data([], out)


# ---------------------------------------------------------------------- CLI

def test_cli_gen_solve_bench_plotdata_pipeline(tmp_path):
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
    rc = cli.main(["bench", "--signals", str(gen_dir / "signals.csv"), "--runs", "2",
                   "--out", str(tmp_path / "mc-signals")])
    assert rc == 0
    assert (tmp_path / "mc-signals" / "summary.csv").exists()

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
    # run 1 of `mmgl bench --solver pg-oracle --family er --p 30 --runs 3
    # --seed 5 --alpha 10 --beta 10`: pg stalls above its tolerance
    ("stationary", ["--solver", "pg-oracle", "--p", "30", "--seed", "6",
                    "--alpha", "10", "--beta", "10"]),
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
    out = tmp_path / "pg"
    rc = cli.main(["bench", "--solver", "pg-oracle", "--family", "er", "--p", "30", "--runs", "3",
                   "--seed", "5", "--alpha", "10", "--beta", "10", "--out", str(out)])
    assert rc == cli.EXIT_MAX_ITERS
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("convergence rate 33.33%")
    assert lines[1:] == ["stop reasons: converged 1, stationary 2", f"outputs in {out}"]
    # when every run converges, stdout names no reasons
    out = tmp_path / "mm"
    rc = cli.main(["bench", "--family", "er", "--p", "10", "--prob-edge", "0.4", "--n", "30",
                   "--runs", "2", "--seed", "7", "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1] == f"outputs in {out}"


def test_cli_bench_when_every_run_stops_at_iteration_0(tmp_path):
    # w = 1 is already optimal for pg at alpha = 2, beta = 1, d = [1]
    sig = tmp_path / "x.csv"
    toy_signals_csv(sig, [[0.0], [1.0]])
    out = tmp_path / "pg0"
    rc = cli.main(["bench", "--signals", str(sig), "--solver", "pg-oracle", "--alpha", "2",
                   "--beta", "1", "--runs", "2", "--seed", "0", "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert (out / "summary.csv").read_text().splitlines()[1] == "pg-oracle,2,2,1.0,0.0,0.0"
    assert (out / "timing.csv").read_text().splitlines()[1].endswith(",0.0")


def test_cli_solve_oracle_backend(tmp_path):
    rc = cli.main(["solve", "--family", "er", "--p", "8", "--prob-edge", "0.5",
                   "--n", "20", "--seed", "2", "--solver", "pg-oracle",
                   "--tol", "1e-5", "--out", str(tmp_path / "pg")])
    assert rc == 0
    echo = (tmp_path / "pg" / "spec.echo").read_text()
    assert "solver=pg-oracle" in echo


@pytest.mark.parametrize("flag", [["--elim-enabled", "false"], ["--initial-step", "1.0"],
                                  ["--backtrack-factor", "0.5"], ["--config", "x.cfg"]])
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
        args = parser.parse_args([cmd, "--seed", "1", "--out", "o"])
        assert [getattr(args, k) for k in names] == [getattr(defaults, k) for k in names]
        assert [getattr(args, k) for k in names] == [100, 0.1, 0.3, 0.05, 1200, 0.1]
        args = parser.parse_args([cmd, *flags, "--seed", "1", "--out", "o"])
        assert [getattr(args, k) for k in names] == [9, 0.2, 0.4, 0.01, 50, 0.3]
    # a default solve or bench spec carries the dataclass defaults throughout
    for cmd in ("solve", "bench"):
        args = parser.parse_args([cmd, "--family", "er", "--seed", "1", "--out", "o"])
        spec = cli._experiment_spec(args, parser)
        assert spec.solver_config == ms.SolverConfig()
        assert spec.oracle_config == bo.OracleConfig()
        assert (spec.alpha, spec.beta, spec.solver) == (defaults.alpha, defaults.beta, defaults.solver)
        # and each explicit solver or oracle flag reaches its field
        args = parser.parse_args([cmd, "--family", "er", "--seed", "1", "--out", "o",
                                  "--epsilon", "1e-5", "--max-iters", "7", "--elim-threshold", "0",
                                  "--tol", "1e-3", "--oracle-max-iters", "9"])
        spec = cli._experiment_spec(args, parser)
        assert spec.solver_config == ms.SolverConfig(epsilon=1e-5, max_iters=7, elimination_threshold=0.0)
        assert spec.oracle_config == bo.OracleConfig(tol=1e-3, max_iters=9)


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


def test_cli_solve_from_loaded_graph(tmp_path):
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


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency; scipy stays off the import path
    env = dict(os.environ, PYTHONPATH=str(Path(mmgl.__file__).parents[1]))
    code = "import sys, mmgl, mmgl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
