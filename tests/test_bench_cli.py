import argparse
import dataclasses
import hashlib
import itertools
import os
import re
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import mmgl
from mmgl import bench, cli
from mmgl import data_gen as dg
from mmgl import graph_model as gm
from mmgl import mm_solver as ms

from conftest import assert_same_text, pin_note


def toy_signals_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n",
                    encoding="utf-8")


def small_spec(tmp_path, **overrides):
    # each generation setting goes only to a source that reads it
    family = overrides.get("family", "er")
    kwargs = {name: value for name, value in dict(p=12, prob_edge=0.3, n=40, sigma=0.1, seed=5).items()
              if name in bench.SOURCES.get(family, ())}
    kwargs.update(family=family, alpha=1.0, beta=1.0, out_dir=str(tmp_path / "exp"))
    kwargs.update(overrides)
    return bench.ExperimentSpec(**kwargs)


def run_first(spec):
    """run_single on the first run that run_data yields for spec."""
    return bench.run_single(spec, 0, next(bench.run_data(spec))[1])


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
    with pytest.raises(ValueError, match="need seed >= 0, got -1"):
        small_spec(tmp_path, seed=-1)
    # a signals file reads no seed and no generation setting, a graph file
    # no p and no edge probability, and ER no SBM probability: each such
    # setting is refused, in range or not, naming the first in SOURCES order
    with pytest.raises(ValueError, match="^seed does not apply to the signals-file source$"):
        small_spec(tmp_path, family="signals-file", signals_path="x.csv", seed=-1)
    with pytest.raises(ValueError, match="^p does not apply to the signals-file source$"):
        small_spec(tmp_path, family="signals-file", signals_path="x.csv", n=0, sigma=-1.0, p=1, prob_edge=2.0)
    with pytest.raises(ValueError, match="^p does not apply to the graph-file source$"):
        small_spec(tmp_path, family="graph-file", graph_path="g.csv", p=1, prob_edge=2.0, p_out=-1.0)
    with pytest.raises(ValueError, match="^p_in does not apply to the er source$"):
        small_spec(tmp_path, p_in=2.0, p_out=-1.0)


@pytest.mark.parametrize("overrides, message", [
    (dict(n=0), "need n >= 1, got 0"),
    (dict(sigma=-1.0), "need finite sigma >= 0, got -1.0"),
    (dict(p=1), "need p >= 2, got 1"),
    (dict(prob_edge=2.0), "need prob_edge in [0, 1], got 2.0"),
    (dict(family="sbm", p_in=1.5), "need p_in in [0, 1], got 1.5"),
    (dict(family="graph-file", graph_path="g.csv", n=0), "need n >= 1, got 0"),
    (dict(alpha=-1.0), "need finite alpha > 0, got -1.0"),
    (dict(family="signals-file", signals_path="x.csv", beta=np.inf), "need finite beta > 0, got inf"),
    # counts are integers
    (dict(p=10.5), "need an integer p, got 10.5"),
    (dict(n=2.5), "need an integer n, got 2.5"),
    (dict(monte_carlo_runs=2.5), "need an integer monte_carlo_runs, got 2.5"),
    (dict(seed=1.5), "need an integer seed, got 1.5"),
    # a bool is no count, though Python calls it an integer
    (dict(monte_carlo_runs=True), "need an integer monte_carlo_runs, got True"),
    (dict(seed=True), "need an integer seed, got True"),
    (dict(n=True), "need an integer n, got True"),
    (dict(p=False), "need an integer p, got False"),
    # nor is a bool a real weight, noise level or probability
    (dict(alpha=True), "need finite alpha > 0, got True"),
    (dict(sigma=True), "need finite sigma >= 0, got True"),
    (dict(prob_edge=True), "need prob_edge in [0, 1], got True"),
    (dict(family="sbm", p_in=True), "need p_in in [0, 1], got True"),
])
def test_experiment_spec_refuses_run_settings_out_of_range(tmp_path, overrides, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        small_spec(tmp_path, **overrides)
    # a spec derived from a valid one is checked again
    base = {k: v for k, v in overrides.items() if k in ("family", "graph_path", "signals_path")}
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(small_spec(tmp_path, **base), **overrides)


@pytest.mark.parametrize("family, path", [("graph-file", "graph_path"), ("signals-file", "signals_path")])
def test_experiment_spec_refuses_file_family_without_its_path(tmp_path, family, path):
    # refused as the spec is built, not later by a read of the path ''
    with pytest.raises(ValueError, match=f"need a nonempty {path} for a {family} spec"):
        small_spec(tmp_path, family=family)
    spec = small_spec(tmp_path, family=family, **{path: "x.csv"})
    with pytest.raises(ValueError, match=f"need a nonempty {path} for a {family} spec"):
        dataclasses.replace(spec, **{path: ""})


def test_experiment_spec_refuses_settings_the_solver_does_not_read(tmp_path):
    # a spec derived from a valid one by a change of solver is checked again
    mm_spec = small_spec(tmp_path, solver_config=ms.SolverConfig(epsilon=1e-6))
    with pytest.raises(ValueError, match="epsilon does not apply to solver newton-oracle"):
        dataclasses.replace(mm_spec, solver="newton-oracle")
    # a changed setting that the chosen solver reads is kept
    oracle = small_spec(tmp_path, solver="newton-oracle", solver_config=ms.SolverConfig(tol=1e-9))
    assert oracle.solver_config.tol == 1e-9


def test_run_single_writes_trace_and_edges(tmp_path):
    spec = small_spec(tmp_path)
    t0 = time.perf_counter()
    result, wall = run_first(spec)
    assert result.converged
    # the solve's own duration, inside the caller's timing of the run
    assert 0 <= wall <= time.perf_counter() - t0
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
    result, _ = run_first(spec)
    lines = (tmp_path / "exp" / "edges_run0.csv").read_text().splitlines()
    assert lines == ["i,j,weight", "0,1,1.0"]


def test_empty_ground_truth_still_converges(tmp_path):
    # the barrier constrains the learned graph, not the true one
    spec = small_spec(tmp_path, prob_edge=0.0, n=60)
    result, _ = run_first(spec)
    assert result.converged
    assert np.all(gm.degrees(result.w_star, spec.p) > 0)


def test_montecarlo_even_batch_median_is_the_mean_of_its_middle_pair(tmp_path):
    # seed 0 gives 26, 27, 23 and 25 iterations: the median is 25.5
    spec = small_spec(tmp_path, monte_carlo_runs=4, seed=0)
    summary = bench.run_montecarlo(spec)
    iters = sorted(len((tmp_path / "exp" / f"trace_run{k}.csv").read_text().splitlines()) - 2
                   for k in range(4))
    assert iters[1] != iters[2]
    median = (iters[1] + iters[2]) / 2
    assert summary.median_iterations == median
    row = (tmp_path / "exp" / "summary.csv").read_text(encoding="utf-8").splitlines()[1]
    assert row.split(",")[-1] == repr(median)


def test_montecarlo_numpy_integer_runs_write_plain_numbers(tmp_path):
    # a numpy run count makes the per-run means numpy floats; the files
    # still hold plain numbers, not `np.float64(1.0)`
    bench.run_montecarlo(small_spec(tmp_path, monte_carlo_runs=2, out_dir=str(tmp_path / "int")))
    bench.run_montecarlo(small_spec(tmp_path, monte_carlo_runs=np.int64(2), out_dir=str(tmp_path / "np")))
    assert (tmp_path / "np" / "summary.csv").read_bytes() == (tmp_path / "int" / "summary.csv").read_bytes()
    header, row = (tmp_path / "np" / "timing.csv").read_text(encoding="utf-8").splitlines()
    assert header == "mean_wall_time_s,mean_iter_time_s"
    assert [repr(float(cell)) for cell in row.split(",")] == row.split(",")


@pytest.mark.parametrize("settings, field", [
    (ms.SolverConfig(), "epsilon"),
    (dg.SignalModel(), "n"),
    (bench.ExperimentSpec(), "monte_carlo_runs"),
    (gm.ProblemInstance(p=2, d=[1.0], alpha=1.0, beta=1.0), "alpha"),
], ids=["SolverConfig", "SignalModel", "ExperimentSpec", "ProblemInstance"])
def test_settings_are_frozen_once_checked(settings, field):
    # an assignment would get round the checks made at construction
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(settings, field, -1)


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


def test_run_data_yields_signals_that_share_no_memory(tmp_path):
    # runs 1 to 3 take the noise that the worker drew while the run before
    # them was consumed; each is the serial draw's bytes
    spec = small_spec(tmp_path, monte_carlo_runs=4)
    runs = list(bench.run_data(spec))
    for (_, Xa), (_, Xb) in itertools.combinations(runs, 2):
        assert not np.shares_memory(Xa, Xb)
    model = dg.SignalModel(sigma=spec.sigma, n=spec.n)
    # drawing the later runs left each run's signals as they were
    for k, (g, X) in enumerate(runs):
        assert X.tobytes() == dg.gen_signals(g, model, spec.seed + k).tobytes(), k


@pytest.mark.parametrize("runs, fail_run", [(1, None), (3, None), (3, 1)])
def test_montecarlo_leaves_no_worker_thread(tmp_path, monkeypatch, runs, fail_run):
    # a batch of two or more runs draws the next run's noise on one worker
    # thread, which ends with the batch, also when a run raises; a one-run
    # batch starts none
    before = threading.active_count()
    counts = []
    run_single = bench.run_single

    def counted(spec, k, X):
        counts.append(threading.active_count())
        if k == fail_run:
            raise RuntimeError(f"run {k} fails")
        return run_single(spec, k, X)

    monkeypatch.setattr(bench, "run_single", counted)
    spec = small_spec(tmp_path, monte_carlo_runs=runs)
    if fail_run is None:
        bench.run_montecarlo(spec)
    else:
        # the caught exception keeps run_montecarlo's frame, and so its
        # generator, alive: only closing the generator ends the worker
        with pytest.raises(RuntimeError, match="run 1 fails") as caught:
            bench.run_montecarlo(spec)
        assert caught.tb is not None
    assert set(counts) == {before + (runs > 1)}
    assert threading.active_count() == before


def test_one_blas_thread_pins_one_thread_and_restores_the_count(tmp_path, monkeypatch):
    blas = bench._openblas()
    assert blas is not None, "no OpenBLAS found in numpy"
    get, set_, _ = blas
    start = get()
    try:
        set_(2)
        assert get() == 2
        with bench.one_blas_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError), bench.one_blas_thread():
            assert get() == 1
            raise RuntimeError
        assert get() == 2
        # every command, and a library caller's batch, runs under the pin
        counts = []
        run_single = bench.run_single

        def counted(*args):
            counts.append(get())
            return run_single(*args)

        monkeypatch.setattr(bench, "run_single", counted)
        bench.run_montecarlo(small_spec(tmp_path, monte_carlo_runs=2))
        assert cli.main(["solve", "--family", "er", "--p", "8", "--seed", "2", "--out", str(tmp_path / "solo")]) == 0
        assert counts == [1, 1, 1] and get() == 2
    finally:
        set_(start)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 a caller keeps its call's arguments alive until the call returns")
def test_montecarlo_signals_are_not_live_during_the_solve(tmp_path, monkeypatch):
    signals = []
    gen_signals, solve = dg.gen_signals, ms.solve

    def recorded_gen(*args):
        X = gen_signals(*args)
        signals.append(weakref.ref(X))
        return X

    def checked_solve(*args):
        assert [ref() for ref in signals] == [None] * len(signals)
        return solve(*args)

    monkeypatch.setattr(dg, "gen_signals", recorded_gen)
    monkeypatch.setattr(ms, "solve", checked_solve)
    bench.run_montecarlo(small_spec(tmp_path, monte_carlo_runs=2))
    assert len(signals) == 2


def test_montecarlo_memory_does_not_grow_with_runs(tmp_path, traced_peak):
    # each run's 19900 weights are 159 kB; a batch that kept its finished
    # runs would hold 20 of them at the end of the 20-run batch
    peaks = {}
    for runs in (1, 2, 20):  # the 1-run batch warms the caches of p = 200
        spec = small_spec(tmp_path, p=200, prob_edge=0.1, n=20, alpha=100.0, beta=1e4,
                          monte_carlo_runs=runs, out_dir=str(tmp_path / f"runs{runs}"))
        peaks[runs] = traced_peak(lambda: bench.run_montecarlo(spec))
    assert peaks[20] <= 1.2 * peaks[2]


def test_trace_writer_peak_memory_grows_with_block_not_trace(tmp_path, traced_peak):
    # each file is the one-chunk text, and the writer holds one row at a
    # time, so its peak does not grow with the trace's rows
    peaks = {}
    for rows in (5120, 20480):
        f = np.random.default_rng(8).uniform(0.0, 1e3, rows)
        active = np.arange(rows, 0, -1)
        trace = ms.ConvergenceTrace(f=f, active_count=active, wall_time=np.zeros(rows))
        path = tmp_path / "trace.csv"
        peaks[rows] = traced_peak(lambda: bench.write_trace_csv(trace, path))
        assert_same_text(path.read_text(encoding="utf-8"), "iter,f,active_count\n" + "".join(
            f"{k},{x!r},{a}\n" for k, x, a in zip(range(rows), f.tolist(), active.tolist())))
    assert peaks[20480] <= 1.5 * peaks[5120]


def test_montecarlo_timing_csv_means_over_runs(tmp_path, monkeypatch):
    # a mix of run lengths, so a mean of per-run means would differ
    runs = []
    run_single = bench.run_single

    def recorded(*args):
        result, wall = run_single(*args)
        runs.append((result.trace.wall_time[1:], wall))
        return result, wall

    monkeypatch.setattr(bench, "run_single", recorded)
    spec = small_spec(tmp_path, p=20, alpha=10.0, beta=10.0, monte_carlo_runs=4)
    bench.run_montecarlo(spec)
    iter_times = np.concatenate([t for t, _ in runs])
    assert len({t.size for t, _ in runs}) > 1
    header, row = (Path(spec.out_dir) / "timing.csv").read_text(encoding="utf-8").splitlines()
    assert header == "mean_wall_time_s,mean_iter_time_s"
    wall, iter_time = map(float, row.split(","))
    assert wall == pytest.approx(np.mean([w for _, w in runs]), rel=1e-12)
    assert iter_time == pytest.approx(np.mean(iter_times), rel=1e-12)


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
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["bench", "--signals", str(gen_dir / "signals.csv"), "--runs", "2",
                  "--out", str(tmp_path / "mc-signals-2")])
    assert excinfo.value.code == 2
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
    # or header, or a header with no rows: exit 1 with the directory, file
    # or path:line named
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
    # rows that int() and float() read, as digit grouping and a non-ASCII digit
    grouped, arabic = tmp_path / "grouped", tmp_path / "arabic"
    for bundle, row in [(grouped, "1,2_0.0,3"), (arabic, "\u0661,1.0,3")]:
        bundle.mkdir()
        (bundle / "trace_run0.csv").write_text(f"iter,f,active_count\n0,1.0,3\n{row}\n", encoding="utf-8")
    bad_header = tmp_path / "bad-header"
    bad_header.mkdir()
    (bad_header / "trace_run0.csv").write_text("k,f,active\n0,1.0,3\n", encoding="utf-8")
    low_header = tmp_path / "low-header"
    low_header.mkdir()
    (low_header / "trace_run0.csv").write_text("\niter,f,count\n0,1.0,3\n", encoding="utf-8")
    no_rows = tmp_path / "no-rows"
    no_rows.mkdir()
    write_trace(no_rows / "trace_run0.csv", [])
    # an active_count that int() refuses, a run number in non-ASCII digits
    # or with a leading zero beside its plain twin, and a solver label that
    # would add a cell
    bad_count, twin, zero, comma = (tmp_path / name for name in ("bad-count", "twin", "leading-zero", "comma"))
    bad_count.mkdir()
    (bad_count / "trace_run0.csv").write_text("iter,f,active_count\n0,2.0,abc\n", encoding="utf-8")
    twin.mkdir()
    write_trace(twin / "trace_run12.csv", [1.0])
    twin_run = twin / "trace_run\u0661\u0662.csv"
    write_trace(twin_run, [2.0])
    zero.mkdir()
    write_trace(zero / "trace_run1.csv", [1.0])
    write_trace(zero / "trace_run01.csv", [2.0])
    comma.mkdir()
    (comma / "spec.echo").write_text("solver=a,b\n", encoding="utf-8")
    write_trace(comma / "trace_run0.csv", [1.0])
    plot = out.read_bytes()
    for bundle, named in [(empty, f"no trace_run*.csv files in {empty}"),
                          (stray, f"{stray / 'trace_runX.csv'}: run number"),
                          (bad_row, f"{bad_row / 'trace_run0.csv'}:3: malformed trace row"),
                          (grouped, f"{grouped / 'trace_run0.csv'}:3: malformed trace row"),
                          (arabic, f"{arabic / 'trace_run0.csv'}:3: malformed trace row"),
                          (bad_header, f"{bad_header / 'trace_run0.csv'}:1: unexpected trace header"),
                          (low_header, f"{low_header / 'trace_run0.csv'}:2: unexpected trace header"),
                          (no_rows, f"{no_rows / 'trace_run0.csv'}: no trace rows"),
                          (bad_count, f"{bad_count / 'trace_run0.csv'}:2: malformed trace row"),
                          (twin, f"{twin_run}: run number '\u0661\u0662'"),
                          (zero, f"{zero / 'trace_run01.csv'}: run number '01' is not one mmgl writes "
                                  "(ASCII digits, no leading zero)"),
                          (comma, f"{comma / 'spec.echo'}: solver label 'a,b'")]:
        assert cli.main(["plotdata", str(mm), str(bundle), "--out", str(out)]) == cli.EXIT_IO
        assert named in capsys.readouterr().err
        assert out.read_bytes() == plot  # every trace is checked before --out is opened


def test_plotdata_peak_memory_holds_one_trace(tmp_path, traced_peak):
    # 2 and 8 traces of 3,500 rows, about a converged sbm200-tight run each
    fs = np.random.default_rng(9).uniform(0.0, 1e3, 3500).tolist()
    peaks = {}
    for traces in (2, 8):
        bundle = tmp_path / f"traces{traces}"
        bundle.mkdir()
        for k in range(traces):
            write_trace(bundle / f"trace_run{k}.csv", fs)
        bench.plot_data([bundle], tmp_path / "plot.csv")  # warm caches outside the trace
        peaks[traces] = traced_peak(lambda: bench.plot_data([bundle], tmp_path / "plot.csv"))
    assert peaks[8] <= 1.25 * peaks[2]


# sha256 of each file that a small `mmgl gen`, `mmgl bench`, `mmgl bench
# --graph` on gen's edge list and `mmgl plotdata` write, with timing.csv and
# spec.echo's out_dir line left out. Every command runs at one BLAS thread,
# and at p = 20 the signals, and so every file, are the same bits at 1, 2
# and 4 BLAS threads even without that pin. The --graph batch's
# run 0 has the graph and seed of the generated batch's run 0, so their
# files agree.
PINNED_BUNDLE = {
    "gen/edges_true.csv": "8a2b57837f2a23fd7d7e024b9fece2212b79f5f8ead8804285af9bf251b3e22a",
    "gen/signals.csv": "0ec172575ec3279e722f62d930015a7e31d386502d03b88f05affd8c33ffa148",
    "graph/edges_run0.csv": "1c721c031c53c7183876acd3392a3d9bfaf17a4383ed0ae3acfe8c53d2588960",
    "graph/edges_run1.csv": "d1b4f13284e7a24b5e1921b105f13e818f04bb3dfd3bf17d357163f88fa66836",
    "graph/edges_run2.csv": "6dbf8c5d353ca52b6a9483dfa57189b8aea94738b89fdd2dc96bdb277c477285",
    "graph/spec.echo": "bb58aa6a799bb09614d8c6307cf9d7cdffb196f7f3fc8a4a079bfae385fc995b",
    "graph/summary.csv": "19fc2e4402029546ee3bdf4315efb71901d7934d2605ff0c74d4204844b2aa5b",
    "graph/trace_run0.csv": "aff6177b288ed7fef40624648f59e8d64fa639dc8719e88252e8727fc64775d4",
    "graph/trace_run1.csv": "8994bee45d498a2f110f118f14973801576562b685dee3d1e70fc41536e3710d",
    "graph/trace_run2.csv": "bec16da1613c8935312e2a8fc5d2c810a2b2074ead0faaf1b1d1a0b8eadd70ed",
    "mc/edges_run0.csv": "1c721c031c53c7183876acd3392a3d9bfaf17a4383ed0ae3acfe8c53d2588960",
    "mc/edges_run1.csv": "03fd8a771ed2263d5cf9dc0bc1bccdb887d5831a613a613415aa689110d451da",
    "mc/edges_run2.csv": "547c3b7b4dc701b2479404595b3732a4d8a4a2180c83e24cc0d24bf5725ad478",
    "mc/spec.echo": "705375ac7efa3b47c25eee70b804c043a0a58825e87cecca57c4398979657fcb",
    "mc/summary.csv": "e4a46cace83d4f835eea42e806db380cbf7f8704d8deb5e5034ba929cdf1973b",
    "mc/trace_run0.csv": "aff6177b288ed7fef40624648f59e8d64fa639dc8719e88252e8727fc64775d4",
    "mc/trace_run1.csv": "b2f8cd25db146e54c0ed70121e20f93ae5d7e607969cdf44f0fb9bb7f928695d",
    "mc/trace_run2.csv": "8c09cf858e404b2be4dbf60ddc56bdfcf3d672fa4b2f35a9302b4e0ff336661e",
    "plot.csv": "46c4bff0466b1fa7eae38eada036851c3c61cc00f4efcb5b492e3b4cd44febe0",
}


def test_bundle_matches_pinned_bytes(tmp_path, monkeypatch):
    # a relative --graph path keeps graph_path= in spec.echo the same
    monkeypatch.chdir(tmp_path)
    family = ["--family", "er", "--p", "20", "--prob-edge", "0.2", "--n", "100", "--seed", "3"]
    assert cli.main(["gen", *family, "--out", str(tmp_path / "gen")]) == cli.EXIT_OK
    assert cli.main(["bench", *family, "--runs", "3", "--out", str(tmp_path / "mc")]) == cli.EXIT_OK
    assert cli.main(["bench", "--graph", "gen/edges_true.csv", "--n", "100", "--seed", "3", "--runs", "3",
                     "--out", str(tmp_path / "graph")]) == cli.EXIT_OK
    assert cli.main(["plotdata", str(tmp_path / "mc"), "--out", str(tmp_path / "plot.csv")]) == cli.EXIT_OK
    assert bundle_digests(tmp_path) == PINNED_BUNDLE, pin_note()


def bundle_digests(root):
    """sha256 of each file under root, by relative path, with timing.csv
    and spec.echo's out_dir line left out."""
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "timing.csv":
            data = path.read_bytes()
            if path.name == "spec.echo":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"out_dir="))
            digests[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def test_bench_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at ER p=100, n=1200 the signal root rounds differently at two OpenBLAS
    # threads; every command runs at one, so both children write its bytes
    argv = ["bench", "--family", "er", "--p", "100", "--alpha", "100", "--beta", "1e4", "--runs", "3",
            "--seed", "10000"]
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "mmgl.cli", *argv, "--out", str(out)], env=dict(
            os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(Path(mmgl.__file__).parents[1])),
            capture_output=True, check=True, timeout=120)
        digests.append(bundle_digests(out))
    assert len(digests[0]) == 8 and digests[0] == digests[1]


@pytest.mark.parametrize("reason, args", [
    ("converged", ["--p", "8", "--prob-edge", "0.5", "--n", "20", "--seed", "2"]),
    ("max_iters", ["--p", "10", "--prob-edge", "0.4", "--n", "30", "--seed", "3",
                   "--max-iters", "1", "--epsilon", "1e-14"]),
    # sqrt(alpha/beta) far below the default threshold of 1e-8: each edge
    # retires relative to its own bound, so none does in iteration 1
    ("converged", ["--p", "20", "--seed", "3", "--alpha", "1e-20", "--beta", "1"]),
    # a tolerance below round-off: no step halves the residual after 37
    ("stationary", ["--solver", "newton-oracle", "--p", "30", "--seed", "6",
                    "--alpha", "10", "--beta", "10", "--tol", "1e-300"]),
    # f overflows in iteration 1 while every node keeps its edges; a
    # RuntimeWarning escaping the solve fails the test (pyproject.toml)
    ("non_finite", ["--p", "20", "--seed", "3", "--alpha", "1e300", "--beta", "1e-300"]),
])
def test_cli_solve_prints_stop_reason(tmp_path, capsys, monkeypatch, reason, args):
    results = []
    real_run_single = bench.run_single

    def run_single(spec, run_index, X):
        results.append(real_run_single(spec, run_index, X))
        return results[-1]

    monkeypatch.setattr(bench, "run_single", run_single)
    rc = cli.main(["solve", "--family", "er", *args, "--out", str(tmp_path / reason)])
    assert results[0][0].reason == reason
    assert rc == (cli.EXIT_OK if reason == "converged" else cli.EXIT_MAX_ITERS)
    out = capsys.readouterr().out
    assert f": {cli._STOP_MESSAGES[reason]} after" in out
    if reason == "non_finite":
        assert " after 1 iterations," in out and "max_iters" not in out


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
                   "--beta", "1", "--runs", "1", "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert (out / "summary.csv").read_text().splitlines()[1] == "newton-oracle,1,1,1.0,0.0,0.0"
    assert (out / "timing.csv").read_text().splitlines()[1].endswith(",0.0")


def test_cli_run_that_stops_with_an_inf_weight_writes_its_bundle(tmp_path, capsys):
    # two identical rows give a d = 0 edge, whose root divides by an
    # underflowed zero at alpha = beta = 1e-300: that weight is inf and f
    # nan after iteration 1; no edge list holds an inf, so it holds none
    sig = tmp_path / "x.csv"
    toy_signals_csv(sig, [[0, 0], [0, 0], [1, 0]])
    flags = ["--signals", str(sig), "--alpha", "1e-300", "--beta", "1e-300"]
    assert cli.main(["solve", *flags, "--out", str(tmp_path / "solve")]) == cli.EXIT_MAX_ITERS
    assert f"mm: {cli._STOP_MESSAGES['non_finite']} after 1 iterations, f = nan" in capsys.readouterr().out
    assert cli.main(["bench", "--runs", "1", *flags, "--out", str(tmp_path / "bench")]) == cli.EXIT_MAX_ITERS
    assert capsys.readouterr().out.splitlines()[1] == "stop reasons: non_finite 1"
    assert (tmp_path / "bench" / "summary.csv").read_text().splitlines()[1] == "mm,1,0,0.0,1.0,1.0"
    for out in ("solve", "bench"):
        assert (tmp_path / out / "edges_run0.csv").read_text() == "i,j,weight\n"


def test_cli_newton_oracle_stops_stationary_on_a_singular_system(tmp_path, capsys):
    # np.linalg.solve refuses the Newton system: a stop, not a data error
    rc = cli.main(["solve", "--solver", "newton-oracle", "--family", "er", "--p", "20", "--seed", "3",
                   "--alpha", "1e-10", "--beta", "1", "--out", str(tmp_path / "solve")])
    assert rc == cli.EXIT_MAX_ITERS
    assert f"newton-oracle: {cli._STOP_MESSAGES['stationary']} after" in capsys.readouterr().out
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--solver", "newton-oracle", "--family", "er", "--p", "20", "--runs", "3",
                   "--seed", "3", "--alpha", "1e-20", "--beta", "1", "--out", str(out)])
    assert rc == cli.EXIT_MAX_ITERS
    assert (out / "summary.csv").read_text().splitlines()[1].startswith("newton-oracle,3,0,0.0,")
    assert sorted(q.name for q in out.iterdir()) == [
        "edges_run0.csv", "edges_run1.csv", "edges_run2.csv", "spec.echo", "summary.csv", "timing.csv",
        "trace_run0.csv", "trace_run1.csv", "trace_run2.csv"]


def test_cli_max_iters_caps_the_newton_oracle(tmp_path, capsys):
    # uncapped, this instance converges after 35 steps
    out = tmp_path / "capped"
    rc = cli.main(["solve", "--solver", "newton-oracle", "--family", "er", "--p", "30", "--seed", "5",
                   "--alpha", "10", "--beta", "10", "--max-iters", "3", "--out", str(out)])
    assert rc == cli.EXIT_MAX_ITERS
    assert "newton-oracle: hit max_iters after 3 iterations" in capsys.readouterr().out
    assert len((out / "trace_run0.csv").read_text().splitlines()) == 5  # header, start, 3 steps


@pytest.mark.parametrize("argv", [["solve", "--solver", "pg-oracle"], ["bench", "--solver", "pg-oracle"],
                                  ["solve", "--elim-enabled", "false"], ["solve", "--initial-step", "1.0"],
                                  ["solve", "--backtrack-factor", "0.5"], ["solve", "--config", "x.cfg"],
                                  ["solve", "--oracle-max-iters", "9"]])
def test_cli_rejects_removed_solver_names_and_flags(tmp_path, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--family", "er", "--p", "8", "--seed", "2", "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2


def test_cli_generation_flags_parse_alike():
    # gen, solve and bench share one declaration of the generation flags
    parser = cli.build_parser()
    names = ("p", "prob_edge", "p_in", "p_out", "n", "sigma")
    flags = ["--p", "9", "--prob-edge", "0.2", "--p-in", "0.4", "--p-out", "0.01",
             "--n", "50", "--sigma", "0.3"]
    defaults = bench.ExperimentSpec()
    for cmd in ("gen", "solve", "bench"):
        # a flag not typed is absent from the namespace, and its field keeps
        # the dataclass default
        args = parser.parse_args([cmd, "--family", "er", "--seed", "1", "--out", "o"])
        assert not [k for k in names if hasattr(args, k)]
        spec = cli.experiment_spec(args, parser)
        assert [getattr(spec, k) for k in names] == [getattr(defaults, k) for k in names]
        assert [getattr(spec, k) for k in names] == [100, 0.1, 0.3, 0.05, 1200, 0.1]
        args = parser.parse_args([cmd, "--family", "er", *flags, "--seed", "1", "--out", "o"])
        assert [getattr(args, k) for k in names] == [9, 0.2, 0.4, 0.01, 50, 0.3]
        # each flag parses to the type of its field's default
        assert [type(getattr(args, k)) for k in names] == [int, float, float, float, int, float]
    # each generation flag reaches its spec field, for gen as for solve and
    # bench; a family takes only its own edge probabilities
    own = {"er": (["--prob-edge", "0.2"], [0.2, 0.3, 0.05]),
           "sbm": (["--p-in", "0.4", "--p-out", "0.01"], [0.1, 0.4, 0.01])}
    for cmd in ("gen", "solve", "bench"):
        for family, (probs, values) in own.items():
            args = parser.parse_args([cmd, "--family", family, "--p", "9", *probs, "--n", "50", "--sigma", "0.3",
                                      "--seed", "4", "--out", "o"])
            spec = cli.experiment_spec(args, parser)
            assert [getattr(spec, k) for k in names] == [9, *values, 50, 0.3]
            assert (spec.family, spec.seed, spec.out_dir) == (family, 4, "o")
    # a default solve or bench spec carries the dataclass defaults throughout
    for cmd in ("solve", "bench"):
        args = parser.parse_args([cmd, "--family", "er", "--seed", "1", "--out", "o"])
        spec = cli.experiment_spec(args, parser)
        assert spec.solver_config == ms.SolverConfig()
        assert (spec.alpha, spec.beta, spec.solver) == (defaults.alpha, defaults.beta, defaults.solver)
        # and each explicit flag of the chosen solver reaches its field
        args = parser.parse_args([cmd, "--family", "er", "--seed", "1", "--out", "o",
                                  "--epsilon", "1e-5", "--max-iters", "7", "--elim-threshold", "0"])
        spec = cli.experiment_spec(args, parser)
        assert spec.solver_config == ms.SolverConfig(epsilon=1e-5, max_iters=7, elimination_threshold=0.0)
        args = parser.parse_args([cmd, "--family", "er", "--seed", "1", "--out", "o",
                                  "--solver", "newton-oracle", "--tol", "1e-3", "--max-iters", "7"])
        spec = cli.experiment_spec(args, parser)
        assert spec.solver == "newton-oracle"
        assert spec.solver_config == ms.SolverConfig(max_iters=7, tol=1e-3)


def test_cli_flag_dests_name_spec_fields():
    # experiment_spec matches dests to field names, so a dest that names
    # no field would be dropped without a word
    fields = {f.name for f in dataclasses.fields(bench.ExperimentSpec)}
    fields |= {f.name for f in dataclasses.fields(ms.SolverConfig)}
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for cmd in ("gen", "solve", "bench"):
        dests = {a.dest for a in commands.choices[cmd]._actions if a.dest != "help"}
        assert dests <= fields, (cmd, sorted(dests - fields))


# every (source or solver, setting) pair whose setting the run does not read
UNREAD = [
    *[("er", name) for name in ("p_in", "p_out", "graph_path", "signals_path", "signals_header")],
    *[("sbm", name) for name in ("prob_edge", "graph_path", "signals_path", "signals_header")],
    *[("graph-file", name) for name in ("p", "prob_edge", "p_in", "p_out", "signals_path", "signals_header")],
    *[("signals-file", name) for name in ("p", "prob_edge", "p_in", "p_out", "graph_path", "n", "sigma", "seed")],
    ("mm", "tol"), ("newton-oracle", "epsilon"), ("newton-oracle", "elimination_threshold"),
]
# a value other than the default of each setting, and the flags that type it
CHANGED = {
    "p": (10, ["--p", "10"]), "prob_edge": (0.2, ["--prob-edge", "0.2"]),
    "p_in": (0.4, ["--p-in", "0.4"]), "p_out": (0.01, ["--p-out", "0.01"]),
    "graph_path": ("g.csv", ["--graph", "g.csv"]), "signals_path": ("x.csv", ["--signals", "x.csv"]),
    "signals_header": (True, ["--signals-header"]), "n": (30, ["--n", "30"]),
    "sigma": (0.3, ["--sigma", "0.3"]), "seed": (1, ["--seed", "1"]),
    "tol": (1e-3, ["--tol", "1e-3"]), "epsilon": (1e-3, ["--epsilon", "1e-3"]),
    "elimination_threshold": (0.5, ["--elim-threshold", "0.5"]),
}
# the spec fields and the flags of a valid run of each source or solver
READERS = {
    "er": (dict(family="er"), ["--family", "er", "--seed", "1"]),
    "sbm": (dict(family="sbm"), ["--family", "sbm", "--seed", "1"]),
    "graph-file": (dict(family="graph-file", graph_path="g.csv"), ["--graph", "g.csv", "--seed", "1"]),
    "signals-file": (dict(family="signals-file", signals_path="x.csv"), ["--signals", "x.csv"]),
    "mm": (dict(solver="mm"), ["--family", "er", "--seed", "1"]),
    "newton-oracle": (dict(solver="newton-oracle"), ["--family", "er", "--seed", "1", "--solver", "newton-oracle"]),
}


@pytest.mark.parametrize("reader, name", UNREAD, ids=[f"{reader}-{name}" for reader, name in UNREAD])
def test_every_setting_the_run_does_not_read_is_refused(tmp_path, monkeypatch, capsys, reader, name):
    fields, argv = READERS[reader]
    value, flag = CHANGED[name]
    solver = reader in bench.SOLVERS
    changed = dict(solver_config=ms.SolverConfig(**{name: value})) if solver else {name: value}
    target = f"solver {reader}" if solver else f"the {reader} source"
    # refused as a spec is built, and as one is derived from a valid spec
    with pytest.raises(ValueError, match=f"^{name} does not apply to {target}$"):
        bench.ExperimentSpec(**fields, **changed)
    with pytest.raises(ValueError, match=f"^{name} does not apply to {target}$"):
        dataclasses.replace(bench.ExperimentSpec(**fields), **changed)
    # and at the CLI, by every subcommand that declares the flag, as a usage
    # error that names the flag typed; a flag that takes a value is refused
    # at its dataclass default too, since typing it says the run reads it
    monkeypatch.chdir(tmp_path)
    gen = not solver and reader != "signals-file" and name not in ("signals_path", "signals_header")
    default = getattr(ms.SolverConfig if solver else bench.ExperimentSpec, name)
    typings = [flag, [flag[0], str(default)]]
    if name in ("graph_path", "signals_path", "signals_header"):
        typings = [flag]  # no value to type, or a second source
    for cmd, typed in itertools.product(("solve", "bench", *(("gen",) if gen else ())), typings):
        runs = ["--runs", "1"] if cmd == "bench" else []
        with pytest.raises(SystemExit) as excinfo:
            cli.main([cmd, *argv, *typed, *runs, "--out", "x"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: mmgl {cmd} "), err
        if name in ("graph_path", "signals_path"):
            # a second problem source, which argparse refuses first
            assert f"mmgl {cmd}: error: argument {flag[0]}: not allowed" in err, err
        else:
            target = f"--solver {reader}" if solver else f"the {reader} source"
            assert err.endswith(f"mmgl {cmd}: error: {flag[0]} does not apply to {target}\n"), err
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


def test_cli_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["solve", "--out", str(tmp_path / "x")])  # no problem source
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["bench", "--family", "er", "--out", str(tmp_path / "y")])  # no seed
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mmgl solve ") and "usage: mmgl bench " in err, err
    assert "mmgl bench: error: --seed is required" in err, err
    # gen refuses a missing seed by the same rule, under its own usage
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["gen", "--family", "er", "--p", "10", "--out", str(tmp_path / "z")])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mmgl gen ") and err.endswith(
        "mmgl gen: error: --seed is required when signals are generated\n"), err
    assert not (tmp_path / "z").exists()


@pytest.mark.parametrize("argv", [
    ["bench", "--family", "er", "--seed", "1", "--runs", "0"],
    ["solve", "--family", "er", "--seed", "1", "--epsilon", "0"],
    ["solve", "--family", "er", "--seed", "1", "--max-iters", "0"],
    ["solve", "--family", "er", "--seed", "1", "--elim-threshold", "-1"],
    ["bench", "--signals", "x.csv", "--runs", "2"],  # a signals file is one instance
    ["bench", "--family", "er", "--seed", "-1"],
    # out-of-range generation settings, alpha and beta are refused as the
    # spec is built, before anything is drawn or written
    *[[cmd, "--family", "er", "--seed", "1", *bad] for cmd in ("solve", "bench", "gen")
      for bad in (["--n", "0"], ["--p", "1"], ["--prob-edge", "2"])],
    *[[cmd, "--family", "er", "--seed", "1", "--alpha", "-1"] for cmd in ("solve", "bench")],
    ["gen", "--family", "sbm", "--seed", "1", "--p-out", "-0.5"],
    ["bench", "--family", "sbm", "--seed", "1", "--sigma", "-1"],
    ["solve", "--signals", "x.csv", "--beta", "0"],
    ["bench", "--seed", "1", "--graph", ""],
    ["solve", "--signals", ""],
])
def test_cli_settings_the_dataclasses_refuse_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    toy_signals_csv(Path("x.csv"), [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--out", "x"])
    assert excinfo.value.code == 2
    # the message names the flag typed, not the field it sets, under the
    # usage of the subcommand that declared the flag
    err = capsys.readouterr().err
    assert err.startswith(f"usage: mmgl {argv[0]} "), err
    assert f"mmgl {argv[0]}: error: " in err and argv[-2] in err, err
    assert not re.search(r"monte_carlo_runs|max_iters|elimination_threshold|prob_edge|p_out", err), err
    assert not (tmp_path / "x").exists()


def test_cli_bench_replaces_the_bundle_in_its_directory(tmp_path, capsys):
    # a 2-run oracle batch into the directory of a 4-run MM batch leaves no
    # MM run behind for plotdata to label newton-oracle
    out = tmp_path / "d"
    argv = ["bench", "--family", "er", "--p", "12", "--n", "40", "--out", str(out)]
    assert cli.main([*argv, "--runs", "4", "--seed", "1"]) == cli.EXIT_OK
    assert cli.main([*argv, "--runs", "2", "--seed", "9", "--solver", "newton-oracle"]) == cli.EXIT_OK
    assert sorted(q.name for q in out.iterdir()) == [
        "edges_run0.csv", "edges_run1.csv", "spec.echo", "summary.csv", "timing.csv",
        "trace_run0.csv", "trace_run1.csv"]
    capsys.readouterr()
    plot = tmp_path / "plot.csv"
    assert cli.main(["plotdata", str(out), "--out", str(plot)]) == cli.EXIT_OK
    assert capsys.readouterr().out == f"wrote {plot} (2 traces)\n"
    assert {line.split(",", 1)[0] for line in plot.read_text(encoding="utf-8").splitlines()[1:]} == {
        "newton-oracle"}


def test_cli_solve_replaces_a_bench_bundle_and_keeps_other_files(tmp_path):
    d = tmp_path / "d"
    family = ["--family", "er", "--p", "12", "--n", "40", "--seed", "1"]
    assert cli.main(["gen", *family, "--out", str(d)]) == cli.EXIT_OK
    assert cli.main(["bench", *family, "--runs", "3", "--out", str(d)]) == cli.EXIT_OK
    # run numbers in non-ASCII digits or with a leading zero are not names
    # that mmgl writes, so they stay too
    for name in ("notes.txt", "trace_runX.csv", "edges_run1.csv.bak", "summary.csv.bak",
                 "trace_run\u0661\u0662.csv", "edges_run\u0663.csv", "trace_run01.csv"):
        (d / name).write_text("kept\n", encoding="utf-8")
    bundle = {q.name: q.read_bytes() for q in d.iterdir()}
    # a run refused on its inputs touches nothing, here signals whose
    # distances overflow
    toy_signals_csv(tmp_path / "huge.csv", [[1e200, 2e200], [3e200, 1e200], [5e200, 7e200]])
    assert cli.main(["solve", "--signals", str(tmp_path / "huge.csv"), "--out", str(d)]) == cli.EXIT_IO
    assert {q.name: q.read_bytes() for q in d.iterdir()} == bundle
    # a solve leaves no summary, timing or later run of the batch beside its echo
    assert cli.main(["solve", "--signals", str(d / "signals.csv"), "--solver", "newton-oracle",
                     "--out", str(d)]) == cli.EXIT_OK
    assert sorted(q.name for q in d.iterdir()) == [
        "edges_run0.csv", "edges_run1.csv.bak", "edges_run\u0663.csv", "edges_true.csv", "notes.txt",
        "signals.csv", "spec.echo", "summary.csv.bak", "trace_run0.csv", "trace_run01.csv", "trace_runX.csv",
        "trace_run\u0661\u0662.csv"]
    assert (d / "signals.csv").read_bytes() == bundle["signals.csv"]
    assert (d / "edges_true.csv").read_bytes() == bundle["edges_true.csv"]
    assert "solver=newton-oracle" in (d / "spec.echo").read_text(encoding="utf-8").splitlines()


def test_cli_allocation_that_numpy_refuses_is_an_error_not_a_traceback(tmp_path, capsys):
    # 100 x 1e12 float64 signals would take 728 TiB, more than any address
    # space: numpy refuses the request before a page is touched
    out = tmp_path / "big"
    rc = cli.main(["bench", "--family", "er", "--p", "100", "--n", "1000000000000", "--seed", "1",
                   "--runs", "1", "--out", str(out)])
    assert rc == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 728. TiB"), err
    assert not out.exists()


def test_cli_signals_header_skips_one_row(tmp_path):
    X = np.random.default_rng(3).standard_normal((8, 25))
    plain, headed = tmp_path / "plain.csv", tmp_path / "headed.csv"
    gm.save_signals_csv(X, plain)
    headed.write_text(",".join(f"s{k}" for k in range(25)) + "\n" + plain.read_text(encoding="utf-8"),
                      encoding="utf-8")
    assert cli.main(["solve", "--signals", str(plain), "--out", str(tmp_path / "a")]) == cli.EXIT_OK
    assert cli.main(["solve", "--signals", str(headed), "--signals-header",
                     "--out", str(tmp_path / "b")]) == cli.EXIT_OK
    for name in ("trace_run0.csv", "edges_run0.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    assert "signals_header=True" in (tmp_path / "b" / "spec.echo").read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("flags", [
    ["--signals", "bad.csv"],
    ["--signals", "one-row.csv"],
    ["--signals", "missing.csv"],
    ["--graph", "bad-edges.csv", "--seed", "1"],
    ["--graph", "header-only.csv", "--seed", "1"],
])
def test_cli_run_whose_inputs_fail_leaves_no_bundle(tmp_path, monkeypatch, capsys, flags):
    # a file that cannot be read or parsed is a data error (exit 1) that
    # names the file, and the line where the fault has one
    monkeypatch.chdir(tmp_path)
    Path("bad.csv").write_text("1.0,2.0\nbroken\n", encoding="utf-8")
    Path("one-row.csv").write_text("1.0,2.0\n", encoding="utf-8")
    Path("bad-edges.csv").write_text("i,j,weight\n0,1,heavy\n", encoding="utf-8")
    Path("header-only.csv").write_text("i,j,weight\n", encoding="utf-8")
    assert cli.main(["solve", *flags, "--out", "x"]) == cli.EXIT_IO
    err = capsys.readouterr().err
    named = {"bad.csv": "bad.csv:2: ", "bad-edges.csv": "bad-edges.csv:2: "}.get(flags[1], flags[1])
    assert err.startswith("error: ") and named in err, err
    assert not (tmp_path / "x").exists()


def test_cli_echoes_the_instance_it_built_from_one_read(tmp_path, monkeypatch):
    # a signals run echoes the file's shape, not the --p and --n defaults
    sig = tmp_path / "signals.csv"
    gm.save_signals_csv(np.random.default_rng(0).standard_normal((12, 30)), sig)
    assert cli.main(["solve", "--signals", str(sig), "--out", str(tmp_path / "s")]) == cli.EXIT_OK
    echo = (tmp_path / "s" / "spec.echo").read_text(encoding="utf-8").splitlines()
    assert "p=12" in echo and "n=30" in echo
    # each command reads its --graph file once and factors its Laplacian
    # once, a bench batch too
    reads = []
    eighs = []
    real_load_graph = dg.load_graph
    real_eigh = np.linalg.eigh

    def load_graph(path):
        reads.append(path)
        return real_load_graph(path)

    def eigh(a, *args, **kwargs):
        eighs.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(dg, "load_graph", load_graph)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    src = tmp_path / "g.csv"
    src.write_text("i,j,weight\n0,1,1.0\n1,2,2.0\n0,3,1.5\n2,3,1.0\n", encoding="utf-8")
    graph = ["--graph", str(src), "--n", "50", "--seed", "6"]
    for argv in [["solve", *graph], ["gen", *graph], ["bench", *graph, "--runs", "5"]]:
        reads.clear()
        eighs.clear()
        assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == cli.EXIT_OK
        assert (len(reads), eighs) == (1, [(4, 4)]), argv[0]
    assert len(list((tmp_path / "bench").glob("trace_run*.csv"))) == 5
    assert gm.load_signals_csv(tmp_path / "gen" / "signals.csv").shape == (4, 50)
    assert "p=4" in (tmp_path / "bench" / "spec.echo").read_text(encoding="utf-8").splitlines()


def test_cli_signals_echo_leaves_out_generation_settings(tmp_path):
    # spec.echo holds exactly the settings that the run read, with the p and
    # n it built: a --signals run reads no seed, noise level, edge
    # probability or graph, and mm reads no tol
    sig = tmp_path / "signals.csv"
    gm.save_signals_csv(np.random.default_rng(0).standard_normal((6, 20)), sig)
    assert cli.main(["solve", "--signals", str(sig), "--out", str(tmp_path / "s")]) == cli.EXIT_OK
    keys = [line.split("=", 1)[0] for line in (tmp_path / "s" / "spec.echo").read_text().splitlines()]
    assert keys == ["alpha", "beta", "family", "monte_carlo_runs", "n", "out_dir", "p",
                    "signals_header", "signals_path", "solver", "solver_config.elimination_threshold",
                    "solver_config.epsilon", "solver_config.max_iters"]
    # a --graph run reads the seed and the noise level, but no edge probability
    assert cli.main(["solve", "--graph", str(tmp_path / "s" / "edges_run0.csv"), "--seed", "1",
                     "--out", str(tmp_path / "g")]) == cli.EXIT_OK
    echo = (tmp_path / "g" / "spec.echo").read_text().splitlines()
    assert [line.split("=", 1)[0] for line in echo] == [
        "alpha", "beta", "family", "graph_path", "monte_carlo_runs", "n", "out_dir", "p", "seed", "sigma",
        "solver", "solver_config.elimination_threshold", "solver_config.epsilon", "solver_config.max_iters"]
    assert {"seed=1", "sigma=0.1"} <= set(echo)


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


def test_readme_quick_start_runs(capsys):
    # a later API change cannot leave the README's example stale
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("```python\n", readme.index("\n## Library quick start\n")) + len("```python\n")
    code = readme[start:readme.index("```", start)]
    # padded so that a traceback names the README's own line numbers
    exec(compile("\n" * readme.count("\n", 0, start) + code, "README.md", "exec"), {})
    converged, iters, f_star = capsys.readouterr().out.split()
    assert converged == "True" and int(iters) > 0 and np.isfinite(float(f_star))


def test_package_exports_the_product_api():
    # the solver, its generators and its problem model; the reference
    # versions of the single MM step, the gradient and the Laplacian
    # pseudo-inverse live in tests/oracles.py
    assert set(mmgl.__all__) == {
        "GroundTruthGraph", "ProblemInstance", "SignalModel", "SolveResult", "SolverConfig",
        "assemble", "degrees", "edge_index", "gen_er", "gen_sbm", "gen_signals",
        "newton_solve", "objective", "pairwise_distances", "solve"}
    assert all(hasattr(mmgl, name) for name in mmgl.__all__)
    for module in (mmgl, ms, dg, gm):
        for name in ("compute_c", "mm_update", "laplacian_pinv", "objective_gradient"):
            assert not hasattr(module, name), (module.__name__, name)


@pytest.fixture(scope="module")
def import_report():
    # one child interpreter imports mmgl and mmgl.cli and reports both facts
    # the two tests below check
    env = dict(os.environ, PYTHONPATH=str(Path(mmgl.__file__).parents[1]))
    code = ("import sys, mmgl, mmgl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'));"
            " print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_import_does_not_load_scipy(import_report):
    # numpy is the only runtime dependency, so scipy stays off the import path
    assert import_report[0] == "[]"


def test_import_does_not_load_the_thread_pool(import_report):
    # only a batch of two or more runs needs concurrent.futures, so it is
    # imported there and not with mmgl
    assert import_report[1] == "False"
