"""Experiment harness: single runs, Monte-Carlo batches, bundle files.

Every experiment writes a self-describing bundle into its output directory,
in place of any bundle already there: spec.echo (the settings the run
read), trace_run<k>.csv and edges_run<k>.csv per run, summary.csv with the
deterministic aggregates, and timing.csv with wall-clock statistics. Wall
times are kept out of summary.csv so that repeating an experiment with the
same seed reproduces it byte for byte.

BUNDLE_FILE is the one statement of which file names a bundle owns: those
five, with run number k written as ASCII digits and no leading zero, which
is exactly what run_single writes. Run 0 deletes only names that it
matches, and plot_data reads a run number only from a name that it matches.

SOURCES and SOLVERS are the one statement of what a run reads. unread()
derives the settings a run does not read from them, and serves three
rules: ExperimentSpec refuses such a setting unless it keeps its default,
the CLI refuses such a flag whenever it is typed, and spec.echo leaves
such a setting out.
"""

import collections
import contextlib
import ctypes
import dataclasses
import itertools
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data_gen, graph_model, mm_solver

# each solver, with the SolverConfig fields that it reads
SOLVERS = {"mm": ("epsilon", "max_iters", "elimination_threshold"), "newton-oracle": ("max_iters", "tol")}
# each generated family, with the ExperimentSpec fields of its edge probabilities
# in the argument order of its generator data_gen.gen_<family>
GENERATED = {"er": ("prob_edge",), "sbm": ("p_in", "p_out")}
# each problem source, with the ExperimentSpec fields that it reads
SOURCES = {**{family: ("p", *probs, "n", "sigma", "seed") for family, probs in GENERATED.items()},
           "graph-file": ("graph_path", "n", "sigma", "seed"),
           "signals-file": ("signals_path", "signals_header")}
# the names of the files a bundle owns, matched whole (fullmatch)
BUNDLE_FILE = re.compile(r"spec\.echo|summary\.csv|timing\.csv|(trace|edges)_run(0|[1-9][0-9]*)\.csv")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment; frozen, so every
    setting keeps the checks it passed when the spec was built. A setting
    that the run's source (SOURCES) or solver (SOLVERS) does not read must
    keep its default."""

    family: str = "er"
    p: int = 100
    prob_edge: float = 0.1
    p_in: float = 0.3
    p_out: float = 0.05
    graph_path: str = ""
    signals_path: str = ""
    signals_header: bool = False
    n: int = data_gen.SignalModel.n
    sigma: float = data_gen.SignalModel.sigma
    alpha: float = 1.0
    beta: float = 1.0
    solver: str = "mm"
    solver_config: mm_solver.SolverConfig = mm_solver.SolverConfig()
    monte_carlo_runs: int = 1
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self):
        if self.family not in SOURCES:
            raise ValueError(f"unknown graph family {self.family!r}")
        path = {"graph-file": "graph_path", "signals-file": "signals_path"}.get(self.family)
        if path and not getattr(self, path):
            raise ValueError(f"need a nonempty {path} for a {self.family} spec")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        # a setting that the run does not read must keep its default
        refuse_unread(self, [name for owner in (self, self.solver_config) for name in vars(owner)
                             if getattr(owner, name) != getattr(type(owner), name)])
        graph_model.check_integers(monte_carlo_runs=self.monte_carlo_runs, least=1)
        if self.family == "signals-file" and self.monte_carlo_runs > 1:
            raise ValueError("a signals file is one instance, so use --runs 1 or mmgl solve")
        # so every range rule can run: a setting that the run does not read has its default
        graph_model.check_integers(p=self.p, least=2)
        graph_model.check_reals(most=1, prob_edge=self.prob_edge, p_in=self.p_in, p_out=self.p_out)
        graph_model.check_integers(seed=self.seed, least=0)
        data_gen.SignalModel(sigma=self.sigma, n=self.n)
        graph_model.check_reals(alpha=self.alpha, beta=self.beta, positive=True)


def unread(spec):
    """Map each setting that spec's run does not read to the source or solver
    that a refusal names: each ExperimentSpec field that SOURCES lists for
    other sources only, and each SolverConfig field that SOLVERS lists for
    the other solver only."""
    return {name: reader for table, key, reader in ((SOURCES, spec.family, f"the {spec.family} source"),
                                                     (SOLVERS, spec.solver, f"solver {spec.solver}"))
            for names in table.values() for name in names if name not in table[key]}


def refuse_unread(spec, given):
    """Refuse the first setting named in given that spec's run does not read."""
    for name, reader in unread(spec).items():
        if name in given:
            raise ValueError(f"{name} does not apply to {reader}")


@dataclass
class BenchSummary:
    """Aggregates of one Monte-Carlo batch; stop_reasons counts its runs by
    SolveResult.reason."""

    solver: str
    runs: int
    converged_runs: int
    convergence_rate: float
    mean_iterations: float
    median_iterations: float
    mean_wall_time_s: float
    mean_iter_time_s: float
    stop_reasons: dict

    def stop_reasons_line(self):
        """The counts as printed by `mmgl bench`: `stop reasons: converged 1, stationary 2`."""
        return "stop reasons: " + ", ".join(f"{r} {n}" for r, n in self.stop_reasons.items())


def _openblas():
    """(get, set, core): the functions of the OpenBLAS that numpy loaded
    that get and set its thread count and name the CPU core (kernel set) it
    runs, as bytes; or None when neither numpy's bundled scipy-openblas nor
    a plain OpenBLAS is found. numpy's core module links that BLAS, so
    looking a symbol up through its handle finds it."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        get, set_, core = (getattr(lib, f"{prefix}{name}{suffix}", None)
                           for name in ("get_num_threads", "set_num_threads", "get_corename"))
        if None not in (get, set_, core):
            core.restype = ctypes.c_char_p
            return get, set_, core
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with one BLAS thread, and put the previous count back
    afterwards, also when the block raises. Some BLAS products round
    differently with more threads (the signal root at ER p=100, say), so
    this makes a batch's bytes those of one thread wherever the count can
    be set; where no OpenBLAS is found, it does nothing."""
    blas = _openblas()
    with contextlib.ExitStack() as restore:
        if blas is not None:
            get, set_, _ = blas
            restore.callback(set_, get())
            set_(1)
        yield


def run_data(spec):
    """Yield (ground-truth graph, p x n signals) for each run of the batch.
    Run k samples its signals, and a generated graph, with seed + k; a
    --graph file is read and factored once; a signals file is the one run,
    with graph None. A one-run batch lets gen_signals draw its noise. A
    batch of two or more runs keeps one (2, p, n) noise buffer and one
    worker thread: run 0's noise is drawn into the buffer on the caller's
    thread, and once run k's gen_signals has returned, the worker draws
    run k + 1's noise into it (data_gen.draw_noise) while the caller
    solves and writes run k. So a one-run batch starts no thread, and
    imports no concurrent.futures, a batch never holds a second noise array
    (one freed after run 0 would stay in the heap), every BLAS call stays
    on the caller's thread, and each yielded X is a fresh array. Closing
    the generator waits for the worker and ends it. Calls go through
    data_gen's and graph_model's attributes, which a tracer may wrap; a
    generated graph comes from data_gen.gen_<family>, looked up at each
    call, with the probabilities GENERATED lists."""
    if spec.family == "signals-file":
        yield None, graph_model.load_signals_csv(spec.signals_path, skip_header=spec.signals_header)
        return
    model = data_gen.SignalModel(sigma=spec.sigma, n=spec.n)
    if spec.family == "graph-file":
        g = data_gen.load_graph(spec.graph_path)
    seeds = range(spec.seed, spec.seed + spec.monte_carlo_runs)
    noise = np.empty((2, g.p if spec.family == "graph-file" else spec.p, model.n)) if len(seeds) > 1 else None
    drawn = None  # the worker's draw of the next run's noise

    def signals(g, seed):
        # X is returned, not held in run_data's frame, so it is not live
        # once its consumer lets go of it
        nonlocal drawn
        if noise is None:  # one run: gen_signals draws its own noise
            return data_gen.gen_signals(g, model, seed, None)
        X = data_gen.gen_signals(g, model, seed, drawn.result() if drawn else data_gen.draw_noise(seed, noise))
        drawn = pool.submit(data_gen.draw_noise, seed + 1, noise) if seed + 1 in seeds else None
        return X

    pool = contextlib.nullcontext()
    if noise is not None:
        import concurrent.futures  # here, so that importing mmgl does not pay for it

        pool = concurrent.futures.ThreadPoolExecutor(1)
    with pool:
        for seed in seeds:
            if spec.family in GENERATED:
                g = getattr(data_gen, f"gen_{spec.family}")(
                    spec.p, *(getattr(spec, name) for name in GENERATED[spec.family]), seed)
            yield g, signals(g, seed)


def run_single(spec, run_index, X):
    """Solve run run_index of the batch on its p x n signal matrix X, and
    write the run's files.

    Returns (SolveResult, wall_time_of_solve). The trace CSV and the learned
    edge list land in spec.out_dir as trace_run<k>.csv / edges_run<k>.csv;
    run 0 first deletes the bundle files already there (each name that
    BUNDLE_FILE matches), and then writes spec.echo with the p and n of the
    instance it built.
    X is let go once its distances are formed, so it is not live during
    the solve and the writes. A run whose weights are not all finite (a
    non_finite stop can leave an inf weight) writes an edge list with its
    header only.
    """
    out = Path(spec.out_dir)
    n = X.shape[1]
    prob = data_gen.assemble(X, spec.alpha, spec.beta)
    del X
    if run_index == 0:
        # the bundle replaces any bundle in out; other files, gen's included, stay
        for q in out.glob("*"):
            if BUNDLE_FILE.fullmatch(q.name):
                q.unlink()
        write_spec_echo(spec, prob.p, n)
    t0 = time.perf_counter()
    solve = mm_solver.solve if spec.solver == "mm" else mm_solver.newton_solve
    result = solve(prob, spec.solver_config)
    wall = time.perf_counter() - t0
    write_trace_csv(result.trace, out / f"trace_run{run_index}.csv")
    # a non_finite stop can leave an inf weight, which no edge list holds
    w = result.w_star if np.isfinite(result.w_star).all() else np.zeros_like(result.w_star)
    graph_model.save_edges_csv(w, prob.p, out / f"edges_run{run_index}.csv")
    return result, wall


def run_montecarlo(spec):
    """Solve each run that run_data yields, aggregate, and write summary.csv
    and timing.csv.

    Every run that stops without converging, whatever its reason, is
    recorded, not fatal: the summary flags it through convergence_rate < 1
    and counts it by reason in stop_reasons. Each run is folded into
    running totals and dropped before the next is drawn, so the batch holds
    one run at a time. The batch runs under one_blas_thread(), and it
    closes run_data's generator however it ends, so no worker thread
    outlives it.
    """
    out = Path(spec.out_dir)
    iters = []  # ints, so sum() and the sorted middle pair give numpy's mean and median
    reasons = collections.Counter()
    wall_sum = iter_time_sum = 0.0
    with one_blas_thread(), contextlib.closing(run_data(spec)) as runs:
        for k in range(spec.monte_carlo_runs):
            # run k's X goes straight into run_single, which lets go of it
            result, wall = run_single(spec, k, next(runs)[1])
            iters.append(result.iters)
            reasons[result.reason] += 1
            wall_sum += wall
            iter_time_sum += float(result.trace.wall_time[1:].sum())
            del result  # now, not when run k + 1 rebinds it after its draw and solve
    iters.sort()
    summary = BenchSummary(
        solver=spec.solver,
        runs=spec.monte_carlo_runs,
        converged_runs=reasons["converged"],
        convergence_rate=reasons["converged"] / spec.monte_carlo_runs,
        mean_iterations=sum(iters) / len(iters),
        median_iterations=(iters[(len(iters) - 1) // 2] + iters[len(iters) // 2]) / 2,
        mean_wall_time_s=wall_sum / spec.monte_carlo_runs,
        mean_iter_time_s=iter_time_sum / sum(iters) if sum(iters) else 0.0,
        stop_reasons=dict(sorted(reasons.items())),
    )
    write_summary_csv(summary, out / "summary.csv")
    write_timing_csv(summary, out / "timing.csv")
    return summary


def write_trace_csv(trace, path):
    """Write a trace as CSV rows `iter,f,active_count`, one row per write.
    A memoryview yields each value as a Python float or int, so each row has
    repr's digits with no numpy scalar and no whole-trace list."""
    graph_model._write_text(path, itertools.chain(["iter,f,active_count\n"], (
        f"{k},{f!r},{a}\n" for k, (f, a) in enumerate(zip(memoryview(trace.f), memoryview(trace.active_count))))))


def plot_data(exp_dirs, path):
    """Merge bundle traces into one CSV `solver,run,iter,f`, labelled with
    the solver each spec.echo names and in numeric run order; a
    trace_run*.csv name that BUNDLE_FILE does not match is refused, so no
    two traces read as one run. repr(float(f)) reproduces the trace's
    text. Every trace is read and checked before path is opened, so a
    failure writes nothing, and read again as it is written; either pass
    holds one trace at a time. Returns the count."""

    def traces():
        for exp_dir in exp_dirs:
            solver = _echoed_solver(Path(exp_dir) / "spec.echo")
            runs = []
            for q in Path(exp_dir).glob("trace_run*.csv"):
                run = q.stem.removeprefix("trace_run")
                if not BUNDLE_FILE.fullmatch(q.name):
                    raise ValueError(f"{q}: run number {run!r} is not one mmgl writes (ASCII digits, no leading zero)")
                runs.append((int(run), q))
            if not runs:
                raise FileNotFoundError(f"no trace_run*.csv files in {exp_dir}")
            for run, q in sorted(runs):
                rows = graph_model._csv_rows(q, ncols=3)
                lineno, header = next(rows, (1, None))
                if header != ["iter", "f", "active_count"]:
                    raise ValueError(f"{q}:{lineno}: unexpected trace header")
                text = []
                for lineno, cells in rows:
                    k, f, _ = graph_model._numbers(f"{q}:{lineno}", cells, (int, float, int), "malformed trace row")
                    text.append(f"{solver},{run},{k},{f!r}\n")
                if not text:  # every trace mmgl writes has row 0, the start
                    raise ValueError(f"{q}: no trace rows")
                yield "".join(text)

    count = sum(1 for _ in traces())
    graph_model._write_text(path, itertools.chain(["solver,run,iter,f\n"], traces()))
    return count


def write_summary_csv(summary, path):
    _write_fields(summary, path, "solver", "runs", "converged_runs", "convergence_rate",
                  "mean_iterations", "median_iterations")


def write_timing_csv(summary, path):
    _write_fields(summary, path, "mean_wall_time_s", "mean_iter_time_s")


def _write_fields(summary, path, *names):
    """Write the summary's fields `names` as a one-row CSV under a header of
    those names: a float, numpy's included, as repr(float(value)), and any
    other value as str(value)."""
    values = (getattr(summary, name) for name in names)
    graph_model._write_text(path, [",".join(names) + "\n" + ",".join(
        repr(float(v)) if isinstance(v, float) else str(v) for v in values) + "\n"])


def write_spec_echo(spec, p, n):
    """Echo the settings that the run reads, with the p and n of the
    instance it built, as sorted key=value lines into out_dir/spec.echo; a
    setting that unread(spec) names is left out."""
    skip = unread(spec).keys() - {"p", "n"}
    flat = {**dataclasses.asdict(spec), "p": p, "n": n}
    flat.update((f"solver_config.{name}", value) for name, value in flat.pop("solver_config").items())
    graph_model._write_text(Path(spec.out_dir) / "spec.echo", ["".join(
        f"{key}={flat[key]}\n" for key in sorted(flat) if key.removeprefix("solver_config.") not in skip)])


def _echoed_solver(path):
    """The last `solver=` line of a spec.echo, read as plain lines since a
    path value may hold a comma; the default solver when there is none.
    ValueError on a label with a comma, which would add a cell to its rows."""
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    solvers = [line.split("=", 1)[1] for line in lines if line.startswith("solver=")]
    solver = solvers[-1] if solvers else ExperimentSpec.solver
    if "," in solver:
        raise ValueError(f"{path}: solver label {solver!r} holds a comma")
    return solver
