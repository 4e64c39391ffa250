"""Experiment harness: single runs, Monte-Carlo batches, bundle files.

Every experiment writes a self-describing bundle into its output directory:
spec.echo (the resolved configuration), trace_run<k>.csv and
edges_run<k>.csv per run, summary.csv with the deterministic aggregates,
and timing.csv with wall-clock statistics. Wall times are kept out of
summary.csv so that repeating an experiment with the same seed reproduces
it byte for byte.
"""

import collections
import dataclasses
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data_gen, graph_model, mm_solver

SOLVERS = ("mm", "newton-oracle")
GENERATED = ("er", "sbm")
FAMILIES = GENERATED + ("graph-file", "signals-file")


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one experiment."""

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
    solver_config: mm_solver.SolverConfig = field(default_factory=mm_solver.SolverConfig)
    monte_carlo_runs: int = 1
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown graph family {self.family!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.monte_carlo_runs < 1:
            raise ValueError(f"need monte_carlo_runs >= 1, got {self.monte_carlo_runs}")
        if self.family == "signals-file" and self.monte_carlo_runs > 1:
            raise ValueError("a signals file is one instance, so use --runs 1 or mmgl solve")


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


def run_data(spec, seed):
    """The run's ground-truth graph (None for a signals file) and its p x n
    signal matrix: read from spec.signals_path, or sampled with `seed` on a
    graph sampled with `seed` or read from spec.graph_path. Calls go through
    data_gen's and graph_model's attributes, which a tracer may wrap."""
    if spec.family == "signals-file":
        return None, graph_model.load_signals_csv(spec.signals_path, skip_header=spec.signals_header)
    model = data_gen.SignalModel(sigma=spec.sigma, n=spec.n)
    if spec.family == "er":
        g = data_gen.gen_er(spec.p, spec.prob_edge, seed)
    elif spec.family == "sbm":
        g = data_gen.gen_sbm(spec.p, spec.p_in, spec.p_out, seed)
    else:
        g = data_gen.load_graph(spec.graph_path)
    return g, data_gen.gen_signals(g, model, seed)


def run_single(spec, run_index=0):
    """Generate or load one problem, solve it, and write the run's files.

    Returns (SolveResult, wall_time_of_solve). The trace CSV and the learned
    edge list land in spec.out_dir as trace_run<k>.csv / edges_run<k>.csv;
    run 0 first writes spec.echo with the p and n of the instance it built.
    """
    out = Path(spec.out_dir)
    run_seed = spec.seed + run_index
    _, X = run_data(spec, run_seed)
    prob = data_gen.assemble(X, spec.alpha, spec.beta)
    if run_index == 0:
        write_spec_echo(dataclasses.replace(spec, p=prob.p, n=X.shape[1]))
    t0 = time.perf_counter()
    solve = mm_solver.solve if spec.solver == "mm" else mm_solver.newton_solve
    result = solve(prob, spec.solver_config)
    wall = time.perf_counter() - t0
    write_trace_csv(result.trace, out / f"trace_run{run_index}.csv")
    graph_model.save_edges_csv(result.w_star, prob.p, out / f"edges_run{run_index}.csv")
    return result, wall


def run_montecarlo(spec):
    """Run monte_carlo_runs seeded instances (seed + run index), aggregate,
    and write summary.csv and timing.csv.

    Runs that hit max_iters are recorded, not fatal; the summary flags them
    through convergence_rate < 1.
    """
    out = Path(spec.out_dir)
    results = []
    walls = []
    for k in range(spec.monte_carlo_runs):
        result, wall = run_single(spec, run_index=k)
        results.append(result)
        walls.append(wall)
    iters = [r.iters for r in results]
    iter_times = np.concatenate([r.trace.wall_time[1:] for r in results])
    converged = sum(1 for r in results if r.converged)
    summary = BenchSummary(
        solver=spec.solver,
        runs=spec.monte_carlo_runs,
        converged_runs=converged,
        convergence_rate=converged / spec.monte_carlo_runs,
        mean_iterations=float(np.mean(iters)),
        median_iterations=float(statistics.median(iters)),
        mean_wall_time_s=float(np.mean(walls)),
        mean_iter_time_s=float(np.mean(iter_times)) if iter_times.size else 0.0,
        stop_reasons=dict(sorted(collections.Counter(r.reason for r in results).items())),
    )
    write_summary_csv(summary, out / "summary.csv")
    write_timing_csv(summary, out / "timing.csv")
    return summary


def write_trace_csv(trace, path):
    rows = [f"{k},{f!r},{a}\n" for k, f, a in zip(
        trace.iterations.tolist(), trace.f.tolist(), trace.active_count.tolist())]
    graph_model._write_text(path, ["iter,f,active_count\n" + "".join(rows)])


def plot_data(exp_dirs, path):
    """Merge bundle traces into one CSV `solver,run,iter,f`, one write per
    trace, labelled with the solver each spec.echo names and in numeric run
    order; repr(float(f)) reproduces the trace's text. Returns the count."""
    chunks = ["solver,run,iter,f\n"]
    for exp_dir in exp_dirs:
        solver = _echoed_solver(Path(exp_dir) / "spec.echo")
        runs = []
        for q in Path(exp_dir).glob("trace_run*.csv"):
            run = q.stem.removeprefix("trace_run")
            if not run.isdecimal():
                raise ValueError(f"{q}: run number {run!r} is not an integer")
            runs.append((int(run), q))
        if not runs:
            raise FileNotFoundError(f"no trace_run*.csv files in {exp_dir}")
        for run, q in sorted(runs):
            rows = graph_model._csv_rows(q, ncols=3)
            if next(rows, (1, None))[1] != ["iter", "f", "active_count"]:
                raise ValueError(f"{q}:1: unexpected trace header")
            text = []
            for lineno, (k, f, _) in rows:
                try:
                    text.append(f"{solver},{run},{int(k)},{float(f)!r}\n")
                except ValueError:
                    raise ValueError(f"{q}:{lineno}: malformed trace row") from None
            chunks.append("".join(text))
    graph_model._write_text(path, chunks)
    return len(chunks) - 1


def write_summary_csv(summary, path):
    graph_model._write_text(path, [
        "solver,runs,converged_runs,convergence_rate,mean_iterations,median_iterations\n"
        f"{summary.solver},{summary.runs},{summary.converged_runs},"
        f"{summary.convergence_rate!r},{summary.mean_iterations!r},"
        f"{summary.median_iterations!r}\n"])


def write_timing_csv(summary, path):
    graph_model._write_text(path, [
        "mean_wall_time_s,mean_iter_time_s\n"
        f"{summary.mean_wall_time_s!r},{summary.mean_iter_time_s!r}\n"])


def write_spec_echo(spec):
    """Echo the resolved spec as sorted key=value lines into out_dir/spec.echo."""
    flat = {}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if dataclasses.is_dataclass(value):
            for g in dataclasses.fields(value):
                flat[f"{f.name}.{g.name}"] = getattr(value, g.name)
        else:
            flat[f.name] = value
    graph_model._write_text(Path(spec.out_dir) / "spec.echo",
                            ["".join(f"{key}={flat[key]}\n" for key in sorted(flat))])


def _echoed_solver(path):
    """The last `solver=` line of a spec.echo, read as plain lines since a
    path value may hold a comma; the default solver when there is none."""
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    solvers = [line.split("=", 1)[1] for line in lines if line.startswith("solver=")]
    return solvers[-1] if solvers else ExperimentSpec.solver
