"""Experiment harness: single runs, Monte-Carlo batches, CSV emission.

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

from . import baseline_oracle, data_gen, graph_model, mm_solver
from .baseline_oracle import OracleConfig
from .mm_solver import SolverConfig

SOLVERS = ("mm", "pg-oracle")
FAMILIES = ("er", "sbm", "graph-file", "signals-file")


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
    n: int = 1200
    sigma: float = 0.1
    alpha: float = 1.0
    beta: float = 1.0
    solver: str = "mm"
    solver_config: SolverConfig = field(default_factory=SolverConfig)
    oracle_config: OracleConfig = field(default_factory=OracleConfig)
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


def build_problem(spec, run_seed):
    """Materialize the ProblemInstance for one run (data generation is not
    part of any timed section)."""
    model = data_gen.SignalModel(sigma=spec.sigma, n=spec.n)
    if spec.family == "er":
        g = data_gen.gen_er(spec.p, spec.prob_edge, run_seed)
    elif spec.family == "sbm":
        g = data_gen.gen_sbm(spec.p, spec.p_in, spec.p_out, run_seed)
    elif spec.family == "graph-file":
        g = data_gen.load_graph(spec.graph_path)
    else:
        X = graph_model.load_signals_csv(spec.signals_path, skip_header=spec.signals_header)
        return data_gen.assemble(X, spec.alpha, spec.beta)
    return data_gen.assemble(g, spec.alpha, spec.beta, model=model, seed=run_seed)


def run_single(spec, run_index=0):
    """Generate or load one problem, solve it, and write the run's files.

    Returns (SolveResult, wall_time_of_solve). The trace CSV and the learned
    edge list land in spec.out_dir as trace_run<k>.csv / edges_run<k>.csv.
    """
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_seed = spec.seed + run_index
    prob = build_problem(spec, run_seed)
    t0 = time.perf_counter()
    if spec.solver == "mm":
        result = mm_solver.solve(prob, spec.solver_config)
    else:
        result = baseline_oracle.pg_solve(prob, spec.oracle_config)
    wall = time.perf_counter() - t0
    write_trace_csv(result.trace, out / f"trace_run{run_index}.csv")
    graph_model.save_edges_csv(result.w_star, prob.p, out / f"edges_run{run_index}.csv")
    return result, wall


def run_montecarlo(spec):
    """Run monte_carlo_runs seeded instances (seed + run index), aggregate,
    and write spec.echo, summary.csv and timing.csv.

    Runs that hit max_iters are recorded, not fatal; the summary flags them
    through convergence_rate < 1.
    """
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_spec_echo(spec, out / "spec.echo")
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


def emit_plot_data(labeled_traces, path):
    """Merge traces into a tidy long-format CSV `solver,run,iter,f`.

    labeled_traces is a sequence of (solver_label, run_index, trace).
    """
    labeled_traces = list(labeled_traces)
    if not labeled_traces:
        raise ValueError("no traces given")
    rows = [f"{solver},{run},{k},{f!r}\n"
            for solver, run, trace in labeled_traces
            for k, f in zip(trace.iterations.tolist(), trace.f.tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("solver,run,iter,f\n" + "".join(rows))


def write_trace_csv(trace, path):
    rows = [f"{k},{f!r},{a}\n" for k, f, a in zip(
        trace.iterations.tolist(), trace.f.tolist(), trace.active_count.tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iter,f,active_count\n" + "".join(rows))


def load_trace_csv(path):
    ks, fs, actives = [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().strip()
        if header != "iter,f,active_count":
            raise ValueError(f"{path}:1: unexpected trace header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns")
            try:
                ks.append(int(cells[0]))
                fs.append(float(cells[1]))
                actives.append(int(cells[2]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed trace row") from None
    return mm_solver.ConvergenceTrace(
        iterations=np.array(ks, dtype=int),
        f=np.array(fs, dtype=float),
        active_count=np.array(actives, dtype=int),
        wall_time=np.zeros(len(ks)),
    )


def write_summary_csv(summary, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("solver,runs,converged_runs,convergence_rate,mean_iterations,median_iterations\n")
        fh.write(f"{summary.solver},{summary.runs},{summary.converged_runs},"
                 f"{summary.convergence_rate!r},{summary.mean_iterations!r},"
                 f"{summary.median_iterations!r}\n")


def write_timing_csv(summary, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("mean_wall_time_s,mean_iter_time_s\n")
        fh.write(f"{summary.mean_wall_time_s!r},{summary.mean_iter_time_s!r}\n")


def write_spec_echo(spec, path):
    """Echo the resolved spec as sorted key=value lines (reproduction aid)."""
    flat = {}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if dataclasses.is_dataclass(value):
            for g in dataclasses.fields(value):
                flat[f"{f.name}.{g.name}"] = getattr(value, g.name)
        else:
            flat[f.name] = value
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(flat):
            fh.write(f"{key}={flat[key]}\n")
