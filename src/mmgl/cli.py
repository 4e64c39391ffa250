"""Command line front end: gen / solve / bench / plotdata subcommands.

A subcommand keeps no flag defaults of its own, except bench's --runs 100:
each setting flag takes its type and the default that --help states from
its ExperimentSpec or SolverConfig field, and a flag not typed leaves that
field at its default. So the CLI sees exactly the flags typed, and refuses
one that the run does not read (bench.SOURCES, bench.SOLVERS) even at its
default value.

Every subcommand runs under bench.one_blas_thread(), so its files are
the same bytes at any BLAS thread count wherever the count can be set.

Exit codes: 0 success (and solver converged), 3 stopped without converging
(iteration cap, f became non-finite, or the Newton oracle's line search
found no acceptable step, or its Newton system was singular, before its
tolerance), 2 usage errors, 1 file or data errors, or memory that could
not be allocated.
"""

import argparse
import dataclasses
import functools
import re
import sys
from pathlib import Path

from . import bench, graph_model
from .mm_solver import SolverConfig

EXIT_OK = 0
EXIT_IO = 1
EXIT_MAX_ITERS = 3

# What `mmgl solve` prints for each SolveResult.reason.
_STOP_MESSAGES = {
    "converged": "converged",
    "max_iters": "hit max_iters",
    "non_finite": "stopped on non-finite f (a node lost its last edge, or f overflowed)",
    "stationary": "stopped at a numerically stationary point",
}


def _add_source_args(sub, signals=True):
    """Declare the problem source, the generation flags, --seed and --out;
    signals adds --signals and --signals-header. Each dest is the name of
    the field that the flag sets."""
    src = sub.add_argument_group("problem source")
    one = src.add_mutually_exclusive_group(required=True)
    one.add_argument("--family", choices=bench.GENERATED, help="synthetic ground-truth family")
    one.add_argument("--graph", dest="graph_path", metavar="FILE",
                     help="ground-truth edge-list CSV to generate signals from")
    if signals:
        one.add_argument("--signals", dest="signals_path", metavar="FILE", help="data matrix CSV, one node per row")
        src.add_argument("--signals-header", action="store_true", help="skip one header row in --signals")
    add_generation_args(sub)
    sub.add_argument("--seed", type=int,
                     help="generation seed, required when signals are generated; bench run k uses seed + k")
    sub.add_argument("--out", dest="out_dir", required=True, metavar="DIR")


def add_setting(group, flag, text, owner=bench.ExperimentSpec, **kwargs):
    """Declare flag for the field of owner that its dest names, by default
    the flag's own name: the field's default gives the flag its type and
    the default that --help states."""
    default = getattr(owner, kwargs.setdefault("dest", flag[2:].replace("-", "_")))
    group.add_argument(flag, type=type(default), help=f"{text} (default {default})", **kwargs)


def _add_run_args(sub):
    """Declare what `solve` and `bench` share: the source flags, the model
    weights and the solver settings."""
    _add_source_args(sub)
    add_setting(sub, "--alpha", "log-barrier weight")
    add_setting(sub, "--beta", "squared-norm weight")
    sol = sub.add_argument_group("solver")
    add_setting(sol, "--solver", "MM, or the projected Newton reference", choices=bench.SOLVERS)
    add_setting(sol, "--epsilon", "relative-objective stopping tolerance", SolverConfig)
    add_setting(sol, "--max-iters", "iteration cap of either solver", SolverConfig)
    add_setting(sol, "--elim-threshold", "retire a weight at or below this times its edge's bound, "
                "0 turns it off", SolverConfig, dest="elimination_threshold", metavar="ELIM_THRESHOLD")
    add_setting(sol, "--tol", "newton-oracle: stopping bound on the relative KKT residual", SolverConfig)


def add_generation_args(sub):
    """Declare the generation flags, each by add_setting."""
    gen = sub.add_argument_group("generation parameters")
    add_setting(gen, "--p", "node count")
    add_setting(gen, "--prob-edge", "ER edge probability")
    add_setting(gen, "--p-in", "SBM intra-block probability")
    add_setting(gen, "--p-out", "SBM inter-block probability")
    add_setting(gen, "--n", "signal samples per node")
    add_setting(gen, "--sigma", "signal noise level")


def experiment_spec(args, parser):
    """The ExperimentSpec that parsed flags describe. args holds exactly the
    flags typed, each under the name of the ExperimentSpec or SolverConfig
    field it sets; every other field keeps its default. parser is the one
    that declared the flags, a subcommand's own: a typed flag that the run
    does not read, or a value that a dataclass refuses, is a usage error
    reported through it, naming the flag, not the field."""
    given = vars(args).copy()
    if "signals_path" in given:
        given["family"] = "signals-file"
    elif "graph_path" in given:
        given["family"] = "graph-file"
    try:
        config = SolverConfig(**{f.name: given[f.name] for f in dataclasses.fields(SolverConfig)
                                 if f.name in given})
        spec = bench.ExperimentSpec(solver_config=config, **{
            f.name: given[f.name] for f in dataclasses.fields(bench.ExperimentSpec) if f.name in given})
        bench.refuse_unread(spec, given)
    except ValueError as exc:
        flags = {a.dest: a.option_strings[0] for a in parser._actions if a.option_strings}
        parser.error(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), str(exc)))
    if "seed" in bench.SOURCES[spec.family] and "seed" not in given:
        parser.error("--seed is required when signals are generated")
    return spec


def _cmd_gen(args, parser):
    spec = experiment_spec(args, parser)
    out = Path(spec.out_dir)
    g, X = next(bench.run_data(spec))
    graph_model.save_edges_csv(g.w_true, g.p, out / "edges_true.csv")
    graph_model.save_signals_csv(X, out / "signals.csv")
    print(f"wrote {out / 'edges_true.csv'} and {out / 'signals.csv'} (p={g.p}, n={X.shape[1]})")
    return EXIT_OK


def _cmd_solve(args, parser):
    spec = experiment_spec(args, parser)
    result, wall = bench.run_single(spec, 0, next(bench.run_data(spec))[1])
    print(f"{spec.solver}: {_STOP_MESSAGES[result.reason]} after {result.iters} iterations, "
          f"f = {result.f_star:.10g}, solve time {wall:.3f}s")
    print(f"outputs in {spec.out_dir}")
    return EXIT_OK if result.converged else EXIT_MAX_ITERS


def _cmd_bench(args, parser):
    spec = experiment_spec(args, parser)
    summary = bench.run_montecarlo(spec)
    print(f"{summary.solver}: {summary.runs} runs, mean iterations "
          f"{summary.mean_iterations:.2f}, median {summary.median_iterations:.1f}, "
          f"convergence rate {summary.convergence_rate:.2%}")
    if summary.converged_runs < summary.runs:
        print(summary.stop_reasons_line())
    print(f"outputs in {spec.out_dir}")
    return EXIT_OK if summary.converged_runs == summary.runs else EXIT_MAX_ITERS


def _cmd_plotdata(args):
    count = bench.plot_data(args.experiment_dirs, args.out)
    print(f"wrote {args.out} ({count} traces)")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmgl",
        description="Learn a sparse weighted graph from signals that vary smoothly over its nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a subcommand keeps no default of its own, so its namespace holds exactly the flags typed
    command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p_gen = command("gen", help="generate a ground-truth graph and smooth signals")
    _add_source_args(p_gen, signals=False)
    p_gen.set_defaults(func=functools.partial(_cmd_gen, parser=p_gen))

    p_solve = command("solve", help="solve one instance and write its trace and edge list")
    _add_run_args(p_solve)
    p_solve.set_defaults(func=functools.partial(_cmd_solve, parser=p_solve))

    p_bench = command("bench", help="Monte-Carlo batch over seeded instances")
    _add_run_args(p_bench)
    p_bench.add_argument("--runs", dest="monte_carlo_runs", metavar="RUNS", type=int, default=100,
                         help="Monte-Carlo run count (default %(default)s)")
    p_bench.set_defaults(func=functools.partial(_cmd_bench, parser=p_bench))

    p_plot = command("plotdata", help="merge experiment traces into one tidy CSV")
    p_plot.add_argument("experiment_dirs", nargs="+", metavar="DIR")
    p_plot.add_argument("--out", required=True, metavar="FILE")
    p_plot.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with bench.one_blas_thread():
            return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
