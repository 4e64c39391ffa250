"""Command line front end: gen / solve / bench / plotdata subcommands.

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
    signals adds --signals and --signals-header. Each default is read from
    the dataclass that owns the setting, and each dest is its field name."""
    src = sub.add_argument_group("problem source")
    one = src.add_mutually_exclusive_group(required=True)
    one.add_argument("--family", choices=bench.GENERATED, help="synthetic ground-truth family")
    one.add_argument("--graph", dest="graph_path", metavar="FILE",
                     help="ground-truth edge-list CSV to generate signals from")
    if signals:
        one.add_argument("--signals", dest="signals_path", metavar="FILE", help="data matrix CSV, one node per row")
        src.add_argument("--signals-header", action="store_true", help="skip one header row in --signals")
    _add_generation_args(sub)
    sub.add_argument("--seed", type=int,
                     help="generation seed, required when signals are generated; bench run k uses seed + k")
    sub.add_argument("--out", dest="out_dir", required=True, metavar="DIR")


def _add_run_args(sub):
    """Declare what `solve` and `bench` share: the source flags, the model
    weights and the solver settings."""
    spec = bench.ExperimentSpec
    _add_source_args(sub)
    sub.add_argument("--alpha", type=float, default=spec.alpha, help="log-barrier weight (default %(default)s)")
    sub.add_argument("--beta", type=float, default=spec.beta, help="squared-norm weight (default %(default)s)")
    sol = sub.add_argument_group("solver")
    sol.add_argument("--solver", choices=bench.SOLVERS, default=spec.solver,
                     help="MM, or the projected Newton reference (default %(default)s)")
    sol.add_argument("--epsilon", type=float, default=SolverConfig.epsilon,
                     help="relative-objective stopping tolerance (default %(default)s)")
    sol.add_argument("--max-iters", type=int, default=SolverConfig.max_iters,
                     help="iteration cap of either solver (default %(default)s)")
    sol.add_argument("--elim-threshold", dest="elimination_threshold", metavar="ELIM_THRESHOLD",
                     type=float, default=SolverConfig.elimination_threshold,
                     help="weight elimination threshold, 0 turns it off (default %(default)s)")
    sol.add_argument("--tol", type=float, default=SolverConfig.tol,
                     help="newton-oracle: stopping bound on the relative KKT residual (default %(default)s)")


def _add_generation_args(sub):
    spec = bench.ExperimentSpec
    gen = sub.add_argument_group("generation parameters")
    gen.add_argument("--p", type=int, default=spec.p, help="node count (default %(default)s)")
    gen.add_argument("--prob-edge", type=float, default=spec.prob_edge,
                     help="ER edge probability (default %(default)s)")
    gen.add_argument("--p-in", type=float, default=spec.p_in,
                     help="SBM intra-block probability (default %(default)s)")
    gen.add_argument("--p-out", type=float, default=spec.p_out,
                     help="SBM inter-block probability (default %(default)s)")
    gen.add_argument("--n", type=int, default=spec.n, help="signal samples per node (default %(default)s)")
    gen.add_argument("--sigma", type=float, default=spec.sigma, help="signal noise level (default %(default)s)")


def _experiment_spec(args, parser):
    """The ExperimentSpec that parsed flags describe. Each flag's dest names
    the ExperimentSpec or SolverConfig field it sets; None means not given,
    so the field keeps its default. parser is the one that declared the
    flags, a subcommand's own: a value a dataclass refuses is a usage error
    reported through it, naming the flag, not the field."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    if "signals_path" in given:
        given["family"] = "signals-file"
    elif "graph_path" in given:
        given["family"] = "graph-file"
    if "seed" in bench.SOURCES[given["family"]] and "seed" not in given:
        parser.error("--seed is required when signals are generated")
    try:
        config = SolverConfig(**{f.name: given[f.name] for f in dataclasses.fields(SolverConfig)
                                 if f.name in given})
        return bench.ExperimentSpec(solver_config=config, **{
            f.name: given[f.name] for f in dataclasses.fields(bench.ExperimentSpec) if f.name in given})
    except ValueError as exc:
        flags = {a.dest: a.option_strings[0] for a in parser._actions if a.option_strings}
        parser.error(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), str(exc)))


def _cmd_gen(args, parser):
    spec = _experiment_spec(args, parser)
    out = Path(spec.out_dir)
    g, X = next(bench.run_data(spec))
    graph_model.save_edges_csv(g.w_true, g.p, out / "edges_true.csv")
    graph_model.save_signals_csv(X, out / "signals.csv")
    print(f"wrote {out / 'edges_true.csv'} and {out / 'signals.csv'} (p={g.p}, n={X.shape[1]})")
    return EXIT_OK


def _cmd_solve(args, parser):
    spec = _experiment_spec(args, parser)
    result, wall = bench.run_single(spec, 0, next(bench.run_data(spec))[1])
    print(f"{spec.solver}: {_STOP_MESSAGES[result.reason]} after {result.iters} iterations, "
          f"f = {result.f_star:.10g}, solve time {wall:.3f}s")
    print(f"outputs in {spec.out_dir}")
    return EXIT_OK if result.converged else EXIT_MAX_ITERS


def _cmd_bench(args, parser):
    spec = _experiment_spec(args, parser)
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

    p_gen = sub.add_parser("gen", help="generate a ground-truth graph and smooth signals")
    _add_source_args(p_gen, signals=False)
    p_gen.set_defaults(func=functools.partial(_cmd_gen, parser=p_gen))

    p_solve = sub.add_parser("solve", help="solve one instance and write its trace and edge list")
    _add_run_args(p_solve)
    p_solve.set_defaults(func=functools.partial(_cmd_solve, parser=p_solve))

    p_bench = sub.add_parser("bench", help="Monte-Carlo batch over seeded instances")
    _add_run_args(p_bench)
    p_bench.add_argument("--runs", dest="monte_carlo_runs", metavar="RUNS", type=int, default=100,
                         help="Monte-Carlo run count (default %(default)s)")
    p_bench.set_defaults(func=functools.partial(_cmd_bench, parser=p_bench))

    p_plot = sub.add_parser("plotdata", help="merge experiment traces into one tidy CSV")
    p_plot.add_argument("experiment_dirs", nargs="+", metavar="DIR")
    p_plot.add_argument("--out", required=True, metavar="FILE")
    p_plot.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
