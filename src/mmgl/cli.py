"""Command line front end: gen / solve / bench / plotdata subcommands.

Exit codes: 0 success (and solver converged), 3 stopped without converging
(iteration cap, f became non-finite, or the PG oracle stalled at a
numerically stationary point), 2 usage errors, 1 file or data
errors.
"""

import argparse
import sys
from pathlib import Path

from . import bench, data_gen
from .baseline_oracle import OracleConfig
from .mm_solver import SolverConfig

EXIT_OK = 0
EXIT_IO = 1
EXIT_MAX_ITERS = 3

# What `mmgl solve` prints for each SolveResult.reason.
_STOP_MESSAGES = {
    "converged": "converged",
    "max_iters": "hit max_iters",
    "non_finite": "stopped on non-finite f (a node lost its last edge)",
    "stationary": "stopped at a numerically stationary point",
}


def _add_run_args(sub):
    """Declare what `solve` and `bench` share; each default is read from
    the dataclass that owns the setting."""
    spec = bench.ExperimentSpec
    src = sub.add_argument_group("problem source (pick one)")
    src.add_argument("--family", choices=("er", "sbm"), help="synthetic ground-truth family")
    src.add_argument("--graph", metavar="FILE", help="ground-truth edge-list CSV to generate signals from")
    src.add_argument("--signals", metavar="FILE", help="data matrix CSV, one node per row")
    src.add_argument("--signals-header", action="store_true", help="skip one header row in --signals")
    _add_generation_args(sub)
    sub.add_argument("--alpha", type=float, default=spec.alpha, help="log-barrier weight (default %(default)s)")
    sub.add_argument("--beta", type=float, default=spec.beta, help="squared-norm weight (default %(default)s)")
    sol = sub.add_argument_group("solver")
    sol.add_argument("--solver", choices=bench.SOLVERS, default=spec.solver,
                     help="MM, or the projected-gradient reference (default %(default)s)")
    sol.add_argument("--epsilon", type=float, default=SolverConfig.epsilon,
                     help="relative-objective stopping tolerance (default %(default)s)")
    sol.add_argument("--max-iters", type=int, default=SolverConfig.max_iters,
                     help="iteration safety cap (default %(default)s)")
    sol.add_argument("--elim-threshold", type=float, default=SolverConfig.elimination_threshold,
                     help="weight elimination threshold, 0 turns it off (default %(default)s)")
    orc = sub.add_argument_group("pg-oracle")
    orc.add_argument("--tol", type=float, default=OracleConfig.tol,
                     help="projected-gradient stopping norm (default %(default)s)")
    orc.add_argument("--oracle-max-iters", type=int, default=OracleConfig.max_iters,
                     help="oracle iteration cap (default %(default)s)")
    sub.add_argument("--seed", type=int,
                     help="generation seed, required unless --signals; bench run k uses seed + k")
    sub.add_argument("--out", required=True, metavar="DIR")


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


def _experiment_spec(args, parser, runs=1):
    sources = [bool(args.family), bool(args.graph), bool(args.signals)]
    if sum(sources) != 1:
        parser.error("pick exactly one of --family, --graph, --signals")
    if args.signals:
        family = "signals-file"
    elif args.graph:
        family = "graph-file"
    else:
        family = args.family
    if family != "signals-file" and args.seed is None:
        parser.error("--seed is required when signals are generated")
    return bench.ExperimentSpec(
        family=family,
        p=args.p,
        prob_edge=args.prob_edge,
        p_in=args.p_in,
        p_out=args.p_out,
        graph_path=args.graph or "",
        signals_path=args.signals or "",
        signals_header=args.signals_header,
        n=args.n,
        sigma=args.sigma,
        alpha=args.alpha,
        beta=args.beta,
        solver=args.solver,
        solver_config=SolverConfig(epsilon=args.epsilon, max_iters=args.max_iters,
                                   elimination_threshold=args.elim_threshold),
        oracle_config=OracleConfig(tol=args.tol, max_iters=args.oracle_max_iters),
        monte_carlo_runs=runs,
        seed=bench.ExperimentSpec.seed if args.seed is None else args.seed,
        out_dir=args.out,
    )


def _cmd_gen(args, parser):
    if bool(args.family) == bool(args.graph):
        parser.error("pick exactly one of --family, --graph")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.graph:
        g = data_gen.load_graph(args.graph)
    elif args.family == "er":
        g = data_gen.gen_er(args.p, args.prob_edge, args.seed)
    else:
        g = data_gen.gen_sbm(args.p, args.p_in, args.p_out, args.seed)
    model = data_gen.SignalModel(sigma=args.sigma, n=args.n)
    X = data_gen.gen_signals(g, model, args.seed)
    data_gen.save_graph(g, out / "edges_true.csv")
    with open(out / "signals.csv", "w", encoding="utf-8", newline="\n") as fh:
        for row in X:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
    print(f"wrote {out / 'edges_true.csv'} and {out / 'signals.csv'} (p={g.p}, n={model.n})")
    return EXIT_OK


def _cmd_solve(args, parser):
    spec = _experiment_spec(args, parser, runs=1)
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bench.write_spec_echo(spec, out / "spec.echo")
    result, wall = bench.run_single(spec, run_index=0)
    print(f"{spec.solver}: {_STOP_MESSAGES[result.reason]} after {result.iters} iterations, "
          f"f = {result.f_star:.10g}, solve time {wall:.3f}s")
    print(f"outputs in {spec.out_dir}")
    return EXIT_OK if result.converged else EXIT_MAX_ITERS


def _cmd_bench(args, parser):
    spec = _experiment_spec(args, parser, runs=args.runs)
    summary = bench.run_montecarlo(spec)
    print(f"{summary.solver}: {summary.runs} runs, mean iterations "
          f"{summary.mean_iterations:.2f}, median {summary.median_iterations:.1f}, "
          f"convergence rate {summary.convergence_rate:.2%}")
    if summary.converged_runs < summary.runs:
        print(summary.stop_reasons_line())
    print(f"outputs in {spec.out_dir}")
    return EXIT_OK if summary.converged_runs == summary.runs else EXIT_MAX_ITERS


def _cmd_plotdata(args, parser):
    labeled = []
    for exp_dir in args.experiment_dirs:
        exp = Path(exp_dir)
        echo = exp / "spec.echo"
        solver = bench.ExperimentSpec.solver
        if echo.exists():
            for line in echo.read_text(encoding="utf-8").splitlines():
                if line.startswith("solver="):
                    solver = line.split("=", 1)[1]
        traces = sorted(exp.glob("trace_run*.csv"),
                        key=lambda q: int(q.stem.removeprefix("trace_run")))
        if not traces:
            raise FileNotFoundError(f"no trace_run*.csv files in {exp_dir}")
        for path in traces:
            run = int(path.stem.removeprefix("trace_run"))
            labeled.append((solver, run, bench.load_trace_csv(path)))
    bench.emit_plot_data(labeled, args.out)
    print(f"wrote {args.out} ({len(labeled)} traces)")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmgl",
        description="Learn a sparse weighted graph from signals that vary smoothly over its nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a ground-truth graph and smooth signals")
    p_gen.add_argument("--family", choices=("er", "sbm"))
    p_gen.add_argument("--graph", metavar="FILE", help="load this edge list instead of sampling")
    _add_generation_args(p_gen)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True, metavar="DIR")
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="solve one instance and write its trace and edge list")
    _add_run_args(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="Monte-Carlo batch over seeded instances")
    _add_run_args(p_bench)
    p_bench.add_argument("--runs", type=int, default=100, help="Monte-Carlo run count (default %(default)s)")
    p_bench.set_defaults(func=_cmd_bench)

    p_plot = sub.add_parser("plotdata", help="merge experiment traces into one tidy CSV")
    p_plot.add_argument("experiment_dirs", nargs="+", metavar="DIR")
    p_plot.add_argument("--out", required=True, metavar="FILE")
    p_plot.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
