#!/usr/bin/env python3
"""Log-grid tuning of (alpha, beta) for edge recovery on synthetic graphs.

For each grid point this script solves a handful of seeded instances,
scores support recovery with the exact best-cut F1 against the ground
truth (graph_model.edge_f1), and records the mean iteration count at the
default stopping tolerance. It prints the full grid, the unconstrained
best-recovery point, and the best-recovery point among configurations
whose runs all converged within the benchmark's mean-iteration budget
(the pair pinned by the acceptance suite).

Example:
    python3 scripts/tune_hyperparams.py --p 100 --n 1200 --seeds 5
"""

import argparse

import numpy as np

from mmgl import bench, cli
from mmgl import graph_model as gm
from mmgl import mm_solver as ms


def evaluate(alpha, beta, instances, config):
    """Mean edge F1 and mean iterations over the instances, and whether
    every run converged."""
    f1s, iters, converged = [], [], True
    for g, d in instances:
        prob = gm.ProblemInstance(p=g.p, d=d, alpha=alpha, beta=beta)
        res = ms.solve(prob, config)
        f1s.append(gm.edge_f1(res.w_star, g.w_true))
        iters.append(res.iters)
        converged &= res.converged
    return float(np.mean(f1s)), float(np.mean(iters)), converged


def main():
    # as in mmgl's subcommands, a flag not typed leaves its field at the dataclass default
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], argument_default=argparse.SUPPRESS)
    parser.add_argument("--family", choices=bench.GENERATED)
    cli.add_generation_args(parser)
    parser.add_argument("--seeds", dest="monte_carlo_runs", metavar="SEEDS", type=int, default=5,
                        help="instances per grid point")
    parser.add_argument("--base-seed", dest="seed", metavar="BASE_SEED", type=int, default=1000)
    cli.add_setting(parser, "--epsilon", "relative-objective stopping tolerance", ms.SolverConfig)
    parser.add_argument("--iter-budget", type=float, default=15.0,
                        help="benchmark bound on mean iterations")
    parser.add_argument("--alphas", type=float, nargs="+",
                        default=[1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0])
    parser.add_argument("--betas", type=float, nargs="+",
                        default=[1.0, 10.0, 100.0, 1000.0, 3000.0, 10000.0, 30000.0])
    args = parser.parse_args()
    spec = cli.experiment_spec(args, parser)
    # every grid value and the budget pass check_reals before the first row prints
    for flag, key, values, positive in (("--alphas", "alpha", args.alphas, True),
                                        ("--betas", "beta", args.betas, True),
                                        ("--iter-budget", "iter_budget", [args.iter_budget], False)):
        for value in values:
            try:
                gm.check_reals(positive=positive, **{key: value})
            except ValueError as exc:
                parser.error(f"{flag} {value}: {exc}")

    instances = [(g, gm.pairwise_distances(X)) for g, X in bench.run_data(spec)]

    print(f"{'alpha':>10} {'beta':>10} {'F1':>7} {'iters':>7}")
    results = []
    for alpha in args.alphas:
        for beta in args.betas:
            f1, iters, converged = evaluate(alpha, beta, instances, spec.solver_config)
            results.append((alpha, beta, f1, iters, converged))
            print(f"{alpha:>10g} {beta:>10g} {f1:>7.3f} {iters:>7.1f}", flush=True)

    best = max(results, key=lambda r: r[2])
    print(f"\nbest recovery overall:     alpha={best[0]:g} beta={best[1]:g} "
          f"F1={best[2]:.3f} iters={best[3]:.1f}")
    # a run that stopped early (non_finite after 1 iteration) is cheap but no pick
    feasible = [r for r in results if r[4] and r[3] <= args.iter_budget]
    if feasible:
        pick = max(feasible, key=lambda r: r[2])
        print(f"best within iter budget:   alpha={pick[0]:g} beta={pick[1]:g} "
              f"F1={pick[2]:.3f} iters={pick[3]:.1f}  (<= {args.iter_budget:g} mean iters)")
    else:
        print(f"no grid point meets the {args.iter_budget:g}-iteration budget")


if __name__ == "__main__":
    main()
