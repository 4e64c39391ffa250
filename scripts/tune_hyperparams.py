#!/usr/bin/env python3
"""Log-grid tuning of (alpha, beta) for edge recovery on synthetic graphs.

For each grid point this script solves a handful of seeded instances,
scores support recovery with the best-threshold F1 against the ground
truth, and records the mean iteration count at the default stopping
tolerance. It prints the full grid, the unconstrained best-recovery
point, and the best-recovery point among configurations whose mean
iteration count stays within the benchmark budget (the pair pinned by
the acceptance suite).

Example:
    python3 scripts/tune_hyperparams.py --p 100 --n 1200 --seeds 5
"""

import argparse

import numpy as np

from mmgl import bench, cli
from mmgl import data_gen as dg
from mmgl import graph_model as gm
from mmgl import mm_solver as ms


def best_threshold_f1(w_learned, w_true):
    """F1 of the learned support at the best cut over the weight range."""
    true = w_true > 0
    pos = w_learned[w_learned > 0]
    if pos.size == 0 or not true.any():
        return 0.0
    best = 0.0
    for cut in np.geomspace(pos.min(), pos.max(), 60):
        est = w_learned >= cut
        tp = np.sum(est & true)
        fp = np.sum(est & ~true)
        fn = np.sum(~est & true)
        if tp == 0:
            continue
        prec = tp / (tp + fp)
        rec = tp / (tp + fn)
        best = max(best, 2 * prec * rec / (prec + rec))
    return best


def evaluate(alpha, beta, instances, config):
    f1s, iters = [], []
    for g, d in instances:
        prob = gm.ProblemInstance(p=g.p, d=d, alpha=alpha, beta=beta)
        res = ms.solve(prob, config)
        f1s.append(best_threshold_f1(res.w_star, g.w_true))
        iters.append(res.iters)
    return float(np.mean(f1s)), float(np.mean(iters))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=bench.GENERATED, default="er")
    cli._add_generation_args(parser)
    parser.add_argument("--seeds", type=int, default=5, help="instances per grid point")
    parser.add_argument("--base-seed", dest="seed", metavar="BASE_SEED", type=int, default=1000)
    parser.add_argument("--epsilon", type=float, default=ms.SolverConfig.epsilon)
    parser.add_argument("--iter-budget", type=float, default=15.0,
                        help="benchmark bound on mean iterations")
    parser.add_argument("--alphas", type=float, nargs="+",
                        default=[1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0])
    parser.add_argument("--betas", type=float, nargs="+",
                        default=[1.0, 10.0, 100.0, 1000.0, 3000.0, 10000.0, 30000.0])
    args = parser.parse_args()
    spec = cli._experiment_spec(args, parser)

    model = dg.SignalModel(sigma=spec.sigma, n=spec.n)
    instances = []
    for seed in range(spec.seed, spec.seed + args.seeds):
        g = bench.ground_truth(spec, seed)
        X = dg.gen_signals(g, model, seed)
        instances.append((g, gm.pairwise_distances(X)))

    print(f"{'alpha':>10} {'beta':>10} {'F1':>7} {'iters':>7}")
    results = []
    for alpha in args.alphas:
        for beta in args.betas:
            f1, iters = evaluate(alpha, beta, instances, spec.solver_config)
            results.append((alpha, beta, f1, iters))
            print(f"{alpha:>10g} {beta:>10g} {f1:>7.3f} {iters:>7.1f}", flush=True)

    best = max(results, key=lambda r: r[2])
    print(f"\nbest recovery overall:     alpha={best[0]:g} beta={best[1]:g} "
          f"F1={best[2]:.3f} iters={best[3]:.1f}")
    feasible = [r for r in results if r[3] <= args.iter_budget]
    if feasible:
        pick = max(feasible, key=lambda r: r[2])
        print(f"best within iter budget:   alpha={pick[0]:g} beta={pick[1]:g} "
              f"F1={pick[2]:.3f} iters={pick[3]:.1f}  (<= {args.iter_budget:g} mean iters)")
    else:
        print(f"no grid point meets the {args.iter_budget:g}-iteration budget")


if __name__ == "__main__":
    main()
