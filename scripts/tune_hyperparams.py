#!/usr/bin/env python3
"""Pick alpha = beta from the data by the Kalofolias-Perraudin rule, and
score edge recovery at the pick on synthetic graphs.

Kalofolias & Perraudin ("Large scale graph learning from smooth signals",
ICLR 2019) solve this model with Z = d, and its solution depends on alpha
and beta only through theta = 1/sqrt(alpha beta) (and a scale). For a node
whose distances to the other nodes, sorted, are z_1 <= z_2 <= ..., with
b_k = z_1 + ... + z_k, the node's own star problem keeps exactly k edges
when theta lies in

    (1/sqrt(k z_{k+1}^2 - b_k z_{k+1}), 1/sqrt(k z_k^2 - b_k z_k)].

Per seed, k is the ground truth's mean degree, rounded and held to
[2, p - 2]. Theta is the median over nodes of the geometric midpoint of
each node's interval, and alpha = beta = 1/theta: a node with a near
duplicate has a near-zero distance and a midpoint many orders of magnitude
above the others', which would set a mean alone. A node whose k or k + 1
nearest distances tie has an unbounded interval and is left out. The rule
sets a graph-wide density, not each node's degree.

At the pick the script runs MM at --epsilon and reports its iterations and
the exact best-cut F1 of its weights against the ground truth
(graph_model.edge_f1). It then runs the projected Newton oracle at tol
1e-9 and reports the F1 of its support w > 0, its box gap relative to
|f| (graph_model.box_gap, a bound on f - f*) and its stop reason. It
prints one row per seed, then a row of means.

Example:
    python3 scripts/tune_hyperparams.py --p 100 --n 1200 --seeds 5
"""

import argparse

import numpy as np

from mmgl import bench, cli, graph_model as gm, mm_solver as ms

ROW = "{:>5} {:>4g} {:>#10.4g} {:>6g} {:>8.3f} {:>10.3f} {:>8.1e}  {}"


def kp_theta(d, p, k):
    """The rule's theta for k edges per node, from the edge distances d of
    a graph on p nodes (2 <= k <= p - 2). Raises ValueError when every
    node's interval is unbounded."""
    z = np.sort(gm.weights_to_matrix(d, p) + np.diag(np.full(p, np.inf)), axis=1)  # a node's own 0 sorts last
    ends = z[:, k - 1:k + 1]
    # k z^2 - b_k z as z * sum_j (z - z_j), each term >= 0, so a tie gives exactly 0;
    # the square roots keep the product finite wherever d is
    root = np.sqrt(ends * (ends[:, :, None] - z[:, None, :k]).sum(axis=2)).prod(axis=1)
    if not root.any():
        raise ValueError(f"every node's {k} or {k + 1} nearest distances tie, so the rule gives no theta")
    return np.median(1 / np.sqrt(root[root > 0]))


def main():
    # as in mmgl's subcommands, a flag not typed leaves its field at the dataclass default
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], argument_default=argparse.SUPPRESS)
    parser.add_argument("--family", choices=bench.GENERATED)
    cli.add_generation_args(parser)
    parser.add_argument("--seeds", dest="monte_carlo_runs", metavar="SEEDS", type=int, default=5,
                        help="instances, one row each")
    parser.add_argument("--base-seed", dest="seed", metavar="BASE_SEED", type=int, default=1000)
    cli.add_setting(parser, "--epsilon", "relative-objective stopping tolerance", ms.SolverConfig)
    spec = cli.experiment_spec(parser.parse_args(), parser)
    if spec.p < 4:  # k and k + 1 nearest distances, for k in [2, p - 2]
        parser.error(f"need --p >= 4, got {spec.p}")

    print(f"{'seed':>5} {'k':>4} {'alpha=beta':>10} {'iters':>6} {'F1':>8} {'oracle F1':>10} {'gap':>8}  oracle stop")
    rows = []
    for seed, (g, X) in enumerate(bench.run_data(spec), spec.seed):
        d, p = gm.pairwise_distances(X), g.p
        k = int(np.clip(round(2 * np.count_nonzero(g.w_true) / p), 2, p - 2))
        try:
            alpha = 1 / kp_theta(d, p, k)
        except ValueError as exc:
            raise SystemExit(f"seed {seed}: {exc}")
        prob = gm.ProblemInstance(p=p, d=d, alpha=alpha, beta=alpha)
        mm, opt = ms.solve(prob, spec.solver_config), ms.newton_solve(prob, ms.SolverConfig(tol=1e-9))
        grad = gm.gradient_value(opt.w_star, d, gm.degrees(opt.w_star, p), *gm.edge_pairs(p), alpha, alpha)
        f1s = gm.edge_f1(mm.w_star, g.w_true), gm.edge_f1(1.0 * (opt.w_star > 0), g.w_true)
        rows.append((k, alpha, mm.iters, *f1s, gm.box_gap(opt.w_star, grad, d, alpha, alpha) / abs(opt.f_star)))
        print(ROW.format(seed, *rows[-1], opt.reason))
    print(ROW.format("mean", *np.mean(rows, axis=0), ""))


if __name__ == "__main__":
    main()
