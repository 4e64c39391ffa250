#!/usr/bin/env python3
"""Desk-scale convergence benchmark over synthetic graph families.

Runs seeded Monte-Carlo batches of the MM solver (optionally also the
projected Newton oracle) for a list of graph sizes and prints mean and
median iteration counts plus mean solve time per setting. Output bundles
land in one directory per setting under --out.

Example:
    python3 scripts/run_er_benchmark.py --out bench-out --runs 20 \
        --sizes 100 200 --seed 7
"""

import argparse
import dataclasses
from pathlib import Path

from mmgl import bench, cli
from mmgl.mm_solver import SolverConfig


def main():
    defaults = bench.ExperimentSpec
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=bench.GENERATED, default=defaults.family)
    parser.add_argument("--sizes", type=int, nargs="+", default=[defaults.p])
    parser.add_argument("--prob-edge", type=float, default=defaults.prob_edge)
    parser.add_argument("--p-in", type=float, default=defaults.p_in)
    parser.add_argument("--p-out", type=float, default=defaults.p_out)
    parser.add_argument("--n", type=int, default=defaults.n)
    parser.add_argument("--sigma", type=float, default=defaults.sigma)
    parser.add_argument("--alpha", type=float, default=100.0)
    parser.add_argument("--beta", type=float, default=1e4)
    parser.add_argument("--epsilon", type=float, default=SolverConfig.epsilon)
    parser.add_argument("--max-iters", type=int, default=SolverConfig.max_iters,
                        help="iteration cap of both solvers; capped runs are flagged, not fatal")
    parser.add_argument("--runs", dest="monte_carlo_runs", metavar="RUNS", type=int, default=100)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", dest="out_dir", metavar="OUT", required=True)
    parser.add_argument("--with-oracle", action="store_true",
                        help="also run the projected Newton oracle")
    args = parser.parse_args()
    base = cli._experiment_spec(args, parser)

    solvers = ["mm"] + (["newton-oracle"] if args.with_oracle else [])
    print(f"{'setting':>16} {'solver':>10} {'mean':>8} {'median':>8} {'time[s]':>9}")
    for p in args.sizes:
        for solver in solvers:
            tag = f"{base.family}{p}-{solver}"
            spec = dataclasses.replace(base, p=p, solver=solver, out_dir=str(Path(base.out_dir) / tag))
            summary = bench.run_montecarlo(spec)
            flag = "" if summary.converged_runs == summary.runs else \
                f"  ({summary.stop_reasons_line()})"
            print(f"{base.family + ' p=' + str(p):>16} {solver:>10} "
                  f"{summary.mean_iterations:>8.2f} {summary.median_iterations:>8.1f} "
                  f"{summary.mean_wall_time_s:>9.4f}{flag}", flush=True)


if __name__ == "__main__":
    main()
