"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The Monte-Carlo benchmark (criterion 7) pins alpha=100, beta=10000, the
values selected by scripts/tune_hyperparams.py on held-out seeds.
"""

import numpy as np
import pytest

from mmgl import bench
from mmgl import data_gen as dg
from mmgl import graph_model as gm
from mmgl import mm_solver as ms

from oracles import brute_force, surrogate_value

# Pinned by the tuning script: best edge recovery on the frontier that keeps
# the ER p=100 benchmark within the iteration bound below.
BENCH_ALPHA = 100.0
BENCH_BETA = 1e4


def _report(num, name, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _random_instance(rng, p_lo=5, p_hi=100, n=200, sigma=0.1):
    p = int(rng.integers(p_lo, p_hi + 1))
    seed = int(rng.integers(0, 2**32))
    if rng.random() < 0.5:
        g = dg.gen_er(p, 0.1, seed)
    else:
        g = dg.gen_sbm(p, 0.3, 0.05, seed)
    X = dg.gen_signals(g, dg.SignalModel(sigma=sigma, n=n), seed)
    alpha = float(10 ** rng.uniform(-0.5, 2.5))
    beta = float(10 ** rng.uniform(-0.5, 4.0))
    return dg.assemble(X, alpha, beta)


def test_criterion_1_monotone_descent():
    rng = np.random.default_rng(20260101)
    worst = -np.inf
    for _ in range(200):
        prob = _random_instance(rng)
        res = ms.solve(prob)
        worst = max(worst, float(np.max(np.diff(res.trace.f))))
    ok = worst <= 1e-10
    _report(1, "monotone descent over 200 randomized instances", ok,
            f"worst f increase {worst:.3e} (bound 1e-10)")


def test_criterion_2_majorization():
    rng = np.random.default_rng(20260102)
    worst_gap = -np.inf
    worst_eq = 0.0
    for i in range(1000):
        p = (3, 5, 8)[i % 3]
        m = gm.num_edges(p)
        prob = gm.ProblemInstance(p=p, d=rng.uniform(0, 3, m),
                                  alpha=float(rng.uniform(0.2, 3)),
                                  beta=float(rng.uniform(0.2, 3)))
        w_k = 10.0 ** rng.uniform(-2, 1, m)
        w = 10.0 ** rng.uniform(-2, 1, m)
        gap = gm.objective(w, prob) - surrogate_value(w, w_k, prob)
        worst_gap = max(worst_gap, float(gap))
        eq = abs(surrogate_value(w_k, w_k, prob) - gm.objective(w_k, prob))
        worst_eq = max(worst_eq, float(eq))
    ok = worst_gap <= 1e-9 and worst_eq <= 1e-10
    _report(2, "majorization over 1000 random pairs at p in {3,5,8}", ok,
            f"worst f-over-g excess {worst_gap:.3e} (bound 1e-9), "
            f"worst equality gap {worst_eq:.3e} (bound 1e-10)")


def test_criterion_3_global_optimum_oracle_equivalence():
    rng = np.random.default_rng(20260103)
    worst = 0.0
    brute_checked = 0
    for _ in range(20):
        p = int(rng.integers(3, 9))
        m = gm.num_edges(p)
        prob = gm.ProblemInstance(p=p, d=rng.uniform(0, 3, m),
                                  alpha=float(rng.uniform(0.3, 3)),
                                  beta=float(rng.uniform(0.3, 3)))
        f_mm = ms.solve(prob, ms.SolverConfig(epsilon=1e-12, max_iters=200000)).f_star
        f_oracle = ms.newton_solve(prob).f_star
        if m <= 4:
            f_bf = gm.objective(brute_force(prob), prob)
            assert abs(f_bf - f_oracle) / abs(f_oracle) <= 1e-5
            brute_checked += 1
        worst = max(worst, abs(f_mm - f_oracle) / abs(f_oracle))
    ok = worst <= 1e-5
    _report(3, "oracle equivalence on 20 instances, p in {3..8}", ok,
            f"worst relative f gap {worst:.3e} (bound 1e-5, "
            f"{brute_checked} brute-force cross-checks)")


def test_criterion_4_closed_form_spot_checks():
    rng = np.random.default_rng(20260104)
    worst = 0.0
    # ranges where the textbook formula itself is accurate well below 1e-10
    for _ in range(100):
        d = float(rng.uniform(0, 10))
        alpha = float(rng.uniform(0.1, 10))
        beta = float(rng.uniform(0.1, 10))
        prob = gm.ProblemInstance(p=2, d=np.array([d]), alpha=alpha, beta=beta)
        res = ms.solve(prob)
        w_ref = (-d + np.sqrt(d * d + 4 * alpha * beta)) / (2 * beta)
        worst = max(worst, abs(res.w_star[0] - w_ref))
    tri = ms.solve(gm.ProblemInstance(p=3, d=np.zeros(3), alpha=1.0, beta=1.0))
    tri_err = float(np.max(np.abs(tri.w_star - 1 / np.sqrt(2))))
    ok = worst <= 1e-10 and tri_err <= 1e-10
    _report(4, "closed-form spot checks (p=2 roots, d=0 triangle)", ok,
            f"worst p=2 error {worst:.3e}, triangle error {tri_err:.3e} (bounds 1e-10)")


def test_criterion_5_c_sum_conservation():
    rng = np.random.default_rng(20260105)
    worst = 0.0
    iters_checked = 0
    for _ in range(40):
        prob = _random_instance(rng)
        deviations = []

        def cb(k, w, c, prob=prob, deviations=deviations):
            deviations.append(abs(c.sum() / (prob.alpha * prob.p) - 1.0))

        ms.solve(prob, callback=cb)
        worst = max(worst, max(deviations))
        iters_checked += len(deviations)
    ok = worst <= 1e-12
    _report(5, "c-sum conservation on every iteration", ok,
            f"worst |sum(c)/(alpha p) - 1| = {worst:.3e} over "
            f"{iters_checked} iterations (bound 1e-12)")


def test_criterion_6_zero_lock():
    rng = np.random.default_rng(20260106)
    runs_with_elims = 0
    for _ in range(30):
        p = int(rng.integers(6, 25))
        m = gm.num_edges(p)
        keep = rng.random(m) < 0.4
        d = np.where(keep, rng.uniform(0.05, 0.3, m), rng.uniform(2.0, 6.0, m))
        prob = gm.ProblemInstance(p=p, d=d, alpha=1.0, beta=1.0)
        snapshots = []

        def cb(k, w, c, snapshots=snapshots):
            snapshots.append(w > 0)

        res = ms.solve(prob, ms.SolverConfig(epsilon=1e-11, max_iters=100000), callback=cb)
        for prev, cur in zip(snapshots, snapshots[1:]):
            assert not np.any(cur & ~prev), "eliminated edge carried weight later"
        assert np.all(np.diff(res.trace.active_count) <= 0)
        if res.trace.active_count[-1] < m:
            runs_with_elims += 1
    ok = runs_with_elims > 0
    _report(6, "zero-lock active sets (elimination enabled)", ok,
            f"active sets non-increasing in all 30 runs "
            f"({runs_with_elims} runs actually eliminated edges)")


def test_criterion_7_iteration_count_benchmark(tmp_path):
    spec = bench.ExperimentSpec(
        family="er", p=100, prob_edge=0.1, n=1200, sigma=0.1,
        alpha=BENCH_ALPHA, beta=BENCH_BETA,
        solver="mm", solver_config=ms.SolverConfig(epsilon=1e-4),
        monte_carlo_runs=100, seed=20260107, out_dir=str(tmp_path / "er100"))
    summary = bench.run_montecarlo(spec)
    ok = summary.mean_iterations <= 15 and summary.convergence_rate == 1.0
    _report(7, "ER p=100 Monte-Carlo iteration-count benchmark", ok,
            f"mean {summary.mean_iterations:.2f} over {summary.runs} runs "
            f"(bound 15), convergence rate {summary.convergence_rate:.0%}")


def test_criterion_8_per_iteration_cost_scaling():
    def problem(p):
        g = dg.gen_er(p, 0.1, 42)
        X = dg.gen_signals(g, dg.SignalModel(sigma=0.1, n=1200), 42)
        return dg.assemble(X, BENCH_ALPHA, BENCH_BETA)

    # vanilla loop (no elimination) isolates the O(p^2) per-iteration cost
    cfg = ms.SolverConfig(epsilon=1e-300, max_iters=40, elimination_threshold=0.0)
    probs = {200: problem(200), 400: problem(400)}
    ms.solve(problem(50), cfg)  # warm-up
    # The sizes alternate, so a busy spell of the host slows both, and each
    # size takes the median of all its iteration times, so a spell that
    # does slow one size more moves few of them.
    walls = {200: [], 400: []}
    for rep in range(20):
        for p in (200, 400) if rep % 2 == 0 else (400, 200):
            walls[p].extend(ms.solve(probs[p], cfg).trace.wall_time[1:])
    t200, t400 = float(np.median(walls[200])), float(np.median(walls[400]))
    ratio = t400 / t200
    ok = ratio <= 5.0
    _report(8, "per-iteration cost scaling p=200 -> p=400", ok,
            f"ratio {ratio:.2f} (bound 5.0; t200={t200*1e3:.3f}ms, t400={t400*1e3:.3f}ms)")


def test_criterion_9_gradient_consistency():
    rng = np.random.default_rng(20260109)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(5, 11))
        m = gm.num_edges(p)
        prob = gm.ProblemInstance(p=p, d=rng.uniform(0, 4, m),
                                  alpha=float(rng.uniform(0.2, 5)),
                                  beta=float(rng.uniform(0.2, 5)))
        w = rng.uniform(0.5, 2.0, m)
        grad = gm.objective_gradient(w, prob)
        for j in range(m):
            h = 1e-6 * max(1.0, abs(w[j]))
            e = np.zeros(m)
            e[j] = h
            fd = (gm.objective(w + e, prob) - gm.objective(w - e, prob)) / (2 * h)
            worst = max(worst, abs(grad[j] - fd) / max(abs(fd), 1e-300))
    ok = worst <= 1e-5
    _report(9, "analytic gradient vs central differences at 50 interior points", ok,
            f"worst relative disagreement {worst:.3e} (bound 1e-5)")


def test_criterion_10_bench_determinism(tmp_path):
    def run(tag):
        spec = bench.ExperimentSpec(
            family="er", p=30, prob_edge=0.15, n=100, sigma=0.1,
            alpha=1.0, beta=1.0, solver="mm",
            monte_carlo_runs=3, seed=424242, out_dir=str(tmp_path / tag))
        bench.run_montecarlo(spec)
        return (tmp_path / tag / "summary.csv").read_bytes()

    first = run("a")
    second = run("b")
    ok = first == second
    _report(10, "byte-identical summary.csv for repeated bench", ok,
            f"{len(first)} bytes compared")
