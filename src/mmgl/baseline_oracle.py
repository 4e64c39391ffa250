"""Independent correctness oracle for the MM solver.

pg_solve is a projected-gradient method with Armijo backtracking on the same
objective. It exists to certify the global optimum reached by the MM
iterations, not to reproduce any published competitor.
"""

import time
from dataclasses import dataclass

import numpy as np

from .graph_model import edge_pairs, gradient_value, node_degrees, objective_value
from .mm_solver import _run_result

# Projection floor: keeps the log-barrier finite during line searches.
# Weights at or below the reporting cutoff are reported as exact zeros.
PROJECTION_FLOOR = 1e-12
REPORT_CUTOFF = 1e-8

# Armijo line search: sufficient-decrease constant, the trial step that
# starts it (and replaces a Barzilai-Borwein step without positive
# curvature), and the shrink factor per rejected trial.
ARMIJO_SIGMA = 1e-4
INITIAL_STEP = 1.0
BACKTRACK_FACTOR = 0.5


@dataclass
class OracleConfig:
    tol: float = 1e-6
    max_iters: int = 200_000

    def __post_init__(self):
        if not (0 < self.tol < np.inf and self.max_iters >= 1):
            raise ValueError(f"need finite tol > 0 and max_iters >= 1, got {self.tol}, {self.max_iters}")


def _projected_gradient_norm(w, g):
    # KKT residual on the clamped orthant: free components count fully, a
    # component pinned at the floor only counts if decreasing f needs w to
    # shrink further (g > 0 there is optimal).
    at_floor = w <= PROJECTION_FLOOR
    res = np.where(at_floor, np.minimum(g, 0.0), g)
    return float(np.linalg.norm(res))


def pg_solve(prob, cfg=None):
    """Projected gradient descent on f over the (floored) nonnegative orthant.

    Monotone in f by the Armijo rule; stops when the projected-gradient norm
    drops to cfg.tol (reason "converged"), when no representable step
    decreases f ("stationary"), or at cfg.max_iters ("max_iters"). Starts
    from the all-ones point.
    """
    if cfg is None:
        cfg = OracleConfig()
    p, d, alpha, beta = prob.p, prob.d, prob.alpha, prob.beta
    I, J = edge_pairs(p)
    w = np.ones(prob.m)
    deg = node_degrees(w, I, J, p)
    f = objective_value(w, d, deg, alpha, beta)
    g = gradient_value(w, d, deg, I, J, alpha, beta)
    rows = [(f, int(np.count_nonzero(w > REPORT_CUTOFF)), 0.0)]
    reason = "max_iters"
    step = INITIAL_STEP

    for _ in range(cfg.max_iters):
        t_start = time.perf_counter()
        if _projected_gradient_norm(w, g) <= cfg.tol:
            reason = "converged"
            break
        t = step
        accepted = False
        while t >= 1e-20:
            w_new = np.maximum(w - t * g, PROJECTION_FLOOR)
            deg_new = node_degrees(w_new, I, J, p)
            f_new = objective_value(w_new, d, deg_new, alpha, beta)
            if f_new <= f + ARMIJO_SIGMA * (g @ (w_new - w)):
                accepted = True
                break
            t *= BACKTRACK_FACTOR
        if not accepted or np.array_equal(w_new, w):
            # Numerically stationary: no representable step decreases f.
            reason = "stationary"
            break
        g_new = gradient_value(w_new, d, deg_new, I, J, alpha, beta)
        # Barzilai-Borwein trial step for the next iteration (Armijo above
        # keeps the method monotone regardless of the guess).
        dw = w_new - w
        dg = g_new - g
        curv = dw @ dg
        if curv > 0:
            step = min(max((dw @ dw) / curv, 1e-12), 1e12)
        else:
            step = INITIAL_STEP
        w, f, g = w_new, f_new, g_new
        rows.append((f, int(np.count_nonzero(w > REPORT_CUTOFF)), time.perf_counter() - t_start))

    w_star = w.copy()
    w_star[w_star <= REPORT_CUTOFF] = 0.0
    return _run_result(w_star, rows, reason)
