"""Independent correctness oracle for the MM solver: projected Newton on the
same objective, to certify the global optimum that MM reaches. It is not a
published competitor."""

import time

import numpy as np

from .graph_model import edge_pairs, gradient_value, kkt_residual, node_degrees, objective_value
from .mm_solver import SolverConfig, _run_result

# Armijo sufficient-decrease constant of the line search.
ARMIJO_SIGMA = 1e-4


def _newton_direction(g, deg, I, J, alpha, two_beta, free):
    """Newton direction of f on the edges `free`, zero elsewhere.

    With S_F their node-edge incidence, the Hessian there is
    2 beta I + alpha S_F^T diag(1/deg^2) S_F. By Woodbury the direction is
    S_F^T y / (2 beta)^2 - g_F / (2 beta), where
    (diag(deg^2 / alpha) + S_F S_F^T / (2 beta)) y = S_F g_F.
    """
    p = deg.size
    i, j, g_free = I[free], J[free], g[free]
    M = np.zeros((p, p))
    M[i, j] = M[j, i] = 1.0 / two_beta
    M.flat[::p + 1] = node_degrees(np.ones(i.size), i, j, p) / two_beta + deg * deg / alpha
    y = np.linalg.solve(M, node_degrees(g_free, i, j, p))
    delta = np.zeros(g.size)
    delta[free] = (y[i] + y[j]) / two_beta**2 - g_free / two_beta
    return delta


def newton_solve(prob, cfg=None):
    """Projected Newton on f over the nonnegative orthant, from all ones.

    The free edges have w > 0, or w = 0 and g < 0. Those that the Newton
    direction pushes below zero while g > 0 keep it; if there are any, the
    rest are solved again without them. Then w = max(w + t delta, 0), with t
    halved from 1 until f falls by the Armijo rule, or f does not rise and
    the relative KKT residual (graph_model.kkt_residual) halves, which keeps
    it moving below f's rounding. Stops at a residual <= cfg.tol
    ("converged"), when no t >= 1e-20 passes ("stationary"), or at
    cfg.max_iters; cfg is a SolverConfig, whose MM settings it ignores.
    """
    if cfg is None:
        cfg = SolverConfig()
    p, d, alpha, two_beta = prob.p, prob.d, prob.alpha, 2.0 * prob.beta
    I, J = edge_pairs(p)
    w = np.ones(prob.m)
    deg = node_degrees(w, I, J, p)
    f = objective_value(w, d, deg, alpha, prob.beta)
    g = gradient_value(w, d, deg, I, J, alpha, prob.beta)
    res = kkt_residual(w, g, d, deg, alpha)
    rows = [(f, prob.m, 0.0)]

    for _ in range(cfg.max_iters):
        t_start = time.perf_counter()
        if res <= cfg.tol:
            reason = "converged"
            break
        free = (w > 0) | (g < 0)
        delta = _newton_direction(g, deg, I, J, alpha, two_beta, free)
        bound = free & (w + delta < 0) & (g > 0)
        if bound.any():
            delta = np.where(bound, delta, _newton_direction(g, deg, I, J, alpha, two_beta, free & ~bound))
        t = 1.0
        while t >= 1e-20:
            w_new = np.maximum(w + t * delta, 0.0)
            deg_new = node_degrees(w_new, I, J, p)
            f_new = objective_value(w_new, d, deg_new, alpha, prob.beta)
            if f_new <= f:
                g_new = gradient_value(w_new, d, deg_new, I, J, alpha, prob.beta)
                res_new = kkt_residual(w_new, g_new, d, deg_new, alpha)
                if f_new < f and f_new <= f + ARMIJO_SIGMA * (g @ (w_new - w)) or res_new <= 0.5 * res:
                    break
            t *= 0.5
        else:
            reason = "stationary"
            break
        w, deg, f, g, res = w_new, deg_new, f_new, g_new, res_new
        rows.append((f, int(np.count_nonzero(w)), time.perf_counter() - t_start))
    else:
        # The last allowed step may have met the tolerance.
        reason = "converged" if res <= cfg.tol else "max_iters"

    return _run_result(w, rows, reason)
