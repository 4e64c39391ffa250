"""Independent correctness oracles for the MM solver.

pg_solve is a projected-gradient method with Armijo backtracking on the same
objective; brute_force is a grid search plus cyclic coordinate bisection for
tiny instances. Both exist to certify the global optimum reached by the MM
iterations, not to reproduce any published competitor.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .graph_model import edge_pairs, gradient_value, node_degrees, objective, objective_value
from .mm_solver import ConvergenceTrace, SolveResult

# Projection floor: keeps the log-barrier finite during line searches.
# Weights at or below the reporting cutoff are reported as exact zeros.
PROJECTION_FLOOR = 1e-12
REPORT_CUTOFF = 1e-8

ARMIJO_SIGMA = 1e-4


@dataclass
class OracleConfig:
    tol: float = 1e-6
    max_iters: int = 200_000
    initial_step: float = 1.0
    backtrack_factor: float = 0.5

    def __post_init__(self):
        if not (0 < self.tol < np.inf and self.max_iters >= 1 and 0 < self.initial_step < np.inf):
            raise ValueError("tol, max_iters and initial_step must be positive and finite")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError(f"need 0 < backtrack_factor < 1, got {self.backtrack_factor}")


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
    drops to cfg.tol. Starts from the all-ones point.
    """
    if cfg is None:
        cfg = OracleConfig()
    p, d, alpha, beta = prob.p, prob.d, prob.alpha, prob.beta
    I, J = edge_pairs(p)
    w = np.ones(prob.m)
    deg = node_degrees(w, I, J, p)
    f = objective_value(w, d, deg, alpha, beta)
    g = gradient_value(w, d, deg, I, J, alpha, beta)
    ks = [0]
    fs = [f]
    actives = [int(np.count_nonzero(w > REPORT_CUTOFF))]
    walls = [0.0]
    converged = False
    iters = 0
    step = cfg.initial_step

    for k in range(1, cfg.max_iters + 1):
        t_start = time.perf_counter()
        if _projected_gradient_norm(w, g) <= cfg.tol:
            converged = True
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
            t *= cfg.backtrack_factor
        if not accepted or np.array_equal(w_new, w):
            # Numerically stationary: no representable step decreases f.
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
            step = cfg.initial_step
        w, f, g = w_new, f_new, g_new
        iters = k
        ks.append(k)
        fs.append(f)
        actives.append(int(np.count_nonzero(w > REPORT_CUTOFF)))
        walls.append(time.perf_counter() - t_start)

    w_star = w.copy()
    w_star[w_star <= REPORT_CUTOFF] = 0.0
    trace = ConvergenceTrace(
        iterations=np.array(ks, dtype=int),
        f=np.array(fs, dtype=float),
        active_count=np.array(actives, dtype=int),
        wall_time=np.array(walls, dtype=float),
    )
    return SolveResult(w_star=w_star, f_star=float(f), trace=trace,
                       converged=converged, iters=iters)


def default_box_upper(prob):
    """Box guaranteed to contain separable-dominant optima: twice the largest
    two-node closed-form root over the edges."""
    d = np.asarray(prob.d)
    roots = (-d + np.sqrt(d * d + 4.0 * prob.alpha * prob.beta)) / (2.0 * prob.beta)
    return 2.0 * float(np.max(roots))


def _coordinate_derivative(t, j, w, prob, rest_a, rest_b):
    # d f / d w_j with the other coordinates held fixed; strictly increasing
    # in t, and -> -inf as t -> 0 if an endpoint has no other support.
    return (2.0 * prob.d[j] + 2.0 * prob.beta * t
            - prob.alpha * (1.0 / (rest_a + t) + 1.0 / (rest_b + t)))


def _minimize_coordinate(j, w, prob, box_upper):
    I, J = edge_pairs(prob.p)
    deg = node_degrees(w, I, J, prob.p)
    rest_a = deg[I[j]] - w[j]
    rest_b = deg[J[j]] - w[j]
    # Minimizer is 0 exactly when the one-sided derivative there is already
    # nonnegative; with an unsupported endpoint the barrier forces t > 0.
    if rest_a > 0 and rest_b > 0 and _coordinate_derivative(0.0, j, w, prob, rest_a, rest_b) >= 0:
        return 0.0
    lo = 0.0
    hi = max(box_upper, w[j], 1.0)
    while _coordinate_derivative(hi, j, w, prob, rest_a, rest_b) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _coordinate_derivative(mid, j, w, prob, rest_a, rest_b) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_force(prob, grid_resolution=15, box_upper=None):
    """Exhaustive grid search plus cyclic coordinate bisection refinement.

    Only for tiny problems (m <= 4); the grid covers [0, box_upper]^m and
    the refinement then polishes each coordinate to machine precision.
    """
    m = prob.m
    if m > 4:
        raise ValueError(f"brute force supports m <= 4 edges, got m={m}")
    if grid_resolution < 2:
        raise ValueError(f"need grid_resolution >= 2, got {grid_resolution}")
    if box_upper is None:
        box_upper = default_box_upper(prob)
    levels = np.linspace(0.0, box_upper, grid_resolution)
    best_w = None
    best_f = np.inf
    for combo in itertools.product(levels, repeat=m):
        cand = np.array(combo)
        f = objective(cand, prob)
        if f < best_f:
            best_f = f
            best_w = cand
    if best_w is None or not np.isfinite(best_f):
        # Fall back to the interior all-ones point (grid may be all-barrier
        # for adversarial boxes); refinement recovers from anywhere finite.
        best_w = np.ones(m)
    w = best_w.copy()
    for _ in range(500):
        max_move = 0.0
        for j in range(m):
            t = _minimize_coordinate(j, w, prob, box_upper)
            max_move = max(max_move, abs(t - w[j]))
            w[j] = t
        if max_move <= 1e-14 * (1.0 + float(np.max(w))):
            break
    return w
