"""The two solvers of f(w) = 2 w.d - alpha sum log(Sw) + beta ||w||^2 over
w >= 0, both started from all ones, set by one SolverConfig and recorded
in one SolveResult.

solve is the majorization-minimization method with zero-lock active-set
elimination. Each iteration majorizes the log-barrier via Jensen's
inequality around the current iterate, which makes the surrogate separable
per edge and gives a closed-form nonnegative quadratic-root update. A
weight that reaches exact zero produces a zero coefficient and therefore
stays zero forever, so eliminated edges are dropped from the working
arrays as soon as 1% or more of them have retired.

The working arrays hold the edges in anti-diagonal order, sorted by i + j
and then by i. Each node still meets its edges in ascending edge order, on
both endpoint sides, so its degree sums the same terms in the same order
as in row-major order and every iterate is bit-identical. But neighbouring
entries (i, s - i) and (i + 1, s - i - 1) touch different nodes, so the
two degree scatters carry no chain of adds into one bin; in row-major
order the sorted I side does.

The loop evaluates the root unmasked, with d * d computed once and carried
with the working arrays. A retired edge with d = 0 gets 0/0 = nan there;
the one live mask per iteration (w >= threshold) clamps it back to 0 along
with every other retired edge, and the same mask counts the active edges
and selects the survivors at compaction.

newton_solve is projected Newton, an independent oracle that certifies the
optimum MM reaches, not a published competitor. Each of its steps solves a
dense p x p system; its edges stay in row-major order.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph_model import (
    checked_weights, edge_pairs, gradient_value, inverse_degrees, kkt_residual, node_degrees, objective_value)


@dataclass
class SolverConfig:
    """Settings of both solvers.

    epsilon is MM's relative-objective stopping tolerance; weights below
    elimination_threshold are clamped to exact zero and retired permanently.
    A threshold of 0 turns elimination off. tol bounds the relative KKT
    residual (graph_model.kkt_residual) at which the Newton oracle stops.
    max_iters caps whichever solver runs.
    """

    epsilon: float = 1e-4
    max_iters: int = 10000
    elimination_threshold: float = 1e-8
    tol: float = 1e-6

    def __post_init__(self):
        for name in ("epsilon", "tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"need finite {name} > 0, got {getattr(self, name)}")
        if self.max_iters < 1:
            raise ValueError(f"need max_iters >= 1, got {self.max_iters}")
        if not 0 <= self.elimination_threshold < np.inf:
            raise ValueError(f"need finite elimination_threshold >= 0, got {self.elimination_threshold}")


@dataclass
class ConvergenceTrace:
    """Per-iteration record of a solver run (row 0 is the starting point)."""

    iterations: np.ndarray
    f: np.ndarray
    active_count: np.ndarray
    wall_time: np.ndarray

    def __len__(self):
        return len(self.iterations)


@dataclass
class SolveResult:
    """Final weights and run record of one solve; f_star and iters are read
    from the trace.

    reason says why the run stopped: "converged" (the stopping rule held),
    "max_iters" (the iteration cap), "non_finite" (f became non-finite: a
    node lost its last edge) or "stationary" (newton_solve found no step
    that passes its line search before reaching its tolerance).
    """

    w_star: np.ndarray
    trace: ConvergenceTrace
    reason: str

    @property
    def converged(self):
        return self.reason == "converged"

    @property
    def f_star(self):
        return float(self.trace.f[-1])

    @property
    def iters(self):
        return len(self.trace) - 1


def _run_result(w_star, rows, reason):
    """SolveResult from the final full-length weights, one
    (f, active_count, wall_s) row per iterate, starting point first, and
    the stop reason."""
    f, active, wall = zip(*rows)
    trace = ConvergenceTrace(
        iterations=np.arange(len(rows)),
        f=np.array(f, dtype=float),
        active_count=np.array(active, dtype=int),
        wall_time=np.array(wall, dtype=float),
    )
    return SolveResult(w_star=w_star, trace=trace, reason=reason)


def _all_ones_start(p, I, J, d, alpha, beta):
    """All-ones w on the edges (I, J), its degrees, f summed in that order, and trace row 0."""
    w = np.ones(d.size)
    deg = node_degrees(w, I, J, p)
    f = objective_value(w, d, deg, alpha, beta)
    return w, deg, f, [(f, d.size, 0.0)]


def compute_c(w, prob):
    """Surrogate coefficients c_j = alpha * w_j * (1/deg_a + 1/deg_b).

    deg_a, deg_b are the current degrees of edge j's endpoints. c_j = 0
    exactly when w_j = 0, and sum(c) = alpha * (number of nodes with
    positive degree).
    """
    w = checked_weights(w, prob.m)
    I, J = edge_pairs(prob.p)
    inv = inverse_degrees(node_degrees(w, I, J, prob.p))
    return _coefficients(w, inv, I, J, prob.alpha)


def _coefficients(w, inv, I, J, alpha):
    return alpha * w * (inv.take(I) + inv.take(J))


def mm_update(c, prob):
    """Closed-form minimizer of the separable surrogate.

    The current weights enter only through c. Each output w_j is the unique
    nonnegative root of 2 d_j w_j + 2 beta w_j^2 - c_j = 0, computed in the
    rationalized form c_j / (d_j + sqrt(d_j^2 + 2 beta c_j)) to avoid
    cancellation; c_j = 0 maps to exactly 0, with no warning, also where
    d_j = 0.
    """
    c = checked_weights(c, prob.m)
    d = prob.d
    with np.errstate(invalid="ignore"):
        w_new = _root_update(d, d * d, c, 2.0 * prob.beta)
    w_new[c == 0] = 0.0
    return w_new


def _root_update(d, dd, c, two_beta):
    """Unmasked root c / (d + sqrt(dd + two_beta c)) with dd = d * d.

    Gives 0 where c = 0 < d, and 0/0 = nan where c = d = 0: the caller
    clears those entries.
    """
    return c / (d + np.sqrt(dd + two_beta * c))


def _stop_test(f_prev, f_new, epsilon):
    # Relative change per the stopping rule; absolute fallback when the
    # denominator is exactly zero (f can cross zero through the log term).
    if f_prev == 0.0:
        return abs(f_new - f_prev) <= epsilon
    change = abs((f_prev - f_new) / f_prev)
    return change <= epsilon


def solve(prob, cfg=None, callback=None):
    """Run the MM algorithm from the all-ones start until the relative
    objective change drops to cfg.epsilon or max_iters is hit.

    When the previous objective value is exactly zero the stopping rule
    falls back to the absolute change (f can cross zero through the log
    term). Inputs are never mutated; the run is a pure function of
    (prob, cfg). The callback, if given, is invoked after every iteration
    as callback(k, w, c) with full-length arrays (a testing hook).

    All reads come from the iteration-k snapshot and all writes go to the
    k+1 buffer; there are no cross-edge dependencies. One live mask per
    iteration, w >= max(threshold, smallest positive float), clamps the
    retired edges to 0 (the clamp runs only when some edge is dead), counts
    the active ones and selects the survivors at compaction. It also clears
    the nan that the unmasked root gives a retired edge with d = 0, since
    nan >= floor is false; the loop, callback included, runs under
    np.errstate(invalid="ignore") so that this 0/0 stays silent. As soon as
    1% or more of the working edges have retired, they are dropped from the
    working arrays: w, d, the cached d * d, I, J and `orig`, which maps
    array positions back to input edge ids for the callback and the final
    scatter. The working arrays start in anti-diagonal order (by i + j,
    then i; see the module docstring), which leaves w and the active
    counts bit-identical to row-major order; only the last bits of f, whose
    dot products sum in array order, depend on it. Each trace row's wall
    time covers the whole iteration, compaction included, and not the
    callback. Nothing is validated inside the loop.
    """
    if cfg is None:
        cfg = SolverConfig()
    p, d, alpha, beta = prob.p, prob.d, prob.alpha, prob.beta
    two_beta = 2.0 * beta
    I, J = edge_pairs(p)
    m = d.size
    orig = np.argsort(I + J, kind="stable")
    I, J, d = I[orig], J[orig], d[orig]
    dd = d * d
    floor = max(cfg.elimination_threshold, np.nextafter(0.0, 1.0))
    w, deg, f_prev, rows = _all_ones_start(p, I, J, d, alpha, beta)
    reason = "max_iters"

    with np.errstate(invalid="ignore"):
        for k in range(1, cfg.max_iters + 1):
            t_start = time.perf_counter()
            c = _coefficients(w, inverse_degrees(deg), I, J, alpha)
            w = _root_update(d, dd, c, two_beta)
            live = w >= floor
            nnz = int(np.count_nonzero(live))
            if nnz < w.size:
                w[~live] = 0.0
            deg = node_degrees(w, I, J, p)
            f_new = objective_value(w, d, deg, alpha, beta)
            # A non-finite f means some node lost its last edge, so f is +inf
            # from here on: retired edges never return.
            finite = math.isfinite(f_new)
            converged = finite and bool(_stop_test(f_prev, f_new, cfg.epsilon))
            w_k, orig_k = w, orig
            if finite and not converged and nnz < 0.99 * w.size:
                w, d, dd, I, J, orig = w[live], d[live], dd[live], I[live], J[live], orig[live]
            rows.append((f_new, nnz, time.perf_counter() - t_start))
            if callback is not None:
                w_full = np.zeros(m)
                w_full[orig_k] = w_k
                c_full = np.zeros(m)
                c_full[orig_k] = c
                callback(k, w_full, c_full)
            if converged or not finite:
                reason = "converged" if converged else "non_finite"
                break
            f_prev = f_new

    w_full = np.zeros(m)
    w_full[orig] = w
    return _run_result(w_full, rows, reason)


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
    w, deg, f, rows = _all_ones_start(p, I, J, d, alpha, prob.beta)
    g = gradient_value(w, d, deg, I, J, alpha, prob.beta)
    res = kkt_residual(w, g, d, deg, alpha)

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
