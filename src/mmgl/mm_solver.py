"""The two solvers of f(w) = 2 w.d - alpha sum log(Sw) + beta ||w||^2 over
w >= 0, both started from all ones, set by one SolverConfig and recorded
in one SolveResult.

solve is the majorization-minimization method with zero-lock active-set
elimination. Each iteration majorizes the log-barrier via Jensen's
inequality around the current iterate, which makes the surrogate separable
per edge and gives a closed-form nonnegative quadratic-root update. A
weight that reaches exact zero produces a zero coefficient and therefore
stays zero forever. Once 1% or more of the working edges have retired,
the next iteration opens by dropping them from the working arrays; a run
that stops compacts nothing more.

The working arrays hold the edges in anti-diagonal order, sorted by i + j
and then by i. Each node still meets its edges in ascending edge order, on
both endpoint sides, so its degree sums the same terms in the same order
as in row-major order and every iterate is bit-identical. But neighbouring
entries (i, s - i) and (i + 1, s - i - 1) touch different nodes, so the
two degree scatters carry no chain of adds into one bin; in row-major
order the sorted I side does.

An edge retires when its weight is at most the threshold times its own
bound u_j = min(p2_root(d_j, alpha, beta), sqrt(alpha / beta)), which
holds every optimal weight (graph_model.p2_root). So the rule scales with
(alpha, beta, d) and a threshold of 0 turns it off. The loop evaluates the
root unmasked, with d * d and the per-edge floors computed once and
carried with the working arrays. A retired edge with d = 0 gets 0/0 = nan
there; the one live mask per iteration (w > floor) clamps it back to 0
along with every other retired edge, and the same mask counts the active
edges and selects the survivors at compaction.

newton_solve is projected Newton, an independent oracle that certifies the
optimum MM reaches, not a published competitor. Each of its steps solves a
dense p x p system; its edges stay in row-major order.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph_model import (check_integers, check_reals, edge_pairs, gradient_value, kkt_residual,
                          node_degrees, objective_value, p2_root, weights_to_matrix)


@dataclass(frozen=True)
class SolverConfig:
    """Settings of both solvers.

    epsilon is MM's relative-objective stopping tolerance; a weight at or
    below elimination_threshold times its edge's bound u_j (see solve) is
    clamped to exact zero and retired permanently. The threshold is
    relative, so one value fits every scale of (alpha, beta, d); 0 turns
    elimination off. tol bounds the relative KKT residual
    (graph_model.kkt_residual) at which the Newton oracle stops.
    max_iters caps whichever solver runs. Frozen, so a setting cannot
    change after it is checked.
    """

    epsilon: float = 1e-4
    max_iters: int = 10000
    elimination_threshold: float = 1e-8
    tol: float = 1e-6

    def __post_init__(self):
        check_reals(epsilon=self.epsilon, tol=self.tol, positive=True)
        check_integers(max_iters=self.max_iters, least=1)
        check_reals(elimination_threshold=self.elimination_threshold)


@dataclass
class ConvergenceTrace:
    """Per-iteration record of a solver run (row 0 is the starting point);
    iterations, 0 to len - 1, is derived from the rows, not stored."""

    f: np.ndarray
    active_count: np.ndarray
    wall_time: np.ndarray

    @property
    def iterations(self):
        return np.arange(len(self.f))

    def __len__(self):
        return len(self.f)


@dataclass
class SolveResult:
    """Final weights and run record of one solve; f_star and iters are read
    from the trace.

    reason says why the run stopped: "converged" (the stopping rule held),
    "max_iters" (the iteration cap), "non_finite" (f became non-finite: a
    node lost its last edge, or f overflowed; newton_solve checks its
    starting f) or "stationary" (newton_solve found no step that passes its
    line search, or its Newton system was singular, before reaching its
    tolerance). Neither solver emits a numpy warning on the way.
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


def _scatter(x, orig, m):
    """Full-length array that holds x[k] at input edge id orig[k] and 0 elsewhere."""
    full = np.zeros(m)
    full[orig] = x
    return full


def _coefficients(w, inv, I, J, alpha):
    """Surrogate coefficients c_j = alpha w_j (1/deg_a + 1/deg_b) from the
    inverse degrees inv; c_j = 0 exactly where w_j = 0."""
    return alpha * w * (inv.take(I) + inv.take(J))


def _root_update(d, dd, c, two_beta):
    """Unmasked nonnegative root of 2 d w + two_beta w^2 = c, the surrogate's
    minimizer, in the cancellation-free form c / (d + sqrt(dd + two_beta c))
    with dd = d * d.

    Gives 0 where c = 0 < d, and 0/0 = nan where c = d = 0: the caller
    clears those entries.
    """
    return c / (d + np.sqrt(dd + two_beta * c))


def _stop_test(f_prev, f_new, epsilon):
    # Relative change per the stopping rule; absolute fallback when the
    # denominator is exactly zero (f can cross zero through the log term).
    return abs((f_prev - f_new) / (f_prev or 1.0)) <= epsilon


@np.errstate(invalid="ignore", over="ignore", divide="ignore")
def solve(prob, cfg=SolverConfig(), callback=None):
    """Run the MM algorithm from the all-ones start until the relative
    objective change drops to cfg.epsilon or max_iters is hit.

    When the previous objective value is exactly zero the stopping rule
    falls back to the absolute change (f can cross zero through the log
    term); a non-finite f stops the run first. Inputs are never mutated;
    the run is a pure function of (prob, cfg). The callback, if given, is
    invoked after every iteration as callback(k, w, c) with full-length
    arrays (a testing hook).

    All reads come from the iteration-k arrays and all writes go to the k+1
    buffer; there are no cross-edge dependencies. Each edge's floor is
    cfg.elimination_threshold times u_j = min(p2_root(d_j, alpha, beta),
    sqrt(alpha / beta)), computed once per solve. p2_root is inf where
    d_j = 0 and 4 alpha beta underflows; there the clamp, taken as
    sqrt(alpha) / sqrt(beta) so that it stays finite where alpha / beta
    overflows, keeps the floor finite, so a threshold of 0 still gives a
    floor of exactly 0. One live mask per iteration, w > floor,
    clamps the retired edges to 0 (the clamp runs only when some edge is
    dead) and counts the active ones. It also clears the nan that the
    unmasked root gives a retired edge with d = 0, since nan > floor is
    false. All of solve, the start and the callback included, runs under
    np.errstate(invalid="ignore", over="ignore", divide="ignore"), so that
    this 0/0 stays silent, and so do a root that divides by an underflowed
    zero and an f that overflows; either stops the run as "non_finite" like
    a node that lost its last edge. When that mask leaves 1% or more of the
    working edges dead, the next iteration opens by keeping only its
    survivors in w, d, the cached d * d, the floors, I, J and `orig`,
    which maps array positions back to input edge ids; one scatter helper
    through it gives the callback its w and c and the result its w_star. So
    the callback sees the clamped arrays before any compaction, and a run
    that stops compacts nothing more. The working arrays start in
    anti-diagonal order (by i + j, then i; see the module docstring), which
    leaves w and the active counts bit-identical to row-major order; only
    the last bits of f, whose dot products sum in array order, depend on it.
    Each trace row's wall time covers its iteration, from the compaction
    that opens it to f, and runs outside the callback. Nothing is validated
    inside the loop.
    """
    p, d, alpha, beta = prob.p, prob.d, prob.alpha, prob.beta
    two_beta = 2.0 * beta
    I, J = edge_pairs(p)
    m = d.size
    orig = np.argsort(I + J, kind="stable")
    I, J, d = I[orig], J[orig], d[orig]
    dd = d * d
    floor = cfg.elimination_threshold * np.minimum(p2_root(d, alpha, beta), math.sqrt(alpha) / math.sqrt(beta))
    w, deg, f_prev, rows = _all_ones_start(p, I, J, d, alpha, beta)
    nnz = m  # row 0's active count: iteration 1 has nothing to compact
    reason = "max_iters"

    for k in range(1, cfg.max_iters + 1):
        t_start = time.perf_counter()
        if nnz < 0.99 * w.size:
            w, d, dd, floor, I, J, orig = w[live], d[live], dd[live], floor[live], I[live], J[live], orig[live]
        c = _coefficients(w, 1.0 / deg, I, J, alpha)
        w = _root_update(d, dd, c, two_beta)
        live = w > floor
        nnz = int(np.count_nonzero(live))
        if nnz < w.size:
            w[~live] = 0.0
        deg = node_degrees(w, I, J, p)
        f_new = objective_value(w, d, deg, alpha, beta)
        rows.append((f_new, nnz, time.perf_counter() - t_start))
        if callback is not None:
            callback(k, _scatter(w, orig, m), _scatter(c, orig, m))
        # A non-finite f means that some node lost its last edge, so f is
        # +inf from here on since retired edges never return, or that f
        # overflowed.
        if not math.isfinite(f_new):
            reason = "non_finite"
            break
        if _stop_test(f_prev, f_new, cfg.epsilon):
            reason = "converged"
            break
        f_prev = f_new

    return _run_result(_scatter(w, orig, m), rows, reason)


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
    M = weights_to_matrix(free, p) / two_beta
    M.flat[::p + 1] = node_degrees(np.ones(i.size), i, j, p) / two_beta + deg * deg / alpha
    y = np.linalg.solve(M, node_degrees(g_free, i, j, p))
    delta = np.zeros(g.size)
    delta[free] = (y[i] + y[j]) / (two_beta * two_beta) - g_free / two_beta
    return delta


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def newton_solve(prob, cfg=SolverConfig()):
    """Projected Newton on f over the nonnegative orthant, from all ones.

    The free edges have w > 0, or w = 0 and g < 0. Those that the Newton
    direction pushes below zero while g > 0 keep it; if there are any, the
    rest are solved again without them. Then w = max(w + t delta, 0), with t
    halved from 1 until f falls by the Armijo rule, or f does not rise and
    the relative KKT residual (graph_model.kkt_residual) halves, which keeps
    it moving below f's rounding. Stops at a residual <= cfg.tol
    ("converged"), when no t >= 1e-20 passes or the Newton system is
    singular ("stationary"), at once on a non-finite starting f
    ("non_finite"), or at cfg.max_iters; cfg is a SolverConfig, whose MM
    settings it ignores. Runs under np.errstate(over="ignore",
    invalid="ignore", divide="ignore"), as solve does, so a badly scaled
    instance stops with its reason and no warning.
    """
    p, d, alpha, two_beta = prob.p, prob.d, prob.alpha, 2.0 * prob.beta
    I, J = edge_pairs(p)
    w, deg, f, rows = _all_ones_start(p, I, J, d, alpha, prob.beta)
    if not math.isfinite(f):
        return _run_result(w, rows, "non_finite")
    g = gradient_value(w, d, deg, I, J, alpha, prob.beta)
    res = kkt_residual(w, g, d, deg, alpha)
    reason = "max_iters"

    # rows holds the starting point and one row per step taken
    while res > cfg.tol and len(rows) <= cfg.max_iters:
        t_start = time.perf_counter()
        free = (w > 0) | (g < 0)
        try:
            delta = _newton_direction(g, deg, I, J, alpha, two_beta, free)
            bound = free & (w + delta < 0) & (g > 0)
            if bound.any():
                delta = np.where(bound, delta, _newton_direction(g, deg, I, J, alpha, two_beta, free & ~bound))
        except np.linalg.LinAlgError:  # a singular Newton system: no step to take
            reason = "stationary"
            break
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
    if res <= cfg.tol:
        reason = "converged"

    return _run_result(w, rows, reason)
