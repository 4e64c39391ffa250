"""Majorization-minimization solver with zero-lock active-set elimination.

Each iteration majorizes the log-barrier via Jensen's inequality around the
current iterate, which makes the surrogate separable per edge and gives a
closed-form nonnegative quadratic-root update. A weight that reaches exact
zero produces a zero coefficient and therefore stays zero forever, so
eliminated edges are dropped from the working arrays as soon as 1% or more
of them have retired.
"""

import time
from dataclasses import dataclass

import numpy as np

from .graph_model import _checked_weights, edge_pairs, inverse_degrees, node_degrees, objective_value


@dataclass
class SolverConfig:
    """Knobs for the MM loop.

    epsilon is the relative-objective stopping tolerance; weights below
    elimination_threshold are clamped to exact zero and retired permanently.
    A threshold of 0 turns elimination off.
    """

    epsilon: float = 1e-4
    max_iters: int = 10000
    elimination_threshold: float = 1e-8

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"need finite epsilon > 0, got {self.epsilon}")
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
    from the trace."""

    w_star: np.ndarray
    trace: ConvergenceTrace
    converged: bool

    @property
    def f_star(self):
        return float(self.trace.f[-1])

    @property
    def iters(self):
        return len(self.trace) - 1


def _run_result(w_star, rows, converged):
    """SolveResult from the final full-length weights and one
    (f, active_count, wall_s) row per iterate, starting point first."""
    f, active, wall = zip(*rows)
    trace = ConvergenceTrace(
        iterations=np.arange(len(rows)),
        f=np.array(f, dtype=float),
        active_count=np.array(active, dtype=int),
        wall_time=np.array(wall, dtype=float),
    )
    return SolveResult(w_star=w_star, trace=trace, converged=converged)


def compute_c(w, prob):
    """Surrogate coefficients c_j = alpha * w_j * (1/deg_a + 1/deg_b).

    deg_a, deg_b are the current degrees of edge j's endpoints. c_j = 0
    exactly when w_j = 0, and sum(c) = alpha * (number of nodes with
    positive degree).
    """
    w = _checked_weights(w, prob.m)
    I, J = edge_pairs(prob.p)
    inv = inverse_degrees(node_degrees(w, I, J, prob.p))
    return _coefficients(w, inv, I, J, prob.alpha)


def _coefficients(w, inv, I, J, alpha):
    return alpha * w * (inv[I] + inv[J])


def mm_update(w, c, prob):
    """Closed-form minimizer of the separable surrogate.

    Each output w_j is the unique nonnegative root of
    2 d_j w_j + 2 beta w_j^2 - c_j = 0, computed in the rationalized form
    c_j / (d_j + sqrt(d_j^2 + 2 beta c_j)) to avoid cancellation; c_j = 0
    maps to exactly 0.
    """
    _checked_weights(w, prob.m)
    return _root_update(prob.d, _checked_weights(c, prob.m), prob.beta)


def _root_update(d, c, beta):
    s = np.sqrt(d * d + 2.0 * beta * c)
    denom = d + s
    return np.divide(c, denom, out=np.zeros_like(c), where=c > 0)


def surrogate_value(w, w_k, prob):
    """Jensen surrogate g(w | w_k); equals f at w = w_k and majorizes f.

    Only used for majorization checks in tests, never in the solve loop.
    Returns +inf when some w_j = 0 (the surrogate's log diverges there).
    """
    w_k = _checked_weights(w_k, prob.m)
    if np.any(w_k == 0):
        raise ValueError("expansion point w_k must be strictly positive")
    w = _checked_weights(w, prob.m)
    if np.any(w == 0):
        return np.inf
    I, J = edge_pairs(prob.p)
    deg = node_degrees(w_k, I, J, prob.p)
    inv = inverse_degrees(deg)
    ratio = w / w_k
    barrier = w_k * (inv[I] * np.log(deg[I] * ratio) + inv[J] * np.log(deg[J] * ratio))
    return 2.0 * w @ prob.d + prob.beta * (w @ w) - prob.alpha * np.sum(barrier)


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
    k+1 buffer; there are no cross-edge dependencies. As soon as 1% or more
    of the working edges have retired, they are dropped from the arrays;
    `orig` maps array positions back to input edge ids for the callback and
    the final scatter. Each trace row's wall time covers the whole iteration,
    compaction included, and not the callback. Nothing is validated inside
    the loop.
    """
    if cfg is None:
        cfg = SolverConfig()
    p, d, alpha, beta = prob.p, prob.d, prob.alpha, prob.beta
    I, J = edge_pairs(p)
    m = d.size
    w = np.ones(m)
    orig = np.arange(m)
    tau = cfg.elimination_threshold
    deg = node_degrees(w, I, J, p)
    f_prev = objective_value(w, d, deg, alpha, beta)
    rows = [(f_prev, m, 0.0)]
    converged = False

    for k in range(1, cfg.max_iters + 1):
        t_start = time.perf_counter()
        c = _coefficients(w, inverse_degrees(deg), I, J, alpha)
        w = _root_update(d, c, beta)
        if tau > 0:
            w[w < tau] = 0.0
        deg = node_degrees(w, I, J, p)
        f_new = objective_value(w, d, deg, alpha, beta)
        nnz = int(np.count_nonzero(w))
        # A non-finite f means some node lost its last edge, so f is +inf
        # from here on: retired edges never return.
        finite = bool(np.isfinite(f_new))
        converged = finite and bool(_stop_test(f_prev, f_new, cfg.epsilon))
        w_k, orig_k = w, orig
        if finite and not converged and nnz < 0.99 * w.size:
            keep = w > 0
            w, d, I, J, orig = w[keep], d[keep], I[keep], J[keep], orig[keep]
        rows.append((f_new, nnz, time.perf_counter() - t_start))
        if callback is not None:
            w_full = np.zeros(m)
            w_full[orig_k] = w_k
            c_full = np.zeros(m)
            c_full[orig_k] = c
            callback(k, w_full, c_full)
        if converged or not finite:
            break
        f_prev = f_new

    w_full = np.zeros(m)
    w_full[orig] = w
    return _run_result(w_full, rows, converged)
