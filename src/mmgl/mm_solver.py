"""Majorization-minimization solver with zero-lock active-set elimination.

Each iteration majorizes the log-barrier via Jensen's inequality around the
current iterate, which makes the surrogate separable per edge and gives a
closed-form nonnegative quadratic-root update. A weight that reaches exact
zero produces a zero coefficient and therefore stays zero forever, so
eliminated edges can be dropped from the working arrays.
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
    w_star: np.ndarray
    f_star: float
    trace: ConvergenceTrace
    converged: bool
    iters: int


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


def _mm_loop(p, d, I, J, alpha, beta, cfg, callback=None):
    """MM iterations from the all-ones start over the edges (I, J).

    All reads come from the iteration-k snapshot and all writes go to the
    k+1 buffer; there are no cross-edge dependencies. Once fewer than half
    of the working edges are live, the retired ones are dropped from the
    arrays; `orig` maps array positions back to input edge ids for the
    callback and the final scatter. Nothing is validated inside the loop.
    """
    m = d.size
    w = np.ones(m)
    orig = np.arange(m)
    tau = cfg.elimination_threshold
    deg = node_degrees(w, I, J, p)
    f_prev = objective_value(w, d, deg, alpha, beta)
    ks = [0]
    fs = [f_prev]
    actives = [m]
    walls = [0.0]
    converged = False
    iters = 0
    last_compact_size = m

    for k in range(1, cfg.max_iters + 1):
        t_start = time.perf_counter()
        c = _coefficients(w, inverse_degrees(deg), I, J, alpha)
        w = _root_update(d, c, beta)
        if tau > 0:
            w[w < tau] = 0.0
        deg = node_degrees(w, I, J, p)
        f_new = objective_value(w, d, deg, alpha, beta)
        nnz = int(np.count_nonzero(w))
        iters = k
        ks.append(k)
        fs.append(f_new)
        actives.append(nnz)
        walls.append(time.perf_counter() - t_start)
        if callback is not None:
            w_full = np.zeros(m)
            w_full[orig] = w
            c_full = np.zeros(m)
            c_full[orig] = c
            callback(k, w_full, c_full)
        if not np.isfinite(f_new):
            # Some node lost its last edge, so f is +inf from here on:
            # retired edges never return.
            break
        if _stop_test(f_prev, f_new, cfg.epsilon):
            converged = True
            break
        f_prev = f_new
        if nnz < 0.5 * last_compact_size:
            keep = w > 0
            w, d, I, J, orig = w[keep], d[keep], I[keep], J[keep], orig[keep]
            last_compact_size = w.size

    w_full = np.zeros(m)
    w_full[orig] = w
    trace = ConvergenceTrace(
        iterations=np.array(ks, dtype=int),
        f=np.array(fs, dtype=float),
        active_count=np.array(actives, dtype=int),
        wall_time=np.array(walls, dtype=float),
    )
    return w_full, trace, converged, iters


def solve(prob, cfg=None, callback=None):
    """Run the MM algorithm from the all-ones start until the relative
    objective change drops to cfg.epsilon or max_iters is hit.

    When the previous objective value is exactly zero the stopping rule
    falls back to the absolute change (f can cross zero through the log
    term). Inputs are never mutated; the run is a pure function of
    (prob, cfg). The callback, if given, is invoked after every iteration
    as callback(k, w, c) with full-length arrays (a testing hook).
    """
    if cfg is None:
        cfg = SolverConfig()
    I, J = edge_pairs(prob.p)
    w_star, trace, converged, iters = _mm_loop(
        prob.p, prob.d, I, J, prob.alpha, prob.beta, cfg, callback=callback)
    return SolveResult(w_star=w_star, f_star=float(trace.f[-1]), trace=trace,
                       converged=converged, iters=iters)
