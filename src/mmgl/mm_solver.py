"""Majorization-minimization solver with zero-lock active-set elimination.

Each iteration majorizes the log-barrier via Jensen's inequality around the
current iterate, which makes the surrogate separable per edge and gives a
closed-form nonnegative quadratic-root update. A weight that reaches exact
zero produces a zero coefficient and therefore stays zero forever, so
eliminated edges are dropped from the working arrays as soon as 1% or more
of them have retired.

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
"""

import math
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
    from the trace.

    reason says why the run stopped: "converged" (the stopping rule held),
    "max_iters" (the iteration cap), "non_finite" (f became non-finite: a
    node lost its last edge) or "stationary" (pg_solve found no step that
    decreases f before reaching its tolerance).
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
    return alpha * w * (inv.take(I) + inv.take(J))


def mm_update(w, c, prob):
    """Closed-form minimizer of the separable surrogate.

    Each output w_j is the unique nonnegative root of
    2 d_j w_j + 2 beta w_j^2 - c_j = 0, computed in the rationalized form
    c_j / (d_j + sqrt(d_j^2 + 2 beta c_j)) to avoid cancellation; c_j = 0
    maps to exactly 0, with no warning, also where d_j = 0.
    """
    _checked_weights(w, prob.m)
    c = _checked_weights(c, prob.m)
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
    w = np.ones(m)
    dd = d * d
    floor = max(cfg.elimination_threshold, np.nextafter(0.0, 1.0))
    deg = node_degrees(w, I, J, p)
    f_prev = objective_value(w, d, deg, alpha, beta)
    rows = [(f_prev, m, 0.0)]
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
