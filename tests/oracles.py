"""Test-only oracles for the MM solver.

brute_force is a grid search plus cyclic coordinate bisection for tiny
instances, used to certify the global optimum reached by the MM iterations.
surrogate_value is the Jensen surrogate the MM step minimizes, used to check
that it majorizes f. Neither runs in the package; tests import them from here.
"""

import itertools

import numpy as np

from mmgl.graph_model import checked_weights, edge_pairs, inverse_degrees, node_degrees, objective


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


def surrogate_value(w, w_k, prob):
    """Jensen surrogate g(w | w_k); equals f at w = w_k and majorizes f.

    Only used for majorization checks in tests, never in the solve loop.
    Returns +inf when some w_j = 0 (the surrogate's log diverges there).
    """
    w_k = checked_weights(w_k, prob.m)
    if np.any(w_k == 0):
        raise ValueError("expansion point w_k must be strictly positive")
    w = checked_weights(w, prob.m)
    if np.any(w == 0):
        return np.inf
    I, J = edge_pairs(prob.p)
    deg = node_degrees(w_k, I, J, prob.p)
    inv = inverse_degrees(deg)
    ratio = w / w_k
    barrier = w_k * (inv[I] * np.log(deg[I] * ratio) + inv[J] * np.log(deg[J] * ratio))
    return 2.0 * w @ prob.d + prob.beta * (w @ w) - prob.alpha * np.sum(barrier)
