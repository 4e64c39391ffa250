"""Test-only oracles for the MM solver.

brute_force is exact cyclic coordinate descent, each coordinate minimized
by bisection, that certifies the global optimum reached by the MM
iterations at any small p and any scale of alpha and beta.
make_problem builds a ProblemInstance from a plain list of distances.
surrogate_value is the Jensen surrogate the MM step minimizes, used to check
that it majorizes f.

compute_c and mm_update are one MM step written from the paper's formulas
on full-length arrays: the surrogate coefficients, then the surrogate's
closed-form minimizer. They keep the association of the solver loop, so
tests compare solve's iterates with them bit for bit. objective_gradient is
the gradient of f, and laplacian_pinv is numpy's SVD pseudo-inverse of the
ground-truth Laplacian. None of them runs in the package; tests import them
from here. The certificate kernels (kkt_residual, p2_root, box_gap) live in
mmgl.graph_model.
"""

import numpy as np

from mmgl.data_gen import laplacian
from mmgl.graph_model import ProblemInstance, checked_weights, edge_pairs, node_degrees


def make_problem(p, d, alpha=1.0, beta=1.0):
    return ProblemInstance(p=p, d=np.asarray(d, dtype=float), alpha=alpha, beta=beta)


def _coordinate_derivative(t, j, prob, rest_a, rest_b):
    # d f / d w_j with the other coordinates held fixed; strictly increasing
    # in t, and -> -inf as t -> 0 if an endpoint has no other support.
    return (2.0 * prob.d[j] + 2.0 * prob.beta * t
            - prob.alpha * (1.0 / (rest_a + t) + 1.0 / (rest_b + t)))


def _minimize_coordinate(j, w, prob):
    I, J = edge_pairs(prob.p)
    deg = node_degrees(w, I, J, prob.p)
    rest_a = deg[I[j]] - w[j]
    rest_b = deg[J[j]] - w[j]
    # Minimizer is 0 exactly when the one-sided derivative there is already
    # nonnegative; with an unsupported endpoint the barrier forces t > 0.
    if rest_a > 0 and rest_b > 0 and _coordinate_derivative(0.0, j, prob, rest_a, rest_b) >= 0:
        return 0.0
    lo = 0.0
    hi = max(w[j], 1.0)
    while _coordinate_derivative(hi, j, prob, rest_a, rest_b) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _coordinate_derivative(mid, j, prob, rest_a, rest_b) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_force(prob):
    """The exact minimizer of f, by cyclic exact coordinate minimization
    from all ones, for small instances at any scale.

    f is strictly convex and the constraint w >= 0 is separable, so exact
    coordinate sweeps reach the unique minimizer from any finite start
    (Tseng, JOTA 2001). The sweeps stop once none moves a weight by more
    than 1e-14 * max(w); RuntimeError if that takes more than 2000.
    """
    w = np.ones(prob.m)
    for _ in range(2000):
        max_move = 0.0
        for j in range(prob.m):
            t = _minimize_coordinate(j, w, prob)
            max_move = max(max_move, abs(t - w[j]))
            w[j] = t
        if max_move <= 1e-14 * np.max(w):
            return w
    raise RuntimeError("coordinate descent did not settle in 2000 sweeps")


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
    inv = 1.0 / deg  # w_k > 0, so every degree is positive
    ratio = w / w_k
    barrier = w_k * (inv[I] * np.log(deg[I] * ratio) + inv[J] * np.log(deg[J] * ratio))
    return 2.0 * w @ prob.d + prob.beta * (w @ w) - prob.alpha * np.sum(barrier)


def _degrees(w, p):
    """Row-major edge endpoints I, J and the node degrees S w, as a bincount
    over I plus a bincount over J."""
    I, J = np.triu_indices(p, k=1)
    return I, J, np.bincount(I, weights=w, minlength=p) + np.bincount(J, weights=w, minlength=p)


def compute_c(w, prob):
    """Surrogate coefficients c_j = alpha * w_j * (1/deg_a + 1/deg_b), where
    deg_a, deg_b are the degrees of edge j's endpoints at w and a zero
    degree adds 0. c_j = 0 exactly when w_j = 0, and
    sum(c) = alpha * (number of nodes with positive degree)."""
    w = checked_weights(w, prob.m)
    I, J, deg = _degrees(w, prob.p)
    inv = np.zeros(prob.p)
    np.divide(1.0, deg, out=inv, where=deg > 0)
    return prob.alpha * w * (inv[I] + inv[J])


def mm_update(c, prob):
    """Closed-form minimizer of the separable surrogate: each w_j is the
    nonnegative root of 2 d_j w_j + 2 beta w_j^2 - c_j = 0, in the
    rationalized form c_j / (d_j + sqrt(d_j^2 + 2 beta c_j)). c_j = 0 maps
    to exactly 0, with no warning, also where d_j = 0."""
    c = checked_weights(c, prob.m)
    d = prob.d
    with np.errstate(invalid="ignore"):
        w = c / (d + np.sqrt(d * d + 2.0 * prob.beta * c))
    w[c == 0] = 0.0
    return w


def objective_gradient(w, prob):
    """Gradient of f at an interior point, 2 d_j + 2 beta w_j - alpha (1/deg_a + 1/deg_b);
    ValueError when some node degree is zero."""
    w = checked_weights(w, prob.m)
    I, J, deg = _degrees(w, prob.p)
    if np.any(deg <= 0):
        raise ValueError("gradient undefined: some node degree is zero")
    return 2.0 * prob.d + 2.0 * prob.beta * w - prob.alpha * (1.0 / deg[I] + 1.0 / deg[J])


def laplacian_pinv(g):
    """Moore-Penrose pseudo-inverse of the ground-truth Laplacian from
    numpy's SVD, with singular values below 1e-9 of the largest cut."""
    return np.linalg.pinv(laplacian(g), rcond=1e-9, hermitian=True)
