"""Ground-truth graphs (ER, 2-block SBM) and smooth-signal synthesis.

Signals are drawn from the Gaussian factor model N(0, L_pinv + sigma^2 I)
where L_pinv is the pseudo-inverse of the ground-truth graph Laplacian, so
low-frequency graph modes dominate and the signals vary smoothly across
edges. All randomness flows through numpy's default_rng (PCG64), which is
seedable and stable across platforms.
"""

from dataclasses import dataclass

import numpy as np

from .graph_model import (
    ProblemInstance,
    checked_weights,
    edge_pairs,
    load_edges_csv,
    num_edges,
    pairwise_distances,
    weights_to_matrix,
)

# Relative eigenvalue cutoff below which Laplacian modes count as null space.
EIG_CUTOFF = 1e-9


@dataclass
class GroundTruthGraph:
    p: int
    w_true: np.ndarray

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"need p >= 2, got p={self.p}")
        self.w_true = checked_weights(self.w_true, num_edges(self.p))


@dataclass
class SignalModel:
    sigma: float = 0.1
    n: int = 1200

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not 0 <= self.sigma < np.inf:
            raise ValueError(f"need finite sigma >= 0, got {self.sigma}")


def gen_er(p, prob_edge, seed):
    """Erdos-Renyi graph: each potential edge present independently with
    probability prob_edge, unit weight when present."""
    if not 0 <= prob_edge <= 1:
        raise ValueError(f"edge probability must be in [0, 1], got {prob_edge}")
    if p < 2:
        raise ValueError(f"need p >= 2, got p={p}")
    rng = np.random.default_rng(seed)
    w = (rng.random(num_edges(p)) < prob_edge).astype(float)
    return GroundTruthGraph(p=p, w_true=w)


def gen_sbm(p, p_in, p_out, seed):
    """2-block stochastic block model: nodes split into halves of size
    floor(p/2) and ceil(p/2); intra-block edges appear with probability
    p_in, inter-block with p_out."""
    if not (0 <= p_in <= 1 and 0 <= p_out <= 1):
        raise ValueError(f"edge probabilities must be in [0, 1], got {p_in}, {p_out}")
    rng = np.random.default_rng(seed)
    membership = np.arange(p) >= p // 2
    I, J = edge_pairs(p)
    prob = np.where(membership[I] == membership[J], p_in, p_out)
    w = (rng.random(num_edges(p)) < prob).astype(float)
    return GroundTruthGraph(p=p, w_true=w)


def laplacian(g):
    """Combinatorial Laplacian L = diag(W 1) - W of the ground-truth graph."""
    W = weights_to_matrix(g.w_true, g.p)
    return np.diag(W.sum(axis=1)) - W


def _pinv_eig(L):
    vals, vecs = np.linalg.eigh(L)
    cutoff = EIG_CUTOFF * max(float(vals[-1]), 0.0)
    keep = vals > cutoff
    inv_vals = np.zeros_like(vals)
    inv_vals[keep] = 1.0 / vals[keep]
    return inv_vals, vecs


def laplacian_pinv(g):
    """Moore-Penrose pseudo-inverse of the Laplacian via eigendecomposition.

    Eigenvalues below 1e-9 times the largest are treated as exactly zero, so
    a connected graph keeps exactly one null mode (the constant vector).
    """
    inv_vals, vecs = _pinv_eig(laplacian(g))
    return (vecs * inv_vals) @ vecs.T


def _pinv_sqrt(g):
    inv_vals, vecs = _pinv_eig(laplacian(g))
    return (vecs * np.sqrt(inv_vals)) @ vecs.T


def gen_signals(g, model, seed):
    """Sample a p x n data matrix with i.i.d. columns from
    N(0, L_pinv + sigma^2 I).

    Realized as L_pinv^(1/2) Z + sigma E with Z drawn before E, so a seed
    pins the output exactly. E is drawn into Z's buffer once the product
    is formed, so at most two p x n arrays are live.
    """
    rng = np.random.default_rng(seed)
    root = _pinv_sqrt(g)
    Z = rng.standard_normal((g.p, model.n))
    X = root @ Z
    E = rng.standard_normal(Z.shape, out=Z)
    E *= model.sigma
    X += E
    return X


def assemble(X, alpha, beta):
    """Build a ProblemInstance from a p x n data matrix, one node per row."""
    X = np.asarray(X, dtype=float)
    return ProblemInstance(p=X.shape[0], d=pairwise_distances(X), alpha=alpha, beta=beta)


def load_graph(path, p=None):
    """Read an edge-list CSV back into a GroundTruthGraph."""
    w, p_loaded = load_edges_csv(path, p=p)
    return GroundTruthGraph(p=p_loaded, w_true=w)
