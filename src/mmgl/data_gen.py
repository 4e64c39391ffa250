"""Ground-truth graphs (ER, 2-block SBM) and smooth-signal synthesis.

Signals are drawn from the Gaussian factor model N(0, L_pinv + sigma^2 I)
where L_pinv is the pseudo-inverse of the ground-truth graph Laplacian, so
low-frequency graph modes dominate and the signals vary smoothly across
edges. All randomness flows through numpy's default_rng (PCG64), which is
seedable and stable across platforms.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .graph_model import (
    ProblemInstance,
    check_integers,
    check_reals,
    checked_weights,
    edge_pairs,
    load_edges_csv,
    num_edges,
    pairwise_distances,
    read_only,
    weights_to_matrix,
)

# Relative eigenvalue cutoff below which Laplacian modes count as null space.
EIG_CUTOFF = 1e-9


@dataclass(frozen=True)
class GroundTruthGraph:
    p: int
    w_true: np.ndarray

    def __post_init__(self):
        # frozen, with a private read-only copy, so signal_root always matches
        w = checked_weights(np.array(self.w_true, dtype=float), num_edges(self.p))
        object.__setattr__(self, "w_true", read_only(w))

    @functools.cached_property
    def signal_root(self):
        """L_pinv^(1/2), the read-only root of the Laplacian's pseudo-inverse,
        from one eigendecomposition on first use. Eigenvalues below
        EIG_CUTOFF times the largest count as exactly zero, so a connected
        graph keeps exactly one null mode (the constant vector)."""
        vals, vecs = np.linalg.eigh(laplacian(self))
        keep = vals > EIG_CUTOFF * max(float(vals[-1]), 0.0)
        inv_vals = np.zeros_like(vals)
        inv_vals[keep] = 1.0 / vals[keep]
        return read_only((vecs * np.sqrt(inv_vals)) @ vecs.T)


@dataclass(frozen=True)
class SignalModel:
    """Noise level sigma and sample count n of gen_signals; frozen, so
    neither can change after it is checked."""

    sigma: float = 0.1
    n: int = 1200

    def __post_init__(self):
        check_integers(n=self.n, least=1)
        check_reals(sigma=self.sigma)


def gen_er(p, prob_edge, seed):
    """Erdos-Renyi graph: each potential edge present independently with
    probability prob_edge, unit weight when present; the SBM whose two
    probabilities are both prob_edge, so the same seed draws the same bits."""
    check_reals(prob_edge=prob_edge, most=1)
    return gen_sbm(p, prob_edge, prob_edge, seed)


def gen_sbm(p, p_in, p_out, seed):
    """2-block stochastic block model: nodes split into halves of size
    floor(p/2) and ceil(p/2); intra-block edges appear with probability
    p_in, inter-block with p_out."""
    check_reals(p_in=p_in, p_out=p_out, most=1)
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


def draw_noise(seed, out):
    """Fill out, a C-ordered float64 (2, p, n) array, with the noise that
    gen_signals draws at seed, Z in out[0] and E in out[1], in one call;
    returns out. PCG64 draws the same stream whatever the shape it fills,
    so these are the bits of the two p x n draws made one after the other."""
    return np.random.default_rng(seed).standard_normal(out.shape, out=out)


def gen_signals(g, model, seed, noise=None):
    """Sample a p x n data matrix with i.i.d. columns from
    N(0, L_pinv + sigma^2 I).

    Realized as L_pinv^(1/2) Z + sigma E with Z drawn before E, so a seed
    pins the output exactly. E is drawn into Z's buffer once the product
    is formed, so at most two p x n arrays are live. noise, if given, is
    a (2, p, n) array that draw_noise(seed, noise) filled: Z and E are
    read from it and the draws are skipped, so a batch can draw the next
    run's noise while this run is solved. E is scaled in place, so noise
    is spent; the bytes returned are the same either way, and the result
    is always a fresh array that shares no memory with noise.
    """
    if noise is None:
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((g.p, model.n))
        X = g.signal_root @ Z
        E = rng.standard_normal(Z.shape, out=Z)
    else:
        if noise.shape != (2, g.p, model.n):
            raise ValueError(f"noise has shape {noise.shape}, expected {(2, g.p, model.n)}")
        Z, E = noise
        X = g.signal_root @ Z
    E *= model.sigma
    X += E
    return X


def assemble(X, alpha, beta):
    """Build a ProblemInstance from a p x n data matrix, one node per row."""
    X = np.asarray(X, dtype=float)
    return ProblemInstance(p=X.shape[0], d=pairwise_distances(X), alpha=alpha, beta=beta)


def load_graph(path):
    """Read an edge-list CSV back into a GroundTruthGraph, whose p is 1 + the
    largest node id in the file."""
    w, p = load_edges_csv(path)
    return GroundTruthGraph(p=p, w_true=w)
