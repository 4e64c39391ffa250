"""Shared data model: edge indexing, edge kernels, distances, objective,
and the file formats of the output bundles.

A weighted undirected graph on p nodes with no self-loops is stored as a
vector w of length m = p(p-1)/2 holding the strict upper triangle of the
adjacency matrix W in row-major order. All solvers operate on this
vectorized form; the adjacency matrix is only materialized on demand.

The edge kernels (node_degrees, inverse_degrees, objective_value,
gradient_value, kkt_residual) take explicit edge arrays (w, d, I, J) and
check nothing, so the solvers can run them on any edge subset. The public functions
(degrees, objective, objective_gradient) validate their inputs and then
call the same kernels.

Every file mmgl writes goes through _write_text (UTF-8, LF line ends) and
every CSV file it reads through _csv_rows (errors name `path:line`).
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

# pairwise_distances recomputes a pair directly when its Gram-form value is
# below this fraction of |x_i|^2 + |x_j|^2: there cancellation has cost more
# than two decimal digits, so the direct sum is needed for accuracy (and for
# an exact 0 on identical rows).
_GRAM_GUARD = 1e-2

# save_edges_csv formats and writes the positive weights of this many
# consecutive edges at a time, so its transient rows stay bounded however
# many edges the graph has.
_WRITE_BLOCK = 1 << 15


def num_edges(p):
    """Number of potential edges m = p(p-1)/2 for p nodes."""
    return p * (p - 1) // 2


def edge_index(i, j, p):
    """Linear index of edge (i, j) in the row-major strict upper triangle.

    The ordering is (0,1), (0,2), ..., (0,p-1), (1,2), ... so that
    idx(i, j) = i*p - i*(i+1)/2 + (j - i - 1).

    Raises
    ------
    ValueError
        If not 0 <= i < j < p.
    """
    if not (0 <= i < j < p):
        raise ValueError(f"invalid edge ({i}, {j}) for p={p}: need 0 <= i < j < p")
    return i * p - i * (i + 1) // 2 + (j - i - 1)


@lru_cache(maxsize=64)
def edge_pairs(p):
    """Endpoint arrays (I, J) for all m edges in canonical order (read-only)."""
    if p < 2:
        raise ValueError(f"need p >= 2, got p={p}")
    I, J = np.triu_indices(p, k=1)
    I.setflags(write=False)
    J.setflags(write=False)
    return I, J


def checked_weights(w, m):
    """w as a float vector of length m; ValueError on another shape or a
    negative or non-finite entry."""
    w = np.asarray(w, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"vector has length {w.shape}, expected ({m},)")
    if not np.all((w >= 0) & (w < np.inf)):
        raise ValueError("weights must be finite and nonnegative")
    return w


def node_degrees(w, I, J, p):
    """Degree vector S w = W 1 over the edges (I, J); no input checks.

    Each edge adds its weight to the degree of both endpoints, one edge at
    a time from 0, first over the I side and then over the J side. Each
    node sums its edges in the order they appear in (I, J). So any edge
    order in which every node meets its edges in ascending edge order (row
    major, anti-diagonal by i + j then i, or column major) gives the same
    bits, and so does dropping zero-weight edges.
    """
    return (np.bincount(I, weights=w, minlength=p)
            + np.bincount(J, weights=w, minlength=p))


def inverse_degrees(deg):
    """1 / deg, with 0 in place of the inverse of a zero degree."""
    return np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)


def objective_value(w, d, deg, alpha, beta):
    """f from edge arrays and their node degrees; +inf when a degree is zero."""
    if deg.min() <= 0:
        return np.inf
    return 2.0 * (w @ d) - alpha * np.log(deg).sum() + beta * (w @ w)


def gradient_value(w, d, deg, I, J, alpha, beta):
    """Gradient 2 d_j + 2 beta w_j - alpha (1/deg_a + 1/deg_b) over the edges
    (I, J); every degree must be positive."""
    inv = inverse_degrees(deg)
    return 2.0 * d + 2.0 * beta * w - alpha * (inv[I] + inv[J])


def kkt_residual(w, g, d, deg, alpha):
    """Max-norm of the KKT residual where(w > 0, g, min(g, 0)) on the orthant,
    relative to the gradient scale 2 max d + alpha / min deg so that it
    compares across alpha, beta and p; every degree must be positive."""
    res = np.where(w > 0, g, np.minimum(g, 0.0))
    return float(np.abs(res).max() / (2.0 * d.max() + alpha / deg.min()))


def degrees(w, p):
    """Node degree vector S w for edge weights w; cost O(p^2)."""
    I, J = edge_pairs(p)
    return node_degrees(checked_weights(w, I.size), I, J, p)


def weights_to_matrix(w, p):
    """Symmetric adjacency matrix W with zero diagonal from edge weights w."""
    I, J = edge_pairs(p)
    W = np.zeros((p, p))
    W[I, J] = checked_weights(w, I.size)
    W += W.T
    return W


def pairwise_distances(X):
    """Squared Euclidean distances between node signal rows, in edge order.

    Parameters
    ----------
    X : array (p, n)
        Row i holds the n signal samples observed at node i.

    Returns
    -------
    d : array (m,)
        d[edge_index(i, j, p)] = ||X[i] - X[j]||_2^2, never negative and
        exactly 0 for identical rows.

    Computed in Gram form, |x_i|^2 + |x_j|^2 - 2 x_i.x_j, with one matrix
    product; pairs that lose digits to cancellation are summed directly.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 1:
        raise ValueError(f"expected a p x n data matrix with p >= 2, n >= 1, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("data matrix contains non-finite entries")
    I, J = edge_pairs(X.shape[0])
    sq = np.einsum("ij,ij->i", X, X)
    norms = sq[I] + sq[J]
    d = norms - 2.0 * (X @ X.T)[I, J]
    # Direct sums where the Gram form cancels or overflows, in blocks of
    # about 1 MiB of row differences.
    redo = np.flatnonzero(~(np.isfinite(d) & (d >= _GRAM_GUARD * norms)))
    step = max(1, (1 << 17) // X.shape[1])
    for lo in range(0, redo.size, step):
        k = redo[lo:lo + step]
        diff = X[I[k]] - X[J[k]]
        d[k] = np.einsum("ij,ij->i", diff, diff)
    return d


@dataclass
class ProblemInstance:
    """Everything that defines the graph learning objective f(w).

    f(w) = 2 w.d - alpha * sum_i log((S w)_i) + beta * ||w||_2^2

    with w >= 0 elementwise. The log-barrier keeps every node degree
    strictly positive at any finite-objective point.
    """

    p: int
    d: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"need p >= 2, got p={self.p}")
        if not (0 < self.alpha < np.inf and 0 < self.beta < np.inf):
            raise ValueError(f"need finite alpha > 0 and beta > 0, got alpha={self.alpha}, beta={self.beta}")
        d = np.array(self.d, dtype=float)
        if d.shape != (num_edges(self.p),):
            raise ValueError(f"distance vector has length {d.shape}, expected ({num_edges(self.p)},)")
        if not np.all(np.isfinite(d)) or np.any(d < 0):
            raise ValueError("distance vector must be finite and nonnegative")
        d.setflags(write=False)
        self.d = d

    @property
    def m(self):
        return num_edges(self.p)


def objective(w, prob):
    """Objective value f(w); +inf when any node degree is zero (log-barrier).

    Raises
    ------
    ValueError
        On a negative or non-finite weight (distinct from the +inf barrier
        return).
    """
    w = checked_weights(w, prob.m)
    I, J = edge_pairs(prob.p)
    return objective_value(w, prob.d, node_degrees(w, I, J, prob.p), prob.alpha, prob.beta)


def objective_gradient(w, prob):
    """Gradient of f at an interior point: 2 d_j + 2 beta w_j - alpha (1/deg_a + 1/deg_b).

    Requires every node degree strictly positive.
    """
    w = checked_weights(w, prob.m)
    I, J = edge_pairs(prob.p)
    deg = node_degrees(w, I, J, prob.p)
    if np.any(deg <= 0):
        raise ValueError("gradient undefined: some node degree is zero")
    return gradient_value(w, prob.d, deg, I, J, prob.alpha, prob.beta)


def _csv_rows(path, ncols=None, header=False):
    """Yield (lineno, cells) for each non-blank line, skipping line 1 when
    header is set; each row has ncols cells, or as many as the first row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or (header and lineno == 1):
                continue
            cells = line.split(",")
            if ncols is None:
                ncols = len(cells)
            elif len(cells) != ncols:
                raise ValueError(f"{path}:{lineno}: expected {ncols} columns, found {len(cells)}")
            yield lineno, cells


def _write_text(path, chunks):
    """Write each string of chunks to path, creating its directory; one
    chunk is live at a time, since writelines drops each before the next."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def load_signals_csv(path, skip_header=False):
    """Load a data matrix from CSV: one node per row, n sample columns.

    Raises ValueError with path and line number on malformed content.
    """
    rows = []
    for lineno, cells in _csv_rows(path, header=skip_header):
        try:
            row = np.array([float(c) for c in cells])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric entry") from None
        if not np.all(np.isfinite(row)):
            raise ValueError(f"{path}:{lineno}: non-finite entry")
        rows.append(row)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 node rows, found {len(rows)}")
    return np.stack(rows)


def save_signals_csv(X, path):
    """Write a data matrix one node row per write, as repr of each value."""
    _write_text(path, (",".join(map(repr, row.tolist())) + "\n" for row in X))


def save_edges_csv(w, p, path):
    """Write strictly positive edge weights as CSV rows `i,j,weight` (i < j),
    one write per _WRITE_BLOCK edges."""
    I, J = edge_pairs(p)
    w = checked_weights(w, I.size)
    blocks = (s + np.flatnonzero(w[s:s + _WRITE_BLOCK] > 0) for s in range(0, w.size, _WRITE_BLOCK))
    _write_text(path, itertools.chain(["i,j,weight\n"], (
        "".join([f"{i},{j},{x!r}\n" for i, j, x in zip(I[k].tolist(), J[k].tolist(), w[k].tolist())])
        for k in blocks)))


def load_edges_csv(path, p=None):
    """Read an edge-list CSV `i,j,weight` back into (w, p).

    A header row is skipped if present. p defaults to 1 + the largest node
    id seen; pass it explicitly when trailing nodes are isolated.
    """
    entries = {}
    for lineno, cells in _csv_rows(path, ncols=3):
        if lineno == 1 and cells[0].strip().lower() == "i":
            continue
        try:
            i, j, wt = int(cells[0]), int(cells[1]), float(cells[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed edge row") from None
        if not (0 <= i < j) or not (np.isfinite(wt) and wt >= 0):
            raise ValueError(f"{path}:{lineno}: invalid edge ({i},{j}) weight {wt}")
        if (i, j) in entries:
            raise ValueError(f"{path}:{lineno}: duplicate edge ({i},{j})")
        entries[i, j] = wt
    if not entries:
        raise ValueError(f"{path}: no edges found")
    max_node = max(j for _, j in entries)
    if p is None:
        p = max_node + 1
    elif max_node >= p:
        raise ValueError(f"{path}: node id {max_node} out of range for p={p}")
    w = np.zeros(num_edges(p))
    for (i, j), wt in entries.items():
        w[edge_index(i, j, p)] = wt
    return w, p
