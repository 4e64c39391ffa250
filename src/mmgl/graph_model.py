"""Shared data model: edge indexing, edge kernels, distances, objective,
and the file formats of the output bundles.

Every scalar setting is checked by one of two rules: check_integers for a
count and check_reals for a real weight, tolerance or probability.

A weighted undirected graph on p nodes with no self-loops is stored as a
vector w of length m = p(p-1)/2 holding the strict upper triangle of the
adjacency matrix W in row-major order. All solvers operate on this
vectorized form; the adjacency matrix is only materialized on demand.

The edge kernels (node_degrees, objective_value, gradient_value,
kkt_residual) take explicit edge arrays (w, d, I, J) and check nothing, so
the solvers can run them on any edge subset. The public functions degrees
and objective validate their inputs and then call the same kernels. The
certificate kernels p2_root (the two-node optimum, which bounds every
optimal weight) and box_gap (the Frank-Wolfe gap over that box, a bound on
f(w) - f*), and edge_f1, the exact best-cut F1 of edge recovery, also
check nothing; none of them is in mmgl.__all__.

Every file mmgl writes goes through _write_text (UTF-8, LF line ends) and
every CSV file it reads through _csv_rows (UTF-8 with or without a
byte-order mark; errors name `path:line`), and each number cell it reads
through _numbers.
"""

import itertools
import numbers
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
# consecutive edges at a time, and bench.write_trace_csv this many trace rows,
# so their transient rows (about 0.3 MB of strings) stay bounded however many
# edges the graph or rows the trace has.
_WRITE_BLOCK = 1 << 11


def check_integers(*, least, **counts):
    """ValueError naming the first count in counts that is not a Python or
    numpy integer (a bool is not a count) or is below least."""
    for name, count in counts.items():
        if not isinstance(count, numbers.Integral) or isinstance(count, bool):
            raise ValueError(f"need an integer {name}, got {count!r}")
        if count < least:
            raise ValueError(f"need {name} >= {least}, got {count}")


def check_reals(*, positive=False, most=None, **values):
    """ValueError naming the first value in values that is not a real number
    (a bool is not one) in range: finite and >= 0, or > 0 given positive;
    in [0, most] given most."""
    for name, value in values.items():
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if most is not None and not (real and 0 <= value <= most):
            raise ValueError(f"need {name} in [0, {most}], got {value}")
        if most is None and not (real and 0 <= value < np.inf and (value > 0 or not positive)):
            raise ValueError(f"need finite {name} {'>' if positive else '>='} 0, got {value}")


def read_only(a):
    """The array a, with its write flag cleared."""
    a.setflags(write=False)
    return a


def num_edges(p):
    """Number of potential edges m = p(p-1)/2 of a graph on p >= 2 nodes."""
    check_integers(p=p, least=2)
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
    num_edges(p)  # refuses p < 2
    I, J = np.triu_indices(p, k=1)
    return read_only(I), read_only(J)


def checked_weights(w, m):
    """w as a float vector of length m >= 1; ValueError on another shape or
    a negative or non-finite entry. A NaN makes min() NaN, so two reductions
    decide with no m-sized temporary."""
    w = np.asarray(w, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"vector has length {w.shape}, expected ({m},)")
    if not (w.min() >= 0 and w.max() < np.inf):
        raise ValueError("entries must be finite and nonnegative")
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


def objective_value(w, d, deg, alpha, beta):
    """f from edge arrays and their node degrees; +inf when a degree is zero."""
    if deg.min() <= 0:
        return np.inf
    return 2.0 * (w @ d) - alpha * np.log(deg).sum() + beta * (w @ w)


def gradient_value(w, d, deg, I, J, alpha, beta):
    """Gradient 2 d_j + 2 beta w_j - alpha (1/deg_a + 1/deg_b) over the edges
    (I, J); every degree must be positive."""
    inv = 1.0 / deg
    return 2.0 * d + 2.0 * beta * w - alpha * (inv[I] + inv[J])


def kkt_residual(w, g, d, deg, alpha):
    """Max-norm of the KKT residual where(w > 0, g, min(g, 0)) on the orthant,
    relative to the gradient scale 2 max d + alpha / min deg so that it
    compares across alpha, beta and p; every degree must be positive."""
    res = np.where(w > 0, g, np.minimum(g, 0.0))
    return float(np.abs(res).max() / (2.0 * d.max() + alpha / deg.min()))


def p2_root(d, alpha, beta):
    """Closed-form optimum of the two-node problem: the stationary point of
    2 d w - 2 alpha log(w) + beta w^2, elementwise over an array of d. The
    rationalized form has no cancellation, so it keeps its digits where
    d^2 >> alpha beta, as (-d + sqrt(d^2 + 4 alpha beta)) / (2 beta) does not.
    It also bounds every optimal weight: w*_j <= p2_root(d_j, alpha, beta)."""
    return 2 * alpha / (d + np.sqrt(d * d + 4 * alpha * beta))


def box_gap(w, g, d, alpha, beta):
    """Frank-Wolfe gap g.w + u.max(-g, 0) of w >= 0 with gradient g over
    the box [0, u], u = p2_root(d, alpha, beta), which holds the optimum.
    f is convex, so f(w) - box_gap <= f* <= f(w)."""
    return g @ w + p2_root(d, alpha, beta) @ np.maximum(-g, 0)


def edge_f1(w, w_true):
    """Best F1 of the edges w > c against the edges w_true > 0 over every
    cut c; 0.0 when w has no positive weight or w_true no edge. A cut can
    only fall between distinct weights, so tied edges are kept together."""
    truth = w_true > 0
    live = np.flatnonzero(w > 0)
    if live.size == 0 or not truth.any():
        return 0.0
    order = live[np.argsort(-w[live], kind="stable")]  # by weight, descending
    ws = w[order]
    cut = np.flatnonzero(np.append(ws[1:] != ws[:-1], True))  # last edge of each tie
    # 2 tp / (kept + true edges) at each cut
    return float(np.max(2.0 * np.cumsum(truth[order])[cut] / (cut + 1 + np.count_nonzero(truth))))


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


@np.errstate(over="ignore", invalid="ignore")
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
    product; pairs that lose digits to cancellation or overflow are summed
    directly. ValueError if a squared distance itself overflows float64.
    Runs under np.errstate(over="ignore", invalid="ignore"), since the
    direct sums redo every Gram-form value that overflowed.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 1:
        raise ValueError(f"expected a p x n data matrix with p >= 2, n >= 1, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("data matrix contains non-finite entries")
    I, J = edge_pairs(X.shape[0])
    sq = np.einsum("ij,ij->i", X, X)
    norms = sq[I] + sq[J]
    # Direct sums where the Gram form cancels or overflows, in blocks of
    # about 1 MiB of row differences.
    d = norms - 2.0 * (X @ X.T)[I, J]
    redo = np.flatnonzero(~(np.isfinite(d) & (d >= _GRAM_GUARD * norms)))
    step = max(1, (1 << 17) // X.shape[1])
    for lo in range(0, redo.size, step):
        k = redo[lo:lo + step]
        diff = X[I[k]] - X[J[k]]
        d[k] = np.einsum("ij,ij->i", diff, diff)
        if not np.all(np.isfinite(d[k])):
            raise ValueError("squared distances between signal rows overflow float64")
    return d


@dataclass(frozen=True)
class ProblemInstance:
    """Everything that defines the graph learning objective f(w).

    f(w) = 2 w.d - alpha * sum_i log((S w)_i) + beta * ||w||_2^2

    with w >= 0 elementwise. The log-barrier keeps every node degree
    strictly positive at any finite-objective point. Frozen, with a private
    read-only copy of d, so no field can change after it is checked.
    """

    p: int
    d: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        check_reals(alpha=self.alpha, beta=self.beta, positive=True)
        d = checked_weights(np.array(self.d, dtype=float), num_edges(self.p))
        object.__setattr__(self, "d", read_only(d))

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


def _csv_rows(path, ncols=None, header=False):
    """Yield (lineno, cells) for each non-blank line, skipping the first
    one when header is set; each row has ncols cells, or as many as the
    first row. A leading UTF-8 byte-order mark is dropped."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if header:
                header = False
                continue
            cells = line.split(",")
            if ncols is None:
                ncols = len(cells)
            elif len(cells) != ncols:
                raise ValueError(f"{path}:{lineno}: expected {ncols} columns, found {len(cells)}")
            yield lineno, cells


def _numbers(where, cells, types, what):
    """Each cell converted by its column's type in types; ValueError
    `where: what` on a cell that does not convert, or that holds `_` or a
    non-ASCII character: float() and int() read the one as digit grouping
    and the other as a digit (as in "1_0" or "\u0661\u0662"), where a
    number in a CSV file has neither."""
    text = "".join(cells)
    if "_" not in text and text.isascii():
        try:
            return [convert(cell) for convert, cell in zip(types, cells)]
        except ValueError:
            pass
    raise ValueError(f"{where}: {what}")


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
        row = np.array(_numbers(f"{path}:{lineno}", cells, [float] * len(cells), "non-numeric entry"))
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

    A header row, the first non-blank line if its first cell is `i`, is
    skipped. p defaults to 1 + the largest node id seen; pass it explicitly
    when trailing nodes are isolated.
    """
    entries = {}
    for row, (lineno, cells) in enumerate(_csv_rows(path, ncols=3)):
        if row == 0 and cells[0].strip().lower() == "i":
            continue
        i, j, wt = _numbers(f"{path}:{lineno}", cells, (int, int, float), "malformed edge row")
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
