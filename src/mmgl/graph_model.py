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

save_edges_csv writes each weight with repr's digits, _EDGE_BLOCK (8192)
edges at a time, without calling repr per weight: _shortest_digits finds
repr's shortest round-trip digits for the whole block with float64 and
int64 arithmetic, and _edge_rows lays the rows out as uint8 text. A weight
the arithmetic cannot certify, such as one outside about [1e-6, 1e16), is
printed by repr itself.
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
# consecutive edges at a time, so its transient arrays (about 0.5 kB a row,
# 3.9 MB for a full block) stay bounded however many edges the graph has;
# the 4950 edges of a graph on 100 nodes are one block.
_EDGE_BLOCK = 1 << 13

# 10**q for q in [0, 22], each an exact double
_TEN = 10.0 ** np.arange(23)


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
    one write per _EDGE_BLOCK edges. Each row is f"{i},{j},{w!r}": _edge_rows
    gives repr's bytes from numpy arithmetic, and calls repr itself for the
    weights that arithmetic cannot certify."""
    I, J = edge_pairs(p)
    w = checked_weights(w, I.size)
    blocks = (s + np.flatnonzero(w[s:s + _EDGE_BLOCK] > 0) for s in range(0, w.size, _EDGE_BLOCK))
    _write_text(path, itertools.chain(["i,j,weight\n"], (_edge_rows(I[k], J[k], w[k]) for k in blocks if k.size)))


def _split(a):
    """Dekker's split a = hi + lo, each part of at most 26 significant bits,
    so the product of two parts is exact in float64."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_TEN_HI, _TEN_LO = _split(_TEN)
_HALF_ULP = _TEN * 2.0**-53  # half an ulp of 1.0, times 10**q
_LAST_DIGIT = np.arange(100.0) % 10
_ODD_TENS = np.arange(100) // 10 % 2 == 1
# the constant words of _text_tables, after its 2 * 10^4 number words
_SPACED = 10**4
_K0, _K1, _COMMA, _BLANK = range(2 * _SPACED, 2 * _SPACED + 4)


def _weight_layout(e, n):
    """The 24 bytes of repr's text of a weight, its "\\n" and then spaces, as
    offsets into the 28-byte row of _edge_rows that holds the weight's 17
    digits D at bytes 3-19 ("000" before them) and ".e-56\\n  " after them,
    for n significant digits and a leading digit at 10**e, e in [-6, 15]."""
    byte = {"0": 0, ".": 20, "e": 21, "-": 22, "5": 23, "6": 24, "\n": 25, " ": 26}
    digits = list(range(3, 3 + max(n, e + 2)))  # past n, D's zeros give "x.0"
    if e < -4:  # repr's exponent form
        text = digits[:1] + ([byte["."]] + digits[1:n] if n > 1 else []) + [byte[c] for c in f"e{e:03d}"]
    elif e < 0:
        text = [byte["0"], byte["."]] + [byte["0"]] * (-e - 1) + digits[:n]
    else:
        text = digits[:e + 1] + [byte["."]] + digits[e + 1:]
    return text + [byte["\n"]] + [byte[" "]] * (23 - len(text))


@lru_cache(maxsize=None)
def _text_tables():
    """(words, layouts) for _edge_rows, built once from uint8 temporaries.

    words holds uint32 words of four ASCII bytes: each k < 10^4 zero-padded
    ("0042") at k and space-padded ("  42", "   0") at _SPACED + k, then
    _K0 ".e-5", _K1 "6\\n  ", _COMMA ",   " and _BLANK "    ". Row
    (q - 1) * 17 + n - 1 of layouts is _weight_layout(16 - q, n)."""
    digits = np.arange(48, 58, dtype=np.uint8)
    text = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        text[..., k] = digits.reshape((10,) + (1,) * (3 - k))
    text[1, 0, :, :, :, 0] = text[1, 0, 0, :, :, 1] = text[1, 0, 0, 0, :, 2] = ord(" ")
    words = np.concatenate([text.ravel(), np.frombuffer(b".e-56\n  ,       ", np.uint8)]).view(np.uint32)
    layouts = np.array([_weight_layout(16 - q, n) for q in range(1, 23) for n in range(1, 18)], np.intp)
    return read_only(words), read_only(layouts)


def _shortest_digits(x):
    """(D, q, n, ok) for positive finite weights x: where ok is set, repr(x)
    prints D * 10**-q, with D an integer in [10^16, 10^17) whose first n digits
    are significant, the rest 0.

    repr prints the shortest decimal that reads back as x, the one nearest x
    among those (Gay 1990); that is the nearest multiple of 10^k to
    X = x * 10**q for the largest k that reads back, and here k < 2 or the
    nearest multiple of 100 does. X is exact as N + f, N an integer and
    |f| <= 1/2, from Dekker's product (1971). A candidate N + a reads back
    when |a - f| < H, half an ulp of x times 10**q, and the rounded a - f
    decides that exactly: X = m * 2H for an integer m and H = 5**q * 2**t,
    so a candidate is never H from X, and for t < 0 each distance is a
    multiple of 2**t, more than half an ulp of H from it. A power of two
    reads back from only H / 2 below it, but in this range its X is a
    multiple of 10 that is a multiple of 100 or 20 or more from one, and
    H < 12, so X itself is the only candidate within H. ok is clear where
    repr has to print x: outside [1.0000001e-6, 9.9e15], where 10**q is not
    an exact double, and where log10 misjudged q by a digit.
    """
    xs = x.clip(1.0000001e-6, 9.9e15)
    q = np.subtract(16, np.floor(np.log10(xs))).astype(np.intp)  # in [1, 22]
    ten_hi, ten_lo = _TEN_HI.take(q), _TEN_LO.take(q)
    hi = xs * _TEN.take(q)
    x_hi, x_lo = _split(xs)
    lo = ((x_hi * ten_hi - hi) + x_hi * ten_lo + x_lo * ten_hi) + x_lo * ten_lo
    H = (xs.view(np.int64) & 0x7FF0000000000000).view(np.float64) * _HALF_ULP.take(q)
    rl = np.rint(lo)
    f = lo - rl
    N = hi.astype(np.int64) + rl.astype(np.int64)
    # the nearest multiples of 10 and 100 to X are N + a1 and N + a2, a tie
    # between two multiples of 10 going to the even one, as repr's does; with
    # r1 an integer and |f| <= 1/2, the sign of r1 - 5 + f is exact; at r2 = 50
    # both a2 = +-50 are more than H (< 12) from f, so in2 is false either way
    r2 = N % 100
    r1 = _LAST_DIGIT.take(r2)
    s1 = (r1 - 5) + f
    a1 = ((s1 > 0) | (s1 == 0) & _ODD_TENS.take(r2)) * 10.0 - r1
    a2 = (r2 > 50) * 100.0 - r2
    in1, in2 = np.abs(a1 - f) < H, np.abs(a2 - f) < H  # in2 only where in1
    D = N + np.where(in2, a2, np.where(in1, a1, 0.0)).astype(np.int64)
    # a multiple of 100 that reads back is the only one, so its zeros all count
    n = 17 - in1
    short = np.flatnonzero(in2)
    if short.size:
        t = (D.take(short) // 100).astype(np.float64)[:, None] / _TEN[1:15]
        n[short] = 15 - (np.floor(t) == t).sum(axis=1)
    return D, q, n, (x == xs) & (D >= 10**16) & (D < 10**17)


def _id_words(words, v):
    """Two words for each node id v below 10^8, space-padded on the left."""
    hi, lo = np.divmod(v, 10**4)
    return words.take(np.stack([np.where(hi > 0, hi + _SPACED, _BLANK), lo + _SPACED * (hi == 0)], axis=1))


def _edge_rows(I, J, x):
    """The text of f"{i},{j},{x!r}\\n" for each edge, for node ids I and J
    below 10^8 and positive finite weights x.

    Each row is laid out in a uint8 matrix: the id words, a comma word each,
    and 24 bytes that the weight's layout gathers from its digit row; a mask
    of the non-space bytes compresses the matrix into the text. A weight
    that _shortest_digits leaves to repr gets repr's text."""
    words, layouts = _text_tables()
    D, q, n, ok = _shortest_digits(x)
    rows = x.size
    # D's digit words "000d", then 4 digits each, then _K0 and _K1
    digit_words = np.empty((rows, 7), np.intp)
    digit_words[:, 5:] = _K0, _K1
    top, bottom = np.divmod(D, 10**8)
    np.divmod(top, 10**4, out=(top, digit_words[:, 2]))
    np.divmod(top, 10**4, out=(digit_words[:, 0], digit_words[:, 1]))
    np.divmod(bottom, 10**4, out=(digit_words[:, 3], digit_words[:, 4]))
    source = words.take(digit_words).view(np.uint8)
    at = layouts.take((q - 1) * 17 + (n - 1), axis=0)
    at += np.arange(0, source.size, source.shape[1])[:, None]
    text = np.empty((rows, 48), np.uint8)
    text32 = text.view(np.uint32)
    text32[:, :2] = _id_words(words, I)
    text32[:, 3:5] = _id_words(words, J)
    text32[:, [2, 5]] = words[_COMMA]
    text[:, -24:] = source.ravel().take(at)
    redo = np.flatnonzero(~ok)
    if redo.size:
        text[redo, -24:] = np.frombuffer(
            "".join([f"{v!r}\n".ljust(24) for v in x[redo].tolist()]).encode(), np.uint8).reshape(-1, 24)
    return text[text != ord(" ")].tobytes().decode()


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
