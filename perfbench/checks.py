"""Output checks made apart from mmgl.

Every check here reads what the program wrote to disk and tests it against
the benchmark's own arithmetic (distances, objective, gradient, an
independent L-BFGS-B optimum) or against properties the method must have
(monotone descent, zero lock, positive degrees, the stopping rule). A
check that fails raises CheckFailure; a malformed or missing file raises
ValueError or OSError. The caller turns any of these into a failed
operation.
"""

import statistics

import numpy as np


class CheckFailure(Exception):
    """An output that exists and parses but is wrong."""


def require(condition, message):
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------- readers


def read_edges(path, p):
    """Parse an `i,j,weight` edge list into (k, w): condensed edge ids in
    the row-major upper triangle and their weights. Rows must be strictly
    increasing in (i, j) with 0 <= i < j < p and finite positive weights."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline()
        require(header == "i,j,weight\n", f"{path}: bad header {header!r}")
        body = fh.read()
    if not body:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    require(body.endswith("\n"), f"{path}: last row not terminated")
    cells = body[:-1].replace("\n", ",").split(",")
    require(len(cells) % 3 == 0, f"{path}: rows must have 3 columns")
    i = np.array(cells[0::3], dtype=np.int64)
    j = np.array(cells[1::3], dtype=np.int64)
    w = np.array(cells[2::3], dtype=float)
    require(np.all((0 <= i) & (i < j) & (j < p)), f"{path}: edge endpoint out of range")
    require(np.all(np.isfinite(w) & (w > 0)), f"{path}: weights must be finite and positive")
    k = i * p - i * (i + 1) // 2 + (j - i - 1)
    require(np.all(np.diff(k) > 0), f"{path}: rows not in strictly increasing edge order")
    return k, w


def read_trace(path):
    """Parse `iter,f,active_count` rows into (iters, f, active)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline()
        require(header == "iter,f,active_count\n", f"{path}: bad header {header!r}")
        rows = [line.split(",") for line in fh.read().splitlines()]
    require(rows and all(len(r) == 3 for r in rows), f"{path}: rows must have 3 columns")
    iters = np.array([int(r[0]) for r in rows])
    f = np.array([float(r[1]) for r in rows])
    active = np.array([int(r[2]) for r in rows])
    return iters, f, active


def read_summary(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    require(len(lines) == 2, f"{path}: expected a header and one row")
    keys = lines[0].split(",")
    values = lines[1].split(",")
    require(len(keys) == len(values), f"{path}: header and row differ in length")
    return dict(zip(keys, values))


def read_signals(path):
    """Parse a p x n signals CSV, one node per row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    n = lines[0].count(",") + 1
    X = np.array(",".join(lines).split(","), dtype=float)
    require(X.size == len(lines) * n, f"{path}: ragged rows")
    return X.reshape(len(lines), n)


# ---------------------------------------------------------- own arithmetic


def sq_distances(X):
    """Condensed squared distances ||x_i - x_j||^2 in Gram form, and the
    per-pair scale |x_i|^2 + |x_j|^2 that bounds its rounding error."""
    X = np.asarray(X, dtype=float)
    sq = np.einsum("ij,ij->i", X, X)
    G = X @ X.T
    I, J = np.triu_indices(X.shape[0], k=1)
    scale = sq[I] + sq[J]
    return np.maximum(scale - 2.0 * G[I, J], 0.0), scale


def node_degrees(w, I, J, p):
    return np.bincount(I, weights=w, minlength=p) + np.bincount(J, weights=w, minlength=p)


def objective_terms(w, d, I, J, p, alpha, beta):
    """The three terms of f(w) = 2 w.d - alpha sum log deg + beta |w|^2."""
    deg = node_degrees(w, I, J, p)
    require(np.all(deg > 0), "a node has zero degree (log-barrier violated)")
    return 2.0 * (w @ d), -alpha * np.sum(np.log(deg)), beta * (w @ w)


def lbfgs_reference(d, p, alpha, beta):
    """Minimize f over w >= 1e-12 with scipy's L-BFGS-B from the all-ones
    start, using this module's own f and gradient."""
    from scipy.optimize import Bounds, minimize

    I, J = np.triu_indices(p, k=1)

    def fun(w):
        deg = node_degrees(w, I, J, p)
        inv = 1.0 / deg
        f = 2.0 * (w @ d) - alpha * np.sum(np.log(deg)) + beta * (w @ w)
        return f, 2.0 * d + 2.0 * beta * w - alpha * (inv[I] + inv[J])

    res = minimize(fun, np.ones(d.size), jac=True, method="L-BFGS-B",
                   bounds=Bounds(1e-12, np.inf),
                   options={"maxiter": 50000, "maxfun": 100000, "ftol": 1e-16,
                            "gtol": 1e-9, "maxcor": 20})
    return float(res.fun)


def best_f1(w, truth):
    """Best F1 over all thresholds on the learned weights, against the
    ground-truth edge set (boolean, condensed order)."""
    positives = int(np.count_nonzero(truth))
    live = w > 0
    order = np.argsort(-w[live], kind="stable")
    ws = w[live][order]
    hits = np.cumsum(truth[live][order])
    # A threshold can only fall between distinct weight values.
    cut = np.flatnonzero(np.append(ws[1:] != ws[:-1], True))
    if cut.size == 0 or positives == 0:
        return 0.0
    tp = hits[cut]
    return float(np.max(2.0 * tp / (cut + 1 + positives)))


# ------------------------------------------------------------ the checks


def stop_test(f_prev, f_new, epsilon):
    """The paper's relative-objective rule, with the absolute fallback at
    f_prev == 0."""
    if f_prev == 0.0:
        return abs(f_new - f_prev) <= epsilon
    return abs((f_prev - f_new) / f_prev) <= epsilon


def check_trace(iters, f, active, m, epsilon):
    """Monotone descent, zero lock and the stopping rule. Returns the
    iteration count."""
    require(np.array_equal(iters, np.arange(iters.size)), "trace iterations not 0..K")
    require(iters.size >= 2, "trace has no iteration")
    require(np.all(np.isfinite(f)), "trace holds a non-finite f")
    require(active[0] == m, f"trace starts with {active[0]} live edges, expected {m}")
    rises = f[1:] - f[:-1] > 1e-12 * np.abs(f[:-1])
    require(not rises.any(), f"f rises at iteration {int(np.argmax(rises)) + 1}")
    require(np.all(np.diff(active) <= 0), "active_count rises (zero lock broken)")
    met = [stop_test(f[k - 1], f[k], epsilon) for k in range(1, f.size)]
    require(met[-1], "last step does not meet the stopping rule")
    require(not any(met[:-1]), "an earlier step already met the stopping rule")
    return int(iters[-1])


def check_signal_model(X, sigma):
    """Node sums of the columns remove the graph part (the constant vector
    spans the Laplacian's null space), so they are N(0, p sigma^2): their
    mean square, times n / (p sigma^2), is chi-square with n degrees of
    freedom. The band holds all but 2e-9 of that law."""
    from scipy.stats import chi2

    p, n = X.shape
    s = X.sum(axis=0)
    stat = float(s @ s) / (p * sigma * sigma)
    lo, hi = chi2.ppf(1e-9, n), chi2.isf(1e-9, n)
    require(lo <= stat <= hi, f"node-sum chi-square {stat:.1f} outside [{lo:.1f}, {hi:.1f}]")


def check_distances(d_own, scale, d_program):
    """The program's distances against the benchmark's Gram form."""
    err = np.abs(np.asarray(d_program) - d_own)
    require(np.all(err <= 1e-10 * scale + 1e-300),
            f"distances differ by up to {float(np.max(err / np.maximum(scale, 1e-300))):.2e} relative")


def check_instance(edges_path, trace_path, X, d_program, alpha, beta, epsilon, truth,
                   retired_tol=None, gap=None):
    """All per-instance checks. Returns (iterations, edge F1, reference gap
    or None)."""
    p = X.shape[0]
    m = p * (p - 1) // 2
    d, scale = sq_distances(X)
    check_distances(d, scale, d_program)
    k, wk = read_edges(edges_path, p)
    iters, f, active = read_trace(trace_path)
    n_iters = check_trace(iters, f, active, m, epsilon)
    require(active[-1] == k.size,
            f"trace ends with {active[-1]} live edges, edge file has {k.size}")
    w = np.zeros(m)
    w[k] = wk
    I, J = np.triu_indices(p, k=1)
    terms = objective_terms(w, d, I, J, p, alpha, beta)
    f_own = sum(terms)
    tol = 1e-12 * sum(abs(t) for t in terms)
    require(abs(f_own - f[-1]) <= tol,
            f"f from the edge file {f_own!r} differs from the trace's {f[-1]!r}")
    if retired_tol is not None:
        inv = 1.0 / node_degrees(w, I, J, p)
        pull = alpha * (inv[I] + inv[J])
        retired = w == 0
        slack = (2.0 * d[retired] - pull[retired]) / pull[retired]
        require(slack.size == 0 or slack.min() >= -retired_tol,
                f"a retired edge violates the first-order condition (slack {slack.min():.3e})")
    rel_gap = None
    if gap is not None:
        f_ref = lbfgs_reference(d, p, alpha, beta)
        rel_gap = (f[-1] - f_ref) / abs(f_ref)
        require(rel_gap >= -1e-10, f"MM f {f[-1]!r} is below the L-BFGS-B optimum {f_ref!r}")
        require(rel_gap <= gap, f"MM f is {rel_gap:.3e} above the L-BFGS-B optimum (allowed {gap:.1e})")
    return n_iters, best_f1(w, truth), rel_gap


def check_summary(path, iteration_counts, runs):
    """summary.csv against the traces: every run converged, and the
    counts, mean and median agree."""
    s = read_summary(path)
    require(s.get("runs") == str(runs), f"summary runs {s.get('runs')!r}, expected {runs}")
    require(s.get("converged_runs") == str(runs), "summary counts an unconverged run")
    require(float(s["convergence_rate"]) == 1.0, "summary convergence rate is not 1")
    mean = statistics.fmean(iteration_counts)
    require(abs(float(s["mean_iterations"]) - mean) <= 1e-12 * mean,
            f"summary mean iterations {s['mean_iterations']}, traces give {mean}")
    require(float(s["median_iterations"]) == statistics.median(iteration_counts),
            "summary median iterations disagree with the traces")
