import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mmgl import graph_model as gm

from conftest import assert_same_text
from oracles import objective_gradient


def enumerate_pairs(p):
    # Independent oracle: row-major upper-triangle enumeration.
    return list(itertools.combinations(range(p), 2))


# ---------------------------------------------------------------- edge index

def test_num_edges_refuses_a_non_integer_p():
    # p is a count: 10.5 once gave 49.0 edges
    for p in (10.5, 10.0, np.float64(4.0), True):
        with pytest.raises(ValueError, match="need an integer p"):
            gm.num_edges(p)
    for refuse in (gm.num_edges, gm.edge_pairs, lambda p: gm.degrees(np.ones(0), p)):
        with pytest.raises(ValueError, match=re.escape("need p >= 2, got 1")):
            refuse(1)
    assert gm.num_edges(np.int64(4)) == 6


def test_check_integers_least():
    # each count is first an integer, then at least `least`
    gm.check_integers(runs=1, seed=np.int64(0), least=0)
    with pytest.raises(ValueError, match=re.escape("need runs >= 1, got 0")):
        gm.check_integers(runs=np.int64(0), least=1)
    with pytest.raises(ValueError, match="need an integer runs"):
        gm.check_integers(runs=0.5, least=1)
    # a bool is an Integral to Python, but no count
    for flag in (True, False):
        with pytest.raises(ValueError, match=re.escape(f"need an integer runs, got {flag}")):
            gm.check_integers(runs=flag, least=0)
    with pytest.raises(ValueError, match=re.escape("need seed >= 0, got -1")):
        gm.check_integers(runs=3, seed=-1, least=0)


def test_edge_index_rejects_bad_pairs():
    with pytest.raises(ValueError):
        gm.edge_index(1, 1, 4)
    with pytest.raises(ValueError):
        gm.edge_index(2, 1, 4)
    with pytest.raises(ValueError):
        gm.edge_index(0, 4, 4)
    with pytest.raises(ValueError):
        gm.edge_index(-1, 2, 4)


@given(st.integers(min_value=2, max_value=50))
@example(4)
def test_edge_index_bijection(p):
    I, J = gm.edge_pairs(p)
    seen = set()
    for k, (i, j) in enumerate(enumerate_pairs(p)):
        idx = gm.edge_index(i, j, p)
        assert idx == k
        assert (I[k], J[k]) == (i, j)
        seen.add(idx)
    assert seen == set(range(gm.num_edges(p)))


# ----------------------------------------------------------------- distances

def test_pairwise_distances_matches_direct_sum():
    rng = np.random.default_rng(3)
    plain = rng.normal(size=(6, 9))
    # a common offset cancels almost all of |x_i|^2 + |x_j|^2 - 2 x_i.x_j
    offset = 1e6 + rng.normal(size=(6, 9))
    near_duplicate = rng.normal(size=(6, 9))
    near_duplicate[1] = near_duplicate[0] + 1e-9 * rng.normal(size=9)
    # every |x_i|^2 overflows float64 but no distance does: the Gram form
    # is inf - inf, and the direct sums give d without a warning
    huge = 1e155 * rng.normal(size=(1, 9)) + 1e140 * rng.normal(size=(6, 9))
    for X in (plain, offset, near_duplicate, huge):
        d = gm.pairwise_distances(X)
        assert np.all(d >= 0)
        for k, (i, j) in enumerate(enumerate_pairs(6)):
            assert d[k] == pytest.approx(np.sum((X[i] - X[j]) ** 2), rel=1e-12)


def test_pairwise_distances_rejects_bad_input():
    with pytest.raises(ValueError):
        gm.pairwise_distances(np.array([[1.0, np.nan], [0.0, 1.0]]))
    # a one-row X is refused by the shape rule, with the shape it was given
    with pytest.raises(ValueError, match=re.escape("with p >= 2, n >= 1, got shape (1, 2)")):
        gm.pairwise_distances(np.array([[1.0, 2.0]]))
    # a distance that overflows is refused by name, with no numpy warning
    for X in ([[1e200, 2e200], [3e200, 1e200], [5e200, 7e200]], [[1e308], [-1e308]]):
        with pytest.raises(ValueError, match="squared distances between signal rows overflow float64"):
            gm.pairwise_distances(np.array(X))


# ------------------------------------------------------------------- degrees

def test_degrees_rejects_length_mismatch():
    with pytest.raises(ValueError):
        gm.degrees(np.ones(5), 4)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_degree_handshake(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 40))
    w = rng.uniform(0.0, 5.0, gm.num_edges(p))
    w[rng.random(w.size) < 0.3] = 0.0
    deg = gm.degrees(w, p)
    # S w is W 1, the row sums of the symmetric zero-diagonal weight matrix
    np.testing.assert_allclose(deg, gm.weights_to_matrix(w, p) @ np.ones(p), rtol=1e-12)
    assert deg.sum() == pytest.approx(2.0 * w.sum(), rel=1e-12)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
def test_node_degrees_same_bits_in_every_per_node_ascending_order(p, seed):
    # Row-major, anti-diagonal (the MM working order) and column-major
    # orders all visit each node's edges in ascending edge order on both
    # endpoint sides, so the sequential sums must agree bit for bit.
    rng = np.random.default_rng(seed)
    m = gm.num_edges(p)
    w = 10.0 ** rng.uniform(-8, 3, m)
    w[rng.random(m) < 0.2] = 0.0
    live = np.flatnonzero(rng.random(m) < rng.uniform(0.1, 1.0))
    I, J = gm.edge_pairs(p)
    I, J, w = I[live], J[live], w[live]
    row_major = gm.node_degrees(w, I, J, p)
    for order in (np.argsort(I + J, kind="stable"), np.lexsort((I, J))):
        assert np.array_equal(gm.node_degrees(w[order], I[order], J[order], p), row_major)


# ----------------------------------------------------------------- objective

def test_objective_examples():
    prob = gm.ProblemInstance(p=2, d=np.array([0.0]), alpha=1.0, beta=1.0)
    assert gm.objective(np.array([1.0]), prob) == pytest.approx(1.0)
    assert gm.objective(np.array([0.0]), prob) == np.inf
    prob3 = gm.ProblemInstance(p=3, d=np.array([1.0, 2, 3]), alpha=1.0, beta=1.0)
    assert gm.objective(np.ones(3), prob3) == pytest.approx(15.0 - 3.0 * np.log(2.0))


PROB3 = gm.ProblemInstance(p=3, d=np.array([1.0, 2, 3]), alpha=1.0, beta=1.0)


@pytest.mark.parametrize("entry", [
    lambda w, tmp: gm.degrees(w, 3),
    lambda w, tmp: gm.weights_to_matrix(w, 3),
    lambda w, tmp: gm.objective(w, PROB3),
    lambda w, tmp: objective_gradient(w, PROB3),
    lambda w, tmp: gm.save_edges_csv(w, 3, tmp / "edges.csv"),
], ids=["degrees", "weights_to_matrix", "objective", "objective_gradient", "save_edges_csv"])
def test_public_kernels_reject_non_finite_weights(entry, tmp_path):
    for bad in (np.nan, np.inf, -np.inf, -1e-300):
        with pytest.raises(ValueError, match="finite"):
            entry(np.array([bad, 1.0, 1.0]), tmp_path)
    assert not (tmp_path / "edges.csv").exists()
    # -0.0 is a zero weight: accepted, and no edge of the edge list
    entry(np.array([-0.0, 1.0, 1.0]), tmp_path)
    if (tmp_path / "edges.csv").exists():
        assert (tmp_path / "edges.csv").read_text(encoding="utf-8") == "i,j,weight\n0,2,1.0\n1,2,1.0\n"


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_objective_convex_on_positive_orthant(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 10))
    m = gm.num_edges(p)
    prob = gm.ProblemInstance(p=p, d=rng.uniform(0, 4, m),
                              alpha=float(rng.uniform(0.1, 5)),
                              beta=float(rng.uniform(0.1, 5)))
    w1 = rng.uniform(0.05, 4.0, m)
    w2 = rng.uniform(0.05, 4.0, m)
    t = float(rng.uniform(0.01, 0.99))
    lhs = gm.objective(t * w1 + (1 - t) * w2, prob)
    rhs = t * gm.objective(w1, prob) + (1 - t) * gm.objective(w2, prob)
    assert lhs <= rhs + 1e-9


def test_objective_gradient_needs_positive_degrees():
    prob = gm.ProblemInstance(p=3, d=np.zeros(3), alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        objective_gradient(np.zeros(3), prob)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gradient_value_matches_the_oracle_gradient(seed):
    # the gradient kernel newton_solve runs, against the oracle's formula
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 12))
    m = gm.num_edges(p)
    prob = gm.ProblemInstance(p=p, d=rng.uniform(0, 4, m),
                              alpha=float(rng.uniform(0.1, 5)),
                              beta=float(rng.uniform(0.1, 5)))
    w = rng.uniform(0.05, 4.0, m)
    I, J = gm.edge_pairs(p)
    grad = gm.gradient_value(w, prob.d, gm.degrees(w, p), I, J, prob.alpha, prob.beta)
    np.testing.assert_array_equal(grad, objective_gradient(w, prob))


def test_edge_f1_scores_the_best_cut():
    # the cut between 0.5 and 1e-300 keeps both true edges, which a grid of
    # 60 geometric cuts over [1e-300, 1] misses (it read 0.8); no positive
    # weight scores 0; a cut cannot split a tie, so three tied edges are
    # kept together (1 of 3 kept is true: F1 2 / (3 + 1)), and so are two
    # below the top weight (2 of 3 kept are true: 4 / (3 + 2), not 1)
    assert gm.edge_f1(np.array([1.0, 0.9, 1e-300, 0.5]), np.array([1.0, 1.0, 0.0, 0.0])) == 1.0
    assert gm.edge_f1(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0])) == 0.0
    assert gm.edge_f1(np.ones(3), np.array([1.0, 0.0, 0.0])) == 0.5
    assert gm.edge_f1(np.array([3.0, 2.0, 2.0, 1.0]), np.array([1.0, 1.0, 0.0, 0.0])) == 0.8


# ------------------------------------------------------- matrix round trips

def test_weights_to_matrix_is_symmetric_zero_diagonal():
    rng = np.random.default_rng(0)
    w = rng.uniform(0, 2, gm.num_edges(6))
    W = gm.weights_to_matrix(w, 6)
    np.testing.assert_array_equal(W, W.T)
    np.testing.assert_array_equal(np.diag(W), np.zeros(6))
    np.testing.assert_array_equal(W[gm.edge_pairs(6)], w)


def test_problem_instance_validation():
    with pytest.raises(ValueError):
        gm.ProblemInstance(p=1, d=np.array([]), alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        gm.ProblemInstance(p=2, d=np.array([0.0]), alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        gm.ProblemInstance(p=2, d=np.array([0.0]), alpha=1.0, beta=-1.0)
    with pytest.raises(ValueError):
        gm.ProblemInstance(p=2, d=np.array([0.0]), alpha=np.inf, beta=1.0)
    with pytest.raises(ValueError):
        gm.ProblemInstance(p=2, d=np.array([0.0]), alpha=1.0, beta=np.inf)
    with pytest.raises(ValueError):
        gm.ProblemInstance(p=2, d=np.array([0.0, 1.0]), alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        gm.ProblemInstance(p=2, d=np.array([-1.0]), alpha=1.0, beta=1.0)
    # alpha and beta are real numbers: a bool or a string is refused by name
    for value in (True, False, "1", None):
        with pytest.raises(ValueError, match="need finite alpha > 0"):
            gm.ProblemInstance(p=2, d=np.array([0.0]), alpha=value, beta=1.0)
        with pytest.raises(ValueError, match="need finite beta > 0"):
            gm.ProblemInstance(p=2, d=np.array([0.0]), alpha=1.0, beta=value)


# ------------------------------------------------------------------ file I/O

def test_csv_header_is_the_first_non_blank_line(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("\n  \na,b\n1.0,2.0\n\n3.0,4.0\n", encoding="utf-8")
    np.testing.assert_array_equal(gm.load_signals_csv(path, skip_header=True), [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match=r"x\.csv:3: non-numeric entry"):
        gm.load_signals_csv(path)
    path = tmp_path / "edges.csv"
    path.write_text("\ni,j,weight\n0,1,1.5\n0,2,0\n1,2,0.5\n", encoding="utf-8")  # an explicit 0 loads
    w, p = gm.load_edges_csv(path)
    assert p == 3
    np.testing.assert_array_equal(w, [1.5, 0.0, 0.5])
    # only the first non-blank line may be a header
    path.write_text("\n0,1,1.5\ni,j,weight\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"edges\.csv:3: malformed edge row"):
        gm.load_edges_csv(path)
    # a UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write it,
    # is not part of the first line: the files read as they do without it
    path.write_bytes(b"\xef\xbb\xbfi,j,weight\n0,1,1.5\n1,2,0.5\n")
    np.testing.assert_array_equal(gm.load_edges_csv(path)[0], [1.5, 0.0, 0.5])
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n5.0,7.0\n")
    np.testing.assert_array_equal(gm.load_signals_csv(path), [[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])


def test_signals_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"x\.csv:2"):
        gm.load_signals_csv(path)
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"1.0,2.0\n3.0,{bad}\n4.0,5.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"x\.csv:2: non-finite entry"):
            gm.load_signals_csv(path)
    # float() reads digit-group underscores and non-ASCII digits; a CSV number has neither
    for rows, line in [("1_0,2.0,3.0\n4.0,5.0,6.0\n", 1), ("4.0,5.0,6.0\n7.0,8.0,9_0\n", 2),
                       ("4.0,5.0,6.0\n\u0661\u0662,8.0,9.0\n", 2)]:
        path.write_text(rows, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"x\.csv:{line}: non-numeric entry"):
            gm.load_signals_csv(path)
    # an error of the whole file names the file alone
    path.write_text("1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: need at least 2 node rows, found 1")):
        gm.load_signals_csv(path)


def test_edges_csv_round_trip(tmp_path):
    w = np.array([0.0, 1.5, 0.0, 2.5, 0.0, 0.75])
    path = tmp_path / "edges.csv"
    gm.save_edges_csv(w, 4, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "i,j,weight"
    assert len(lines) == 1 + 3  # only strictly positive weights emitted
    w2, p2 = gm.load_edges_csv(path, p=4)
    assert p2 == 4
    np.testing.assert_array_equal(w2, w)

    # each row is f"{i},{j},{float(w)!r}", so the file round-trips exactly
    w = np.array([1e-05, 0.0, 5e-324, 1e16, 1 / 3, 1.0])
    gm.save_edges_csv(w, 4, path)
    assert path.read_text(encoding="utf-8").splitlines() == [
        "i,j,weight", "0,1,1e-05", "0,3,5e-324", "1,2,1e+16", "1,3,0.3333333333333333", "2,3,1.0"]
    np.testing.assert_array_equal(gm.load_edges_csv(path, p=4)[0], w)

    # an all-zero w writes the header alone, which reads back at a given p
    gm.save_edges_csv(np.zeros(6), 4, path)
    assert path.read_text(encoding="utf-8") == "i,j,weight\n"
    w2, p2 = gm.load_edges_csv(path, p=4)
    assert p2 == 4
    np.testing.assert_array_equal(w2, np.zeros(6))

    with pytest.raises(ValueError):
        gm.save_edges_csv(np.ones(3), 4, path)  # m = 6 for p = 4
    with pytest.raises(ValueError):
        gm.save_edges_csv(np.array([1.0, -2.0, 0.0, 1.0, 0.0, 1.0]), 4, path)


def test_edges_csv_block_boundary(tmp_path):
    # p = 300 has 44,850 edges, more than one edge block
    p = 300
    assert gm.num_edges(p) > gm._EDGE_BLOCK
    w = np.random.default_rng(4).uniform(0.5, 2.0, gm.num_edges(p))
    path = tmp_path / "edges.csv"
    for zeros in (None, slice(gm._EDGE_BLOCK - 2, gm._EDGE_BLOCK + 3)):
        if zeros is not None:
            w[zeros] = 0.0  # dead edges on both sides of the block boundary
        gm.save_edges_csv(w, p, path)
        rows = [f"{i},{j},{x!r}\n" for (i, j), x in zip(enumerate_pairs(p), w.tolist()) if x > 0]
        assert_same_text(path.read_text(encoding="utf-8"), "i,j,weight\n" + "".join(rows))
        w2, p2 = gm.load_edges_csv(path, p=p)
        assert p2 == p
        np.testing.assert_array_equal(w2, w)


def test_edge_rows_give_repr_bytes():
    # _edge_rows writes f"{i},{j},{x!r}\n" byte for byte, from numpy for the
    # weights that _shortest_digits certifies and from repr for the rest
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 1 << 63, 1_000_000, dtype=np.int64).view(np.float64)  # every exponent
    powers = np.array([2.0**k for k in range(-1074, 1024)] + [10.0**k for k in range(-323, 309)])
    digits = [float(f"{m}e{e}") for n in range(1, 18) for m, e in zip(
        rng.integers(10 ** (n - 1), 10**n, 3000).tolist(), rng.integers(-11 - n, 18 - n, 3000).tolist())]
    x = np.concatenate([
        bits[np.isfinite(bits) & (bits > 0)],
        [5e-324, 2.2250738585072014e-308, 1e-05, 9.999999999999999e-05, 0.0001, 1e16, 9999999999999998.0],
        # X ends in exactly 50, just below (60608355976378049.945) and above
        # (45739669023621750.278): neither multiple of 100 reads back
        [606.0835597637805, 4.573966902362175e-05],
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        np.arange(1.0, 10**5), rng.integers(1, 2**53, 10**5, endpoint=True).astype(float), [2.0**53 - 1],
        digits, 10 ** rng.uniform(-7, 17, 10**5)])
    x = x[(x > 0) & (x < np.inf)]  # nextafter steps past both ends
    assert x.size > 10**6
    for b, s in enumerate(range(0, x.size, gm._EDGE_BLOCK)):
        w = x[s:s + gm._EDGE_BLOCK]
        # node ids of 1 to 4 digits or, every third block, 1 to 8; a block's
        # largest id is 9999 (one word each), 10000 (just two words each) or
        # the largest below 10^8
        top = (9999, 10**4, 10**8 - 1)[b % 3]
        width = rng.integers(1, (5, 5, 9)[b % 3], (2, w.size))
        I, J = rng.integers(10 ** (width - 1) - (width == 1), 10**width)
        I[:3], J[:3] = (9999, min(top, 10**4), top), (0, top, 9999)
        assert_same_text(gm._edge_rows(I, J, w), "".join(
            [f"{i},{j},{v!r}\n" for i, j, v in zip(I.tolist(), J.tolist(), w.tolist())]), s)
    # numpy certifies every weight of its working range, powers of two too
    w = np.concatenate([10 ** rng.uniform(-5.9, 15.9, 10**5), 2.0 ** np.arange(-19, 54)])
    assert gm._shortest_digits(w)[3].all()


def test_signals_csv_reader_peak_memory(tmp_path, traced_peak):
    # one float64 array per row, then one stack: about twice the matrix
    X = np.random.default_rng(5).standard_normal((100, 2000))
    path = tmp_path / "x.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in X.tolist()),
                    encoding="utf-8")
    out = []
    peak = traced_peak(lambda: out.append(gm.load_signals_csv(path)))
    np.testing.assert_array_equal(out[0], X)
    assert peak <= 3 * X.nbytes


def test_edges_csv_writer_peak_memory_grows_with_block_not_file(tmp_path, traced_peak):
    # 4x the edges at p = 600; the writer's peak is one block of rows
    peaks = {}
    for p in (300, 600):
        w = np.random.default_rng(6).uniform(0.5, 2.0, gm.num_edges(p))
        gm.edge_pairs(p)  # cached endpoint arrays are not the writer's
        peaks[p] = traced_peak(lambda: gm.save_edges_csv(w, p, tmp_path / "edges.csv"))
    assert peaks[600] <= 1.5 * peaks[300]


def test_edges_csv_writer_peak_memory_per_row(tmp_path, traced_peak):
    # one 4950-row block (p = 100) of weights in [1e-4, 1): the template and
    # keep-mask rows peak at about 190 B a row, where a per-row offset
    # gather peaked at about 470; the bound leaves a 30% margin
    w = np.random.default_rng(6).uniform(1e-4, 1, gm.num_edges(100))
    gm.edge_pairs(100), gm._text_tables()  # cached tables are not the writer's
    assert traced_peak(lambda: gm.save_edges_csv(w, 100, tmp_path / "edges.csv")) <= 250 * w.size


def test_edges_csv_rejects_duplicates_and_bad_rows(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("i,j,weight\n0,1,1.0\n0,1,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        gm.load_edges_csv(path)
    path.write_text("1,0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"edges\.csv:1"):
        gm.load_edges_csv(path)
    # each message names the file, and the line where the error has one
    for text, p, message in [
        ("i,j,weight\n0,1,1.0\n1,two,1.0\n", None, ":3: malformed edge row"),
        ("0,1,1.0\n1,2,heavy\n", None, ":2: malformed edge row"),
        ("0,1_0,1.0\n", None, ":1: malformed edge row"),
        ("0,1,1.0\n0,\u0662,1.0\n", None, ":2: malformed edge row"),
        ("i,j,weight\n0,1,1.0\n0,0,1.0\n", None, ":3: invalid edge (0,0) weight 1.0"),
        ("0,1,1.0\n1,2,-0.5\n", None, ":2: invalid edge (1,2) weight -0.5"),
        ("i,j,weight\n", None, ": no edges found"),
        ("i,j,weight\n0,1,1.0\n2,5,1.0\n", 5, ": node id 5 out of range for p=5"),
    ]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            gm.load_edges_csv(path, p=p)
