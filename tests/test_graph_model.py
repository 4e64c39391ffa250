import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmgl import graph_model as gm


def enumerate_pairs(p):
    # Independent oracle: row-major upper-triangle enumeration.
    return list(itertools.combinations(range(p), 2))


# ---------------------------------------------------------------- edge index

def test_edge_index_examples():
    assert gm.edge_index(0, 1, 4) == 0
    assert gm.edge_index(2, 3, 4) == 5
    # derived by enumerating all pairs of p=4 in row-major order
    assert enumerate_pairs(4).index((1, 2)) == 3
    assert gm.edge_index(1, 2, 4) == 3


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
def test_edge_index_bijection(p):
    I, J = gm.edge_pairs(p)
    seen = set()
    for k, (i, j) in enumerate(enumerate_pairs(p)):
        idx = gm.edge_index(i, j, p)
        assert idx == k
        assert (I[k], J[k]) == (i, j)
        seen.add(idx)
    assert seen == set(range(gm.num_edges(p)))


def test_edge_pairs_matches_closed_form():
    I, J = gm.edge_pairs(7)
    for k in range(gm.num_edges(7)):
        assert gm.edge_index(int(I[k]), int(J[k]), 7) == k
    with pytest.raises(ValueError):
        gm.edge_pairs(1)
    with pytest.raises(ValueError):
        gm.degrees(np.ones(0), 1)


# ----------------------------------------------------------------- distances

def test_pairwise_distances_examples():
    np.testing.assert_allclose(gm.pairwise_distances(np.array([[1.0, 0.0], [0.0, 1.0]])), [2.0])
    X = np.tile(np.array([3.0, -1.0, 2.0]), (4, 1))
    np.testing.assert_array_equal(gm.pairwise_distances(X), np.zeros(6))
    np.testing.assert_allclose(gm.pairwise_distances(np.array([[0.0], [1.0], [3.0]])), [1.0, 9.0, 4.0])


def test_pairwise_distances_matches_direct_sum():
    rng = np.random.default_rng(3)
    plain = rng.normal(size=(6, 9))
    # a common offset cancels almost all of |x_i|^2 + |x_j|^2 - 2 x_i.x_j
    offset = 1e6 + rng.normal(size=(6, 9))
    near_duplicate = rng.normal(size=(6, 9))
    near_duplicate[1] = near_duplicate[0] + 1e-9 * rng.normal(size=9)
    for X in (plain, offset, near_duplicate):
        d = gm.pairwise_distances(X)
        assert np.all(d >= 0)
        for k, (i, j) in enumerate(enumerate_pairs(6)):
            assert d[k] == pytest.approx(np.sum((X[i] - X[j]) ** 2), rel=1e-12)


def test_pairwise_distances_rejects_bad_input():
    with pytest.raises(ValueError):
        gm.pairwise_distances(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        gm.pairwise_distances(np.array([[1.0, 2.0]]))


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pairwise_distances_permutation_consistency(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 9))
    X = rng.normal(size=(p, 4))
    perm = rng.permutation(p)
    d = gm.pairwise_distances(X)
    d_perm = gm.pairwise_distances(X[perm])
    for i, j in enumerate_pairs(p):
        a, b = sorted((int(perm[i]), int(perm[j])))
        assert d_perm[gm.edge_index(i, j, p)] == pytest.approx(
            d[gm.edge_index(a, b, p)], rel=1e-12, abs=1e-15)


# ------------------------------------------------------------------- degrees

def test_degrees_examples():
    np.testing.assert_allclose(gm.degrees(np.array([1.0, 1, 1]), 3), [2, 2, 2])
    np.testing.assert_allclose(gm.degrees(np.array([1.0, 0, 0]), 3), [1, 1, 0])
    # derived: reconstruct the symmetric W and multiply by the ones vector
    w = np.array([1.0, 2, 3, 4, 5, 6])
    expected = gm.weights_to_matrix(w, 4) @ np.ones(4)
    np.testing.assert_allclose(expected, [6, 10, 12, 14])
    np.testing.assert_allclose(gm.degrees(w, 4), [6, 10, 12, 14])


def test_degrees_rejects_length_mismatch():
    with pytest.raises(ValueError):
        gm.degrees(np.ones(5), 4)


def test_degree_operator_single_edge_touches_two_nodes():
    m = gm.num_edges(6)
    I, J = gm.edge_pairs(6)
    for k in range(m):
        e = np.zeros(m)
        e[k] = 1.0
        deg = gm.degrees(e, 6)
        i, j = I[k], J[k]
        assert deg[i] == 1.0 and deg[j] == 1.0
        assert np.count_nonzero(deg) == 2


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_degree_handshake(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 40))
    w = rng.uniform(0.0, 5.0, gm.num_edges(p))
    deg = gm.degrees(w, p)
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


def test_objective_rejects_negative_weights():
    prob = gm.ProblemInstance(p=2, d=np.array([0.0]), alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        gm.objective(np.array([-0.1]), prob)


PROB3 = gm.ProblemInstance(p=3, d=np.array([1.0, 2, 3]), alpha=1.0, beta=1.0)


@pytest.mark.parametrize("entry", [
    lambda w, tmp: gm.degrees(w, 3),
    lambda w, tmp: gm.weights_to_matrix(w, 3),
    lambda w, tmp: gm.objective(w, PROB3),
    lambda w, tmp: gm.objective_gradient(w, PROB3),
    lambda w, tmp: gm.save_edges_csv(w, 3, tmp / "edges.csv"),
], ids=["degrees", "weights_to_matrix", "objective", "objective_gradient", "save_edges_csv"])
def test_public_kernels_reject_non_finite_weights(entry, tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            entry(np.array([bad, 1.0, 1.0]), tmp_path)
    assert not (tmp_path / "edges.csv").exists()


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


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    prob = gm.ProblemInstance(p=5, d=rng.uniform(0, 3, 10), alpha=1.3, beta=0.7)
    w = rng.uniform(0.5, 2.0, 10)
    grad = gm.objective_gradient(w, prob)
    for j in range(10):
        h = 1e-6 * max(1.0, abs(w[j]))
        e = np.zeros(10)
        e[j] = h
        fd = (gm.objective(w + e, prob) - gm.objective(w - e, prob)) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-5)


def test_objective_gradient_needs_positive_degrees():
    prob = gm.ProblemInstance(p=3, d=np.zeros(3), alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        gm.objective_gradient(np.zeros(3), prob)


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


# ------------------------------------------------------------------ file I/O

def test_signals_csv_round_trip(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.0,2.0\n3.5,-1.25\n", encoding="utf-8")
    X = gm.load_signals_csv(path)
    np.testing.assert_array_equal(X, [[1.0, 2.0], [3.5, -1.25]])


def test_signals_csv_header_flag(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"x\.csv:1"):
        gm.load_signals_csv(path)
    X = gm.load_signals_csv(path, skip_header=True)
    assert X.shape == (2, 2)


def test_signals_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"x\.csv:2"):
        gm.load_signals_csv(path)
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"1.0,2.0\n3.0,{bad}\n4.0,5.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"x\.csv:2: non-finite entry"):
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

    with pytest.raises(ValueError):
        gm.save_edges_csv(np.ones(3), 4, path)  # m = 6 for p = 4
    with pytest.raises(ValueError):
        gm.save_edges_csv(np.array([1.0, -2.0, 0.0, 1.0, 0.0, 1.0]), 4, path)


def test_edges_csv_block_boundary(tmp_path):
    # p = 300 has 44,850 edges, more than one write block
    p = 300
    assert gm.num_edges(p) > gm._WRITE_BLOCK
    w = np.random.default_rng(4).uniform(0.5, 2.0, gm.num_edges(p))
    path = tmp_path / "edges.csv"
    for zeros in (None, slice(gm._WRITE_BLOCK - 2, gm._WRITE_BLOCK + 3)):
        if zeros is not None:
            w[zeros] = 0.0  # dead edges on both sides of the block boundary
        gm.save_edges_csv(w, p, path)
        rows = [f"{i},{j},{x!r}\n" for (i, j), x in zip(enumerate_pairs(p), w.tolist()) if x > 0]
        assert path.read_text(encoding="utf-8") == "i,j,weight\n" + "".join(rows)
        w2, p2 = gm.load_edges_csv(path, p=p)
        assert p2 == p
        np.testing.assert_array_equal(w2, w)


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


def test_edges_csv_rejects_duplicates_and_bad_rows(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("i,j,weight\n0,1,1.0\n0,1,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        gm.load_edges_csv(path)
    path.write_text("1,0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"edges\.csv:1"):
        gm.load_edges_csv(path)
