import dataclasses
import hashlib
import re

import numpy as np
import pytest

from mmgl import data_gen as dg
from mmgl import graph_model as gm

from conftest import pin_note
from oracles import laplacian_pinv


# ---------------------------------------------------------------- generators

def test_gen_er_rejects_bad_arguments():
    # each message names the argument refused
    with pytest.raises(ValueError, match=re.escape("need prob_edge in [0, 1], got 1.5")):
        dg.gen_er(10, 1.5, 0)
    with pytest.raises(ValueError, match=re.escape("need prob_edge in [0, 1], got -0.1")):
        dg.gen_er(10, -0.1, 0)
    # gen_er has no p check of its own: num_edges refuses p < 2 before any draw
    with pytest.raises(ValueError, match=re.escape("need p >= 2, got 1")):
        dg.gen_er(1, 0.1, 0)
    # a bool or a string is no probability
    for prob_edge in (True, False, "0.5", None):
        with pytest.raises(ValueError, match="need prob_edge in"):
            dg.gen_er(10, prob_edge, 0)


@pytest.mark.parametrize("p", [2, 7, 100])
@pytest.mark.parametrize("q", [0.0, 0.1, 1.0])
def test_gen_er_draws_match_their_formula(p, q):
    # ER bits are one uniform draw per edge, compared with q; a change to
    # gen_sbm's draw that moves every ER bundle is named here
    for seed in (0, 1, 17):
        expected = (np.random.default_rng(seed).random(gm.num_edges(p)) < q).astype(float)
        np.testing.assert_array_equal(dg.gen_er(p, q, seed).w_true, expected)


def test_gen_sbm_blocks():
    g = dg.gen_sbm(10, 1.0, 0.0, 3)
    W = gm.weights_to_matrix(g.w_true, 10)
    # two disjoint 5-cliques
    assert np.all(W[:5, :5] + np.eye(5) == 1.0)
    assert np.all(W[5:, 5:] + np.eye(5) == 1.0)
    assert np.all(W[:5, 5:] == 0.0)


def test_gen_sbm_equal_probabilities_matches_er():
    # gen_er is the SBM with p_in == p_out, which draws as ER does
    g_sbm = dg.gen_sbm(40, 0.2, 0.2, 9)
    g_er = dg.gen_er(40, 0.2, 9)
    np.testing.assert_array_equal(g_sbm.w_true, g_er.w_true)


def test_gen_sbm_edge_counts_within_binomial_bounds():
    p, p_in, p_out = 200, 0.3, 0.05
    block = np.arange(p) >= p // 2
    I, J = gm.edge_pairs(p)
    same = block[I] == block[J]
    m_in, m_out = int(same.sum()), int((~same).sum())
    assert m_in == 2 * (100 * 99 // 2) and m_out == 100 * 100
    sigma_in = np.sqrt(m_in * p_in * (1 - p_in))
    sigma_out = np.sqrt(m_out * p_out * (1 - p_out))
    for seed in range(3):
        w = dg.gen_sbm(p, p_in, p_out, seed).w_true
        assert abs(w[same].sum() - m_in * p_in) <= 4 * sigma_in
        assert abs(w[~same].sum() - m_out * p_out) <= 4 * sigma_out


def test_gen_sbm_rejects_bad_arguments():
    with pytest.raises(ValueError, match=re.escape("need p_in in [0, 1], got 1.2")):
        dg.gen_sbm(10, 1.2, 0.1, 0)
    with pytest.raises(ValueError, match=re.escape("need p_out in [0, 1], got nan")):
        dg.gen_sbm(10, 0.5, float("nan"), 0)
    with pytest.raises(ValueError, match=re.escape("need p_in in [0, 1], got True")):
        dg.gen_sbm(10, True, 0.1, 0)
    with pytest.raises(ValueError, match=re.escape("need p_out in [0, 1], got False")):
        dg.gen_sbm(10, 0.5, False, 0)


def test_ground_truth_keeps_a_private_read_only_copy():
    # signal_root is computed once per graph, so the weights it comes from
    # must not change under it
    w_orig = dg.gen_er(20, 0.3, 4).w_true
    w = w_orig.copy()
    g = dg.GroundTruthGraph(p=20, w_true=w)
    w[:] = 1.0
    np.testing.assert_array_equal(g.w_true, w_orig)
    model = dg.SignalModel(0.1, 30)
    X = dg.gen_signals(g, model, 5)
    w[:] = 0.0
    np.testing.assert_array_equal(dg.gen_signals(g, model, 5), X)
    np.testing.assert_array_equal(X, dg.gen_signals(dg.GroundTruthGraph(p=20, w_true=w_orig), model, 5))
    for frozen in (g.w_true, g.signal_root):
        with pytest.raises(ValueError):
            frozen[0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.w_true = np.zeros_like(w)


# ------------------------------------------------------------------ laplacian

def squared_signal_root(g):
    """The package's L_pinv, the square of g.signal_root, checked against
    the oracle's SVD pseudo-inverse."""
    Lp = g.signal_root @ g.signal_root
    np.testing.assert_allclose(Lp, laplacian_pinv(g), rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(Lp)))
    return Lp


def test_laplacian_pinv_empty_graph():
    g = dg.GroundTruthGraph(p=4, w_true=np.zeros(6))
    np.testing.assert_array_equal(dg.laplacian(g), np.zeros((4, 4)))
    np.testing.assert_array_equal(laplacian_pinv(g), np.zeros((4, 4)))
    np.testing.assert_array_equal(squared_signal_root(g), np.zeros((4, 4)))


def test_laplacian_pinv_p2_unit_edge():
    g = dg.GroundTruthGraph(p=2, w_true=np.array([1.0]))
    L = dg.laplacian(g)
    np.testing.assert_array_equal(L, [[1, -1], [-1, 1]])
    # rank-1 spectral formula: eigenvalue 2 with eigenvector (1,-1)/sqrt(2)
    for Lp in (laplacian_pinv(g), squared_signal_root(g)):
        np.testing.assert_allclose(Lp, 0.25 * np.array([[1, -1], [-1, 1]]), atol=1e-14)


def test_laplacian_pinv_penrose_identities():
    g = dg.gen_er(25, 0.2, 17)
    L = dg.laplacian(g)
    scale = np.linalg.norm(L)
    for Lp in (laplacian_pinv(g), squared_signal_root(g)):
        assert np.linalg.norm(L @ Lp @ L - L) <= 1e-8 * scale
        assert np.linalg.norm(Lp @ L @ Lp - Lp) <= 1e-8 * np.linalg.norm(Lp)


def test_connected_graph_has_one_null_mode():
    g = dg.gen_er(30, 0.5, 2)  # dense enough to be connected
    vals = np.linalg.eigvalsh(dg.laplacian(g))
    assert np.sum(np.abs(vals) < 1e-9 * vals.max()) == 1


# -------------------------------------------------------------------- signals

def test_gen_signals_pure_noise_variance():
    g = dg.GroundTruthGraph(p=50, w_true=np.zeros(gm.num_edges(50)))
    X = dg.gen_signals(g, dg.SignalModel(sigma=0.1, n=2500), 6)
    var = X.var()
    # n*p = 125000 draws; 3-sigma band around 0.01
    assert abs(var - 0.01) <= 3 * 0.01 * np.sqrt(2 / X.size)


def test_gen_signals_p2_covariance_matches_pinv():
    g = dg.GroundTruthGraph(p=2, w_true=np.array([1.0]))
    X = dg.gen_signals(g, dg.SignalModel(sigma=0.0, n=100_000), 8)
    cov = X @ X.T / X.shape[1]
    np.testing.assert_allclose(cov, 0.25 * np.array([[1, -1], [-1, 1]]), atol=0.01)


def test_smoothness_ordering_over_seeds():
    # smooth signals: distances over true edges are smaller on average
    edge_means, non_means = [], []
    model = dg.SignalModel(sigma=0.1, n=300)
    for seed in range(20):
        g = dg.gen_er(50, 0.15, seed)
        X = dg.gen_signals(g, model, seed)
        d = gm.pairwise_distances(X)
        true = g.w_true > 0
        if true.any() and (~true).any():
            edge_means.append(d[true].mean())
            non_means.append(d[~true].mean())
    assert np.mean(edge_means) < np.mean(non_means)


# sha256 of gen_signals(...).tobytes() for (family, p, n, sigma, seed), with
# the graph drawn from the same seed (ER q=0.1; SBM 0.3/0.05) and the signals
# from seed + 1. Recorded with numpy's bundled OpenBLAS 0.3.31 (AVX2 double
# kernels) on its SkylakeX core (conftest.PINNED_CORE); these cases give the same bits at 1, 2 and 4 BLAS threads. A BLAS
# that rounds the root or the product differently moves the digests, while
# the test's check against the two-draw formula still holds.
PINNED_SIGNALS = {
    ("er", 7, 40, 0.0, 11): "8fcc8300baf2f0885fe3037b4cf5158248f43b919629fe0029fe4a0adbbd0b98",
    ("er", 20, 200, 0.1, 4): "8e1b943dc59c592f7833dd6fed759fb9e9762da5997fc148259a96568eae5ffc",
    ("er", 50, 600, 0.1, 9): "224ffa3ec738fe7110a93746190330adfdfa798cb5e76ecc3b22ffc685e3a5d6",
    ("sbm", 30, 500, 0.0, 5): "63dec674e9a9e9f3c2d0e224ab079484f9cf6cfab8491be659d30e3d29073d9c",
    ("sbm", 200, 1200, 0.1, 70001): "38628b1e3c1dd6dac96b5331c9cc7dbdd300ef1cc574707c093225336c92bfa5",
}


def test_gen_signals_matches_pinned_bytes():
    for (family, p, n, sigma, seed), digest in PINNED_SIGNALS.items():
        g = dg.gen_er(p, 0.1, seed) if family == "er" else dg.gen_sbm(p, 0.3, 0.05, seed)
        X = dg.gen_signals(g, dg.SignalModel(sigma=sigma, n=n), seed + 1)
        rng = np.random.default_rng(seed + 1)
        Z = rng.standard_normal((p, n))
        E = rng.standard_normal((p, n))
        np.testing.assert_array_equal(X, g.signal_root @ Z + sigma * E)
        assert hashlib.sha256(X.tobytes()).hexdigest() == digest, pin_note(family, p, n, sigma, seed)


def test_gen_signals_holds_two_signal_buffers(traced_peak):
    # X = root Z, then E drawn into Z's buffer: two p x n arrays plus the
    # p x p root and the eigh workspace (the four-array form peaks near 4.2)
    p, n = 200, 1200
    g = dg.gen_er(p, 0.1, 1)
    peak = traced_peak(lambda: dg.gen_signals(g, dg.SignalModel(sigma=0.1, n=n), 2))
    assert peak <= 2.5 * p * n * 8


def test_gen_signals_from_drawn_noise_keeps_bytes_and_returns_a_fresh_array():
    g = dg.gen_sbm(30, 0.3, 0.05, 5)
    model = dg.SignalModel(sigma=0.1, n=500)
    noise = np.full((2, 30, 500), np.nan)
    for seed in (6, 7):  # a reused buffer holds the last run's spent noise
        assert dg.draw_noise(seed, noise) is noise
        X = dg.gen_signals(g, model, seed, noise)
        assert X.tobytes() == dg.gen_signals(g, model, seed).tobytes()
        assert not np.shares_memory(X, noise)
    with pytest.raises(ValueError, match=r"noise has shape \(2, 30, 499\), expected \(2, 30, 500\)"):
        dg.gen_signals(g, model, 6, dg.draw_noise(6, np.empty((2, 30, 499))))


# ------------------------------------------------------------------- assemble

def test_assemble_from_signals():
    X = np.array([[0.0], [1.0], [3.0]])
    prob = dg.assemble(X, 1.0, 2.0)
    np.testing.assert_allclose(prob.d, [1.0, 9.0, 4.0])
    assert prob.p == 3 and prob.alpha == 1.0 and prob.beta == 2.0

    same = np.tile([1.0, 2.0], (4, 1))
    np.testing.assert_array_equal(dg.assemble(same, 1.0, 1.0).d, np.zeros(6))
    np.testing.assert_allclose(dg.assemble(np.eye(2), 1.0, 1.0).d, [2.0])


def test_signal_model_validation():
    with pytest.raises(ValueError):
        dg.SignalModel(sigma=-0.1, n=5)
    with pytest.raises(ValueError):
        dg.SignalModel(sigma=0.1, n=0)
    with pytest.raises(ValueError):
        dg.SignalModel(sigma=np.nan, n=5)
    with pytest.raises(ValueError):
        dg.SignalModel(sigma=np.inf, n=5)
    # n is a count: a float or a bool is refused, and a numpy integer kept
    for n in (2.5, 3.0, np.nan, True):
        with pytest.raises(ValueError, match="need an integer n"):
            dg.SignalModel(n=n)
        with pytest.raises(ValueError, match="need an integer n"):
            dataclasses.replace(dg.SignalModel(), n=n)
    assert dg.SignalModel(n=np.int64(3)).n == 3
    # sigma is a real number, and a bool is none
    for sigma in (True, False, "0.1", None):
        with pytest.raises(ValueError, match="need finite sigma >= 0"):
            dg.SignalModel(sigma=sigma)
    assert dg.SignalModel(sigma=np.float32(0.5)).sigma == 0.5


def test_ground_truth_graph_validation():
    with pytest.raises(ValueError):
        dg.GroundTruthGraph(p=4, w_true=np.ones(5))
    with pytest.raises(ValueError):
        dg.GroundTruthGraph(p=4, w_true=np.array([1.0, 0.0, -1.0, 0.0, 0.0, 1.0]))


def test_graph_save_load_round_trip(tmp_path):
    g = dg.gen_er(12, 0.4, 3)
    path = tmp_path / "g.csv"
    gm.save_edges_csv(g.w_true, g.p, path)
    g2 = dg.load_graph(path)
    assert g2.p == 12
    np.testing.assert_array_equal(g2.w_true, g.w_true)
