import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmgl import data_gen as dg
from mmgl import graph_model as gm
from mmgl import mm_solver as ms

from oracles import surrogate_value


def make_problem(p, d, alpha=1.0, beta=1.0):
    return gm.ProblemInstance(p=p, d=np.asarray(d, dtype=float), alpha=alpha, beta=beta)


def random_problem(rng, p_lo=3, p_hi=9, d_hi=3.0):
    p = int(rng.integers(p_lo, p_hi))
    return make_problem(p, rng.uniform(0, d_hi, gm.num_edges(p)),
                        alpha=float(rng.uniform(0.2, 3)), beta=float(rng.uniform(0.2, 3)))


# -------------------------------------------------------------------- config

def test_solver_config_validation():
    with pytest.raises(ValueError):
        ms.SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        ms.SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        ms.SolverConfig(elimination_threshold=-1e-9)
    with pytest.raises(ValueError):
        ms.SolverConfig(epsilon=np.inf)
    with pytest.raises(ValueError):
        ms.SolverConfig(elimination_threshold=np.nan)
    with pytest.raises(ValueError):
        ms.SolverConfig(elimination_threshold=np.inf)


# ----------------------------------------------------------------- compute_c

def test_compute_c_examples():
    np.testing.assert_allclose(
        ms.compute_c(np.array([1.0]), make_problem(2, [0.0])), [2.0])
    for t in (0.3, 1.0, 7.5):
        np.testing.assert_allclose(
            ms.compute_c(np.full(3, t), make_problem(3, [0, 0, 0])), [1.0, 1, 1])
    # hand-evaluated: degrees [3,4,5], c_j = 2 w_j (1/deg_a + 1/deg_b)
    c = ms.compute_c(np.array([1.0, 2, 3]), make_problem(3, [0, 0, 0], alpha=2.0))
    np.testing.assert_allclose(c, [7 / 6, 32 / 15, 27 / 10], rtol=1e-14)
    assert c.sum() == pytest.approx(2.0 * 3, rel=1e-14)


def test_compute_c_zero_weight_edges_give_zero():
    c = ms.compute_c(np.array([1.0, 0.0, 0.0]), make_problem(3, [0, 0, 0]))
    assert c[0] > 0
    assert c[1] == 0.0 and c[2] == 0.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compute_c_sum_is_alpha_p(seed):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, p_hi=30)
    w = rng.uniform(0.01, 5.0, prob.m)
    c = ms.compute_c(w, prob)
    assert np.all(c >= 0)
    assert c.sum() == pytest.approx(prob.alpha * prob.p, rel=1e-12)


def test_compute_c_rejects_negative_weights():
    with pytest.raises(ValueError):
        ms.compute_c(np.array([-1.0]), make_problem(2, [0.0]))


@pytest.mark.parametrize("entry", [
    lambda w, prob: ms.compute_c(w, prob),
    lambda w, prob: ms.mm_update(w, prob),
], ids=["compute_c", "mm_update-c"])
def test_kernels_reject_non_finite_weights(entry):
    prob = make_problem(3, [1.0, 2.0, 3.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            entry(np.array([bad, 1.0, 1.0]), prob)


# ----------------------------------------------------------------- mm_update

def test_mm_update_examples():
    prob = make_problem(2, [0.0])
    np.testing.assert_allclose(ms.mm_update(np.array([2.0]), prob), [1.0])
    prob_d1 = make_problem(2, [1.0])
    w = ms.mm_update(np.array([2.0]), prob_d1)
    # positive root of 2 w + 2 w^2 - 2 = 0, the golden-ratio conjugate
    assert w[0] == pytest.approx((-2 + np.sqrt(20)) / 4, abs=1e-14)
    assert 2 * 1 * w[0] + 2 * w[0] ** 2 - 2 == pytest.approx(0.0, abs=1e-14)


def test_mm_update_zero_coefficient_gives_exact_zero():
    prob = make_problem(2, [3.7])
    w = ms.mm_update(np.array([0.0]), prob)
    assert w[0] == 0.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mm_update_quadratic_residual(seed):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, p_hi=20, d_hi=10.0)
    c = rng.uniform(0, 4, prob.m)
    c[rng.random(prob.m) < 0.2] = 0.0
    w = ms.mm_update(c, prob)
    residual = 2 * prob.d * w + 2 * prob.beta * w * w - c
    assert np.max(np.abs(residual)) <= 1e-10
    assert np.array_equal(w == 0.0, c == 0.0)


# ----------------------------------------------------------- surrogate value

def test_surrogate_equals_objective_at_expansion_point():
    prob = make_problem(2, [0.0])
    w = np.array([1.0])
    assert surrogate_value(w, w, prob) == pytest.approx(gm.objective(w, prob), abs=1e-14)


def test_surrogate_p2_hand_value():
    prob = make_problem(2, [0.0])
    g = surrogate_value(np.array([2.0]), np.array([1.0]), prob)
    assert g == pytest.approx(-2 * np.log(2) + 4, abs=1e-12)
    # for p=2 the bound is tight everywhere
    assert g == pytest.approx(gm.objective(np.array([2.0]), prob), abs=1e-12)


def test_surrogate_p3_hand_value():
    prob = make_problem(3, [0, 0, 0])
    w_k = np.ones(3)
    w = np.array([1.0, 1.0, 2.0])
    # degrees at w_k are all 2; per edge two terms (1/2) log(2 w_j)
    g = surrogate_value(w, w_k, prob)
    assert g == pytest.approx(6.0 - 4.0 * np.log(2.0), abs=1e-12)
    f = gm.objective(w, prob)
    assert f == pytest.approx(6.0 - np.log(18.0), abs=1e-12)
    assert g >= f


def test_surrogate_zero_handling():
    prob = make_problem(3, [0, 0, 0])
    with pytest.raises(ValueError):
        surrogate_value(np.ones(3), np.array([1.0, 0.0, 1.0]), prob)
    assert surrogate_value(np.array([1.0, 0.0, 1.0]), np.ones(3), prob) == np.inf


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_surrogate_majorizes_objective(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.choice([3, 5, 8]))
    m = gm.num_edges(p)
    prob = make_problem(p, rng.uniform(0, 3, m),
                        alpha=float(rng.uniform(0.2, 3)), beta=float(rng.uniform(0.2, 3)))
    w_k = 10.0 ** rng.uniform(-2, 1, m)
    w = 10.0 ** rng.uniform(-2, 1, m)
    assert surrogate_value(w, w_k, prob) >= gm.objective(w, prob) - 1e-9
    assert surrogate_value(w_k, w_k, prob) == pytest.approx(
        gm.objective(w_k, prob), abs=1e-10)


# --------------------------------------------------------------------- solve

def test_solve_p2_fixed_point():
    res = ms.solve(make_problem(2, [0.0]))
    np.testing.assert_allclose(res.w_star, [1.0])
    assert res.converged
    assert res.iters == 1  # relative change is exactly zero at the first step


def test_solve_p3_symmetric_lands_in_one_update():
    res = ms.solve(make_problem(3, [0, 0, 0]))
    np.testing.assert_allclose(res.w_star, np.full(3, 1 / np.sqrt(2)), atol=1e-10)
    assert res.converged
    # stationarity of the symmetric reduction: -3/w + 6w = 0 at 1/sqrt(2)
    w = res.w_star[0]
    assert -3 / w + 6 * w == pytest.approx(0.0, abs=1e-9)


def test_solve_matches_oracle_on_p3():
    prob = make_problem(3, [1.0, 2.0, 3.0])
    res = ms.solve(prob, ms.SolverConfig(epsilon=1e-12, max_iters=100000))
    oracle = ms.newton_solve(prob)
    gap = abs(res.f_star - oracle.f_star) / abs(oracle.f_star)
    assert gap <= 1e-6


def test_solve_max_iters_cap():
    rng = np.random.default_rng(4)
    prob = make_problem(6, rng.uniform(0.5, 2.0, 15))
    res = ms.solve(prob, ms.SolverConfig(epsilon=1e-14, max_iters=3))
    assert not res.converged
    assert res.iters == 3
    assert len(res.trace.f) == 4  # starting point plus three iterations


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_solve_trace_is_monotone(seed):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, p_hi=25, d_hi=8.0)
    res = ms.solve(prob)
    f = res.trace.f
    assert np.all(np.diff(f) <= 1e-10)
    assert res.f_star == f[-1]
    assert np.all(np.diff(res.trace.iterations) == 1)


def test_zero_lock_and_active_counts():
    rng = np.random.default_rng(8)
    p = 12
    m = gm.num_edges(p)
    keep = rng.random(m) < 0.3
    d = np.where(keep, rng.uniform(0.05, 0.2, m), rng.uniform(3.0, 6.0, m))
    prob = make_problem(p, d)
    seen = []

    def cb(k, w, c):
        seen.append(w > 0)

    res = ms.solve(prob, ms.SolverConfig(epsilon=1e-12, max_iters=100000), callback=cb)
    assert res.converged
    for prev, cur in zip(seen, seen[1:]):
        assert not np.any(cur & ~prev), "an eliminated edge reactivated"
    assert np.count_nonzero(res.w_star) < m  # eliminations actually happened
    assert np.all(np.diff(res.trace.active_count) <= 0)


def test_stationarity_at_convergence_on_gapped_instances():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = int(rng.integers(3, 9))
        m = gm.num_edges(p)
        keep = rng.random(m) < 0.6
        d = np.where(keep, rng.uniform(0.05, 0.3, m), rng.uniform(3.0, 6.0, m))
        prob = make_problem(p, d)
        res = ms.solve(prob, ms.SolverConfig(epsilon=1e-12, max_iters=200000))
        active = res.w_star > 0
        grad = gm.objective_gradient(np.maximum(res.w_star, 1e-300), prob)
        assert np.max(np.abs(grad[active])) <= 1e-3


def test_stop_test_absolute_fallback_at_zero():
    assert ms._stop_test(0.0, 5e-5, 1e-4)
    assert not ms._stop_test(0.0, 5e-3, 1e-4)
    assert ms._stop_test(100.0, 100.001, 1e-4)


def test_elimination_disabled_keeps_all_edges_positive():
    rng = np.random.default_rng(2)
    prob = make_problem(8, rng.uniform(0.5, 4.0, 28))
    cfg = ms.SolverConfig(epsilon=1e-10, max_iters=50000, elimination_threshold=0.0)
    res = ms.solve(prob, cfg)
    assert np.all(res.w_star > 0)
    assert np.all(res.trace.active_count == prob.m)


def test_solve_stops_on_non_finite_objective():
    # one node far from the rest: all of its edges retire in iteration 1
    X = np.random.default_rng(0).normal(size=(6, 5))
    X[5] += 1e5
    prob = make_problem(6, gm.pairwise_distances(X))
    res = ms.solve(prob)
    assert not res.converged
    assert res.iters == 1
    assert res.f_star == np.inf


# ------------------------------------------------------------ active compact

def gapped_problem(seed, p):
    # a few short edges among many long ones, so most edges retire
    rng = np.random.default_rng(seed)
    m = gm.num_edges(p)
    keep = rng.random(m) < 0.25
    return make_problem(p, np.where(keep, rng.uniform(0.05, 0.2, m), rng.uniform(3.0, 7.0, m)))


def solve_against_full_length_reference(prob, cfg):
    """Run solve and check it against the public kernels on full-length
    arrays, never compacted: every callback w bit for bit, f to 1e-12."""
    seen = []
    res = ms.solve(prob, cfg, callback=lambda k, w, c: seen.append(w))
    assert len(seen) == res.iters
    w = np.ones(prob.m)
    fs = [gm.objective(w, prob)]
    for w_solve in seen:
        w = ms.mm_update(ms.compute_c(w, prob), prob)
        w[w < cfg.elimination_threshold] = 0.0
        assert np.array_equal(w_solve, w)
        fs.append(gm.objective(w, prob))
    assert np.array_equal(res.w_star, w)
    # f sums over compacted arrays round differently at the last ulp
    np.testing.assert_allclose(res.trace.f, fs, rtol=1e-12)
    return res


def test_retired_zero_distance_edge_stays_zero_in_working_arrays():
    # Two hubs joined by a d = 0 edge, each with L close leaves; every other
    # edge is far. The hub edge retires at iteration 4 (121 -> 120 live
    # edges, under the 1% compaction trigger), so it stays in the working
    # arrays with c = d = 0 and the root meets 0/0.
    L = 60
    p = 2 + 2 * L
    d = np.full(gm.num_edges(p), 1e3)
    hub = gm.edge_index(0, 1, p)
    d[hub] = 0.0
    for h in (0, 1):
        for leaf in range(2 + h * L, 2 + (h + 1) * L):
            d[gm.edge_index(h, leaf, p)] = 0.01
    prob = make_problem(p, d)
    cfg = ms.SolverConfig(epsilon=1e-12, elimination_threshold=0.05)
    # every callback w must equal the nan-free reference bit for bit
    res = solve_against_full_length_reference(prob, cfg)
    assert res.converged
    assert res.w_star[hub] == 0.0
    assert list(res.trace.active_count[3:6]) == [121, 120, 120]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = ms.mm_update(np.zeros(1), make_problem(2, [0.0]))
    assert w[0] == 0.0


def test_auto_compaction_matches_uncompacted_run():
    prob = gapped_problem(14, 10)
    res = solve_against_full_length_reference(prob, ms.SolverConfig(epsilon=1e-12, max_iters=100000))
    assert np.count_nonzero(res.w_star) < 0.5 * prob.m  # compaction really triggered


def test_repeated_compaction_matches_uncompacted_run():
    # SBM edges retire a few at a time over hundreds of iterations, so the
    # working arrays are compacted many times
    seed = 1
    prob = dg.assemble(dg.gen_signals(dg.gen_sbm(30, 0.3, 0.05, seed), dg.SignalModel(0.1, 200), seed),
                       100.0, 100.0)
    res = solve_against_full_length_reference(prob, ms.SolverConfig(epsilon=1e-10, max_iters=100000))
    assert res.converged
    assert len(np.unique(res.trace.active_count)) > 5
    cfg = ms.SolverConfig(epsilon=1e-10, max_iters=100000, elimination_threshold=0.0)
    res = solve_against_full_length_reference(prob, cfg)
    assert np.all(res.trace.active_count == prob.m)


# sha256 of (w_star, trace.f, trace.iterations, trace.active_count) after
# exactly 60 MM iterations, and of one converged newton_solve run. The MM
# iterates use only elementwise IEEE arithmetic and in-order bincount sums,
# no BLAS or LAPACK, so the w_star bytes are the same on every CPU. f also
# goes through numpy dot products, whose rounding may depend on the BLAS
# build, and the oracle iterates also go through a LAPACK solve of the
# p x p Newton system. The MM f also depends on the layout of the working
# arrays, which the dot products run over: their anti-diagonal order (by
# i + j, then i) and where compaction drops edges. newton_solve keeps
# row-major order.
PINNED_RUNS = {
    "gapped-14": ("a16abb3c4a71d013bad5c78707b9583bdf2402a908dacfcea82182a8c5b16893",
                  "9d65abe266102cc6d49f499ff9cf05cf219b64918812e7e6806385e062443e1b",
                  "cc789dacd7efe5552adf2e5ce49e4a4efb47a446872f95d20d2aab84ae95dea5",
                  "971201d594de41be023e769d8f2dca2813a6a8f014dc7419086959eb7966ca6b"),
    "uniform-3": ("e82586959efe0aa4c5eeaec0bcb2d52ae3c384233d5ceef8305df088b3866201",
                  "1d4d16f224d65cedf45ee3f8ac47747b40a2df1125513542dc13f9e885791d1c",
                  "cc789dacd7efe5552adf2e5ce49e4a4efb47a446872f95d20d2aab84ae95dea5",
                  "5f60e63cd10f55fab3f0f226f9525999acc8d03c485bce5f0188ad812e540542"),
    "uniform-7": ("66dbbdf296f481fe3eda5e4bc595955077b52c43ab3cfe94f8cc17d801a3c229",
                  "2647120303f4fb4232b4bfa545e32ef8925bac514db19ab70092c6be9cc93ef4",
                  "cc789dacd7efe5552adf2e5ce49e4a4efb47a446872f95d20d2aab84ae95dea5",
                  "64cba8c22e5b989a8905db41753dad955e48f758c65477e983c7e12627bb1298"),
    "newton-uniform-3": ("e87eca39421b33939407728b5ab127c1bb278869da40308343fa9c3b8d0f1130",
                         "b8d8de2c2182e3dfeb8cd98b5318ad3ec3c3de413f22e189beb6eabef52b84f6",
                         "81845a01dafa45c9b26e10a7af52a92e8604d5d8ef690f1e3ccdcfe3b5c6ae98",
                         "e2fee830cdee9d94efcfce47b85820a421283bdc6300e85c201b94a1b20e5b6a"),
}


def run_digests(res):
    arrays = ((res.w_star, "<f8"), (res.trace.f, "<f8"),
              (res.trace.iterations, "<i8"), (res.trace.active_count, "<i8"))
    return tuple(hashlib.sha256(a.astype(dt).tobytes()).hexdigest() for a, dt in arrays)


def test_iterates_match_pinned_bytes():
    rng3 = np.random.default_rng(3)
    rng7 = np.random.default_rng(7)
    problems = {
        "gapped-14": gapped_problem(14, 10),
        "uniform-3": make_problem(12, rng3.uniform(0, 3, gm.num_edges(12)), alpha=1.5, beta=0.7),
        "uniform-7": make_problem(25, rng7.uniform(0, 5, gm.num_edges(25)), alpha=2.0, beta=0.5),
    }
    cfg = ms.SolverConfig(epsilon=1e-300, max_iters=60)
    for name, prob in problems.items():
        res = ms.solve(prob, cfg)
        assert res.iters == 60
        assert run_digests(res) == PINNED_RUNS[name], name
        if name == "gapped-14":
            assert res.trace.active_count[-1] < 0.5 * prob.m  # compaction ran
    res = ms.newton_solve(problems["uniform-3"], ms.SolverConfig(max_iters=200))
    assert res.converged
    assert run_digests(res) == PINNED_RUNS["newton-uniform-3"]


def test_callback_sees_full_length_arrays_after_compaction():
    prob = gapped_problem(14, 10)
    m = prob.m
    lengths = []
    prev_w = [np.ones(m)]

    def cb(k, w, c):
        lengths.append((w.size, c.size))
        # c is built from the previous snapshot: edges dead before this
        # iteration must have zero coefficients
        assert np.all(c[prev_w[0] == 0] == 0.0)
        prev_w[0] = w

    ms.solve(prob, ms.SolverConfig(epsilon=1e-12, max_iters=100000), callback=cb)
    assert all(sizes == (m, m) for sizes in lengths)
