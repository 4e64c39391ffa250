import dataclasses
import hashlib
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmgl import data_gen as dg
from mmgl import graph_model as gm
from mmgl import mm_solver as ms

from conftest import pin_note
from oracles import brute_force, compute_c, make_problem, mm_update, objective_gradient, surrogate_value


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
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            ms.SolverConfig(tol=tol)
    # max_iters is a count: refused when it is built, not by solve's range()
    for max_iters in (2.5, np.nan, 10.0, True):
        with pytest.raises(ValueError, match="need an integer max_iters"):
            ms.SolverConfig(max_iters=max_iters)
        with pytest.raises(ValueError, match="need an integer max_iters"):
            dataclasses.replace(ms.SolverConfig(), max_iters=max_iters)
    assert ms.solve(make_problem(2, [1.0]), ms.SolverConfig(max_iters=np.int32(1))).iters == 1
    # the real settings refuse a bool or a non-number by the same rule
    for name, rule in (("epsilon", ">"), ("tol", ">"), ("elimination_threshold", ">=")):
        for value in (True, False, "1e-4", None):
            with pytest.raises(ValueError, match=f"need finite {name} {rule} 0, got {value}"):
                ms.SolverConfig(**{name: value})


# ----------------------------------------------------------------- compute_c

def test_compute_c_examples():
    np.testing.assert_allclose(
        compute_c(np.array([1.0]), make_problem(2, [0.0])), [2.0])
    for t in (0.3, 1.0, 7.5):
        np.testing.assert_allclose(
            compute_c(np.full(3, t), make_problem(3, [0, 0, 0])), [1.0, 1, 1])
    # hand-evaluated: degrees [3,4,5], c_j = 2 w_j (1/deg_a + 1/deg_b)
    c = compute_c(np.array([1.0, 2, 3]), make_problem(3, [0, 0, 0], alpha=2.0))
    np.testing.assert_allclose(c, [7 / 6, 32 / 15, 27 / 10], rtol=1e-14)
    assert c.sum() == pytest.approx(2.0 * 3, rel=1e-14)


def test_compute_c_zero_weight_edges_give_zero():
    c = compute_c(np.array([1.0, 0.0, 0.0]), make_problem(3, [0, 0, 0]))
    assert c[0] > 0
    assert c[1] == 0.0 and c[2] == 0.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compute_c_sum_is_alpha_p(seed):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, p_hi=30)
    w = rng.uniform(0.01, 5.0, prob.m)
    c = compute_c(w, prob)
    assert np.all(c >= 0)
    assert c.sum() == pytest.approx(prob.alpha * prob.p, rel=1e-12)


@pytest.mark.parametrize("entry", [
    lambda w, prob: compute_c(w, prob),
    lambda w, prob: mm_update(w, prob),
], ids=["compute_c", "mm_update-c"])
def test_kernels_reject_non_finite_weights(entry):
    prob = make_problem(3, [1.0, 2.0, 3.0])
    for bad in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(ValueError, match="finite"):
            entry(np.array([bad, 1.0, 1.0]), prob)


# ----------------------------------------------------------------- mm_update

def test_mm_update_examples():
    prob = make_problem(2, [0.0])
    np.testing.assert_allclose(mm_update(np.array([2.0]), prob), [1.0])
    prob_d1 = make_problem(2, [1.0])
    w = mm_update(np.array([2.0]), prob_d1)
    # positive root of 2 w + 2 w^2 - 2 = 0, the golden-ratio conjugate
    assert w[0] == pytest.approx((-2 + np.sqrt(20)) / 4, abs=1e-14)
    assert 2 * 1 * w[0] + 2 * w[0] ** 2 - 2 == pytest.approx(0.0, abs=1e-14)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mm_update_quadratic_residual(seed):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, p_hi=20, d_hi=10.0)
    c = rng.uniform(0, 4, prob.m)
    c[rng.random(prob.m) < 0.2] = 0.0
    w = mm_update(c, prob)
    residual = 2 * prob.d * w + 2 * prob.beta * w * w - c
    assert np.max(np.abs(residual)) <= 1e-10
    assert np.array_equal(w == 0.0, c == 0.0)


# ----------------------------------------------------------- surrogate value

def test_surrogate_p2_hand_value():
    prob = make_problem(2, [0.0])
    g = surrogate_value(np.array([2.0]), np.array([1.0]), prob)
    assert g == pytest.approx(-2 * np.log(2) + 4, abs=1e-12)
    assert surrogate_value(np.ones(1), np.ones(1), prob) == pytest.approx(1.0, abs=1e-14)  # f(1)
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


# --------------------------------------------------------------------- solve

def test_solve_p2_fixed_point():
    res = ms.solve(make_problem(2, [0.0]))
    np.testing.assert_allclose(res.w_star, [1.0])
    assert res.converged
    assert res.iters == 1  # relative change is exactly zero at the first step


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
        grad = objective_gradient(np.maximum(res.w_star, 1e-300), prob)
        assert np.max(np.abs(grad[active])) <= 1e-3
        w_bf = brute_force(prob)
        np.testing.assert_array_equal(active, w_bf > 0)
        f_bf = gm.objective(w_bf, prob)
        assert abs(res.f_star - f_bf) <= 1e-9 * abs(f_bf)


def test_stop_test_absolute_fallback_at_zero():
    assert ms._stop_test(0.0, 5e-5, 1e-4)
    assert ms._stop_test(-0.0, -5e-5, 1e-4)
    assert not ms._stop_test(0.0, 5e-3, 1e-4)
    assert ms._stop_test(100.0, 100.001, 1e-4)


@pytest.mark.parametrize("solve", [ms.solve, ms.newton_solve])
def test_trace_wall_times_are_durations_within_the_callers_timing(solve):
    # each row's wall_time is the duration of its own iteration (0 for row 0,
    # the start): nonnegative, so their running total never decreases, and
    # their sum fits inside the caller's own timing of the solve
    rng = np.random.default_rng(8)
    prob = make_problem(12, rng.uniform(0, 3, gm.num_edges(12)), alpha=1.0, beta=1.0)
    t0 = time.perf_counter()
    result = solve(prob, ms.SolverConfig())
    elapsed = time.perf_counter() - t0
    wall = result.trace.wall_time
    assert result.iters >= 3 and wall[0] == 0.0
    assert wall.min() >= 0
    assert wall.sum() <= elapsed


def test_solve_stops_on_non_finite_objective():
    # one node far from the rest: its edges' first weights are near 1e-11,
    # so a threshold absolute in w (1e-8) would isolate it in iteration 1;
    # each edge's own bound u_j is as small, so its edges stay live
    X = np.random.default_rng(0).normal(size=(6, 5))
    X[5] += 1e5
    prob = make_problem(6, gm.pairwise_distances(X))
    res = ms.solve(prob)
    assert res.converged
    assert gm.degrees(res.w_star, prob.p).min() > 0
    # alpha 1e300 and beta 1e-300: w . w overflows in iteration 1 while
    # every degree stays above 1e290; that stops the run, and no overflow
    # warning escapes solve
    g = dg.gen_er(20, 0.1, 3)
    prob = dg.assemble(dg.gen_signals(g, dg.SignalModel(), 3), 1e300, 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ms.solve(prob)
    assert res.reason == "non_finite"
    assert res.iters == 1
    assert res.f_star == np.inf
    assert gm.degrees(res.w_star, prob.p).min() > 1e290
    # a d = 0 edge where 2 beta c underflows to 0, so the root divides by
    # zero: that weight is inf, f is not finite, and no divide-by-zero
    # warning escapes solve. At (1e-10, 1e-320), 4 alpha beta underflows
    # too, so p2_root is inf there, and alpha / beta overflows; the edge's
    # floor must stay finite, or even a threshold of 0 would retire it
    for alpha, beta in ((1e-300, 1e-300), (1e-10, 1e-320)):
        prob = make_problem(3, [0.0, 1.0, 1.0], alpha=alpha, beta=beta)
        for threshold in (0.0, 1e-8):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = ms.solve(prob, ms.SolverConfig(elimination_threshold=threshold))
            assert res.reason == "non_finite"
            assert res.iters == 1
            assert res.w_star[0] == np.inf


@given(st.integers(3, 30), st.floats(-12, 12), st.floats(-12, 12), st.integers(0, 2**32 - 1))
def test_default_threshold_never_isolates_a_node(p, log_alpha, log_beta, seed):
    # the default threshold is relative to each edge's bound u_j, so it
    # fits any scale: a threshold absolute in w (1e-8) isolates a node in
    # about a third of these draws. Only an overflowed f, with every
    # degree positive, may stop the run as non_finite
    g = dg.gen_er(p, 0.1, seed)
    prob = dg.assemble(dg.gen_signals(g, dg.SignalModel(), seed), 10.0 ** log_alpha, 10.0 ** log_beta)
    res = ms.solve(prob)
    assert res.reason in ("converged", "non_finite")
    assert gm.degrees(res.w_star, p).min() > 0


# ------------------------------------------------------------ active compact

def gapped_problem(seed, p):
    # a few short edges among many long ones, so most edges retire
    rng = np.random.default_rng(seed)
    m = gm.num_edges(p)
    keep = rng.random(m) < 0.25
    return make_problem(p, np.where(keep, rng.uniform(0.05, 0.2, m), rng.uniform(3.0, 7.0, m)))


def solve_against_full_length_reference(prob, cfg):
    """Run solve and check it against the oracle's compute_c and mm_update on
    full-length arrays, never compacted: every callback w bit for bit, f to
    1e-12. So the loop's _coefficients and _root_update are checked too."""
    seen = []
    res = ms.solve(prob, cfg, callback=lambda k, w, c: seen.append(w))
    assert len(seen) == res.iters
    # each edge retires at or below the threshold times its bound u_j,
    # which never exceeds sqrt(alpha / beta)
    u = np.minimum(gm.p2_root(prob.d, prob.alpha, prob.beta), np.sqrt(prob.alpha) / np.sqrt(prob.beta))
    w = np.ones(prob.m)
    fs = [gm.objective(w, prob)]
    for w_solve in seen:
        w = mm_update(compute_c(w, prob), prob)
        w[w <= cfg.elimination_threshold * u] = 0.0
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
        w = mm_update(np.zeros(1), make_problem(2, [0.0]))
    assert w[0] == 0.0


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
# goes through objective_value's numpy dot products, whose rounding may
# depend on the BLAS build; past 10,000 live edges OpenBLAS also splits
# them across its threads, so a trace's f column then depends on the BLAS
# thread count. Given the same d, w does not. The oracle iterates also go
# through a LAPACK solve of the p x p Newton system. The MM f also depends
# on the layout of the working arrays, which the dot products run over:
# their anti-diagonal order (by i + j, then i) and where compaction drops
# edges. newton_solve keeps row-major order.
PINNED_RUNS = {
    "gapped-14": ("dae98c6b60300562e41bbe53c9e3c49c33d7f12cf940ebe1344dfefe96d33fcf",
                  "53e6871900b89c92fa58d713cfbe71c1d70cda16f211b156ef229ad564854b59",
                  "cc789dacd7efe5552adf2e5ce49e4a4efb47a446872f95d20d2aab84ae95dea5",
                  "58e47f189ee8ab213ec772d0f096477c5386ca70cf7954ae4d0e80aea3476ff4"),
    "uniform-3": ("8e0d8673f1bb0c9696c0e07d17a34b6f4d2cf5762e12949a00285077636289c4",
                  "02aaedc4527261471ece9f0a832e689db453b02731d87c60d5c178e4ac3225c0",
                  "cc789dacd7efe5552adf2e5ce49e4a4efb47a446872f95d20d2aab84ae95dea5",
                  "88308d7cb253a5b957f24e198ccef25e028d26c53a577a3e29c82a21bd1b877c"),
    "uniform-7": ("a566d16ac1ad35192b2889f644a4410edd3139b22217516b9a787f27c026151c",
                  "9449b1fa745e88599fe1ef4170487aac69bf6a1f73b106a728317008cc7695ea",
                  "cc789dacd7efe5552adf2e5ce49e4a4efb47a446872f95d20d2aab84ae95dea5",
                  "d948a1e461929cefbb7bce3617721db7e298a94eff8b8e9f356274026dbe4883"),
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
        assert run_digests(res) == PINNED_RUNS[name], pin_note(name)
        if name == "gapped-14":
            assert res.trace.active_count[-1] < 0.5 * prob.m  # compaction ran
    res = ms.newton_solve(problems["uniform-3"], ms.SolverConfig(max_iters=200))
    assert res.converged
    assert run_digests(res) == PINNED_RUNS["newton-uniform-3"], pin_note("newton-uniform-3")


# sha256 of (w_star, trace.iterations, trace.active_count) after exactly 60
# MM iterations at p=150: its 11,175 edges start above OpenBLAS's threaded
# dot threshold, so f is left out (see PINNED_RUNS).
PINNED_WIDE_RUN = ("103cca9250674ce5d25c996d1abf74940387583eb63b6c97a062658d26c39b92",
                   "cc789dacd7efe5552adf2e5ce49e4a4efb47a446872f95d20d2aab84ae95dea5",
                   "2b589a1cbc6cb5d6244aef65e2adc8ebe3dfb1705e351cda774819285105ecc9")


def test_iterates_above_the_blas_thread_threshold_match_pinned_bytes():
    rng = np.random.default_rng(150)
    prob = make_problem(150, rng.uniform(0, 3, gm.num_edges(150)), alpha=2.0, beta=0.5)
    assert prob.m > 10_000
    res = ms.solve(prob, ms.SolverConfig(epsilon=1e-300, max_iters=60))
    assert res.iters == 60
    w_star, _, iterations, active_count = run_digests(res)
    assert (w_star, iterations, active_count) == PINNED_WIDE_RUN, pin_note()


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


def test_nested_solve_leaves_the_error_state_as_it_found_it():
    # solve runs under an errstate decorator; with numpy >= 2 its state is
    # per context, so a solve that a callback starts cannot leave the outer
    # solve's "ignore" settings behind
    prob = gapped_problem(14, 10)
    inner = []

    def callback(k, w, c):
        if k == 1:
            inner.append(ms.solve(prob, ms.SolverConfig(max_iters=3)))

    before = np.geterr()
    ms.solve(prob, ms.SolverConfig(max_iters=5), callback=callback)
    assert len(inner) == 1
    assert np.geterr() == before
