import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mmgl import data_gen as dg
from mmgl import graph_model as gm
from mmgl import mm_solver as ms

from oracles import brute_force, make_problem, objective_gradient


def kkt(w, prob):
    return gm.kkt_residual(w, objective_gradient(w, prob), prob.d, gm.degrees(w, prob.p), prob.alpha)


def test_kkt_residual():
    # 0 at the p = 2 closed form, where w > 0 needs g = 0
    assert kkt(np.ones(1), make_problem(2, [0.0])) == 0.0
    # the last two have d^2 >> alpha beta, where a subtracted form of the
    # root loses its digits
    for d, alpha, beta in [(1.0, 1.0, 1.0), (2.5, 0.7, 1.9), (0.3, 20.0, 0.01), (1e9, 1.0, 1.0),
                           (1e6, 1e-6, 1e6)]:
        assert kkt(np.array([gm.p2_root(d, alpha, beta)]), make_problem(2, [d], alpha, beta)) <= 1e-15
    # an edge at w = 0 counts when g < 0 and not when g > 0; a positive one
    # counts either way; the scale is 2 max d + alpha / min deg = 2 + 3 / 1.5
    d, deg = np.array([1.0, 0.5]), np.array([1.5, 2.0])
    assert gm.kkt_residual(np.array([1.0, 0.0]), np.array([0.0, -2.0]), d, deg, 3.0) == 0.5
    assert gm.kkt_residual(np.array([1.0, 0.0]), np.array([0.0, 2.0]), d, deg, 3.0) == 0.0
    assert gm.kkt_residual(np.array([1.0, 1.0]), np.array([0.0, 2.0]), d, deg, 3.0) == 0.5


def test_newton_solve_p2_closed_forms():
    res = ms.newton_solve(make_problem(2, [0.0]))
    assert res.converged
    assert res.w_star[0] == pytest.approx(1.0, abs=1e-6)
    assert brute_force(make_problem(2, [0.0]))[0] == pytest.approx(1.0, abs=1e-8)
    assert brute_force(make_problem(2, [1.0]))[0] == pytest.approx(0.6180, abs=1e-4)

    res = ms.newton_solve(make_problem(2, [1.0]))
    assert res.w_star[0] == pytest.approx(0.618034, abs=1e-6)
    assert res.w_star[0] == pytest.approx(gm.p2_root(1.0, 1.0, 1.0), abs=1e-6)


def test_newton_solve_converged_on_its_last_allowed_step():
    # the uncapped run meets tol after 10 steps; a cap of exactly 10 must
    # report the same stop, not "max_iters"
    prob = dg.assemble(dg.gen_signals(dg.gen_er(8, 0.5, 2), dg.SignalModel(0.1, 20), 2), 1.0, 1.0)
    free = ms.newton_solve(prob, ms.SolverConfig(tol=1e-5))
    assert free.reason == "converged" and free.iters == 10
    capped = ms.newton_solve(prob, ms.SolverConfig(tol=1e-5, max_iters=10))
    assert capped.reason == "converged" and capped.converged
    np.testing.assert_array_equal(capped.w_star, free.w_star)
    assert capped.f_star == free.f_star
    assert ms.newton_solve(prob, ms.SolverConfig(tol=1e-5, max_iters=9)).reason == "max_iters"
    # a residual equal to tol converges: at tol = the 10th step's own residual,
    # computed as the solver does, the run stops there
    w, d, deg = free.w_star, prob.d, gm.degrees(free.w_star, prob.p)
    tol = gm.kkt_residual(w, gm.gradient_value(w, d, deg, *gm.edge_pairs(prob.p), 1.0, 1.0), d, deg, 1.0)
    tied = ms.newton_solve(prob, ms.SolverConfig(tol=tol))
    assert (tied.reason, tied.iters) == ("converged", 10)


def test_newton_solve_line_search_takes_the_armijo_decrease_along_the_step():
    # the sufficient decrease is sigma g.(w_new - w); measured along w_new + w,
    # the line search refuses steps it should take, and this run stops
    # stationary after 50 steps
    prob = dg.assemble(dg.gen_signals(dg.gen_er(30, 0.3, 0), dg.SignalModel(0.1, 200), 0), 1e-3, 1e-3)
    res = ms.newton_solve(prob, ms.SolverConfig(tol=1e-10))
    assert (res.reason, res.iters) == ("converged", 55)
    # with the decrease's sign flipped, every step that lowers f passes as
    # sufficient, and this run stops stationary after 161 steps
    prob = dg.assemble(dg.gen_signals(dg.gen_er(20, 0.3, 11), dg.SignalModel(0.1, 200), 11), 1e-5, 10.0)
    assert ms.newton_solve(prob, ms.SolverConfig(tol=1e-10)).converged


def er_or_sbm(family, p, seed, alpha, beta):
    g = dg.gen_er(p, 0.1, seed) if family == "er" else dg.gen_sbm(p, 0.3, 0.05, seed)
    return dg.assemble(dg.gen_signals(g, dg.SignalModel(0.1, 1200), seed), alpha, beta)


@pytest.mark.parametrize("family, p, seed, alpha, beta", [
    ("er", 100, 20260107, 100.0, 1e4),  # criterion 7
    ("er", 100, 7, 1.0, 1e6),
    ("er", 100, 7, 10.0, 10.0),
    ("er", 30, 5, 10.0, 10.0),
    ("er", 30, 6, 10.0, 10.0),
    ("er", 30, 7, 10.0, 10.0),
    ("sbm", 200, 70001, 100.0, 100.0),
    # (2 beta)^2 overflows past beta ~ 6.7e153: as a float product it is
    # inf, and the Woodbury term y / (2 beta)^2 is 0
    ("er", 20, 3, 1.0, 1e200),
])
def test_newton_solve_certifies_ill_conditioned_instances(family, p, seed, alpha, beta):
    prob = er_or_sbm(family, p, seed, alpha, beta)
    res = ms.newton_solve(prob, ms.SolverConfig(tol=1e-10))
    assert res.converged
    assert kkt(res.w_star, prob) <= 1e-10


@pytest.mark.parametrize("alpha", [1e-10, 1e-20])
def test_newton_solve_stops_stationary_on_a_singular_system(alpha):
    # at beta = 1 and a tiny alpha, deg^2 / alpha rounds away in M, which
    # leaves S_F S_F^T / (2 beta): a signless Laplacian, singular once the
    # free edges have a bipartite component. np.linalg.solve refuses it
    # after 188 (alpha 1e-10) and 215 (1e-20) steps.
    res = ms.newton_solve(er_or_sbm("er", 20, 3, alpha, 1.0))
    assert res.reason == "stationary"
    assert 0 < res.iters < ms.SolverConfig.max_iters
    assert np.all(np.diff(res.trace.f) <= 0)


@pytest.mark.parametrize("alpha, beta, reason", [
    (1.0, 1e-320, "stationary"),  # 1 / (2 beta) overflows
    (1e300, 1e-300, "stationary"),  # (2 beta)^2 underflows to 0
    (1e-300, 1e300, "stationary"),
    (1e308, 1.0, "non_finite"),  # alpha sum log deg overflows: f = -inf at the start
    (1.0, 1e308, "non_finite"),  # beta ||w||^2 overflows: f = +inf at the start
    (1e-300, 1e-300, "stationary"),
])
def test_newton_solve_names_each_badly_scaled_stop_without_a_warning(alpha, beta, reason):
    prob = er_or_sbm("er", 20, 3, alpha, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = ms.newton_solve(prob)
    assert res.reason == reason
    if reason == "non_finite":
        assert res.iters == 0
        np.testing.assert_array_equal(res.w_star, np.ones(prob.m))


def test_newton_solve_reports_converged_only_within_tol():
    # alpha = beta = 1e-3: the oracle stalls above tol (relative KKT 2.7e-4
    # after 159 steps), below 1.3484193969237828, where the earlier
    # projected-gradient oracle stopped
    prob = er_or_sbm("er", 100, 7, 1e-3, 1e-3)
    res = ms.newton_solve(prob, ms.SolverConfig(tol=1e-10))
    assert res.converged == (kkt(res.w_star, prob) <= 1e-10)
    assert res.reason in ("converged", "stationary")
    assert res.f_star <= 1.3484193969237828


@pytest.mark.xfail(strict=True, reason="open defect: the oracle stops stationary after 42 steps at "
                   "f 0.005741204079714243; a fix turns this into an XPASS, which fails the suite")
def test_newton_solve_converges_on_er30_seed5_at_1e_minus_5():
    # equilibrating the Woodbury system was measured not to mend it
    assert ms.newton_solve(er_or_sbm("er", 30, 5, 1e-5, 1e-5)).converged


def test_mm_brackets_the_optimum_the_oracle_misses():
    # the instance of the strict xfail above: MM with elimination off
    # reaches f*, and the box gap certifies it without an oracle
    prob = er_or_sbm("er", 30, 5, 1e-5, 1e-5)
    res = ms.solve(prob, ms.SolverConfig(epsilon=1e-15, elimination_threshold=0.0))
    assert res.converged
    gap = gm.box_gap(res.w_star, objective_gradient(res.w_star, prob), prob.d, prob.alpha, prob.beta)
    assert 0.0 <= gap <= 1e-11 * res.f_star


@pytest.mark.parametrize("p, seed, alpha, beta", [
    (30, 5, 1e-5, 1e-5), (100, 7, 1e-4, 1e-4), (100, 7, 1e-5, 1e-5), (20, 3, 1e-20, 1.0),
])
def test_mm_converges_where_every_first_weight_is_below_the_threshold(p, seed, alpha, beta):
    # every first MM weight is below 1e-8 here, so a threshold absolute in
    # w (1e-8) would retire every edge in iteration 1 and stop the run
    # non_finite. Relative to each edge's own bound u_j, MM converges and,
    # at a tight tolerance, the box gap certifies it
    prob = er_or_sbm("er", p, seed, alpha, beta)
    assert ms.solve(prob).converged
    res = ms.solve(prob, ms.SolverConfig(epsilon=1e-10))
    assert res.converged
    gap = gm.box_gap(res.w_star, objective_gradient(res.w_star, prob), prob.d, prob.alpha, prob.beta)
    assert 0.0 <= gap <= 2e-6 * abs(res.f_star)


@given(st.integers(2, 5), st.floats(-12, 12), st.floats(-12, 12), st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]),
       st.integers(0, 2**32 - 1))
def test_box_gap_is_a_lower_bound_on_f_star(p, log_alpha, log_beta, delta, seed):
    # weak duality: f(w) - box_gap(w) <= f* at and near the optimum, at any
    # scale; d scales with sqrt(alpha beta), so every draw is a rescaled
    # alpha = beta = 1 instance, where neither d nor the barrier dominates
    alpha, beta = 10.0 ** log_alpha, 10.0 ** log_beta
    rng = np.random.default_rng(seed)
    prob = make_problem(p, rng.uniform(0, 3, gm.num_edges(p)) * np.sqrt(alpha * beta), alpha, beta)
    w_star = brute_force(prob)
    f_star = gm.objective(w_star, prob)
    w = np.maximum(w_star + delta * w_star.max() * rng.uniform(-1, 1, prob.m), 0.0)
    assume(gm.degrees(w, p).min() > 0)
    gap = gm.box_gap(w, objective_gradient(w, prob), prob.d, alpha, beta)
    assert gm.objective(w, prob) - gap <= f_star + 1e-14 * abs(f_star)


def test_box_gap_scales_with_alpha():
    # d times sqrt(alpha beta) and w times sqrt(alpha / beta) scale the
    # gradient by sqrt(alpha beta) and the box by sqrt(alpha / beta), so
    # the gap by alpha
    rng = np.random.default_rng(37)
    d, w = rng.uniform(0, 3, gm.num_edges(5)), rng.uniform(0, 1, gm.num_edges(5))
    gaps = []
    for alpha, beta in [(1.0, 1.0), (1e3, 1e-3), (1e-3, 1e3), (1e-20, 1.0), (1e6, 1e6)]:
        prob = make_problem(5, d * np.sqrt(alpha * beta), alpha, beta)
        w_ab = w * np.sqrt(alpha / beta)
        gaps.append(gm.box_gap(w_ab, objective_gradient(w_ab, prob), prob.d, alpha, beta) / alpha)
    np.testing.assert_allclose(gaps, gaps[0], rtol=1e-13, atol=0)


def test_newton_solve_p3_symmetric():
    res = ms.newton_solve(make_problem(3, [0, 0, 0]))
    np.testing.assert_allclose(res.w_star, np.full(3, 0.707107), atol=1e-5)


def test_newton_solve_binds_only_the_edges_its_step_pushes_below_zero():
    # from w = 1 the Newton step is (0.6, -1, -2.6), with g = (0, 2, 4): edge
    # (1, 2) is bound at 0, while edge (0, 2) lands exactly on 0 and stays
    # free, as it is at the optimum; binding it too takes 4 steps
    res = ms.newton_solve(make_problem(3, [0.0, 1.0, 2.0], alpha=1.0, beta=0.5))
    assert (res.reason, res.iters) == ("converged", 5)
    assert res.w_star[1] > 0.5 and res.w_star[2] == 0.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_newton_solve_trace_monotone(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 9))
    prob = make_problem(p, rng.uniform(0, 3, gm.num_edges(p)),
                        alpha=float(rng.uniform(0.3, 3)), beta=float(rng.uniform(0.3, 3)))
    res = ms.newton_solve(prob, ms.SolverConfig(max_iters=5000))
    assert np.all(np.diff(res.trace.f) <= 0)
    assert not res.converged or kkt(res.w_star, prob) <= ms.SolverConfig.tol
    assert res.f_star == res.trace.f[-1]
    assert res.iters == len(res.trace) - 1


def test_brute_force_is_exact_at_any_scale():
    # weights near 1e-13: a stop rule absolute in w, not relative to max(w),
    # stops 9.5e-6 (relative) above the optimum here
    prob = make_problem(3, [1.95, 2.09, 0.88], alpha=1e-12, beta=2e11)
    oracle = ms.newton_solve(prob)
    assert oracle.converged
    assert abs(gm.objective(brute_force(prob), prob) - oracle.f_star) <= 1e-12 * abs(oracle.f_star)
    rng = np.random.default_rng(32)
    cfg = ms.SolverConfig(epsilon=1e-15, elimination_threshold=0.0)
    for _ in range(50):
        p = int(rng.integers(3, 6))
        prob = make_problem(p, rng.uniform(0, 3, gm.num_edges(p)),
                            alpha=float(10 ** rng.uniform(-12, 12)), beta=float(10 ** rng.uniform(-12, 12)))
        f_mm = ms.solve(prob, cfg).f_star
        assert gm.objective(brute_force(prob), prob) - f_mm <= 1e-12 * abs(f_mm)
