import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmgl import data_gen as dg
from mmgl import graph_model as gm
from mmgl import mm_solver as ms

from oracles import brute_force, default_box_upper


def p2_closed_form(d, alpha, beta):
    # stationary point of the scalar objective 2dw - 2 alpha log(w) + beta w^2
    return (-d + np.sqrt(d * d + 4 * alpha * beta)) / (2 * beta)


def make_problem(p, d, alpha=1.0, beta=1.0):
    return gm.ProblemInstance(p=p, d=np.asarray(d, dtype=float), alpha=alpha, beta=beta)


def test_oracle_config_validation():
    # the oracle reads tol and max_iters from the shared SolverConfig
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            ms.SolverConfig(tol=tol)
    with pytest.raises(ValueError):
        ms.SolverConfig(max_iters=0)


def kkt(w, prob):
    return gm.kkt_residual(w, gm.objective_gradient(w, prob), prob.d, gm.degrees(w, prob.p), prob.alpha)


def test_kkt_residual():
    # 0 at the p = 2 closed form, where w > 0 needs g = 0
    assert kkt(np.ones(1), make_problem(2, [0.0])) == 0.0
    for d, alpha, beta in [(1.0, 1.0, 1.0), (2.5, 0.7, 1.9), (0.3, 20.0, 0.01)]:
        assert kkt(np.array([p2_closed_form(d, alpha, beta)]), make_problem(2, [d], alpha, beta)) <= 1e-15
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

    res = ms.newton_solve(make_problem(2, [1.0]))
    assert res.w_star[0] == pytest.approx(0.618034, abs=1e-6)
    assert res.w_star[0] == pytest.approx(p2_closed_form(1.0, 1.0, 1.0), abs=1e-6)


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
])
def test_newton_solve_certifies_ill_conditioned_instances(family, p, seed, alpha, beta):
    prob = er_or_sbm(family, p, seed, alpha, beta)
    res = ms.newton_solve(prob, ms.SolverConfig(tol=1e-10))
    assert res.converged
    assert kkt(res.w_star, prob) <= 1e-10


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


def test_newton_solve_p3_symmetric():
    res = ms.newton_solve(make_problem(3, [0, 0, 0]))
    np.testing.assert_allclose(res.w_star, np.full(3, 0.707107), atol=1e-5)


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


def test_brute_force_p2():
    w = brute_force(make_problem(2, [0.0]))
    assert w[0] == pytest.approx(1.0, abs=1e-8)
    w = brute_force(make_problem(2, [1.0]))
    assert w[0] == pytest.approx(0.6180, abs=1e-4)


def test_brute_force_agrees_with_pg_on_p3():
    rng = np.random.default_rng(21)
    for _ in range(5):
        prob = make_problem(3, rng.uniform(0, 3, 3),
                            alpha=float(rng.uniform(0.3, 3)), beta=float(rng.uniform(0.3, 3)))
        w_bf = brute_force(prob)
        res_oracle = ms.newton_solve(prob)
        f_bf = gm.objective(w_bf, prob)
        assert abs(f_bf - res_oracle.f_star) <= 1e-6 * max(1.0, abs(res_oracle.f_star))


def test_brute_force_rejects_large_problems():
    with pytest.raises(ValueError):
        brute_force(make_problem(4, np.zeros(6)))  # m=6 > 4


def test_all_three_solvers_agree():
    rng = np.random.default_rng(33)
    for _ in range(5):
        prob = make_problem(3, rng.uniform(0, 4, 3),
                            alpha=float(rng.uniform(0.3, 2)), beta=float(rng.uniform(0.3, 2)))
        f_mm = ms.solve(prob, ms.SolverConfig(epsilon=1e-12, max_iters=100000)).f_star
        f_oracle = ms.newton_solve(prob).f_star
        f_bf = gm.objective(brute_force(prob), prob)
        assert f_mm == pytest.approx(f_oracle, rel=1e-5)
        assert f_bf == pytest.approx(f_oracle, rel=1e-5)


def test_default_box_upper_contains_p2_optimum():
    prob = make_problem(2, [2.5], alpha=0.7, beta=1.9)
    assert default_box_upper(prob) >= p2_closed_form(2.5, 0.7, 1.9)
