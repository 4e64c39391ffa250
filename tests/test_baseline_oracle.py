import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmgl import baseline_oracle as bo
from mmgl import graph_model as gm

from oracles import brute_force, default_box_upper


def p2_closed_form(d, alpha, beta):
    # stationary point of the scalar objective 2dw - 2 alpha log(w) + beta w^2
    return (-d + np.sqrt(d * d + 4 * alpha * beta)) / (2 * beta)


def make_problem(p, d, alpha=1.0, beta=1.0):
    return gm.ProblemInstance(p=p, d=np.asarray(d, dtype=float), alpha=alpha, beta=beta)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        bo.OracleConfig(tol=0.0)
    with pytest.raises(ValueError):
        bo.OracleConfig(tol=np.inf)
    with pytest.raises(ValueError):
        bo.OracleConfig(max_iters=0)


def test_pg_solve_p2_closed_forms():
    res = bo.pg_solve(make_problem(2, [0.0]))
    assert res.converged
    assert res.w_star[0] == pytest.approx(1.0, abs=1e-6)

    res = bo.pg_solve(make_problem(2, [1.0]))
    assert res.w_star[0] == pytest.approx(0.618034, abs=1e-6)
    assert res.w_star[0] == pytest.approx(p2_closed_form(1.0, 1.0, 1.0), abs=1e-6)


def test_pg_solve_p3_symmetric():
    res = bo.pg_solve(make_problem(3, [0, 0, 0]))
    np.testing.assert_allclose(res.w_star, np.full(3, 0.707107), atol=1e-5)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pg_solve_trace_monotone(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 9))
    prob = make_problem(p, rng.uniform(0, 3, gm.num_edges(p)),
                        alpha=float(rng.uniform(0.3, 3)), beta=float(rng.uniform(0.3, 3)))
    res = bo.pg_solve(prob, bo.OracleConfig(max_iters=5000))
    assert np.all(np.diff(res.trace.f) <= 0)
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
        res_pg = bo.pg_solve(prob)
        f_bf = gm.objective(w_bf, prob)
        assert abs(f_bf - res_pg.f_star) <= 1e-6 * max(1.0, abs(res_pg.f_star))


def test_brute_force_rejects_large_problems():
    with pytest.raises(ValueError):
        brute_force(make_problem(4, np.zeros(6)))  # m=6 > 4


def test_all_three_solvers_agree():
    from mmgl import mm_solver as ms
    rng = np.random.default_rng(33)
    for _ in range(5):
        prob = make_problem(3, rng.uniform(0, 4, 3),
                            alpha=float(rng.uniform(0.3, 2)), beta=float(rng.uniform(0.3, 2)))
        f_mm = ms.solve(prob, ms.SolverConfig(epsilon=1e-12, max_iters=100000)).f_star
        f_pg = bo.pg_solve(prob).f_star
        f_bf = gm.objective(brute_force(prob), prob)
        assert f_mm == pytest.approx(f_pg, rel=1e-5)
        assert f_bf == pytest.approx(f_pg, rel=1e-5)


def test_default_box_upper_contains_p2_optimum():
    prob = make_problem(2, [2.5], alpha=0.7, beta=1.9)
    assert default_box_upper(prob) >= p2_closed_form(2.5, 0.7, 1.9)
