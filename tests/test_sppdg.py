import numpy as np
import pytest

from conftest import quadratic_problem, split_quadratic_finite_sum
from dualprox import conjprox, linops, ppdg
from dualprox.problems import FiniteSumProblem, build_fused_lasso, build_precision_graph, synthetic_fused_lasso_data
from dualprox.sppdg import (
    SppdgConfig,
    SppdgLyapunovConstants,
    expectation_descent_report,
    lagrangian,
    solve_stochastic,
)


def exact_cfg(**kw):
    kw.setdefault("alpha", ppdg.default_alpha(1.0))
    return SppdgConfig(**kw)


# --- constants -----------------------------------------------------------


def test_constants_match_componentwise_formula():
    alpha, L, kappa = 0.02, 1.0, 0.5
    d1, d2 = 1.0, 1.0 / 6.0
    c = SppdgLyapunovConstants.from_parameters(alpha, L, kappa)
    e4 = (
        1 / alpha - (d1 + L) / 2 - kappa / (2 * d1) - 3 * alpha * kappa / (2 * d2)
        - 2 * d2 * alpha * ((1 / alpha + L) ** 2 + 2 * kappa)
    )
    e5 = 2 * d2 * alpha * (1 / alpha**2 + kappa)
    e6 = 2 * d2 * alpha * kappa + kappa / (2 * d1) + 3 * alpha * (L**2 + 2 * kappa) / (2 * d2)
    e7 = 3 * alpha * kappa / (2 * d2)
    assert c.e0 == pytest.approx((e4 - e5 - e6 - e7) / 3.0, rel=1e-12)
    assert c.a == pytest.approx(c.e0 + e5, rel=1e-12)
    assert c.b == pytest.approx(c.e0 + e6 + e7, rel=1e-12)
    assert c.c == pytest.approx(e7, rel=1e-12)


def test_positive_e0_under_the_step_rule():
    L, kappa = 1.0, 0.5
    bound = 1.0 / (2.0 * (3.0 + 7.0 * L + 6.0 * kappa))
    c = SppdgLyapunovConstants.from_parameters(0.9 * bound, L, kappa)
    assert c.e0 > 0 and c.a > 0 and c.b > 0 and c.c > 0


def test_alpha_rule_enforced_when_kappa_positive():
    cfg = SppdgConfig(alpha=0.1, kappa_hat=1.0)
    with pytest.raises(ValueError, match="kappa"):
        cfg.resolve_alpha(1.0)
    auto = SppdgConfig(kappa_hat=1.0).resolve_alpha(1.0)
    assert auto < 1.0 / (2.0 * (3.0 + 7.0 + 6.0))


def test_alpha_fallback_without_kappa():
    assert SppdgConfig().resolve_alpha(2.0) == pytest.approx(0.9 / 6.0)


# --- finite-sum lagrangian -------------------------------------------------


def test_finite_sum_lagrangian_identical_components():
    fsp = FiniteSumProblem(
        n_components=3,
        component_value=lambda i, x: 0.5 * float(np.sum(x**2)),
        component_grad=lambda i, x: x,
        lipschitz_L=1.0,
        operator=linops.Identity(2),
        regularizer=conjprox.L0Box(0.1, -1, 1),
    )
    x = np.array([0.3, -0.2])
    y = np.array([0.05, 0.0])
    single = quadratic_problem(np.zeros(2), linops.Identity(2), conjprox.L0Box(0.1, -1, 1))
    assert lagrangian(fsp, x, y) == pytest.approx(ppdg.lagrangian(single, x, y))


def test_finite_sum_lagrangian_sigmoid_losses_at_origin():
    rows, labels = synthetic_fused_lasso_data(12, 4, seed=3)
    prob = build_fused_lasso(rows, labels, np.zeros((4, 4)))
    assert lagrangian(prob, np.zeros(4), np.zeros(8)) == pytest.approx(1.0)


def test_finite_sum_lagrangian_two_quadratics_hand_value():
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    fsp = FiniteSumProblem(
        n_components=2,
        component_value=lambda i, x: 0.5 * float(np.sum((x - targets[i]) ** 2)),
        component_grad=lambda i, x: x - targets[i],
        lipschitz_L=1.0,
        operator=linops.Identity(2),
        regularizer=conjprox.L0Box(0.1, -1, 1),
    )
    x = np.array([0.2, 0.4])
    y = np.array([0.01, -0.02])
    direct = 0.5 * (
        np.sum((x - targets[0]) ** 2) + np.sum((x - targets[1]) ** 2)
    ) / 2.0 + y @ x - fsp.regularizer.conj_value(y)
    assert lagrangian(fsp, x, y) == pytest.approx(direct, abs=1e-12)


# --- degeneracy and determinism -------------------------------------------


def ppdg_trace(problem, alpha, max_iters, tol, preconditioner="exact_M"):
    recs = []
    cfg = ppdg.PpdgConfig(
        alpha=alpha, preconditioner=preconditioner, max_iters=max_iters, tol_step=tol
    )
    report = ppdg.solve(problem, cfg, trace_sink=recs.append)
    return report, recs


COMPARED_FIELDS = ("iter", "objective", "lagrangian", "dx_norm", "dy_norm", "kkt_x", "kkt_y")


def assert_bit_identical(pp_report, pp_recs, run):
    assert np.array_equal(pp_report.x, run.report.x)
    assert np.array_equal(pp_report.y, run.report.y)
    assert len(pp_recs) == len(run.records)
    for a, b in zip(pp_recs, run.records):
        for name in COMPARED_FIELDS:
            assert getattr(a, name) == getattr(b, name), name


STACKED = linops.StackedOverIdentity(0.3 * np.eye(5, k=1))


@pytest.mark.parametrize("estimator, preconditioner, operator", [
    pytest.param("svrg", "exact_M", None, id="svrg"),
    pytest.param("full", "exact_M", None, id="full"),
    pytest.param("sarah", "exact_M", None, id="sarah"),
    pytest.param("svrg", "scalar_beta", STACKED, id="svrg-scalar_beta-stacked"),
    pytest.param("full", "scalar_beta", STACKED, id="full-scalar_beta-stacked"),
])
def test_full_batch_degeneracy_quadratic(estimator, preconditioner, operator):
    fsp = split_quadratic_finite_sum(4, 5, operator=operator)
    alpha = ppdg.default_alpha(1.0)
    pp_report, pp_recs = ppdg_trace(fsp, alpha, 400, 1e-10, preconditioner)
    assert pp_report.reason == "converged"
    cfg = exact_cfg(max_epochs=2000, tol_step=1e-10, seeds=(3,))
    # batch N also sets the default period to 1
    run = solve_stochastic(fsp, estimator, cfg, batch_size=4).per_seed[0]
    assert_bit_identical(pp_report, pp_recs, run)


def test_full_batch_degeneracy_l0_descent_problem():
    rng = np.random.default_rng(4)
    targets = rng.standard_normal((1, 10))
    fsp = FiniteSumProblem(
        n_components=1,
        component_value=lambda i, x: 0.5 * float(np.sum((x - targets[i]) ** 2)),
        component_grad=lambda i, x: x - targets[i],
        lipschitz_L=1.0,
        operator=linops.Identity(10),
        regularizer=conjprox.L0Box(0.1, -1, 1),
    )
    pp_report, pp_recs = ppdg_trace(fsp, 0.3, 300, 1e-10)
    cfg = SppdgConfig(alpha=0.3, max_epochs=1000,
                      tol_step=1e-10, seeds=(0,))
    # N = 1: every estimator kind degenerates to the full gradient
    for kind in ("svrg", "saga", "sarah", "full"):
        run = solve_stochastic(fsp, kind, cfg, batch_size=1).per_seed[0]
        assert_bit_identical(pp_report, pp_recs, run)


def test_same_seed_reproduces_trace_bitwise():
    fsp = split_quadratic_finite_sum(6, 4)
    cfg = exact_cfg(max_epochs=10, tol_step=0.0, seeds=(5, 5))
    res = solve_stochastic(fsp, "saga", cfg, batch_size=2)
    a, b = res.per_seed
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.objective == rb.objective
        assert ra.dx_norm == rb.dx_norm
        assert ra.lyapunov == rb.lyapunov


def test_distinct_seeds_differ():
    fsp = split_quadratic_finite_sum(6, 4)
    cfg = exact_cfg(max_epochs=10, tol_step=0.0, seeds=(1, 2))
    res = solve_stochastic(fsp, "saga", cfg, batch_size=2)
    objs = [[r.objective for r in run.records[:10]] for run in res.per_seed]
    assert objs[0] != objs[1]


# --- aggregate and epoch accounting ----------------------------------------


def test_aggregate_rows_and_eval_budget():
    fsp = split_quadratic_finite_sum(8, 3)
    cfg = exact_cfg(max_epochs=6, tol_step=0.0, seeds=(0, 1, 2))
    res = solve_stochastic(fsp, "svrg", cfg, batch_size=2)
    assert all(not r.failed for r in res.per_seed)
    assert len(res.aggregate) == min(len(r.records) for r in res.per_seed)
    row = res.aggregate[0]
    assert row.seeds_ok == 3
    assert row.iter == 1
    # budget respected within one iteration's evaluations
    for run in res.per_seed:
        assert run.comp_evals[-1] <= 6 * 8 + 2 * 8
    # aggregate means match direct averages
    direct = np.mean([r.records[0].objective for r in res.per_seed])
    assert row.mean_objective == pytest.approx(direct, abs=1e-15)


def test_zero_epoch_budget_returns_initial_point():
    fsp = split_quadratic_finite_sum(4, 3)
    cfg = exact_cfg(max_epochs=0, seeds=(0,))
    res = solve_stochastic(fsp, "svrg", cfg, batch_size=2)
    run = res.per_seed[0]
    assert run.report.iters == 0
    assert np.array_equal(run.report.x, np.zeros(3))


def test_zero_epoch_budget_reports_no_step():
    fsp = split_quadratic_finite_sum(4, 3)
    cfg = exact_cfg(max_epochs=0, seeds=(0,))
    run = solve_stochastic(fsp, "saga", cfg, batch_size=2).per_seed[0]
    report = run.report
    assert report.iters == 0 and run.records == [] and report.reason == "epoch-budget"
    assert np.isnan(report.kkt_y) and np.isnan(report.dx_norm) and np.isnan(report.dy_norm)
    # primal residual at the start: ||grad f(0) + A^T 0||
    assert report.kkt_x == np.linalg.norm(fsp.full_grad(np.zeros(3)))


def test_square_summability_per_seed():
    fsp = split_quadratic_finite_sum(8, 4)
    cfg = exact_cfg(max_epochs=40, tol_step=0.0, seeds=(0, 1))
    res = solve_stochastic(fsp, "saga", cfg, batch_size=2)
    for run in res.per_seed:
        sums = np.cumsum([r.dx_norm**2 for r in run.records])
        assert np.all(np.isfinite(sums))
        dual_sums = np.cumsum([r.dy_norm**2 for r in run.records])
        assert np.all(np.isfinite(dual_sums))


@pytest.mark.parametrize("estimator", ["saga", "svrg"])
def test_lyapunov_column_matches_five_point_window(monkeypatch, estimator):
    # kappa_hat > 0 makes the weight c on ||x^{k-1} - x^{k-2}||^2 nonzero
    fsp = split_quadratic_finite_sum(6, 4, regularizer=conjprox.L0Box(0.1, -1, 1))
    cfg = SppdgConfig(kappa_hat=0.5, max_epochs=10, tol_step=0.0, seeds=(2,))
    states = []
    step = ppdg.step

    def keep_state(*args, **kwargs):
        states.append(step(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(ppdg, "step", keep_state)
    run = solve_stochastic(fsp, estimator, cfg, batch_size=2).per_seed[0]
    alpha = cfg.resolve_alpha(fsp.lipschitz_L)
    consts = SppdgLyapunovConstants.from_parameters(alpha, fsp.lipschitz_L, 0.5)
    assert consts.c > 0
    xs = [np.zeros(4)] + [s.x_cur for s in states] + [states[-1].x_next]
    assert len(run.records) == len(states) > 10
    for k, (record, state) in enumerate(zip(run.records, states), start=1):
        back2 = xs[k - 2] if k >= 2 else xs[k - 1]
        window = (xs[k], state.y_cur, xs[k + 1], xs[k - 1], back2)
        assert record.lyapunov == ppdg.lyapunov_value(fsp, window, consts), k


def test_norm_cap_fails_the_seed():
    fsp = split_quadratic_finite_sum(4, 3)
    cfg = exact_cfg(max_epochs=20, seeds=(0, 1), norm_cap=0.5)
    with pytest.warns(RuntimeWarning, match="norm cap exceeded"):
        res = solve_stochastic(fsp, "saga", cfg, batch_size=2)
    assert all(r.failed and "norm cap exceeded" in r.error for r in res.per_seed)
    assert res.aggregate == []


# --- expectation descent ----------------------------------------------------


def test_descent_report_requires_two_seeds():
    consts = SppdgLyapunovConstants.from_parameters(0.02, 1.0, 0.0)
    with pytest.raises(ValueError):
        expectation_descent_report([[]], consts)


def test_descent_report_zero_violations_full_batch():
    # deterministic full-batch runs satisfy the descent lemma exactly,
    # so the averaged version has no violations under a valid step size
    fsp = split_quadratic_finite_sum(4, 6, regularizer=conjprox.L0Box(0.1, -1, 1))
    alpha = 0.045  # below 1/(2(3+7L)) so e0 > 0 at kappa = 0
    cfg = SppdgConfig(alpha=alpha, max_epochs=400,
                      tol_step=0.0, seeds=(0, 1))
    res = solve_stochastic(fsp, "full", cfg, batch_size=4)
    consts = SppdgLyapunovConstants.from_parameters(alpha, 1.0, 0.0)
    assert consts.e0 > 0
    violations, checked = expectation_descent_report(
        [r.records for r in res.per_seed], consts
    )
    assert checked > 50
    assert violations == 0


def test_descent_report_advisory_on_stochastic_runs():
    rows, labels = synthetic_fused_lasso_data(60, 8, seed=1)
    V = build_precision_graph(rows, threshold=0.5)
    prob = build_fused_lasso(rows, labels, V, normalize_rows=True)
    cfg = SppdgConfig(max_epochs=30, tol_step=0.0, seeds=tuple(range(6)))
    res = solve_stochastic(prob, "svrg", cfg, batch_size=2)
    consts = SppdgLyapunovConstants.from_parameters(
        cfg.resolve_alpha(prob.lipschitz_L), prob.lipschitz_L, 0.0
    )
    violations, checked = expectation_descent_report(
        [r.records for r in res.per_seed], consts
    )
    assert checked > 100
    assert violations <= 0.2 * checked


# --- failure handling -------------------------------------------------------


def test_diverging_seed_is_reported_and_survivors_aggregate():
    fsp = split_quadratic_finite_sum(4, 3)
    # huge alpha diverges for every seed
    cfg = SppdgConfig(alpha=1e9, max_epochs=5, seeds=(0, 1))
    with pytest.warns(RuntimeWarning, match="diverged"):
        res = solve_stochastic(fsp, "svrg", cfg, batch_size=4)
    assert all(r.failed for r in res.per_seed)
    assert res.aggregate == []


def test_final_epoch_mean_step_norm_small():
    # derived desk-scale example: seeded N=200, n=20 instance, ten seeds,
    # mean primal step at the final epoch under 1e-4
    rows, labels = synthetic_fused_lasso_data(200, 20, seed=0)
    V = build_precision_graph(rows, threshold=0.5)
    prob = build_fused_lasso(rows, labels, V, normalize_rows=True)
    cfg = SppdgConfig(max_epochs=50, tol_step=0.0, seeds=tuple(range(10)))
    res = solve_stochastic(prob, "saga", cfg, batch_size=2)
    assert res.aggregate[-1].mean_dx < 1e-4
