import warnings

import numpy as np
import pytest

from conftest import lyapunov_reference, quadratic_problem, split_quadratic_finite_sum
from dualprox import conjprox, linops, ppdg, sppdg, vrgrad
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


def test_explicit_alpha_below_the_kappa_bound_is_returned_as_given():
    alpha = 0.5 / (2.0 * (3.0 + 7.0 + 6.0))
    assert SppdgConfig(alpha=alpha, kappa_hat=1.0).resolve_alpha(1.0) == alpha


def test_config_needs_at_least_one_seed():
    with pytest.raises(ValueError, match="^need at least one seed$"):
        SppdgConfig(seeds=()).validate(split_quadratic_finite_sum(6, 4))


@pytest.mark.parametrize("epochs", [float("inf"), -1, -0.5])
def test_epoch_budget_must_be_finite_and_nonnegative(epochs):
    # an infinite budget with the default tol_step = 0 would never stop
    message = f"^max_epochs must be nonnegative and finite, got {epochs}$"
    with pytest.raises(ValueError, match=message):
        SppdgConfig(max_epochs=epochs).validate(split_quadratic_finite_sum(6, 4))


def test_nan_kappa_hat_is_rejected_not_taken_for_zero():
    with pytest.raises(ValueError, match="kappa_hat"):
        SppdgConfig(kappa_hat=float("nan")).resolve_alpha(1.0)


@pytest.mark.parametrize("setting, match", [
    ({"max_epochs": float("nan")}, "max_epochs must be nonnegative"),
    ({"alpha": float("inf")}, "alpha must be positive and finite"),
    ({"alpha": -1.0}, "alpha must be positive and finite, got -1.0"),
])
def test_nan_epoch_limit_or_infinite_step_is_rejected(setting, match):
    fsp = split_quadratic_finite_sum(6, 4)
    with pytest.raises(ValueError, match=match):
        solve_stochastic(fsp, "svrg", exact_cfg(**setting), batch_size=2)


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


def ppdg_trace(problem, alpha, max_iters, tol):
    recs = []
    cfg = ppdg.PpdgConfig(alpha=alpha, max_iters=max_iters, tol_step=tol)
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


@pytest.mark.parametrize("estimator, operator", [
    pytest.param("svrg", None, id="svrg"),
    pytest.param("full", None, id="full"),
    pytest.param("sarah", None, id="sarah"),
    pytest.param("svrg", STACKED, id="svrg-stacked"),
    pytest.param("full", STACKED, id="full-stacked"),
])
def test_full_batch_degeneracy_quadratic(estimator, operator):
    fsp = split_quadratic_finite_sum(4, 5, operator=operator)
    alpha = ppdg.default_alpha(1.0)
    pp_report, pp_recs = ppdg_trace(fsp, alpha, 400, 1e-10)
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


def test_ten_seed_aggregate_equals_per_row_mean():
    fsp = split_quadratic_finite_sum(8, 3, regularizer=conjprox.L0Box(0.1, -1, 1))
    cfg = exact_cfg(max_epochs=5, tol_step=0.0, seeds=tuple(range(10)))
    res = solve_stochastic(fsp, "saga", cfg, batch_size=1)
    runs = [r.records for r in res.per_seed]
    assert len(res.aggregate) == min(map(len, runs)) > 10
    fields = [("mean_objective", "objective"), ("mean_lagrangian_s", "lagrangian"),
              ("mean_lyapunov_s", "lyapunov"), ("mean_dx", "dx_norm"), ("mean_dy", "dy_norm")]
    for j, row in enumerate(res.aggregate):
        for mean_name, name in fields:
            direct = float(np.mean([getattr(recs[j], name) for recs in runs]))
            assert getattr(row, mean_name) == direct, (j, name)


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
        assert record.lyapunov == lyapunov_reference(fsp, window, consts), k


@pytest.mark.parametrize("estimator", ["saga", "svrg"])
def test_kkt_x_uses_the_full_gradient_not_the_estimate(monkeypatch, estimator):
    rows, labels = synthetic_fused_lasso_data(30, 4, seed=2)
    prob = build_fused_lasso(rows, labels, build_precision_graph(rows), normalize_rows=True)
    cfg = SppdgConfig(max_epochs=10, tol_step=0.0, seeds=(1,))
    states = []
    step = ppdg.step

    def keep_state(*args, **kwargs):
        states.append(step(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(ppdg, "step", keep_state)
    # the rows take grad f(x^k) from the batched full sums; keep what they return
    points, grads = [], []
    full_sums = prob.full_sums

    def keep_sums(xs):
        values, batch_grads = full_sums(xs)
        points.extend(xs)
        grads.extend(batch_grads)
        return values, batch_grads

    prob.full_sums = keep_sums
    run = solve_stochastic(prob, estimator, cfg, batch_size=2).per_seed[0]
    assert len(run.records) == len(states) == len(grads) > 10
    for record, state, x, grad in zip(run.records, states, points, grads):
        assert np.array_equal(x, state.x_cur), record.iter
        np.testing.assert_allclose(grad, prob.full_grad(state.x_cur), rtol=1e-12, atol=1e-15)
        residual = grad + prob.operator.apply_adjoint(state.y_cur)
        assert record.kkt_x == float(np.linalg.norm(residual)), record.iter


def test_norm_cap_fails_the_seed(monkeypatch):
    fsp = split_quadratic_finite_sum(4, 3)
    cfg = exact_cfg(max_epochs=20, seeds=(0, 1))
    monkeypatch.setattr(ppdg, "NORM_CAP", 0.5)
    with pytest.warns(RuntimeWarning, match="iterate norm above 0.5"):
        res = solve_stochastic(fsp, "saga", cfg, batch_size=2)
    assert all(r.failed and "iterate norm above 0.5" in r.error for r in res.per_seed)
    assert res.aggregate == []


def test_nan_component_gradient_fails_the_seed():
    # component 2 returns nan; SAGA's reset stores every component gradient,
    # so the anchor mean, the first estimate and x^1 are nan, and step 1 raises
    good = split_quadratic_finite_sum(4, 3)
    component_grad = good.component_grad
    fsp = FiniteSumProblem(
        n_components=4, component_value=good.component_value,
        component_grad=lambda i, x: np.full_like(x, np.nan) if i == 2 else component_grad(i, x),
        lipschitz_L=1.0, operator=good.operator, regularizer=good.regularizer,
    )
    fsp.full_value, fsp.full_grad = good.full_value, good.full_grad
    cfg = SppdgConfig(alpha=ppdg.default_alpha(1.0), max_epochs=5, seeds=(0, 1))
    with pytest.warns(RuntimeWarning, match="diverged"):
        res = solve_stochastic(fsp, "saga", cfg, batch_size=2)
    assert all(r.failed and r.error.startswith("diverged at iteration 1:") for r in res.per_seed)
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


# --- deferred trace rows -------------------------------------------------


def _quadratic_l0(n_components=6, dim=4):
    return split_quadratic_finite_sum(n_components, dim, regularizer=conjprox.L0Box(0.1, -1, 1))


def _keep_states(monkeypatch):
    states = []
    step = ppdg.step

    def keep_state(*args, **kwargs):
        states.append(step(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(ppdg, "step", keep_state)
    return states


def _row_values(record):
    return [value for name, value in vars(record).items() if name != "elapsed_s"]


@pytest.mark.parametrize("kind", ["saga", "svrg", "sarah", "full"])
def test_comp_evals_are_stamped_at_each_rows_iteration(monkeypatch, kind):
    # the estimator's count after its estimate at k, recorded as it happens
    after = {}
    for cls in (vrgrad.SagaEstimator, vrgrad.SvrgEstimator):
        def counted(self, k, x, _estimate=cls.estimate):
            value = _estimate(self, k, x)
            after[(self.seed, k)] = self.evals
            return value

        monkeypatch.setattr(cls, "estimate", counted)
    fsp = _quadratic_l0(8, 3)
    cfg = exact_cfg(max_epochs=60, seeds=(0, 1))
    result = solve_stochastic(fsp, kind, cfg, batch_size=2, period=5)
    for run in result.per_seed:
        assert len(run.records) > sppdg.ROW_BATCH and len(run.records) % sppdg.ROW_BATCH
        assert run.comp_evals == [after[(run.seed, r.iter)] for r in run.records]
    assert len(result.aggregate) > sppdg.ROW_BATCH
    assert [row.comp_evals for row in result.aggregate] == [
        after[(0, row.iter)] for row in result.aggregate
    ]
    # the stamps rise within a batch; a count read when the batch is built would not
    assert len(set(result.per_seed[0].comp_evals[: sppdg.ROW_BATCH])) > 1


@pytest.mark.parametrize("kind", ["saga", "svrg"])
def test_rows_without_a_full_sums_override_are_the_per_row_rows(monkeypatch, kind):
    # the default full_sums evaluates full_value and full_grad at each point,
    # so each row is make_record's own, built at its state from those sums, bit for bit
    states = _keep_states(monkeypatch)
    fsp = _quadratic_l0()
    cfg = exact_cfg(max_epochs=30, seeds=(2,))
    run = solve_stochastic(fsp, kind, cfg, batch_size=2).per_seed[0]
    consts = SppdgLyapunovConstants.from_parameters(cfg.alpha, 1.0, 0.0)
    assert len(run.records) == len(states) > sppdg.ROW_BATCH
    assert len(run.records) % sppdg.ROW_BATCH
    for record, state in zip(run.records, states):
        sums = (fsp.full_value(state.x_cur), fsp.full_grad(state.x_cur))
        own = ppdg.make_record(fsp, state, (consts.a, consts.b, consts.c), sums=sums)
        assert _row_values(record) == _row_values(own), record.iter


@pytest.mark.parametrize("kind", ["saga", "svrg"])
def test_fused_lasso_rows_match_per_point_rows_within_roundoff(kind):
    rows, labels = synthetic_fused_lasso_data(60, 6, seed=4)
    prob = build_fused_lasso(rows, labels, build_precision_graph(rows), normalize_rows=True)
    per_point = build_fused_lasso(rows, labels, build_precision_graph(rows), normalize_rows=True)
    per_point.full_sums = lambda xs: FiniteSumProblem.full_sums(per_point, xs)
    cfg = SppdgConfig(max_epochs=8, seeds=(0, 1))
    batched = solve_stochastic(prob, kind, cfg, batch_size=2)
    reference = solve_stochastic(per_point, kind, cfg, batch_size=2)
    for a, b in zip(batched.per_seed, reference.per_seed):
        assert len(a.records) == len(b.records) > sppdg.ROW_BATCH
        assert np.array_equal(a.report.x, b.report.x) and np.array_equal(a.report.y, b.report.y)
        assert (a.report.iters, a.report.reason, a.comp_evals) == (
            b.report.iters, b.report.reason, b.comp_evals)
        for ra, rb in zip(a.records, b.records):
            for name in ("iter", "dx_norm", "dy_norm", "kkt_y"):
                assert getattr(ra, name) == getattr(rb, name), (name, ra.iter)
            for name in ("objective", "lagrangian", "lyapunov", "kkt_x"):
                va, vb = getattr(ra, name), getattr(rb, name)
                # h(Ax) is +inf outside the box, in both rows alike
                assert va == vb or abs(va - vb) <= 1e-12 * max(1.0, abs(vb)), (name, ra.iter)


def test_step_tolerance_stop_inside_a_batch_completes_the_last_row(monkeypatch):
    fsp = split_quadratic_finite_sum(6, 4)
    cfg = exact_cfg(max_epochs=400, tol_step=1e-6, seeds=(0,))
    batched = solve_stochastic(fsp, "svrg", cfg, batch_size=2).per_seed[0]
    batch = sppdg.ROW_BATCH
    monkeypatch.setattr(sppdg, "ROW_BATCH", 1)
    single = solve_stochastic(fsp, "svrg", cfg, batch_size=2).per_seed[0]
    assert batched.report.reason == single.report.reason == "converged"
    assert batched.report.iters == single.report.iters > batch
    assert batched.report.iters % batch not in (0, 1)
    assert [_row_values(r) for r in batched.records] == [_row_values(r) for r in single.records]
    last = batched.records[-1]
    assert last.iter == batched.report.iters
    assert max(last.dx_norm, last.dy_norm) <= cfg.tol_step
    assert all(np.isfinite(_row_values(last)))
    assert (batched.report.kkt_x, batched.report.kkt_y) == (last.kkt_x, last.kkt_y)
    assert batched.comp_evals == single.comp_evals


def test_divergence_inside_a_batch_fails_the_seed_with_no_rows():
    # alpha far above 1/L makes the iterates grow until the step rejects one
    fsp = _quadratic_l0()
    cfg = SppdgConfig(alpha=1.2, max_epochs=400, seeds=(0,))
    with pytest.warns(RuntimeWarning, match="diverged at iteration 47") as caught:
        res = solve_stochastic(fsp, "saga", cfg, batch_size=2)
    # the warning names the line that called solve_stochastic
    assert [w.filename for w in caught] == [__file__]
    run = res.per_seed[0]
    assert run.failed and run.report is None
    assert run.records == [] and run.comp_evals == []
    assert res.aggregate == []


def test_gradient_blowup_after_a_flushed_batch_fails_the_seed_with_no_rows():
    # the component gradient turns to 1e200 once the first ROW_BATCH rows
    # have been flushed; the seed keeps none of its rows, flushed ones included
    good = _quadratic_l0()
    flushed = []

    def component_grad(i, x):
        return np.full_like(x, 1e200) if flushed else good.component_grad(i, x)

    fsp = FiniteSumProblem(
        n_components=good.n_components, component_value=good.component_value,
        component_grad=component_grad, lipschitz_L=1.0, operator=good.operator,
        regularizer=good.regularizer,
    )
    full_sums = fsp.full_sums

    def full_sums_then_blow_up(xs):
        sums = full_sums(xs)
        flushed.append(len(xs))
        return sums

    fsp.full_sums = full_sums_then_blow_up
    cfg = exact_cfg(max_epochs=400, seeds=(0,))
    # the blown-up iterate's squared norm overflows to inf, which fails the cap
    with pytest.warns(RuntimeWarning, match=f"diverged at iteration {sppdg.ROW_BATCH + 1}:"):
        res = solve_stochastic(fsp, "saga", cfg, batch_size=2)
    assert flushed == [sppdg.ROW_BATCH]
    run = res.per_seed[0]
    assert run.failed and run.report is None
    assert run.records == [] and run.comp_evals == []
    assert res.aggregate == []


def test_diverging_seeds_warn_only_that_they_diverged():
    # after 40 evaluations every component gradient is 1e200, whose squared
    # norm overflows: seed 0 blows up mid-run, and seed 1 at its start
    good = _quadratic_l0()
    calls = []

    def component_grad(i, x):
        calls.append(i)
        return np.full_like(x, 1e200) if len(calls) > 40 else good.component_grad(i, x)

    fsp = FiniteSumProblem(
        n_components=good.n_components, component_value=good.component_value,
        component_grad=component_grad, lipschitz_L=1.0, operator=good.operator,
        regularizer=good.regularizer,
    )
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        res = solve_stochastic(fsp, "saga", exact_cfg(max_epochs=50, seeds=(0, 1)), batch_size=2)
    assert [r.failed for r in res.per_seed] == [True, True]
    assert [str(w.message).split(":")[0] for w in seen] == ["seed 0 diverged", "seed 1 diverged"]


@pytest.mark.parametrize("kind", ["saga", "full"])
def test_step_norms_are_np_linalg_norm_exactly(monkeypatch, kind):
    states = _keep_states(monkeypatch)
    rows, labels = synthetic_fused_lasso_data(30, 4, seed=2)
    prob = build_fused_lasso(rows, labels, build_precision_graph(rows), normalize_rows=True)
    run = solve_stochastic(prob, kind, SppdgConfig(max_epochs=12, seeds=(1,)),
                           batch_size=2).per_seed[0]
    assert len(run.records) == len(states) > 5
    y_prev = np.zeros_like(states[0].y_cur)
    for record, state in zip(run.records, states):
        assert record.dx_norm == float(np.linalg.norm(state.x_cur - state.x_prev))
        assert record.dy_norm == float(np.linalg.norm(state.y_cur - y_prev))
        y_prev = state.y_cur
