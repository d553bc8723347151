import dataclasses
import gc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import lyapunov_reference, quadratic_problem, run_history
from dualprox import conjprox, dataio, linops, ppdg, problems
from dualprox.ppdg import (
    LyapunovConstants,
    PpdgConfig,
    SolverDivergence,
    descent_report,
    lagrangian,
    make_record,
    subgradient_d,
)
from dualprox.problems import CompositeProblem


def exact_cfg(alpha=0.3, **kw):
    return PpdgConfig(alpha=alpha, **kw)


# --- lagrangian ----------------------------------------------------------


def test_lagrangian_all_terms_vanish():
    prob = quadratic_problem(np.zeros(2), linops.Identity(2), conjprox.L0Box(0.1, -1, 1))
    assert lagrangian(prob, np.zeros(2), np.zeros(2)) == 0.0


def test_lagrangian_at_quadratic_minimizer():
    b = np.array([1.0, -0.5])
    prob = quadratic_problem(b, linops.Identity(2), conjprox.L0Box(0.1, -1, 1))
    y = np.array([0.03, -0.02])
    expect = y @ b - prob.regularizer.conj_value(y)
    assert lagrangian(prob, b, y) == pytest.approx(expect)


def test_lagrangian_hand_value(scalar_problem):
    # f-term 0.5, coupling 0.05, h*(0.05) = 0 inside the flat region
    val = lagrangian(scalar_problem, np.array([1.0]), np.array([0.05]))
    assert val == pytest.approx(0.55)


def test_lagrangian_minus_inf_for_l1_outside_ball():
    prob = quadratic_problem(np.zeros(2), linops.Identity(2), conjprox.L1(0.5))
    assert lagrangian(prob, np.zeros(2), np.array([1.0, 0.0])) == -np.inf


# --- constants -----------------------------------------------------------


def test_lyapunov_constants_formulas():
    consts = LyapunovConstants.from_parameters(0.3, 1.0)
    assert consts.a == pytest.approx(0.2 / 0.3)
    b = 1 / 0.6 - 0.25 - 0.2 / 0.3 - 0.3 * 0.2 / 2 - 0.2 + 0.3 / 0.8
    assert consts.b == pytest.approx(b)
    assert consts.c == pytest.approx(b - 0.3 / 0.4)
    assert consts.c > 0


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        PpdgConfig(alpha=0.0).validate()
    # the operator's kind decides the descent contract; no mode selects it
    with pytest.raises(ValueError, match="'exact_M' is not a setting"):
        exact_cfg(preconditioner="exact_M").validate()


@pytest.mark.parametrize("L", [0.0, -1.0, np.nan, np.inf])
def test_step_rules_need_a_positive_finite_lipschitz_constant(L):
    # L = 0 arises from all-zero data; it must be an error, not a ZeroDivisionError
    with pytest.raises(ValueError, match="Lipschitz constant"):
        ppdg.default_alpha(L)


# --- step ----------------------------------------------------------------


def test_step_hand_computed(scalar_problem):
    cfg = exact_cfg()
    st = ppdg.init_state(scalar_problem, np.zeros(1), np.zeros(1), cfg)
    st = ppdg.step(scalar_problem, st, cfg)
    assert st.x_cur[0] == pytest.approx(0.6)
    # dual prox weight 1/alpha = 10/3 on argument 4.0 lands on 4 - 10/3
    assert st.y_cur[0] == pytest.approx(4.0 - 10.0 / 3.0, abs=1e-4)
    # oracle agreement for the same prox
    oracle = conjprox.prox_conj_oracle(scalar_problem.regularizer, 4.0, 10.0 / 3.0)
    assert st.y_cur[0] == pytest.approx(oracle, abs=1e-4)


def test_step_fixed_point_of_primal():
    # grad f(x) + A^T y = 0 keeps x in place
    b = np.array([1.0, 2.0])
    prob = quadratic_problem(b, linops.Identity(2), conjprox.L0Box(0.1, -1, 1))
    x = np.array([0.9, 1.9])
    y = b - x  # x - b + y = 0
    cfg = exact_cfg()
    st = ppdg.init_state(prob, x, y, cfg)
    assert np.allclose(st.x_next, x)


def test_prox_near_identity_in_interior():
    # large weight widens the flat region of h*, so the prox is the
    # identity well inside (lam/c1, lam/c2]
    reg = conjprox.L0Box(10.0, -1.0, 1.0)
    v = np.array([0.3, -0.2, 7.5])
    out = reg.prox_conj(v, 2.0)
    assert np.array_equal(out, v)


def test_step_divergence_error():
    prob = quadratic_problem(np.ones(2), linops.Identity(2), conjprox.L0Box(0.1, -1, 1))
    cfg = PpdgConfig(alpha=1e8, max_iters=50)
    with pytest.raises(SolverDivergence) as err:
        ppdg.solve(prob, cfg)
    assert err.value.iteration >= 1


def test_nan_gradient_diverges_at_the_step_that_formed_it():
    # grad_f runs once in init_state (x^1), then once per step: the third
    # call is step 2's, which forms x^3
    calls = []

    def grad_f(x):
        calls.append(1)
        return x - 2.0 if len(calls) < 3 else np.full_like(x, np.nan)

    prob = CompositeProblem(
        f_value=lambda x: 0.5 * float(np.sum((x - 2.0) ** 2)), grad_f=grad_f,
        lipschitz_L=1.0, operator=linops.Identity(3), regularizer=conjprox.L0Box(0.1, -1, 1),
    )
    rows = []
    with pytest.raises(SolverDivergence, match="diverged at iteration 2") as err:
        ppdg.solve(prob, PpdgConfig(alpha=0.3, max_iters=10, tol_step=0.0), trace_sink=rows.append)
    assert err.value.iteration == 2 and len(calls) == 3
    assert [r.iter for r in rows] == [1]
    assert all(np.isfinite(value) for r in rows for value in vars(r).values())


def test_a_diverging_solve_raises_without_a_numpy_warning():
    # from its third call grad_f is 1e200, whose squared norm overflows
    calls = []

    def grad_f(x):
        calls.append(1)
        return x - 2.0 if len(calls) < 3 else np.full_like(x, 1e200)

    prob = CompositeProblem(
        f_value=lambda x: 0.5 * float(np.sum((x - 2.0) ** 2)), grad_f=grad_f,
        lipschitz_L=1.0, operator=linops.Identity(3), regularizer=conjprox.L0Box(0.1, -1, 1),
    )
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(SolverDivergence, match="diverged at iteration 2"):
            ppdg.solve(prob, PpdgConfig(alpha=0.3, max_iters=10, tol_step=0.0))
    assert [str(w.message) for w in seen] == []


def test_norm_cap_stops_at_the_step_that_formed_the_iterate(monkeypatch):
    # x^k rises monotonically towards b (norm 5) and |y| stays below 0.015;
    # state k's x_next is x^{k+1}, formed by step k, and x^5 (4.15) is the
    # first beyond 4
    prob = quadratic_problem(np.array([3.0, 4.0]), linops.Identity(2), conjprox.L1(0.01))
    cfg = PpdgConfig(alpha=0.3, max_iters=20, tol_step=0.0)
    history = run_history(prob, cfg, np.zeros(2), np.zeros(2), 6)
    formed = [np.linalg.norm(s.x_next) for s in history]
    assert formed.index(next(v for v in formed if v > 4.0)) == 4
    assert max(np.linalg.norm(s.y_cur) for s in history) < 0.015
    monkeypatch.setattr(ppdg, "NORM_CAP", 4.0)
    rows = []
    with pytest.raises(SolverDivergence, match="iteration 4: iterate norm above 4 "):
        ppdg.solve(prob, cfg, trace_sink=rows.append)
    assert [r.iter for r in rows] == [1, 2, 3]


def test_first_step_checks_the_iterate_init_state_formed(monkeypatch):
    # at alpha = 1, x^{k+1} = b - y^k: a far y^0 puts x^1 at norm 103, while
    # the L1 box clamps y^1 and so x^2 and every later iterate near b
    prob = quadratic_problem(np.array([3.0, 4.0]), linops.Identity(2), conjprox.L1(0.01))
    cfg = PpdgConfig(alpha=1.0, max_iters=20, tol_step=0.0)
    y0 = np.array([-100.0, 0.0])
    history = run_history(prob, cfg, np.zeros(2), y0, 3)
    assert np.linalg.norm(history[0].x_next) > 100
    assert all(np.linalg.norm(s.x_next) < 6 for s in history[1:])
    monkeypatch.setattr(ppdg, "NORM_CAP", 50.0)
    start = ppdg.init_state(prob, np.zeros(2), y0, cfg)
    with pytest.raises(SolverDivergence, match="iteration 1:"):
        ppdg.step(prob, start, cfg)
    # from zero, x^1 = b (norm 5): the solver's first step checks it too,
    # and a run that takes no step never reads it
    monkeypatch.setattr(ppdg, "NORM_CAP", 4.0)
    with pytest.raises(SolverDivergence, match="iteration 1:"):
        ppdg.solve(prob, cfg)
    assert ppdg.solve(prob, PpdgConfig(alpha=1.0, max_iters=0)).iters == 0


# --- lyapunov value ------------------------------------------------------


def test_lyapunov_column_matches_four_point_window(descent_problem):
    # the trace weighs only the (a, b) window terms; consts.c is the descent rate
    cfg = exact_cfg(max_iters=30, tol_step=0.0)
    records = []
    ppdg.solve(descent_problem, cfg, trace_sink=records.append)
    states = run_history(descent_problem, cfg, np.zeros(10), np.zeros(10), 30)[1:]
    consts = LyapunovConstants.from_parameters(0.3, 1.0)
    assert consts.c != 0.0
    for record, st in zip(records, states, strict=True):
        window = (st.x_cur, st.y_cur, st.x_next, st.x_prev)
        assert record.lyapunov == lyapunov_reference(descent_problem, window, consts)


# --- subgradient ---------------------------------------------------------


def test_subgradient_requires_completed_step(scalar_problem):
    cfg = exact_cfg()
    st = ppdg.init_state(scalar_problem, np.zeros(1), np.zeros(1), cfg)
    consts = LyapunovConstants.from_parameters(0.3, 1.0)
    with pytest.raises(ValueError):
        subgradient_d(scalar_problem, st, consts)
    with pytest.raises(ValueError):
        make_record(scalar_problem, st, (consts.a, consts.b, None))


def test_subgradient_zero_at_critical_window():
    b = np.array([0.5, -0.25])
    prob = quadratic_problem(b, linops.Identity(2), conjprox.L0Box(0.1, -1, 1))
    consts = LyapunovConstants.from_parameters(0.3, 1.0)
    # stationary iterates: x fixed, y fixed, g = A x exactly
    x = np.array([0.45, -0.22])
    y = b - x
    st = ppdg.SolverState(k=3, x_cur=x, y_cur=y, x_next=x, x_prev=x, g_cur=x.copy())
    (_, _, _, _), norm = subgradient_d(prob, st, consts)
    assert norm == pytest.approx(0.0, abs=1e-14)


def test_subgradient_blocks_match_finite_differences(descent_problem):
    cfg = exact_cfg()
    states = run_history(descent_problem, cfg, np.zeros(10), np.zeros(10), 3)
    st = states[2]
    consts = LyapunovConstants.from_parameters(0.3, 1.0)
    (d_x, _, d_u, d_v), _ = subgradient_d(descent_problem, st, consts)
    eps = 1e-6

    def lyap_at(x=None, u=None, v=None):
        z = (
            st.x_cur if x is None else x,
            st.y_cur,
            st.x_next if u is None else u,
            st.x_prev if v is None else v,
        )
        return lyapunov_reference(descent_problem, z, consts)

    for j in range(3):
        e = np.zeros(10)
        e[j] = eps
        fd_u = (lyap_at(u=st.x_next + e) - lyap_at(u=st.x_next - e)) / (2 * eps)
        assert fd_u == pytest.approx(d_u[j], rel=1e-6, abs=1e-8)
        fd_v = (lyap_at(v=st.x_prev + e) - lyap_at(v=st.x_prev - e)) / (2 * eps)
        assert fd_v == pytest.approx(d_v[j], rel=1e-6, abs=1e-8)
        fd_x = (lyap_at(x=st.x_cur + e) - lyap_at(x=st.x_cur - e)) / (2 * eps)
        assert fd_x == pytest.approx(d_x[j], rel=1e-5, abs=1e-6)


# --- kkt -----------------------------------------------------------------


def test_kkt_hand_value(scalar_problem):
    cfg = exact_cfg()
    states = run_history(scalar_problem, cfg, np.zeros(1), np.zeros(1), 1)
    r_x = make_record(scalar_problem, states[1], (0.0, 0.0, None)).kkt_x
    assert r_x == pytest.approx(abs(0.6 - 2.0 + (4.0 - 10.0 / 3.0)), abs=1e-4)


def test_kkt_zero_cases():
    b = np.array([1.0])
    prob = quadratic_problem(b, linops.Identity(1), conjprox.L0Box(0.1, -1, 1))
    x = np.array([0.93])
    y = b - x
    st = ppdg.SolverState(k=2, x_cur=x, y_cur=y, x_next=x, x_prev=x, g_cur=x.copy(),
                          dx_sq=0.0, dy_norm=0.0)
    record = make_record(prob, st, (0.0, 0.0, None), sums=(prob.f_value(x), prob.grad_f(x)))
    r_x, r_y = record.kkt_x, record.kkt_y
    assert r_x == pytest.approx(0.0, abs=1e-15)
    assert r_y == pytest.approx(0.0, abs=1e-15)


def test_kkt_x_is_the_recomputed_primal_residual(monkeypatch):
    # the row reads the norm the step kept; it must be the one formed anew
    img = dataio.add_gaussian_noise(problems.blocks_image(12, 10), 0.05, 3)
    prob = problems.build_denoise(img)
    states = []
    step = ppdg.step

    def keep_state(*args, **kwargs):
        states.append(step(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(ppdg, "step", keep_state)
    records = []
    cfg = PpdgConfig(alpha=ppdg.default_alpha(prob.lipschitz_L), max_iters=30, tol_step=0.0)
    ppdg.solve(prob, cfg, trace_sink=records.append)
    assert len(records) == len(states) == 30
    for record, state in zip(records, states):
        residual = prob.grad_f(state.x_cur) + prob.operator.apply_adjoint(state.y_cur)
        assert record.kkt_x == float(np.linalg.norm(residual)), record.iter
    report = ppdg.solve(prob, PpdgConfig(alpha=cfg.alpha, max_iters=0))
    assert report.kkt_x == float(np.linalg.norm(prob.grad_f(np.zeros(120)))) > 0


# --- solve ---------------------------------------------------------------


def test_solve_soft_threshold_solution():
    # closed form: sgn(b) max(|b| - lam, 0) coordinate-wise
    n = 5
    prob = quadratic_problem(2.0 * np.ones(n), linops.Identity(n), conjprox.L1(0.5))
    report = ppdg.solve(prob, exact_cfg(max_iters=5000, tol_step=1e-12))
    assert report.reason == "converged"
    assert np.max(np.abs(report.x - 1.5)) <= 1e-6


def test_solve_soft_threshold_zero_region():
    prob = quadratic_problem(0.3 * np.ones(4), linops.Identity(4), conjprox.L1(0.5))
    report = ppdg.solve(prob, exact_cfg(max_iters=5000, tol_step=1e-12))
    assert np.max(np.abs(report.x)) <= 1e-6


def test_solve_zero_iterations_returns_initial_point(scalar_problem):
    # every solve starts at zero; x^1 = 0.6 is formed but not returned
    report = ppdg.solve(scalar_problem, exact_cfg(max_iters=0))
    assert report.iters == 0
    assert report.reason == "iteration-limit"
    assert np.array_equal(report.x, [0.0])
    assert np.array_equal(report.y, [0.0])


def test_solve_rejects_a_negative_iteration_limit(scalar_problem):
    # zero iterations is a valid request (above); a negative count is not
    with pytest.raises(ValueError, match="max_iters must be nonnegative"):
        ppdg.solve(scalar_problem, PpdgConfig(alpha=0.1, max_iters=-3))


def test_solve_rejects_a_nan_iteration_limit(scalar_problem):
    # a nan limit would otherwise run no iteration and report success
    with pytest.raises(ValueError, match="max_iters must be nonnegative"):
        ppdg.solve(scalar_problem, PpdgConfig(alpha=0.1, max_iters=float("nan")))


@pytest.mark.parametrize("max_iters", [2.5, 3.0, np.inf, "3"])
def test_iteration_cap_must_be_an_integer(max_iters):
    # a fractional cap would run its ceiling, and inf with tol_step = 0 would never stop
    with pytest.raises(ValueError, match="max_iters must be nonnegative and integral, got"):
        PpdgConfig(alpha=0.1, max_iters=max_iters, tol_step=0.0).validate()


def test_numpy_integer_iteration_cap_is_taken(scalar_problem):
    report = ppdg.solve(scalar_problem, PpdgConfig(alpha=0.1, max_iters=np.int64(3), tol_step=0.0))
    assert report.iters == 3 and report.reason == "iteration-limit"


@pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
def test_config_rejects_a_non_finite_step(alpha):
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        PpdgConfig(alpha=alpha).validate()


@pytest.mark.parametrize("norm", [0.0, np.inf, np.nan])
def test_dual_beta_needs_a_positive_finite_operator_norm(norm):
    problem = SimpleNamespace(operator=SimpleNamespace(op_norm=lambda: norm))
    with pytest.raises(ValueError, match="positive finite operator norm"):
        ppdg.dual_beta(problem, PpdgConfig(alpha=0.1))


def test_solve_emits_one_record_per_iteration(descent_problem):
    records = []
    report = ppdg.solve(
        descent_problem,
        exact_cfg(max_iters=40, tol_step=0.0),
        trace_sink=records.append,
    )
    assert report.iters == 40
    assert [r.iter for r in records] == list(range(1, 41))


def test_each_row_reaches_the_sink_before_the_next_step(monkeypatch, descent_problem):
    steps = []

    def counted(*args, _step=ppdg.step, **kwargs):
        steps.append(None)
        return _step(*args, **kwargs)

    monkeypatch.setattr(ppdg, "step", counted)
    seen = []
    ppdg.solve(descent_problem, exact_cfg(max_iters=40, tol_step=0.0),
               trace_sink=lambda record: seen.append((record.iter, len(steps))))
    assert seen == [(k, k) for k in range(1, 41)]


def denoise_32(boundary):
    noisy = dataio.add_gaussian_noise(problems.blocks_image(32, 32), 0.05, 1)
    return problems.build_denoise(noisy, boundary=boundary)


def readme_fused_lasso():
    rows, labels = problems.synthetic_fused_lasso_data(200, 20, seed=0)
    V = problems.build_precision_graph(rows, threshold=0.5)
    return problems.build_fused_lasso(rows, labels, V, normalize_rows=True)


def soft_threshold():
    return quadratic_problem(np.array([2.0, 2.0, 0.3]), linops.Identity(3), conjprox.L1(0.5))


@pytest.mark.parametrize("build, max_iters, tol_step, reason", [
    (lambda: denoise_32("periodic"), 60, 1e-8, "iteration-limit"),
    (lambda: denoise_32("zero-pad"), 60, 1e-8, "iteration-limit"),
    (readme_fused_lasso, 300, 1e-12, "iteration-limit"),
    (soft_threshold, 5000, 1e-10, "converged"),
    (soft_threshold, 0, 1e-10, "iteration-limit"),
], ids=["denoise-periodic", "denoise-zero-pad", "fused-lasso", "converged", "no-step"])
def test_a_report_is_the_same_bit_for_bit_with_a_sink_or_without(build, max_iters, tol_step,
                                                                  reason):
    problem = build()
    config = PpdgConfig(alpha=ppdg.default_alpha(problem.lipschitz_L), max_iters=max_iters,
                        tol_step=tol_step)
    rows = []
    with_sink = ppdg.solve(problem, config, trace_sink=rows.append)
    without = ppdg.solve(problem, config)
    assert with_sink.reason == reason and with_sink.iters == len(rows)
    for field in dataclasses.fields(ppdg.SolveReport):
        a, b = getattr(with_sink, field.name), getattr(without, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), field.name
        elif isinstance(a, float):
            # nan included: the bytes of the two doubles
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), field.name
        else:
            assert a == b, field.name


# --- descent and bound properties on the seeded run -----------------------


@pytest.fixture
def descent_run(descent_problem):
    cfg = exact_cfg(max_iters=502, tol_step=0.0)
    states = run_history(descent_problem, cfg, np.zeros(10), np.zeros(10), 502)
    consts = LyapunovConstants.from_parameters(0.3, 1.0)
    return descent_problem, states, consts


def test_square_summability_partial_sums(descent_run):
    _, states, _ = descent_run
    partial = np.cumsum(
        [np.sum((b.x_cur - a.x_cur) ** 2) for a, b in zip(states, states[1:])]
    )
    assert np.all(np.isfinite(partial))
    assert np.all(np.diff(partial) >= 0.0)
    assert partial[-1] < 1e3


def test_kkt_consistency_at_tight_tolerance(descent_problem):
    report = ppdg.solve(descent_problem, exact_cfg(max_iters=20000, tol_step=1e-10))
    assert report.reason == "converged"
    assert report.kkt_x <= 1e-8


def test_descent_report_clean_in_exact_mode(descent_problem):
    records = []
    ppdg.solve(descent_problem, exact_cfg(max_iters=500, tol_step=0.0), records.append)
    consts = LyapunovConstants.from_parameters(0.3, 1.0)
    assert descent_report(records, consts) == (0, 499)


def understated_curvature_problem(operator):
    """f = 2||x - b||^2 (gradient Lipschitz constant 4) declared with L = 1."""
    b = np.full(4, 0.5)
    return CompositeProblem(
        f_value=lambda x: 2.0 * float(np.sum((x - b) ** 2)),
        grad_f=lambda x: 4.0 * (x - b),
        lipschitz_L=1.0,
        operator=operator,
        regularizer=conjprox.L0Box(0.1, -1.0, 1.0),
    )


def test_descent_violation_counted_under_exact_metric():
    # alpha = 0.3 is below 1/(3L) for the declared L but not the true one, so
    # on these kinds, where beta is the exact metric, the first drop falls short
    consts = LyapunovConstants.from_parameters(0.3, 1.0)
    for operator, counts in ((linops.Identity(4), (1, 9)), (linops.ScaledIdentity(4, 2.0), (8, 9))):
        records = []
        ppdg.solve(understated_curvature_problem(operator), exact_cfg(max_iters=10, tol_step=0.0),
                   records.append)
        assert descent_report(records[:2], consts) == (1, 1)
        assert descent_report(records, consts) == counts


def test_descent_violation_counted_under_scalar_beta():
    # the same matrix as a dense operator: beta only stands in for the metric there
    records = []
    ppdg.solve(understated_curvature_problem(linops.DenseMatrix(np.eye(4))),
               exact_cfg(max_iters=50, tol_step=0.0), records.append)
    assert descent_report(records, LyapunovConstants.from_parameters(0.3, 1.0)) == (1, 26)


def test_a_nan_lyapunov_drop_counts_as_a_shortfall():
    # a nan L makes every Lyapunov weight, and so every drop, nan
    problem = dataclasses.replace(
        quadratic_problem(np.ones(3), linops.Identity(3), conjprox.L1(0.5)), lipschitz_L=np.nan)
    records = []
    ppdg.solve(problem, exact_cfg(max_iters=20, tol_step=0.0), records.append)
    consts = LyapunovConstants.from_parameters(0.3, np.nan)
    assert descent_report(records, consts) == (19, 19)


def test_descent_report_needs_two_rows():
    consts = LyapunovConstants.from_parameters(0.3, 1.0)
    row = ppdg.TraceRecord(1, 0.0, 0.0, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0)
    assert descent_report([], consts) == descent_report([row], consts) == (0, 0)


def test_kkt_consistency_scalar_problem(scalar_problem):
    report = ppdg.solve(scalar_problem, exact_cfg(max_iters=20000, tol_step=1e-10))
    assert report.reason == "converged"
    assert report.kkt_x <= 1e-8


def test_step_forms_g_and_dy_from_one_difference():
    reg = conjprox.L0Box(0.1, -1.0, 1.0)
    rng = np.random.default_rng(8)
    y = rng.uniform(-0.2, 0.2, 50)
    op = linops.DenseMatrix(rng.standard_normal((50, 20)))
    x, x_next = rng.standard_normal((2, 20))
    prob = quadratic_problem(np.zeros(20), op, reg)
    state = ppdg.SolverState(k=1, x_cur=x, y_cur=y, x_next=x_next)
    a_extrap = op.apply(2.0 * x_next - x)
    for beta in (0.3, 7.0):
        new = ppdg.step(prob, state, exact_cfg(), beta)
        y_next, g_next = new.y_cur, new.g_cur
        assert np.array_equal(y_next, reg.prox_conj(y + beta * a_extrap, beta))
        want = (y - y_next) / beta + a_extrap
        assert np.array_equal(g_next, want) and np.array_equal(np.signbit(g_next), np.signbit(want))
        assert new.dy_norm == float(np.linalg.norm(y_next - y))


def test_row_step_norms_are_np_linalg_norm_exactly(monkeypatch):
    # the loop forms (x^k - x^{k-1}) . itself once; its root is the norm, bit for bit
    img = dataio.add_gaussian_noise(problems.blocks_image(12, 10), 0.05, 3)
    prob = problems.build_denoise(img)
    states = []
    step = ppdg.step

    def keep_state(*args, **kwargs):
        states.append(step(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(ppdg, "step", keep_state)
    records = []
    ppdg.solve(prob, PpdgConfig(alpha=0.3, max_iters=40, tol_step=0.0), trace_sink=records.append)
    assert len(records) == len(states) == 40
    y_prev = np.zeros_like(states[0].y_cur)
    for record, state in zip(records, states):
        assert record.dx_norm == float(np.linalg.norm(state.x_cur - state.x_prev))
        assert record.dy_norm == float(np.linalg.norm(state.y_cur - y_prev))
        y_prev = state.y_cur


def test_a_step_frees_the_previous_dual_iterate_and_primal_lag():
    # the state carries the step norms, not y^{k-1} or x^{k-2}, so once the
    # old state goes, y^k and x^{k-1} go with it
    prob = problems.build_denoise(dataio.add_gaussian_noise(problems.blocks_image(8, 8), 0.05, 1))
    cfg = PpdgConfig(alpha=0.3, max_iters=10, tol_step=0.0)
    state = run_history(prob, cfg, np.zeros(64), np.zeros(prob.operator.out_dim), 3)[-1]
    refs = [weakref.ref(state.y_cur), weakref.ref(state.x_prev)]
    state = ppdg.step(prob, state, cfg)
    gc.collect()
    assert state.k == 4
    assert [ref() is None for ref in refs] == [True, True]
