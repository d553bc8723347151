"""How often one solver iteration evaluates each problem callable.

The step applies A, A^T and the gradient once each. A deterministic
trace row evaluates A x^k, f, h* and h once and reads r_x from the
norm the step kept, so A^T and grad f run once per iteration. ppdg
builds a row in each iteration only for a trace sink; its report reads
one more row, built at the final state, so a solve without a sink
evaluates f, h* and h once. The fused lasso's full_value and full_grad
each form the margins tanh(b * (rows @ x)), so a deterministic
iteration with a sink forms them twice.
Under a gradient estimate the row also evaluates A^T y^k, f(x^k) and
the full gradient. Its elapsed_s is stamped at its own iteration, but its full
sums wait: sppdg builds the rows in order, in batches of up to
sppdg.ROW_BATCH, after one problem.full_sums call per batch. By default
that call evaluates full_value and full_grad at each point; the fused
lasso evaluates all the points' margins tanh(b * (X @ rows.T)) in one
matrix-matrix product per block of data rows, so its objective,
lagrangian, lyapunov and kkt_x columns may differ from a per-point
evaluation at roundoff.
"""

from collections import Counter

import numpy as np

from conftest import quadratic_problem, split_quadratic_finite_sum
from dualprox import conjprox, linops, ppdg, problems, sppdg
from dualprox.sppdg import SppdgConfig, solve_stochastic


def count_calls(calls, owner, attr, name):
    fn = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    setattr(owner, attr, counted)


def count_operator_and_regularizer(calls, problem):
    count_calls(calls, problem.operator, "apply", "A")
    count_calls(calls, problem.operator, "apply_adjoint", "A^T")
    count_calls(calls, problem.regularizer, "conj_value", "h*")
    count_calls(calls, problem.regularizer, "value_h", "h")


def counted_quadratic_problem(calls):
    rng = np.random.default_rng(3)
    prob = quadratic_problem(
        rng.standard_normal(5), linops.ScaledIdentity(5, 2.0), conjprox.L0Box(0.1, -1, 1)
    )
    count_calls(calls, prob, "f_value", "f")
    count_calls(calls, prob, "grad_f", "grad_f")
    count_operator_and_regularizer(calls, prob)
    return prob


def test_ppdg_iteration_evaluates_each_callable_once_per_row():
    calls = Counter()
    prob = counted_quadratic_problem(calls)
    n = 7
    records = []
    report = ppdg.solve(
        prob, ppdg.PpdgConfig(alpha=0.1, max_iters=n, tol_step=0.0), trace_sink=records.append
    )
    assert report.iters == len(records) == n
    # init_state adds one gradient and one A^T y^0; the report reads its own
    # row at the final state, which adds one A, f, h* and h
    assert calls == {"A": 2 * n + 1, "A^T": n + 1, "f": n + 1, "grad_f": n + 1,
                     "h*": n + 1, "h": n + 1}


def test_ppdg_solve_without_a_sink_builds_one_row_at_the_final_state():
    calls = Counter()
    prob = counted_quadratic_problem(calls)
    n = 7
    report = ppdg.solve(prob, ppdg.PpdgConfig(alpha=0.1, max_iters=n, tol_step=0.0))
    assert report.iters == n
    # each step applies A, A^T and grad f once; init_state adds one A^T and one
    # gradient, and the report's row one A, f, h* and h
    assert calls == {"A": n + 1, "A^T": n + 1, "grad_f": n + 1, "f": 1, "h*": 1, "h": 1}
    calls.clear()
    assert ppdg.solve(prob, ppdg.PpdgConfig(alpha=0.1, max_iters=0)).iters == 0
    # no step ran, so no row: the report forms the residual at x^0 once more
    assert calls == {"A^T": 2, "grad_f": 2}


def test_deterministic_fused_lasso_forms_the_margins_twice_per_iteration(monkeypatch):
    rows_data, labels = problems.synthetic_fused_lasso_data(12, 4, seed=2)
    V = problems.build_precision_graph(rows_data, threshold=0.5)
    prob = problems.build_fused_lasso(rows_data, labels, V, normalize_rows=True)
    calls = Counter()
    tanh = np.tanh

    def counted_tanh(u, *args, **kwargs):
        calls[np.shape(u)] += 1
        return tanh(u, *args, **kwargs)

    monkeypatch.setattr(np, "tanh", counted_tanh)
    n = 9
    report = ppdg.solve(prob, ppdg.PpdgConfig(alpha=0.1, max_iters=n, tol_step=0.0),
                        trace_sink=lambda record: None)
    assert report.iters == n
    # each iteration: the margins tanh(b * (rows @ x)) of the step's gradient and
    # of the row's value; init_state adds the first gradient's, and the report
    # reads its own row at the final state, which adds one value's
    assert calls == {(12,): 2 * n + 2}


def test_stochastic_trace_row_evaluates_full_sums_once():
    fsp = split_quadratic_finite_sum(6, 4, regularizer=conjprox.L0Box(0.1, -1, 1))
    calls = Counter()
    count_calls(calls, fsp, "full_value", "f")
    count_calls(calls, fsp, "full_grad", "grad_f")
    count_operator_and_regularizer(calls, fsp)
    cfg = SppdgConfig(alpha=ppdg.default_alpha(1.0), max_epochs=5, tol_step=0.0, seeds=(1,))
    # SAGA reads only component gradients, so every full sum is a diagnostic
    rows = len(solve_stochastic(fsp, "saga", cfg, batch_size=2).per_seed[0].records)
    assert rows > 5
    assert calls == {"A": 2 * rows, "A^T": 2 * rows + 1, "f": rows, "grad_f": rows,
                     "h*": rows, "h": rows}


def test_stochastic_fused_lasso_row_computes_the_margins_once(monkeypatch):
    rows_data, labels = problems.synthetic_fused_lasso_data(12, 4, seed=2)
    V = problems.build_precision_graph(rows_data, threshold=0.5)
    fsp = problems.build_fused_lasso(rows_data, labels, V, normalize_rows=True)
    calls = Counter()
    count_calls(calls, fsp, "full_value", "f")
    count_calls(calls, fsp, "full_grad", "grad_f")
    full_sums = fsp.full_sums

    def counted_sums(xs):
        calls["full_sums"] += 1
        # f and grad f at each point: N component values and N component gradients
        calls["evals"] += 2 * labels.size * len(xs)
        return full_sums(xs)

    fsp.full_sums = counted_sums
    tanh = np.tanh

    def counted_tanh(u, *args, **kwargs):
        # a component's margin is a scalar; the full sums' margins of one block
        # of data rows at a stack of points form a (points, rows) array
        if np.ndim(u) == 2:
            calls["margin blocks"] += 1
        elif np.ndim(u) == 1:
            calls["margin vectors"] += 1
        return tanh(u, *args, **kwargs)

    monkeypatch.setattr(np, "tanh", counted_tanh)
    cfg = SppdgConfig(max_epochs=12, tol_step=0.0, seeds=(1,))
    rows = len(solve_stochastic(fsp, "saga", cfg, batch_size=2).per_seed[0].records)
    batches = -(-rows // sppdg.ROW_BATCH)
    assert rows > sppdg.ROW_BATCH and rows % sppdg.ROW_BATCH
    # N < BLOCK_ROWS, so each batch reads the N x n data twice: X @ rows.T once,
    # the gradients' product with rows once; no row calls full_value or full_grad
    assert calls == {"full_sums": batches, "margin blocks": batches, "evals": 2 * 12 * rows}
