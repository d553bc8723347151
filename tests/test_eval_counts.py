"""How often one solver iteration evaluates each problem callable.

Each trace row evaluates A x^k, A^T y^k, f, grad f, h* and h once; the
step adds one A, one A^T and one gradient.
"""

from collections import Counter

import numpy as np

from conftest import quadratic_problem, split_quadratic_finite_sum
from dualprox import conjprox, linops, ppdg
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


def test_ppdg_iteration_evaluates_each_callable_once_per_row():
    rng = np.random.default_rng(3)
    prob = quadratic_problem(
        rng.standard_normal(5), linops.ScaledIdentity(5, 2.0), conjprox.L0Box(0.1, -1, 1)
    )
    calls = Counter()
    count_calls(calls, prob, "f_value", "f")
    count_calls(calls, prob, "grad_f", "grad_f")
    count_operator_and_regularizer(calls, prob)
    n = 7
    records = []
    report = ppdg.solve(
        prob, ppdg.PpdgConfig(alpha=0.1, max_iters=n, tol_step=0.0), trace_sink=records.append
    )
    assert report.iters == len(records) == n
    # init_state adds one gradient and one A^T y^0
    assert calls == {"A": 2 * n, "A^T": 2 * n + 1, "f": n, "grad_f": 2 * n + 1, "h*": n, "h": n}


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
