"""Property tests of the primal-dual loop over drawn problems."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from conftest import quadratic_finite_sum, quadratic_problem  # noqa: E402
from dualprox import conjprox, linops, ppdg, sppdg  # noqa: E402

# magnitudes in [1e-3, 10], or zero, so that no product underflows and
# roundoff stays relative to the compared values
entries = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))
sizes = st.integers(1, 5)
positive = st.floats(1e-2, 2.0)
# float roundoff, relative to the size of the compared values
RTOL = 1e-12

property_settings = settings(derandomize=True, max_examples=100, database=None, deadline=None)


def filled(shape):
    return arrays(np.float64, shape, elements=entries, fill=st.nothing())


@property_settings
@given(sizes.flatmap(filled), positive, st.floats(1e-3, 1.0))
def test_one_step_from_the_l1_fixed_point_stays_there(b, lam, alpha):
    # f = 0.5||x - b||^2, h = lam||.||_1 on the identity: x* = soft(b, lam)
    # minimizes f + h, and y* = b - x* = -grad f(x*) lies in dh(x*)
    prob = quadratic_problem(b, linops.Identity(b.size), conjprox.L1(lam))
    x_star = np.sign(b) * np.maximum(np.abs(b) - lam, 0.0)
    y_star = b - x_star
    config = ppdg.PpdgConfig(alpha=alpha)
    state = ppdg.step(prob, ppdg.init_state(prob, x_star, y_star, config), config)
    tol = RTOL * (1.0 + lam + float(np.max(np.abs(b))))
    for got, want in ((state.x_cur, x_star), (state.y_cur, y_star), (state.x_next, x_star)):
        assert np.max(np.abs(got - want)) <= tol


regularizers = st.one_of(
    st.builds(conjprox.L1, positive),
    st.builds(conjprox.L0Box, positive, st.floats(-2.0, -0.1), st.floats(0.1, 2.0)),
    st.builds(conjprox.LpBall, positive, st.floats(0.1, 0.9), positive),
    st.builds(conjprox.ScadBox, positive, st.floats(2.1, 5.0), positive),
)


@st.composite
def scalar_gram_problems(draw):
    n = draw(sizes)
    operator = draw(st.one_of(
        st.just(linops.Identity(n)),
        st.builds(linops.ScaledIdentity, st.just(n),
                  st.one_of(st.floats(0.1, 10.0), st.floats(-10.0, -0.1))),
    ))
    return quadratic_problem(draw(filled(n)), operator, draw(regularizers),
                             L=draw(st.floats(0.1, 10.0)))


@property_settings
@given(scalar_gram_problems(), st.floats(0.01, 0.99))
def test_descent_report_clean_below_the_step_bound(problem, fraction):
    # criterion 4: on identity and scaled-identity operators the Lyapunov
    # function drops by c(||dx^k||^2 + ||dx^{k-1}||^2) at every alpha < 1/(3L)
    config = ppdg.PpdgConfig(alpha=fraction / (3.0 * problem.lipschitz_L), max_iters=50,
                             tol_step=0.0)
    records = []
    ppdg.solve(problem, config, records.append)
    constants = ppdg.LyapunovConstants.from_parameters(config.alpha, problem.lipschitz_L)
    assert ppdg.descent_report(records, constants)[0] == 0


@st.composite
def finite_sums(draw):
    n, dim = draw(sizes), draw(sizes)
    targets = draw(filled((n, dim)))
    operator = draw(st.one_of(
        st.just(linops.Identity(dim)),
        st.tuples(sizes, st.just(dim)).flatmap(filled).map(linops.DenseMatrix),
    ))
    assume(operator.kind == "identity" or np.any(operator.matrix))
    regularizer = draw(st.one_of(
        st.builds(conjprox.L1, positive),
        st.builds(conjprox.L0Box, positive, st.floats(-2.0, -0.1), st.floats(0.1, 2.0)),
    ))
    return quadratic_finite_sum(targets, operator, regularizer)


@property_settings
@given(finite_sums(), st.integers(2, 12))
def test_full_at_batch_n_is_the_deterministic_solver_bit_for_bit(problem, epochs):
    # criterion 10: the full estimator is the exact mean gradient, so the
    # stochastic loop takes ppdg's iterates and writes its rows
    config = sppdg.SppdgConfig(max_epochs=epochs, seeds=(0,))
    run = sppdg.solve_stochastic(problem, "full", config,
                                 batch_size=problem.n_components).per_seed[0]
    assume(not run.failed)
    records = []
    report = ppdg.solve(problem, ppdg.PpdgConfig(alpha=ppdg.default_alpha(1.0),
                                                 max_iters=run.report.iters, tol_step=0.0),
                        trace_sink=records.append)
    assert report.iters == run.report.iters == len(records) == len(run.records)
    assert np.array_equal(report.x, run.report.x) and np.array_equal(report.y, run.report.y)
    # the Lyapunov column weighs the window with each solver's own constants
    compared = ("iter", "objective", "lagrangian", "dx_norm", "dy_norm", "kkt_x", "kkt_y")
    for a, b in zip(records, run.records):
        for name in compared:
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
