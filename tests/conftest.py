import numpy as np
import pytest

from dualprox import conjprox, linops, ppdg
from dualprox.problems import CompositeProblem, FiniteSumProblem


def quadratic_problem(b, operator, regularizer, L=1.0):
    """f(x) = L/2 ||x - b||^2 with gradient L(x - b); L = 1 by default."""
    b = np.asarray(b, dtype=float)
    # L = 1 scales exactly, so the default keeps every bit of the unit quadratic
    return CompositeProblem(
        f_value=lambda x: 0.5 * L * float(np.sum((x - b) ** 2)),
        grad_f=lambda x: L * (x - b),
        lipschitz_L=L,
        operator=operator,
        regularizer=regularizer,
    )


@pytest.fixture
def scalar_problem():
    """f = 0.5 (x - 2)^2, A = 1, l0_box(0.1, -1, 1); the worked example."""
    return quadratic_problem(
        np.array([2.0]), linops.Identity(1), conjprox.L0Box(0.1, -1.0, 1.0)
    )


@pytest.fixture
def descent_problem():
    """n = 10 seeded quadratic with A = I and the l0 box regularizer."""
    rng = np.random.default_rng(4)
    return quadratic_problem(
        rng.standard_normal(10), linops.Identity(10), conjprox.L0Box(0.1, -1.0, 1.0)
    )


def quadratic_finite_sum(targets, operator, regularizer):
    """Finite sum of f_i(x) = 0.5 ||x - targets[i]||^2; full gradient has L = 1."""
    return FiniteSumProblem(
        n_components=targets.shape[0],
        component_value=lambda i, x: 0.5 * float(np.sum((x - targets[i]) ** 2)),
        component_grad=lambda i, x: x - targets[i],
        lipschitz_L=1.0,
        operator=operator,
        regularizer=regularizer,
    )


def split_quadratic_finite_sum(n_components, dim, seed=11, regularizer=None, operator=None):
    """Finite sum of shifted quadratics; full gradient has L = 1."""
    rng = np.random.default_rng(seed)
    targets = 2.0 + 0.3 * rng.standard_normal((n_components, dim))
    return quadratic_finite_sum(
        targets, operator or linops.Identity(dim), regularizer or conjprox.L1(0.5)
    )


def run_history(problem, config, x0, y0, n_steps):
    """Drive the solver manually, returning the list of states."""
    state = ppdg.init_state(problem, x0, y0, config)
    states = [state]
    for _ in range(n_steps):
        state = ppdg.step(problem, state, config)
        states.append(state)
    return states
