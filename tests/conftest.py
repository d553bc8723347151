import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dualprox import conjprox, linops, ppdg, problems
from dualprox.problems import CompositeProblem, FiniteSumProblem

# tools/compare_outputs.py, whose mask is the wall-clock rule of every rerun check
COMPARE_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", COMPARE_TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


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


def lyapunov_reference(problem, window, constants):
    """Lyapunov value at window = (x, y, u, v) or (x, y, u, v, w).

    L(x, y) - a||x - u||^2 + b||x - v||^2, plus c||v - w||^2 for a
    five-point window (``constants.c`` is read only then), summed in the
    order of ``ppdg.make_record``'s column, so the two agree bit for bit.
    """
    x, y, u, v, *w = window
    du, dv = x - u, x - v
    value = ppdg.lagrangian(problem, x, y) - constants.a * float(du @ du)
    value += constants.b * float(dv @ dv)
    if w:
        dw = v - w[0]
        value += constants.c * float(dw @ dw)
    return value


def conj_value_oracle(reg, y, unbounded_halfwidth=40.0):
    """Grid sup of y*x - h(x) for each entry of y, on a grid of step ORACLE_STEP.

    The grid spans dom h (the box or ball for the bounded kinds, a wide
    window for l1) and always contains x = 0 exactly, which matters for
    the l0 penalty; it and h on it are built once per call. For l1 with
    |y| > lam the true sup is +inf; the returned value then grows with
    the window and the caller should only check that it exceeds any
    fixed bound. Returns a float for a scalar y, else y's shape.
    """
    if reg.kind == "l1":
        lo, hi = -unbounded_halfwidth, unbounded_halfwidth
    elif reg.kind == "l0_box":
        lo, hi = reg.c1, reg.c2
    else:
        lo, hi = -reg.r, reg.r
    xs = np.arange(lo, hi + conjprox.ORACLE_STEP, conjprox.ORACLE_STEP)
    xs = np.concatenate([xs, [0.0]])
    hx = reg._h_elem(xs, reg._dom_bounds())
    y = np.asarray(y, dtype=float)
    sup = np.array([np.max(t * xs - hx) for t in y.ravel()]).reshape(y.shape)
    return float(sup) if y.ndim == 0 else sup


def oracle_conj_deviation(reg, points):
    """Max |closed-form h* - grid sup| over finite-valued points."""
    points = np.asarray(points, dtype=float)
    closed = np.array([reg.conj_value(np.array([y])) for y in points])
    finite = ~np.isinf(closed)
    return float(np.max(np.abs(closed[finite] - conj_value_oracle(reg, points[finite])),
                        initial=0.0))


def stacked(component_grad):
    """The batch oracle ``(idx, x) -> np.stack([component_grad(i, x) for i in idx])``."""
    return lambda idx, x: np.stack([component_grad(i, x) for i in idx])


def anchored_estimate(est, batch, x):
    """mean_B(grad f_i(x) - anchor_i) + anchor_mean for an explicit batch.

    The anchors come from the estimator's own memory, which is left as
    is: SAGA's table rows, or the component gradients at the anchor
    point of SVRG and SARAH.
    """
    if hasattr(est, "table"):
        anchors = est.table[batch]
    else:
        anchors = est.batch_grad(batch, est.anchor_x)
    fresh = est.batch_grad(batch, x)
    return (fresh - anchors).mean(axis=0) + est.anchor_mean


def run_history(problem, config, x0, y0, n_steps):
    """Drive the solver manually, returning the list of states."""
    state = ppdg.init_state(problem, x0, y0, config)
    states = [state]
    for _ in range(n_steps):
        state = ppdg.step(problem, state, config)
        states.append(state)
    return states


def sequential_full_sums(problem, xs):
    """SigmoidLossSum.full_sums as one loop over the row blocks on one thread.

    Each block's sums are added to the totals as they are formed. A call
    that shares the blocks with helper threads adds the same sums in the
    same order, so it must equal this byte for byte.
    """
    rows, labels = problem.rows, problem.labels
    xs = np.asarray(xs, dtype=float)
    values = np.zeros(xs.shape[0])
    grads = np.zeros(xs.shape)
    for start in range(0, labels.size, problems.BLOCK_ROWS):
        blk = slice(start, start + problems.BLOCK_ROWS)
        t = xs @ rows[blk].T
        t *= labels[blk]
        np.tanh(t, out=t)
        values += np.sum(1.0 - t, axis=1)
        t *= t
        t -= 1.0
        t *= labels[blk]
        grads += t @ rows[blk]
    return values / labels.size, grads / labels.size


@pytest.fixture
def fan_out(monkeypatch):
    """fan_out(helpers, min_work=0) makes later full_sums calls fan out.

    From then on, a call with two row blocks or more and work K*N*n above
    ``min_work`` shares its blocks with ``helpers`` threads of a fresh
    pool, whatever the cores and the BLAS setting. Each such pool is shut
    down when the next call to fan_out replaces it, and at teardown; the
    process's own pool, if one exists, is put back.
    """
    monkeypatch.setattr(problems, "_pool", None)

    def drop_pool():
        if problems._pool is not None:
            problems._pool.shutdown()
            problems._pool = None

    def force(helpers, min_work=0):
        drop_pool()
        monkeypatch.setattr(problems, "_fanout_helpers", lambda: helpers)
        monkeypatch.setattr(problems, "FANOUT_MIN_WORK", min_work)

    yield force
    drop_pool()
