"""Deterministic preconditioned primal-dual gradient solver.

The iteration alternates a primal gradient step with a proximal step on
the convex conjugate of the regularizer:

    x+ = x - alpha * (grad f(x) + A^T y)
    y+ = prox_{beta h*}(y + beta * A(2 x+ - x))

with the scalar dual weight beta = 1/(alpha ||A||^2), which is the exact
dual metric alpha*AA^T of the descent analysis on identity and
scaled-identity operators and stands in for it on every other kind.

Per-iteration diagnostics track a Lyapunov function, the Lagrangian
plus weighted squared distances between consecutive primal iterates,
which decreases monotonically under the exact metric for small enough
steps. ``descent_report`` reads that descent off the trace rows; it
counts the steps that fall short on every operator kind, and on identity
and scaled-identity operators below the 1/(3L) step bound it finds none.

The loop takes a gradient estimator and a stop rule: ``solve`` runs it
with the exact gradient (estimator None) and an iteration cap,
:mod:`dualprox.sppdg` with a variance-reduced estimate and an
evaluation budget. The step forms the primal residual grad f(x) + A^T y
once; with the exact gradient its norm is the trace row's KKT residual,
so a deterministic iteration applies A^T and grad f once each. The dual
step likewise forms y^k - y^{k+1} once: its norm is the row's dy, and
g^{k+1} is formed in place on it. The step is the one place the step
norms are formed, and the state carries them as floats: ||x^{k+1} - x^k||^2,
the previous state's value of it, and ||y^{k+1} - y^k||. So no state keeps
y^{k-1} or x^{k-2}. A finite sum is a composite problem, so every function
here takes either type.

The stop test reads the step norms of each new state, and each iteration
stamps its trace row's ``elapsed_s`` at once. A row under the exact
gradient is built and delivered in the same iteration. Under a gradient
estimate the row needs f(x^k) and grad f(x^k), full sums that never feed
the iterates, so the loop evaluates them for up to ``ROW_BATCH`` pending
rows in one ``full_sums`` call: the rows are delivered in order, in
batches of up to ROW_BATCH, each with the ``elapsed_s`` and the
estimator's evaluation count of its own iteration. On the fused lasso
that call sums in another order than the per-point oracles, so the
objective, lagrangian, lyapunov and kkt_x columns may differ from a
per-point evaluation at roundoff; the iterates and every other column
do not.

Divergence is a safety rule of this code, not a parameter of the
algorithm: ``step`` checks each new iterate once, in the step that
forms it (x^1, which ``init_state`` forms, in the first step), and
raises SolverDivergence unless its norm is at most the fixed
``NORM_CAP`` (a nan norm fails that test too).
"""

import math
import time
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "PpdgConfig",
    "LyapunovConstants",
    "SolverState",
    "TraceRecord",
    "SolveReport",
    "SolverDivergence",
    "TRACE_FIELDS",
    "default_alpha",
    "lagrangian",
    "lyapunov_value",
    "dual_beta",
    "dual_prox_step",
    "init_state",
    "step",
    "subgradient_d",
    "subgradient_bound_gammas",
    "make_record",
    "solve",
    "descent_report",
]

# the descent analysis fixes delta in the Lyapunov weights; the slack absorbs roundoff
DELTA = 0.2
DESCENT_SLACK = 1e-9
# default step sizes sit this fraction of the way up to their bound
STEP_MARGIN = 0.9
# an iterate whose norm is not at most this (nan included) has diverged
NORM_CAP = 1e12
# stochastic trace rows whose full sums are evaluated together, in one
# problem.full_sums call; the rows never feed the iterates
ROW_BATCH = 32


class SolverDivergence(RuntimeError):
    """A new iterate's norm exceeded NORM_CAP or was not a number."""

    def __init__(self, iteration):
        super().__init__(
            f"diverged at iteration {iteration}: iterate norm above {NORM_CAP:g} or not finite"
        )
        self.iteration = iteration


@dataclass
class PpdgConfig:
    alpha: float
    max_iters: int = 10000
    tol_step: float = 1e-8
    # not a setting: stays only while perfbench/workloads.py passes it
    preconditioner: str = "scalar_beta"

    def validate(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not self.max_iters >= 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.tol_step >= 0:
            raise ValueError("tol_step must be nonnegative")
        if self.preconditioner != "scalar_beta":
            raise ValueError(
                f"preconditioner {self.preconditioner!r} is not a setting: the dual weight "
                "is always the scalar 1/(alpha ||A||^2)"
            )


def _checked_lipschitz(L):
    """L itself; ValueError unless 0 < L < inf, the range the 1/(3L) bound needs."""
    if not 0.0 < L < math.inf:
        raise ValueError(f"the gradient's Lipschitz constant must be positive and finite, got {L}")
    return L


def default_alpha(lipschitz_L):
    """Step size STEP_MARGIN/(3L), a safety margin under the 1/(3L) descent bound."""
    return STEP_MARGIN / (3.0 * _checked_lipschitz(lipschitz_L))


@dataclass(frozen=True)
class LyapunovConstants:
    a: float
    b: float
    c: float

    @classmethod
    def from_parameters(cls, alpha, L):
        a = DELTA / alpha
        b = (
            1.0 / (2.0 * alpha)
            - L / 4.0
            - DELTA / alpha
            - alpha * DELTA * L**2 / 2.0
            - DELTA * L
            + alpha * L**2 / (4.0 * DELTA)
        )
        c = b - alpha * L**2 / (2.0 * DELTA)
        return cls(a=a, b=b, c=c)


@dataclass
class SolverState:
    """Window of iterates around step k, with a one-step lookahead.

    ``x_next`` is the gradient step taken from (x_cur, y_cur); it is
    computed eagerly because the Lyapunov window z^k = (x^k, y^k,
    x^{k+1}, x^{k-1}) and the diagnostics all need x^{k+1}. ``g_cur``
    is the subgradient of h* at y_cur certified by the dual prox,
    g^k = -(y^k - y^{k-1})/beta + A(2x^k - x^{k-1}). ``residual_norm`` is
    ||grad f(x_cur) + A^T y_cur|| as the step formed it on the way to
    x_next; None when the step used a gradient estimate.

    The step norms are the step's own: ``dx_sq`` is ||x^k - x^{k-1}||^2,
    ``prev_dx_sq`` is ||x^{k-1} - x^{k-2}||^2 (the previous state's
    ``dx_sq``, for the stochastic Lyapunov window) and ``dy_norm`` is
    ||y^k - y^{k-1}||. All three are 0.0 at k = 0, so at k = 1 x^{k-2}
    is taken as x^{k-1}.
    """

    k: int
    x_cur: np.ndarray
    y_cur: np.ndarray
    x_next: np.ndarray
    x_prev: np.ndarray = None
    g_cur: np.ndarray = None
    residual_norm: float = None
    dx_sq: float = 0.0
    prev_dx_sq: float = 0.0
    dy_norm: float = 0.0

    def z_window(self):
        return (self.x_cur, self.y_cur, self.x_next, self.x_prev)


@dataclass
class TraceRecord:
    iter: int
    elapsed_s: float
    objective: float
    lagrangian: float
    lyapunov: float
    dx_norm: float
    dy_norm: float
    kkt_x: float
    kkt_y: float


TRACE_FIELDS = [f.name for f in fields(TraceRecord)]


@dataclass
class SolveReport:
    x: np.ndarray
    y: np.ndarray
    iters: int
    kkt_x: float
    kkt_y: float
    dx_norm: float
    dy_norm: float
    reason: str


def _lagrangian_from(f_x, y, ax, conj):
    """f(x) + <y, Ax> - h*(y) from its parts; -inf when h*(y) = +inf."""
    if np.isinf(conj):
        return -np.inf
    return float(f_x + y @ ax - conj)


def lagrangian(problem, x, y):
    """f(x) + <y, Ax> - h*(y); -inf when h*(y) = +inf (l1 outside its box)."""
    return _lagrangian_from(
        problem.f_value(x), y, problem.operator.apply(x), problem.regularizer.conj_value(y)
    )


def _window_value(lag, weights, du, dv_sq, dw_sq):
    """lag - a||du||^2 + b dv_sq (+ c dw_sq unless c is None), in that order."""
    a, b, c = weights
    value = lag - a * float(du @ du) + b * dv_sq
    if c is not None:
        value += c * dw_sq
    return value


def lyapunov_value(problem, z, constants):
    """Lyapunov value at the window z = (x, y, u, v) or (x, y, u, v, w).

    L(x, y) - a||x - u||^2 + b||x - v||^2, plus c||v - w||^2 for a
    five-point window; ``constants.c`` is read only then.
    """
    x, y, u, v, *w = z
    weights = (constants.a, constants.b, constants.c if w else None)
    dw = v - w[0] if w else None
    dv = x - v
    return _window_value(lagrangian(problem, x, y), weights, x - u, float(dv @ dv),
                         None if dw is None else float(dw @ dw))


def _norm(v):
    """||v|| for a 1-d float array: the sqrt(v.dot(v)) np.linalg.norm evaluates, bit for bit."""
    return math.sqrt(v.dot(v))


def dual_beta(problem, config):
    """Scalar dual prox weight 1/(alpha ||A||^2)."""
    norm = problem.operator.op_norm()
    if not 0.0 < norm < math.inf:
        raise ValueError(f"dual step needs a positive finite operator norm ||A||, got {norm}")
    return 1.0 / (config.alpha * norm**2)


def dual_prox_step(regularizer, y, a_extrap, beta):
    """One dual update; returns (y_next, g_next, ||y_next - y||), g_next in dh*(y_next).

    g_next = (y - y_next)/beta + a_extrap is formed in place on y - y_next,
    after its norm is taken: the norm of a negated vector is the same, bit
    for bit.
    """
    y_next = regularizer.prox_conj(y + beta * a_extrap, beta)
    g_next = y - y_next
    dy = _norm(g_next)
    g_next /= beta
    g_next += a_extrap
    return y_next, g_next, dy


def _primal_step(problem, config, gradient, k, x, y):
    """(x - alpha s, ||s||) for s = grad + A^T y; the norm is None under an estimate."""
    exact = gradient is None
    s = (problem.grad_f(x) if exact else gradient(k, x)) + problem.operator.apply_adjoint(y)
    norm = _norm(s) if exact else None
    s *= config.alpha
    return x - s, norm


def _primal_residual(problem, state, grad=None):
    """grad f(x^k) + A^T y^k with the exact gradient, ``grad`` when given."""
    if grad is None:
        grad = problem.grad_f(state.x_cur)
    return grad + problem.operator.apply_adjoint(state.y_cur)


def _residual_norm(problem, state, grad=None):
    """r_x = ||grad f(x^k) + A^T y^k||: the step's, or formed anew under an estimate."""
    if state.residual_norm is not None:
        return state.residual_norm
    return _norm(_primal_residual(problem, state, grad))


def init_state(problem, x0, y0, config, gradient=None):
    """State at k = 0; ``gradient`` is the oracle of ``step``."""
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    x_next, norm = _primal_step(problem, config, gradient, 0, x0, y0)
    return SolverState(k=0, x_cur=x0, y_cur=y0, x_next=x_next, residual_norm=norm)


def step(problem, state, config, beta=None, gradient=None):
    """Advance (x^k, y^k) to (x^{k+1}, y^{k+1}).

    ``beta`` defaults to ``dual_beta(problem, config)``. ``gradient(k, x)``
    gives the gradient of f at x = x^k; None means the exact
    ``problem.grad_f``, and only then is ``residual_norm`` kept.

    The step forms y^{k+1} and x^{k+2}; x^{k+1} was formed, and checked,
    one step earlier (x^1 by ``init_state``, so the first step checks it
    too). It raises SolverDivergence(k + 1) unless every new norm is at
    most NORM_CAP, which a nan or inf norm fails, so every vector a trace
    row reads is finite and within the cap. The new state carries the
    step norms ||x^{k+1} - x^k||^2, ||x^k - x^{k-1}||^2 and ||y^{k+1} - y^k||.
    """
    if beta is None:
        beta = dual_beta(problem, config)
    a_extrap = problem.operator.apply(2.0 * state.x_next - state.x_cur)
    y_next, g_next, dy = dual_prox_step(problem.regularizer, state.y_cur, a_extrap, beta)
    x_after, norm = _primal_step(problem, config, gradient, state.k + 1, state.x_next, y_next)
    # x^1, formed by init_state, is checked in the first step
    if not (_norm(x_after) <= NORM_CAP and _norm(y_next) <= NORM_CAP
            and (state.k > 0 or _norm(state.x_next) <= NORM_CAP)):
        raise SolverDivergence(state.k + 1)
    dx = state.x_next - state.x_cur
    return SolverState(
        k=state.k + 1,
        x_cur=state.x_next,
        y_cur=y_next,
        x_next=x_after,
        x_prev=state.x_cur,
        g_cur=g_next,
        residual_norm=norm,
        dx_sq=float(dx.dot(dx)),
        prev_dx_sq=state.dx_sq,
        dy_norm=dy,
    )


def subgradient_d(problem, state, constants):
    """The four-block subgradient d^k of the Lyapunov function at z^k.

    Blocks: (grad_x, A x^k - g^k, grad_u, grad_v). Returns
    ((d_x, d_g, d_u, d_v), euclidean norm of the concatenation).
    Requires k >= 1.
    """
    if state.k < 1 or state.g_cur is None:
        raise ValueError("subgradient_d needs k >= 1 (a completed dual step)")
    a, b = constants.a, constants.b
    du = state.x_cur - state.x_next
    dv = state.x_cur - state.x_prev
    d_x = _primal_residual(problem, state) - 2.0 * a * du + 2.0 * b * dv
    d_g = problem.operator.apply(state.x_cur) - state.g_cur
    d_u = 2.0 * a * du
    d_v = -2.0 * b * dv
    norm = float(np.sqrt(d_x @ d_x + d_g @ d_g + d_u @ d_u + d_v @ d_v))
    return (d_x, d_g, d_u, d_v), norm


def subgradient_bound_gammas(constants, alpha, op_norm, L):
    """Coefficients (gamma1, gamma2) bounding ||d^k|| by the two step norms."""
    gamma1 = 2.0 * L + 4.0 * constants.b + 2.0 / alpha + (2.0 + alpha * L) * op_norm
    gamma2 = 4.0 * constants.a + 1.0 / alpha + op_norm
    return gamma1, gamma2


def make_record(problem, state, weights, elapsed_s=0.0, sums=None):
    """Diagnostics row for the current state; needs k >= 1.

    ``weights = (a, b, c)`` weigh ||x^k - x^{k+1}||^2, ||x^k - x^{k-1}||^2
    and ||x^{k-1} - x^{k-2}||^2 in the Lyapunov column; c = None drops
    the last term. The last two, and the row's dx and dy, are the step
    norms the state carries.

    One pass: A x^k, f(x^k), h*(y^k) and h(A x^k) are each evaluated
    once. The KKT residuals are r_x = ||grad f(x^k) + A^T y^k|| and
    r_y = ||A x^k - g^k||, where g^k is the dual-step subgradient; r_y
    bounds the distance of A x^k to the subdifferential of h* at y^k.
    r_x is the norm the step kept when its gradient was exact; under a
    gradient estimate grad f(x^k) and A^T y^k are evaluated once here.

    ``sums`` is (f(x^k), grad f(x^k)) when the caller has evaluated the
    full sums already, as the loop does for a batch of stochastic rows.
    """
    if state.k < 1 or state.g_cur is None:
        raise ValueError("make_record needs k >= 1 (a completed dual step)")
    reg = problem.regularizer
    x, y = state.x_cur, state.y_cur
    ax = problem.operator.apply(x)
    f_x, grad = (problem.f_value(x), None) if sums is None else sums
    lag = _lagrangian_from(f_x, y, ax, reg.conj_value(y))
    return TraceRecord(
        iter=state.k,
        elapsed_s=elapsed_s,
        objective=float(f_x + reg.value_h(ax)),
        lagrangian=lag,
        lyapunov=_window_value(lag, weights, x - state.x_next, state.dx_sq, state.prev_dx_sq),
        dx_norm=math.sqrt(state.dx_sq),
        dy_norm=state.dy_norm,
        kkt_x=_residual_norm(problem, state, grad),
        kkt_y=_norm(ax - state.g_cur),
    )


def _iterate(problem, config, estimator, proceed, limit_reason, weights, on_record):
    """The primal-dual loop of both solvers, from x^0 = y^0 = 0; returns a SolveReport.

    ``estimator`` is None for the exact gradient, or a gradient estimator
    whose ``estimate(k, x)`` is the oracle of ``step`` and whose ``evals``
    counts its component-gradient evaluations. Step k + 1 is taken while
    ``proceed(k)`` holds, and a loop ended that way reports
    ``limit_reason``. ``on_record(record, evals)`` receives each
    TraceRecord, built with the Lyapunov ``weights`` of make_record, and
    the estimator's ``evals`` at that iteration (None for the exact
    gradient). The loop also stops once both step norms reach
    ``config.tol_step``; the step raises SolverDivergence for an iterate
    beyond NORM_CAP.

    The step stamps each row's step norms on its state, and the loop its
    ``elapsed_s`` and ``evals``. With the exact gradient the row is built
    and delivered in the same iteration. Under an estimate its full sums
    f(x^k) and grad f(x^k) wait, for up to ROW_BATCH iterates, for one
    ``problem.full_sums`` call; the pending rows are then built and
    delivered in order, and the last ones before the loop returns. Rows
    still pending when a step diverges are dropped.
    """
    gradient = None if estimator is None else estimator.estimate
    beta = dual_beta(problem, config)
    op = problem.operator
    # the start point is held for the whole loop: freeing it after the first
    # steps changes numpy's allocation pattern, and perfbench/run.py then read
    # the 256x256 denoise solve about 12 % slower
    x0, y0 = np.zeros(op.in_dim), np.zeros(op.out_dim)
    state = init_state(problem, x0, y0, config, gradient)
    started = time.perf_counter()
    pending = []
    record = None
    reason = limit_reason

    def deliver():
        nonlocal record
        sums = [None] * len(pending)
        if estimator is not None:
            values, grads = problem.full_sums(np.stack([row[0].x_cur for row in pending]))
            sums = zip(values, grads)
        for (st, elapsed_s, evals), row_sums in zip(pending, sums):
            record = make_record(problem, st, weights, elapsed_s, row_sums)
            on_record(record, evals)
        pending.clear()

    while proceed(state.k):
        state = step(problem, state, config, beta, gradient)
        evals = None if estimator is None else estimator.evals
        pending.append((state, time.perf_counter() - started, evals))
        if estimator is None or len(pending) == ROW_BATCH:
            deliver()
        if max(math.sqrt(state.dx_sq), state.dy_norm) <= config.tol_step:
            reason = "converged"
            break
    if pending:
        deliver()
    if record is None:
        kkt_x = _residual_norm(problem, state)
        kkt_y = dx = dy = float("nan")
    else:
        kkt_x, kkt_y = record.kkt_x, record.kkt_y
        dx, dy = record.dx_norm, record.dy_norm
    return SolveReport(x=state.x_cur, y=state.y_cur, iters=state.k, kkt_x=kkt_x,
                       kkt_y=kkt_y, dx_norm=dx, dy_norm=dy, reason=reason)


def solve(problem, config, trace_sink=None):
    """Run the solver from zero until the step tolerance or the iteration cap.

    Args:
        problem: a CompositeProblem or FiniteSumProblem (f, operator, regularizer).
        config: PpdgConfig; validated up front.
        trace_sink: optional callable receiving one TraceRecord per
            completed iteration (from k = 1 on, since diagnostics need
            a full window).

    Returns a SolveReport; ``descent_report`` reads Lyapunov descent off
    the rows. A step that forms an iterate whose norm is not at most
    NORM_CAP (nan included) raises SolverDivergence at that step's
    iteration.

    The caller is responsible for the problem being dual-bounded
    (inf_x of the Lagrangian finite for every y); that property cannot
    be checked algorithmically and unbounded problems surface as
    divergence.
    """
    config.validate()
    constants = LyapunovConstants.from_parameters(config.alpha, problem.lipschitz_L)

    def deliver(record, _evals):
        if trace_sink is not None:
            trace_sink(record)

    # constants.c is the descent rate, not a window weight
    return _iterate(
        problem, config, None, lambda k: k < config.max_iters, "iteration-limit",
        (constants.a, constants.b, None), deliver,
    )


def _descent_violations(lyapunov, steps_sq, rate, terms):
    """(violations, checked) of the sufficient-decrease rule over consecutive values.

    Step j falls short when lyapunov[j] - lyapunov[j+1] is below
    rate * sum(steps_sq[j:j+terms]) less the roundoff allowance
    DESCENT_SLACK * (1 + |lyapunov[j]|); every j whose window fits is checked.
    """
    checked = range(len(lyapunov) - terms + 1)
    violations = sum(
        lyapunov[j] - lyapunov[j + 1]
        < rate * sum(steps_sq[j:j + terms]) - DESCENT_SLACK * (1.0 + abs(lyapunov[j]))
        for j in checked
    )
    return violations, len(checked)


def descent_report(records, constants):
    """Count the consecutive trace rows where the Lyapunov value falls too little.

    Between the rows of iterations k and k + 1 the value should drop by at
    least c(||x^{k+1} - x^k||^2 + ||x^k - x^{k-1}||^2), the rows' squared
    dx, with ``constants.c`` of LyapunovConstants. The analysis proves that
    on identity and scaled-identity operators for alpha < 1/(3L); on every
    other kind the scalar dual weight only stands in for the exact metric,
    so a shortfall there is advisory. ``records`` are one run's rows from
    k = 1 on, as ``solve`` delivers them. Returns (violations, checked).
    """
    return _descent_violations([r.lyapunov for r in records],
                               [r.dx_norm**2 for r in records], constants.c, 2)
