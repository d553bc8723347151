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
steps. ``make_record`` is the one place its value is computed, for both
solvers. ``descent_report`` reads that descent off the trace rows; it
counts the steps that fall short on every operator kind, and on identity
and scaled-identity operators below the 1/(3L) step bound it finds none.

The loop takes a gradient oracle and a stop rule, and hands each new
state to its caller: ``solve`` runs it with the exact gradient and an
iteration cap, and builds each trace row in the iteration that formed
it; :mod:`dualprox.sppdg` runs it with a variance-reduced estimate and
an evaluation budget. The step forms the primal residual g + A^T y once,
for whatever gradient g it used, and keeps its norm. With the exact
gradient that norm is the trace row's KKT residual, so a deterministic
iteration applies A^T and grad f once each; under an estimate the row
forms the residual from the exact gradient its caller passes. The dual
step likewise forms y^k - y^{k+1} once: its norm is the row's dy, and
g^{k+1} is formed in place on it. The step is the one place the step
norms are formed, and the state carries them as floats: ||x^{k+1} - x^k||^2,
the previous state's value of it, and ||y^{k+1} - y^k||. So no state keeps
y^{k-1} or x^{k-2}. A finite sum is a composite problem, so every function
here takes either type.

Divergence is a safety rule of this code, not a parameter of the
algorithm: ``step`` checks each new iterate once, in the step that
forms it (x^1, which ``init_state`` forms, in the first step), and
raises SolverDivergence unless its norm is at most the fixed
``NORM_CAP`` (a nan norm fails that test too).
"""

import math
import numbers
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
    "dual_beta",
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
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 0):
            raise ValueError(f"max_iters must be nonnegative and integral, got {self.max_iters!r}")
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
    ||g + A^T y_cur|| as the step formed it on the way to x_next, for the
    gradient g at x_cur that step used: the KKT residual r_x when g was
    exact, and not when it was an estimate (nan on a state no step formed).

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
    residual_norm: float = math.nan
    dx_sq: float = 0.0
    prev_dx_sq: float = 0.0
    dy_norm: float = 0.0


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


def _norm(v):
    """||v|| for a 1-d float array: the sqrt(v.dot(v)) np.linalg.norm evaluates, bit for bit."""
    return math.sqrt(v.dot(v))


def dual_beta(problem, config):
    """Scalar dual prox weight 1/(alpha ||A||^2)."""
    norm = problem.operator.op_norm()
    if not 0.0 < norm < math.inf:
        raise ValueError(f"dual step needs a positive finite operator norm ||A||, got {norm}")
    return 1.0 / (config.alpha * norm**2)


def _primal_step(problem, config, gradient, k, x, y):
    """(x - alpha s, ||s||) for s = g + A^T y, g = grad f(x) or ``gradient(k, x)``."""
    # one unnamed sum, so numpy may form it in place on the gradient
    s = ((problem.grad_f(x) if gradient is None else gradient(k, x))
         + problem.operator.apply_adjoint(y))
    norm = _norm(s)
    s *= config.alpha
    return x - s, norm


def _primal_residual(problem, x, y, grad=None):
    """grad f(x) + A^T y, with ``grad`` as grad f(x) when given."""
    if grad is None:
        grad = problem.grad_f(x)
    return grad + problem.operator.apply_adjoint(y)


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
    ``problem.grad_f``. The new state's ``residual_norm`` is the norm of
    that gradient at x^{k+1} plus A^T y^{k+1}: the KKT residual r_x only
    when ``gradient`` is None.

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
    y_next = problem.regularizer.prox_conj(state.y_cur + beta * a_extrap, beta)
    # g^{k+1} = (y^k - y^{k+1})/beta + a_extrap, in dh*(y^{k+1}), is formed in place
    # on y^k - y^{k+1} after its norm is taken: a negated vector's norm is the same
    g_next = state.y_cur - y_next
    dy = _norm(g_next)
    g_next /= beta
    g_next += a_extrap
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
    d_x = _primal_residual(problem, state.x_cur, state.y_cur) - 2.0 * a * du + 2.0 * b * dv
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

    The Lyapunov column is L(x^k, y^k) - a||x^k - x^{k+1}||^2
    + b||x^k - x^{k-1}||^2 + c||x^{k-1} - x^{k-2}||^2, summed in that
    order, for ``weights = (a, b, c)``; c = None drops the last term. The
    last two squared norms, and the row's dx and dy, are the step norms
    the state carries.

    One pass: A x^k, f(x^k), h*(y^k) and h(A x^k) are each evaluated
    once. The KKT residuals are r_x = ||grad f(x^k) + A^T y^k|| and
    r_y = ||A x^k - g^k||, where g^k is the dual-step subgradient; r_y
    bounds the distance of A x^k to the subdifferential of h* at y^k.

    ``sums`` is (f(x^k), grad f(x^k)) when the caller has evaluated them,
    as :mod:`dualprox.sppdg` does for a batch of rows; r_x is then formed
    here from that gradient. With ``sums=None`` f(x^k) is evaluated here
    and r_x is the state's ``residual_norm``, which is r_x only when the
    step's gradient was exact, as in ``solve``; a caller whose steps used
    a gradient estimate passes ``sums``.
    """
    if state.k < 1 or state.g_cur is None:
        raise ValueError("make_record needs k >= 1 (a completed dual step)")
    reg = problem.regularizer
    x, y = state.x_cur, state.y_cur
    ax = problem.operator.apply(x)
    f_x, grad = (problem.f_value(x), None) if sums is None else sums
    lag = _lagrangian_from(f_x, y, ax, reg.conj_value(y))
    a, b, c = weights
    du = x - state.x_next
    lyapunov = lag - a * float(du @ du) + b * state.dx_sq
    if c is not None:
        lyapunov += c * state.prev_dx_sq
    return TraceRecord(
        iter=state.k,
        elapsed_s=elapsed_s,
        objective=float(f_x + reg.value_h(ax)),
        lagrangian=lag,
        lyapunov=lyapunov,
        dx_norm=math.sqrt(state.dx_sq),
        dy_norm=state.dy_norm,
        kkt_x=state.residual_norm if sums is None else _norm(_primal_residual(problem, x, y, grad)),
        kkt_y=_norm(ax - state.g_cur),
    )


def _iterate(problem, config, gradient, proceed, limit_reason, on_step):
    """The step sequence of both solvers, from x^0 = y^0 = 0; returns (state, reason).

    ``gradient(k, x)`` is the oracle of ``step`` (None: the exact
    gradient). Step k + 1 is taken while ``proceed(k)`` holds, and a loop
    ended that way reports ``limit_reason``; it also stops, "converged",
    once both step norms of a new state reach ``config.tol_step``.
    ``on_step(state, elapsed_s)`` receives each new state, with the
    seconds since the first step started, before the stop test. The step
    raises SolverDivergence for an iterate beyond NORM_CAP. The loop, rows
    built in ``on_step`` included, runs with numpy's overflow and invalid
    warnings off: a row reads only iterates the step has checked.
    """
    beta = dual_beta(problem, config)
    op = problem.operator
    # the start point is held for the whole loop: freeing it after the first
    # steps changes numpy's allocation pattern, and perfbench/run.py then read
    # the 256x256 denoise solve about 12 % slower
    x0, y0 = np.zeros(op.in_dim), np.zeros(op.out_dim)
    # a diverging iterate's squared norm may overflow; the cap test reports it
    with np.errstate(over="ignore", invalid="ignore"):
        state = init_state(problem, x0, y0, config, gradient)
        started = time.perf_counter()
        while proceed(state.k):
            state = step(problem, state, config, beta, gradient)
            on_step(state, time.perf_counter() - started)
            if max(math.sqrt(state.dx_sq), state.dy_norm) <= config.tol_step:
                return state, "converged"
    return state, limit_reason


def _report(problem, state, reason, last):
    """SolveReport at the loop's final state; ``last`` is its TraceRecord, None if no step ran."""
    if last is None:
        kkt_x = _norm(_primal_residual(problem, state.x_cur, state.y_cur))
        kkt_y = dx = dy = float("nan")
    else:
        kkt_x, kkt_y = last.kkt_x, last.kkt_y
        dx, dy = last.dx_norm, last.dy_norm
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
    # constants.c is the descent rate, not a window weight
    weights = (constants.a, constants.b, None)
    last = None

    def on_step(state, elapsed_s):
        nonlocal last
        last = make_record(problem, state, weights, elapsed_s)
        if trace_sink is not None:
            trace_sink(last)

    state, reason = _iterate(problem, config, None, lambda k: k < config.max_iters,
                             "iteration-limit", on_step)
    return _report(problem, state, reason, last)


def _descent_violations(lyapunov, steps_sq, rate, terms):
    """(violations, checked) of the sufficient-decrease rule over consecutive values.

    Step j falls short unless lyapunov[j] - lyapunov[j+1] is at least
    rate * sum(steps_sq[j:j+terms]) less the roundoff allowance
    DESCENT_SLACK * (1 + |lyapunov[j]|), so a nan drop falls short; every
    j whose window fits is checked.
    """
    checked = range(len(lyapunov) - terms + 1)
    violations = sum(
        not lyapunov[j] - lyapunov[j + 1]
        >= rate * sum(steps_sq[j:j + terms]) - DESCENT_SLACK * (1.0 + abs(lyapunov[j]))
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
