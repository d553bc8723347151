"""Stochastic preconditioned primal-dual solver over finite-sum problems.

Each run is the deterministic solver's step loop (``ppdg._iterate``) on the
finite sum itself, with the exact mean gradient replaced by a
variance-reduced estimate and the iteration cap by a budget of
component-gradient evaluations. Runs are replicated across seeds, and
seed-averaged traces support an advisory check of the expected descent of

    Ls(z) = Lag_s(x, y) - a||x - u||^2 + b||x - v||^2 + c||v - w||^2

where Lag_s(x, y) = (1/N) sum f_i(x) + <y, Ax> - h*(y) is ``lagrangian`` of
the finite sum and z^k = (x^k, y^k, x^{k+1}, x^{k-1}, x^{k-2}). Only the
deterministic part of that Lyapunov function is computable (the
geometrically decaying correction terms of the variance-reduction
analysis have no closed form), so descent reporting is advisory.
``ppdg.make_record`` evaluates that part on each row, with c weighing the
fifth point.

Each seed starts where the loop does, at zero: the estimator is handed
no point, and seeds its memory on the loop's k = 0 gradient call, which
is charged its N evaluations. A trace row needs f(x^k) and grad f(x^k), full
sums that never feed the iterates; the residual norm a step keeps is of
the estimate, so each row's kkt_x is formed from the gradient in these
sums. Each seed keeps up to ``ROW_BATCH`` new states pending and
evaluates their sums in one ``problem.full_sums`` call; its rows are
then built in order, and the last ones after the loop. Each row's
``elapsed_s`` and ``comp_evals`` are stamped at its own iteration. On
the fused lasso the batched sums may move the objective, lagrangian,
lyapunov and kkt_x columns at roundoff against a per-point evaluation;
the iterates and every other column do not. A seed that diverges keeps
no rows, not even those already built.
"""

import math
import warnings
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

# make_record is read off the module at each call, so a patched one is used
from . import ppdg
from .ppdg import (
    STEP_MARGIN,
    PpdgConfig,
    SolveReport,
    SolverDivergence,
    _descent_violations,
    _iterate,
    _report,
    default_alpha,
    lagrangian,
)
from .vrgrad import make_estimator

__all__ = [
    "SppdgConfig",
    "SppdgLyapunovConstants",
    "AggregateRecord",
    "SeedRunResult",
    "StochasticSolveResult",
    "AGGREGATE_FIELDS",
    "lagrangian",
    "solve_stochastic",
    "expectation_descent_report",
]

# the descent analysis fixes these two auxiliary constants
DELTA1 = 1.0
DELTA2 = 1.0 / 6.0
# the most trace rows one problem.full_sums call serves
ROW_BATCH = 32


@dataclass
class SppdgConfig:
    """Stochastic solver settings."""

    alpha: float = None
    kappa_hat: float = 0.0
    max_epochs: int = 50
    tol_step: float = 0.0
    seeds: tuple = (0,)

    def resolve_alpha(self, lipschitz_L):
        """Step size: explicit, or the safe default for the given L.

        With a positive kappa proxy the bound alpha < 1/(2(3+7L+6*kappa))
        keeps the stochastic descent constant positive and is enforced,
        and the default is STEP_MARGIN times it; with kappa_hat = 0 the
        deterministic rule ``default_alpha`` = STEP_MARGIN/(3L) applies.
        An explicit alpha is returned as given; ``validate`` checks it.
        """
        if not self.kappa_hat >= 0:
            raise ValueError("kappa_hat must be nonnegative")
        if self.kappa_hat > 0:
            bound = 1.0 / (2.0 * (3.0 + 7.0 * lipschitz_L + 6.0 * self.kappa_hat))
            if self.alpha is None:
                return STEP_MARGIN * bound
            if not self.alpha < bound:
                raise ValueError(
                    f"alpha must be below 1/(2(3+7L+6*kappa)) = {bound:.6g} "
                    "when kappa_hat > 0"
                )
            return self.alpha
        if self.alpha is None:
            return default_alpha(lipschitz_L)
        return self.alpha

    def validate(self, problem):
        """Check the settings; returns the PpdgConfig each seed's loop runs."""
        if not 0 <= self.max_epochs < math.inf:
            raise ValueError(f"max_epochs must be nonnegative and finite, got {self.max_epochs}")
        if len(self.seeds) == 0:
            raise ValueError("need at least one seed")
        step_config = PpdgConfig(
            alpha=self.resolve_alpha(problem.lipschitz_L),
            tol_step=self.tol_step,
        )
        step_config.validate()
        return step_config


@dataclass(frozen=True)
class SppdgLyapunovConstants:
    """Window weights a, b and c (c weighs the fifth point), and e0, the descent rate."""

    a: float
    b: float
    c: float
    e0: float

    @classmethod
    def from_parameters(cls, alpha, L, kappa):
        e0 = (
            1.0 / (3.0 * alpha)
            - (DELTA1 + L) / 6.0
            - kappa / (3.0 * DELTA1)
            - 4.0 * DELTA2 * L / 3.0
            - 4.0 * DELTA2 / (3.0 * alpha)
            - 2.0 * DELTA2 * alpha * L**2 / 3.0
            - alpha * L**2 / (2.0 * DELTA2)
            - 2.0 * alpha * kappa / DELTA2
            - 8.0 * DELTA2 * alpha * kappa / 3.0
        )
        a = e0 + 2.0 * DELTA2 / alpha + 2.0 * DELTA2 * alpha * kappa
        b = (
            e0
            + 9.0 * alpha * kappa / (2.0 * DELTA2)
            + 2.0 * DELTA2 * alpha * kappa
            + kappa / (2.0 * DELTA1)
            + 3.0 * alpha * L**2 / (2.0 * DELTA2)
        )
        c = 3.0 * alpha * kappa / (2.0 * DELTA2)
        return cls(a=a, b=b, c=c, e0=e0)


@dataclass
class SeedRunResult:
    seed: int
    report: SolveReport
    records: list
    comp_evals: list
    failed: bool = False
    error: str = ""


@dataclass
class AggregateRecord:
    iter: int
    comp_evals: int
    mean_objective: float
    mean_lagrangian_s: float
    mean_lyapunov_s: float
    mean_dx: float
    mean_dy: float
    seeds_ok: int


AGGREGATE_FIELDS = [f.name for f in fields(AggregateRecord)]


@dataclass
class StochasticSolveResult:
    per_seed: list
    aggregate: list


def _run_one_seed(problem, estimator_kind, config, step_config, weights, seed,
                  batch_size, period):
    """One seed's run from zero; a diverged run is returned failed, with a warning."""
    n = problem.n_components
    budget = config.max_epochs * n
    estimator = make_estimator(estimator_kind, n, batch_size, seed, period=period)
    estimator.reset(problem.batch_grad, problem.full_grad)
    pending, records, evals_at = [], [], []

    def flush():
        values, grads = problem.full_sums(np.stack([st.x_cur for st, _, _ in pending]))
        for (st, elapsed_s, evals), sums in zip(pending, zip(values, grads)):
            records.append(ppdg.make_record(problem, st, weights, elapsed_s, sums))
            evals_at.append(evals)
        pending.clear()

    def on_step(state, elapsed_s):
        pending.append((state, elapsed_s, estimator.evals))
        if len(pending) == ROW_BATCH:
            flush()

    try:
        state, reason = _iterate(problem, step_config, estimator.estimate,
                                 lambda k: estimator.evals < budget, "epoch-budget", on_step)
    except SolverDivergence as exc:
        warnings.warn(f"seed {seed} diverged: {exc}", RuntimeWarning, stacklevel=3)
        return SeedRunResult(seed=seed, report=None, records=[], comp_evals=[],
                             failed=True, error=str(exc))
    if pending:
        flush()
    report = _report(problem, state, reason, records[-1] if records else None)
    return SeedRunResult(seed=seed, report=report, records=records, comp_evals=evals_at)


def _seed_means(per_seed_records, depth, value):
    """Mean over seeds of value(record) for each of the first depth rows.

    The values form one C-contiguous (depth, seeds) table averaged along
    its last axis, which equals np.mean of each row's list bit for bit.
    """
    table = np.array([list(map(value, recs[:depth])) for recs in per_seed_records], dtype=float)
    return np.ascontiguousarray(table.T).mean(axis=1).tolist()


def solve_stochastic(problem, estimator_kind, config, batch_size=1, period=None):
    """Replicated stochastic runs plus a seed-averaged aggregate.

    One run per entry of ``config.seeds``, each from x = 0, y = 0; the
    iteration budget is ``max_epochs`` epochs where an epoch is N
    component-gradient evaluations (estimator initialization and snapshot
    refreshes count, per-record diagnostics do not). A seed whose step raises
    SolverDivergence (an iterate norm beyond ``ppdg.NORM_CAP``, nan
    included) is reported failed and excluded from the aggregate, which
    covers the iteration range common to the surviving seeds.

    Returns a StochasticSolveResult with ``per_seed`` SeedRunResults
    and ``aggregate`` AggregateRecords.
    """
    step_config = config.validate(problem)
    constants = SppdgLyapunovConstants.from_parameters(
        step_config.alpha, problem.lipschitz_L, config.kappa_hat
    )
    weights = (constants.a, constants.b, constants.c)
    # a loop, not a comprehension: before Python 3.12 a comprehension is a
    # frame of its own, and the divergence warning's stacklevel would count it
    per_seed = []
    for seed in config.seeds:
        per_seed.append(_run_one_seed(problem, estimator_kind, config, step_config, weights,
                                      seed, batch_size, period))
    survivors = [r for r in per_seed if not r.failed]
    aggregate = []
    if survivors:
        records = [r.records for r in survivors]
        depth = min(len(recs) for recs in records)
        columns = zip(*(
            _seed_means(records, depth, attrgetter(name))
            for name in ("objective", "lagrangian", "lyapunov", "dx_norm", "dy_norm")
        ))
        aggregate = [
            AggregateRecord(records[0][j].iter, survivors[0].comp_evals[j], *means, len(survivors))
            for j, means in enumerate(columns)
        ]
    return StochasticSolveResult(per_seed=per_seed, aggregate=aggregate)


def expectation_descent_report(per_seed_records, constants):
    """Count iterations where the seed-averaged Lyapunov value falls too little.

    Advisory realization of the expected-descent property: with the
    uncomputable correction terms dropped, the average over seeds of
    Ls(z^k) should fall by at least e0 times the mean of the three
    trailing squared primal steps, under the rule and roundoff allowance
    of ``ppdg.descent_report``. Returns (violations, checked). Needs at
    least two seeds.
    """
    if len(per_seed_records) < 2:
        raise ValueError("expectation descent report needs at least 2 seeds")
    depth = min(len(recs) for recs in per_seed_records)
    mean_lyap = _seed_means(per_seed_records, depth, attrgetter("lyapunov"))
    mean_sq = _seed_means(per_seed_records, depth, lambda r: r.dx_norm ** 2)
    return _descent_violations(mean_lyap, mean_sq, constants.e0, 3)
