"""Variance-reduced stochastic gradient estimators: SAGA, SVRG, SARAH.

Every estimate has one anchored shape: the fresh mini-batch gradients,
corrected by stored anchor gradients,

    v = mean_{i in B} (grad f_i(x) - anchor_i) + anchor_mean,

written once on the base class. A kind states only its anchor rows and
how its memory moves after a step:

* SAGA anchors on a table of the last gradient seen per component. It
  writes the fresh rows back and updates the table mean incrementally.
  The table is dense (N x n memory), which is the scaling limit of this
  implementation.
* SVRG anchors on the gradients at a snapshot point, refreshed every
  ``period`` iterations; at a refresh the emitted estimate IS the full
  gradient, bit for bit.
* SARAH is SVRG whose anchor moves to (x^k, v^k) after every step, so
  it recursively corrects its previous estimate and restarts from the
  full gradient every ``period`` iterations.
* ``"full"`` is SVRG with batch N and period 1: the exact mean gradient
  at every step.

``reset(component_grad, full_grad)`` binds the two gradient oracles, so
that ``estimate(k, x)`` is itself the gradient oracle of the primal-dual
loop. The memory is seeded by the k = 0 estimate, at the x the loop
starts from, and its N evaluations are charged there; an estimate before
``reset``, or a first one at k > 0, raises RuntimeError.

Batches are drawn uniformly without replacement as a pure function of
(seed, k) and reduced in ascending index order, so the whole estimate
stream is reproducible bit for bit.
"""

import numpy as np

__all__ = [
    "sample_batch",
    "make_estimator",
    "default_period",
    "SagaEstimator",
    "SvrgEstimator",
    "SarahEstimator",
]


def _check_batch_size(n_components, batch_size):
    if not 1 <= batch_size <= n_components:
        raise ValueError(
            f"batch size must be in [1, {n_components}], got {batch_size}"
        )


def sample_batch(seed, n_components, batch_size, k):
    """Sorted batch of distinct indices, deterministic in (seed, k)."""
    _check_batch_size(n_components, batch_size)
    if seed < 0 or k < 0:
        raise ValueError("seed and iteration index must be nonnegative")
    rng = np.random.default_rng([seed, k])
    picks = rng.choice(n_components, size=batch_size, replace=False)
    return np.sort(picks)


def default_period(n_components, batch_size):
    """One epoch worth of mini-batches between snapshots/restarts."""
    return -(-n_components // batch_size)


def _check_settings(n_components, batch_size, period):
    _check_batch_size(n_components, batch_size)
    if period is not None and period < 1:
        raise ValueError(f"period must be at least 1, got {period}")


class _EstimatorBase:
    kind = "abstract"

    def __init__(self, n_components, batch_size, seed, period=None):
        _check_settings(n_components, batch_size, period)
        self.n_components = int(n_components)
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.period = default_period(n_components, batch_size) if period is None else int(period)
        self._ready = False
        #: component-gradient evaluations consumed so far
        self.evals = 0

    def sample_batch(self, k):
        return sample_batch(self.seed, self.n_components, self.batch_size, k)

    def reset(self, component_grad, full_grad):
        """Bind the gradient oracles; the k = 0 estimate seeds the memory."""
        self.component_grad = component_grad
        self.full_grad = full_grad
        self.evals = 0
        self._ready = True
        return self

    def estimate(self, k, x):
        """The estimate of the mean gradient at x = x^k; updates the memory."""
        raise NotImplementedError

    def _corrected(self, batch, x):
        """(estimate, fresh rows, column sum of fresh - anchor rows) for ``batch`` at x.

        The estimate divides that one column sum by the batch size, which is
        the differences' ``mean(axis=0)`` bit for bit.
        """
        fresh = np.stack([self.component_grad(i, x) for i in batch])
        total = np.add.reduce(fresh - self._anchor_rows(batch), axis=0)
        return total / len(batch) + self.anchor_mean, fresh, total

    # memory pieces, implemented per kind
    def _anchor_at(self, x):
        """Seed the anchors, and ``anchor_mean``, at x."""
        raise NotImplementedError

    def _anchor_rows(self, batch):
        raise NotImplementedError

    def _check_start(self, k):
        if not self._ready:
            raise RuntimeError(f"{self.kind}: estimator not initialized; call reset")
        # every estimate charges evaluations, so none has run since reset
        if self.evals == 0 and k != 0:
            raise RuntimeError(f"{self.kind}: the first estimate after reset is at k = 0, not {k}")


class SagaEstimator(_EstimatorBase):
    kind = "saga"

    def _anchor_at(self, x):
        self.table = np.stack([self.component_grad(i, x) for i in range(self.n_components)])
        self.anchor_mean = self.table.mean(axis=0)

    def _anchor_rows(self, batch):
        return self.table[batch]

    def estimate(self, k, x):
        self._check_start(k)
        if k == 0:
            self._anchor_at(x)
            self.evals += self.n_components
        batch = self.sample_batch(k)
        estimate, fresh, total = self._corrected(batch, x)
        self.evals += len(batch)
        # incremental mean update keeps the invariant mean(table) == anchor_mean
        self.anchor_mean = self.anchor_mean + total / self.n_components
        self.table[batch] = fresh
        return estimate


class SvrgEstimator(_EstimatorBase):
    kind = "svrg"
    #: move the anchor to (x^k, v^k) after every step (SARAH)
    moving_anchor = False

    def _anchor_at(self, x):
        self.anchor_x = x.copy()
        self.anchor_mean = self.full_grad(self.anchor_x)

    def _anchor_rows(self, batch):
        return np.stack([self.component_grad(i, self.anchor_x) for i in batch])

    def estimate(self, k, x):
        self._check_start(k)
        x = np.asarray(x, dtype=float)
        if k % self.period == 0:
            self._anchor_at(x)
            self.evals += self.n_components
            estimate = self.anchor_mean.copy()
        else:
            estimate = self._corrected(self.sample_batch(k), x)[0]
            self.evals += 2 * self.batch_size
        if self.moving_anchor:
            self.anchor_x = x.copy()
            self.anchor_mean = estimate.copy()
        return estimate


class SarahEstimator(SvrgEstimator):
    kind = "sarah"
    moving_anchor = True


_KINDS = {
    "saga": SagaEstimator,
    "svrg": SvrgEstimator,
    "sarah": SarahEstimator,
}


def make_estimator(kind, n_components, batch_size, seed, period=None):
    """An estimator of ``kind``; "full" is SVRG with batch N and period 1.

    ``batch_size`` and ``period`` are range-checked for "full" too.
    """
    if kind == "full":
        _check_settings(n_components, batch_size, period)
        return SvrgEstimator(n_components, n_components, seed, period=1)
    if kind not in _KINDS:
        raise ValueError(
            f"unknown estimator kind {kind!r}; pick from {sorted([*_KINDS, 'full'])}"
        )
    return _KINDS[kind](n_components, batch_size, seed, period=period)
