"""Problem builders: image denoising, graph-guided fused lasso, synthetics.

A CompositeProblem bundles a smooth term f (value, gradient, Lipschitz
constant of the gradient) with a linear operator and a regularizer, so
the solvers never see application specifics. A FiniteSumProblem is the
case f = (1/N) sum f_i, with the same interface plus per-component
access for the stochastic estimators, so both solvers take it as is.
The estimators read the components through one batch oracle,
``batch_grad(idx, x)``: the rows ``component_grad(i, x)`` for i in idx,
stacked.
Its full sums ``full_value``, ``full_grad`` and ``full_sums`` (f and
grad f at a stack of points) average the components; the fused lasso,
SigmoidLossSum over its ``rows`` and ``labels``, overrides them with
vectorized forms. Its setup reads the N x n data in blocks of
BLOCK_ROWS rows, so it needs no full-size temporary array. Its
``full_sums`` works through the same blocks on the calling thread and,
for a large call under a one-thread BLAS, on helper threads (one fewer
than the usable cores, made at first use). It adds the blocks' sums in
ascending block order, so its output does not depend on the split.
"""

import contextvars
import functools
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conjprox import L0Box, LpBall
from .dataio import ImageBuffer
from .linops import Gradient2D, StackedOverIdentity

__all__ = [
    "CompositeProblem",
    "FiniteSumProblem",
    "SigmoidLossSum",
    "build_denoise",
    "build_fused_lasso",
    "psnr",
    "build_precision_graph",
    "blocks_image",
    "synthetic_fused_lasso_data",
    "SIGMOID_CURVATURE",
]

# max |d^2/du^2 (1 - tanh u)| = 4/(3*sqrt(3)), rounded up so the bound stays valid
SIGMOID_CURVATURE = 0.7699

# Rows per block when the fused-lasso setup streams over the N x n data, so
# that each pass holds one block-sized temporary, not a full-size one.
BLOCK_ROWS = 1024

# A fused-lasso full_sums call shares its row blocks with helper threads
# only when its work K*N*n (the multiply-adds of each of its two products)
# is above this, about 1.7e7. On a 2-core x86 machine a 2000 x 40 call at
# K = 32 (work 2.6e6) saved 0.1-0.2 ms timed alone, yet slowed the SAGA
# solve it ran in by about 0.25 ms per call: the helper's wake-up (40-75
# us) and its return to the pool contend with the GIL-bound step loop.
# Calls of work 1.3e7 saved 0.3-0.7 ms alone, and of 1.3e8 about 6 ms.
FANOUT_MIN_WORK = 1 << 24

# standard deviation of the noise that makes each synthetic copy feature
# differ from its latent twin
PAIR_NOISE = 0.3


def _row_blocks(n_rows):
    """Slices of at most BLOCK_ROWS consecutive rows covering range(n_rows)."""
    return [slice(i, min(i + BLOCK_ROWS, n_rows)) for i in range(0, n_rows, BLOCK_ROWS)]


def _row_sq_sums(rows):
    """np.sum(rows**2, axis=1), one row block at a time.

    Each row's sum is a reduction over that row alone, so it comes out
    the same whichever block the row sits in.
    """
    out = np.empty(rows.shape[0])
    for blk in _row_blocks(rows.shape[0]):
        out[blk] = np.sum(rows[blk] ** 2, axis=1)
    return out


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


@functools.cache
def _fanout_helpers():
    """Helper threads a full_sums call may share its blocks with, read once.

    Usable cores - 1 when BLAS runs one thread per call, else 0, since a
    threaded BLAS already spreads each product over the cores. The BLAS
    thread count is OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS; with
    neither set, BLAS runs one thread per core.
    """
    setting = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    try:
        one_thread = int(setting) == 1
    except (TypeError, ValueError):
        one_thread = False
    return _usable_cores() - 1 if one_thread else 0


_pool = None  # the helper threads, made by the first call that fans out
_pool_lock = threading.Lock()


def _helper_pool():
    # imported here, so that a process that never fans out does not load it
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_fanout_helpers(), thread_name_prefix="full_sums")
        return _pool


def _forget_pool():
    """In a forked child, whose copy of the pool has no threads behind it."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _sum_blocks(block_sum, add, n_blocks, helpers):
    """add(block_sum(i)) for i = 0, 1, ..., n_blocks - 1, in that order.

    With helpers > 0 and two blocks or more, the calling thread and up to
    that many pool threads claim the blocks in ascending order. The caller
    adds each block's sum once every earlier one is added, so few sums
    wait at once. Each helper runs in its own copy of the caller's context,
    which carries numpy's error state (np.errstate). A block's exception
    is raised in the caller, in block order, after the helpers stop.
    """
    helpers = min(helpers, n_blocks - 1)
    if helpers <= 0:
        for i in range(n_blocks):
            add(block_sum(i))
        return
    cond = threading.Condition()
    done = {}  # block index -> its sum, or the exception it raised
    claimed = 0
    stop = False

    def sum_next():
        """Claim and sum the next block; False once none is left."""
        nonlocal claimed, stop
        with cond:
            if stop or claimed == n_blocks:
                return False
            i = claimed
            claimed += 1
        try:
            result = block_sum(i)
        except BaseException as exc:  # raised again in the caller
            result = exc
        with cond:
            done[i] = result
            stop = stop or isinstance(result, BaseException)
            cond.notify()
        return True

    def help_out():
        while sum_next():
            pass

    pool = _helper_pool()
    # a context can be entered by one thread at a time, so one copy per task
    tasks = [pool.submit(contextvars.copy_context().run, help_out) for _ in range(helpers)]
    try:
        for i in range(n_blocks):
            while i not in done and sum_next():
                pass
            with cond:
                cond.wait_for(lambda: i in done)
                result = done.pop(i)
            if isinstance(result, BaseException):
                raise result
            add(result)
    finally:
        with cond:
            stop = True
        # a task no helper has started yet is dropped, not waited for
        for task in tasks:
            if not task.cancel():
                task.result()


@dataclass
class CompositeProblem:
    f_value: Callable
    grad_f: Callable
    lipschitz_L: float
    operator: object
    regularizer: object


@dataclass
class FiniteSumProblem:
    n_components: int
    component_value: Callable
    component_grad: Callable
    lipschitz_L: float
    operator: object
    regularizer: object

    # The full sums average the components; a subclass overrides them with
    # vectorized forms.
    def full_value(self, x):
        return sum(self.component_value(i, x) for i in range(self.n_components)) / self.n_components

    def full_grad(self, x):
        total = np.zeros_like(np.asarray(x, dtype=float))
        for i in range(self.n_components):
            total += self.component_grad(i, x)
        return total / self.n_components

    def batch_grad(self, idx, x):
        """(len(idx), n): row j is component_grad(idx[j], x)."""
        return np.stack([self.component_grad(i, x) for i in idx])

    def full_sums(self, xs):
        """(values (K,), gradients (K, n)): full_value and full_grad at each row of xs."""
        values = np.empty(len(xs))
        grads = np.empty(np.shape(xs))
        for j, x in enumerate(xs):
            values[j] = self.full_value(x)
            grads[j] = self.full_grad(x)
        return values, grads

    # the composite interface: f and grad f are the full means, looked up per call
    def f_value(self, x):
        return self.full_value(x)

    def grad_f(self, x):
        return self.full_grad(x)


class SigmoidLossSum(FiniteSumProblem):
    """f = (1/N) sum_i 1 - tanh(b_i <a_i, x>) over ``rows`` a_i and ``labels`` b_i.

    ``build_fused_lasso`` checks and normalizes the two arrays. L is the
    analytic curvature bound of the sigmoid loss times max_i ||a_i||^2.

    ``full_sums`` evaluates both at a (K, n) stack of points X with two
    matrix-matrix products per block of BLOCK_ROWS data rows: the block's
    margins T = tanh(b * (X @ rows[blk].T)), then the gradient terms
    (b * (T^2 - 1)) @ rows[blk]. Each block's (values, grads) sum is
    added to the totals in ascending block order, whichever thread formed
    it. The caller and the helpers it fans out to (``_sum_blocks``, when
    K*N*n is above FANOUT_MIN_WORK and BLAS runs one thread) each work on
    one block at a time, so the working arrays are O(workers BLOCK_ROWS K)
    plus the block sums that wait for an earlier block, O(K n) each.
    Every result is bit-identical to a one-thread pass over the blocks.
    Its sums run in another order than the per-point oracles', so they
    agree with them to roundoff, not bit for bit.

    ``batch_grad(idx, x)`` forms a mini-batch's rows in one pass and
    equals the stacked ``component_grad`` rows bit for bit. Its margins
    are per-row dot products, ``(rows[idx][:, None, :] @ x)[:, 0]``, each
    the same reduction as ``rows[i] @ x``; ``rows[idx] @ x`` is one GEMV,
    whose sums group the terms otherwise and differ in the last bits. It
    stands in for ``component_grad`` only while that is the class's own
    method: a ``component_grad`` set on the instance (a wrapper that
    counts or times its calls) is called once per row.
    """

    def __init__(self, rows, labels, operator, regularizer):
        # not FiniteSumProblem.__init__: component_value and component_grad are methods here
        self.rows = rows
        self.labels = labels
        self.n_components = labels.size
        self.lipschitz_L = SIGMOID_CURVATURE * float(np.max(_row_sq_sums(rows)))
        self.operator = operator
        self.regularizer = regularizer

    def component_value(self, i, x):
        return float(1.0 - np.tanh(self.labels[i] * (self.rows[i] @ x)))

    def component_grad(self, i, x):
        t = np.tanh(self.labels[i] * (self.rows[i] @ x))
        return (-self.labels[i] * (1.0 - t * t)) * self.rows[i]

    def batch_grad(self, idx, x):
        if "component_grad" in vars(self):
            return super().batch_grad(idx, x)
        rows, labels = self.rows[idx], self.labels[idx]
        t = np.tanh(labels * (rows[:, None, :] @ x)[:, 0])
        return (-labels * (1.0 - t * t))[:, None] * rows

    def full_value(self, x):
        return float(np.mean(1.0 - np.tanh(self.labels * (self.rows @ x))))

    def full_grad(self, x):
        t = np.tanh(self.labels * (self.rows @ x))
        return (-(self.labels * (1.0 - t * t)) @ self.rows) / self.labels.size

    def full_sums(self, xs):
        rows, labels = self.rows, self.labels
        xs = np.asarray(xs, dtype=float)
        values = np.zeros(xs.shape[0])
        grads = np.zeros(xs.shape)
        blocks = _row_blocks(labels.size)

        def block_sum(i):
            blk = blocks[i]
            t = xs @ rows[blk].T
            t *= labels[blk]
            np.tanh(t, out=t)
            value = np.sum(1.0 - t, axis=1)
            t *= t
            t -= 1.0
            t *= labels[blk]
            return value, t @ rows[blk]

        def add(sums):
            np.add(values, sums[0], out=values)
            np.add(grads, sums[1], out=grads)

        helpers = _fanout_helpers() if xs.size * labels.size > FANOUT_MIN_WORK else 0
        _sum_blocks(block_sum, add, len(blocks), helpers)
        return values / labels.size, grads / labels.size


def build_denoise(img, lam=0.1, c1=-1.0, c2=1.0, boundary="periodic"):
    """Gradient-sparsity denoising of a noisy image.

    f(x) = 0.5 ||x - b||^2 (gradient x - b, L = 1), A the 2D discrete
    gradient, and the regularizer counts nonzero gradient entries while
    boxing them into [c1, c2].
    """
    b = img.pixels.copy()
    return CompositeProblem(
        f_value=lambda x: 0.5 * float(np.sum((x - b) ** 2)),
        grad_f=lambda x: x - b,
        lipschitz_L=1.0,
        operator=Gradient2D(img.height, img.width, boundary=boundary),
        regularizer=L0Box(lam, c1, c2),
    )


def build_fused_lasso(rows, labels, V, lam=1e-4, p=0.5, r=1.0, normalize_rows=False):
    """Sigmoid-loss classification with a graph-guided lp penalty.

    A SigmoidLossSum over the rows and labels, with the operator that
    stacks the graph matrix V over the identity, and the regularizer
    lam*||.||_p^p on the inf-ball of radius r. V must be n x n for n
    features (the operator checks it is finite); it need not be symmetric.
    """
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if rows.ndim != 2 or rows.shape[0] != labels.size:
        raise ValueError("rows must be (N, n) with one label per row")
    if rows.shape[1] == 0:
        raise ValueError("rows must have at least one column")
    if rows.shape[0] == 0:
        raise ValueError("rows must hold at least one data row")
    if not np.all(np.isfinite(rows)):
        raise ValueError("rows must be finite")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    V = np.asarray(V, dtype=float)
    n = rows.shape[1]
    if V.shape != (n, n):
        raise ValueError(f"graph matrix V must be {n}x{n} for {n} features, got shape {V.shape}")
    if normalize_rows:
        # np.linalg.norm(rows, axis=1) is the root of the same row sums
        norms = np.sqrt(_row_sq_sums(rows))
        rows = rows / np.where(norms > 0, norms, 1.0)[:, None]
    return SigmoidLossSum(
        rows,
        labels,
        operator=StackedOverIdentity(V),
        regularizer=LpBall(lam, p, r),
    )


def psnr(x, x_org, height, width):
    """Peak signal-to-noise ratio in dB, +inf when the images coincide.

    10 * log10(m * n * (max x)^2 / ||x - x_org||^2), the max taken over
    the evaluated image x; -inf when that max is 0 and the images differ.
    """
    x = np.asarray(x, dtype=float).ravel()
    x_org = np.asarray(x_org, dtype=float).ravel()
    if x.size != x_org.size or x.size != height * width:
        raise ValueError("psnr: image sizes disagree")
    err = float(np.sum((x - x_org) ** 2))
    if err == 0.0:
        return float("inf")
    peak = float(np.max(x))
    if peak == 0.0:
        return float("-inf")
    return float(10.0 * np.log10(height * width * peak ** 2 / err))


def build_precision_graph(rows, threshold=0.5):
    """Correlation-thresholded stand-in for a precision-pattern graph.

    V[j, k] = 1 when |corr(feature j, feature k)| > threshold (j != k),
    zero diagonal, symmetric. Non-finite rows raise ValueError. It holds
    no full-size array: one pass centers the data in blocks of BLOCK_ROWS
    rows, through one block-sized buffer, and adds each block's Gram
    matrix G; corr = G / outer(s, s) with s = sqrt(diag G). A feature
    correlates with nothing when it is constant, found exactly by its max
    equal to its min (its centered entries need not be 0, as its mean may
    not round back to its value), or when its s underflows to 0. corr
    agrees with the product of the full standardized array at roundoff.
    This is a documented substitute: the faithful path loads V from a
    file produced by an external sparse inverse covariance estimate.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError("need at least two data rows")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    # A nan or inf entry makes its column's mean non-finite, so the means
    # double as the finiteness check; the full scan runs only then, to tell
    # such an entry from a sum that overflowed.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=0)
    if not np.all(np.isfinite(mean)) and not np.all(np.isfinite(rows)):
        raise ValueError("rows must be finite")
    n_rows, n_cols = rows.shape
    buf = np.empty((min(BLOCK_ROWS, n_rows), n_cols))
    gram = np.zeros((n_cols, n_cols))
    for blk in _row_blocks(n_rows):
        work = np.subtract(rows[blk], mean, out=buf[: blk.stop - blk.start])
        gram += work.T @ work
    scale = np.sqrt(np.diag(gram))
    flat = (rows.max(axis=0) == rows.min(axis=0)) | (scale == 0.0)
    scale[flat] = 1.0
    corr = gram / np.outer(scale, scale)
    corr[flat, :] = 0.0
    corr[:, flat] = 0.0
    V = (np.abs(corr) > threshold).astype(float)
    np.fill_diagonal(V, 0.0)
    return V


def blocks_image(height, width):
    """Deterministic piecewise-constant test image with four gray levels."""
    if height < 4 or width < 4:
        raise ValueError("blocks image needs at least 4x4")
    img = np.full((height, width), 0.15)
    img[: height // 2, width // 2 :] = 0.85
    img[height // 2 :, : width // 2] = 0.6
    img[height // 4 : 3 * height // 4, width // 4 : 3 * width // 4] = 0.35
    return ImageBuffer.from_matrix(img)


def synthetic_fused_lasso_data(n_rows, n_features, seed=0):
    """Seeded classification data with correlated feature pairs.

    Half the features are latent Gaussians, the other half noisy copies
    of them (noise level PAIR_NOISE), so the correlation-threshold graph
    has one edge per pair.
    Labels come from a random linear rule and land in {-1, +1}. The rows
    are written into one preallocated (n_rows, n_features) array.
    """
    if n_features < 2 or n_features % 2 != 0:
        raise ValueError("n_features must be even and at least 2 (features come in pairs)")
    if seed < 0:
        raise ValueError(f"data seed {seed} is out of range: it must be >= 0")
    rng = np.random.default_rng(seed)
    half = n_features // 2
    rows = np.empty((n_rows, n_features))
    latent, copies = rows[:, :half], rows[:, half:]
    # Drawn in row blocks, all latent blocks first, so the normals come from
    # the stream in the same order as one (n_rows, half) draw of each.
    for blk in _row_blocks(n_rows):
        latent[blk] = rng.standard_normal(latent[blk].shape)
    for blk in _row_blocks(n_rows):
        noise = rng.standard_normal(copies[blk].shape)
        noise *= PAIR_NOISE
        noise += latent[blk]
        copies[blk] = noise
    w_true = rng.standard_normal(n_features)
    margin = rows @ w_true + 0.1 * rng.standard_normal(n_rows)
    labels = np.where(margin >= 0, 1.0, -1.0)
    return rows, labels
