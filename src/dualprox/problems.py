"""Problem builders: image denoising, graph-guided fused lasso, synthetics.

A CompositeProblem bundles a smooth term f (value, gradient, Lipschitz
constant of the gradient) with a linear operator and a regularizer, so
the solvers never see application specifics. A FiniteSumProblem is the
case f = (1/N) sum f_i, with the same interface plus per-component
access for the stochastic estimators, so both solvers take it as is.
Its full sums are methods that average the components: ``full_value``,
``full_grad`` and ``full_sums``, f and grad f at a stack of points for
the trace rows of the stochastic solver. A subclass overrides them with
vectorized forms; the fused lasso is one such class, SigmoidLossSum,
over its ``rows`` and ``labels``.
"""

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
    "validate_graph_matrix",
    "blocks_image",
    "synthetic_fused_lasso_data",
    "SIGMOID_CURVATURE",
]

# max |d^2/du^2 (1 - tanh u)| = 4/(3*sqrt(3)), rounded up so the bound stays valid
SIGMOID_CURVATURE = 0.7699

# Rows per block when the fused-lasso setup streams over the N x n data, so
# that each pass holds one block-sized temporary, not a full-size one.
BLOCK_ROWS = 1024


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


def _column_std(centered):
    """centered.std(axis=0), with no full-size temporary.

    numpy reduces axis 0 of a C-ordered array with two or more columns
    row by row into one accumulator row. Each block's buffer carries the
    running sum of squared deviations as its first row, so the squares
    are added in the same order as in one full-array pass, and the result
    is bit for bit the same (the running sum starts at 0.0, which adds
    exactly to a square). A single column or a Fortran-ordered array is
    reduced pairwise instead, so there the last bits may differ.
    """
    n_rows, n_cols = centered.shape
    mean = np.add.reduce(centered, axis=0) / n_rows
    buf = np.empty((min(BLOCK_ROWS, n_rows) + 1, n_cols))
    buf[0] = 0.0
    for blk in _row_blocks(n_rows):
        stop = blk.stop - blk.start + 1
        work = np.subtract(centered[blk], mean, out=buf[1:stop])
        np.square(work, out=work)
        buf[0] = np.add.reduce(buf[:stop], axis=0)
    return np.sqrt(buf[0] / n_rows)


@dataclass
class CompositeProblem:
    f_value: Callable
    grad_f: Callable
    lipschitz_L: float
    operator: object
    regularizer: object

    def objective(self, x):
        """f(x) + h(Ax); +inf propagates from the regularizer."""
        return float(self.f_value(x) + self.regularizer.value_h(self.operator.apply(x)))


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

    objective = CompositeProblem.objective


class SigmoidLossSum(FiniteSumProblem):
    """f = (1/N) sum_i 1 - tanh(b_i <a_i, x>) over ``rows`` a_i and ``labels`` b_i.

    ``build_fused_lasso`` checks and normalizes the two arrays. L is the
    analytic curvature bound of the sigmoid loss times max_i ||a_i||^2.
    ``full_value`` and ``full_grad`` read the margins tanh(b * (rows @ x))
    from one memo of the last x, keyed on its shape, dtype and bytes, so a
    deterministic solve, which evaluates both at each x^k, reads the N x n
    data twice per iteration, not three times, with results bit for bit
    those of two separate margin passes.

    ``full_sums`` evaluates both at a (K, n) stack of points X with two
    matrix-matrix products per block of BLOCK_ROWS data rows: the block's
    margins T = tanh(b * (X @ rows[blk].T)), then the gradient terms
    (b * (T^2 - 1)) @ rows[blk]. Its working arrays are O(BLOCK_ROWS K).
    Its sums run in another order than the per-point oracles', so they
    agree with them to roundoff, not bit for bit.
    """

    def __init__(self, rows, labels, operator, regularizer):
        # not FiniteSumProblem.__init__: component_value and component_grad are methods here
        self.rows = rows
        self.labels = labels
        self.n_components = labels.size
        self.lipschitz_L = SIGMOID_CURVATURE * float(np.max(_row_sq_sums(rows)))
        self.operator = operator
        self.regularizer = regularizer
        self._memo_key = self._memo_t = None

    def component_value(self, i, x):
        return float(1.0 - np.tanh(self.labels[i] * (self.rows[i] @ x)))

    def component_grad(self, i, x):
        t = np.tanh(self.labels[i] * (self.rows[i] @ x))
        return (-self.labels[i] * (1.0 - t * t)) * self.rows[i]

    def _margins(self, x):
        # one-entry memo keyed on x's contents, so that an x changed in place misses it
        x = np.asarray(x)
        key = (x.shape, x.dtype.str, x.tobytes())
        if key != self._memo_key:
            t = np.tanh(self.labels * (self.rows @ x))
            t.flags.writeable = False
            self._memo_t, self._memo_key = t, key
        return self._memo_t

    def full_value(self, x):
        return float(np.mean(1.0 - self._margins(x)))

    def full_grad(self, x):
        t = self._margins(x)
        return (-(self.labels * (1.0 - t * t)) @ self.rows) / self.labels.size

    def full_sums(self, xs):
        rows, labels = self.rows, self.labels
        xs = np.asarray(xs, dtype=float)
        values = np.zeros(xs.shape[0])
        grads = np.zeros(xs.shape)
        for blk in _row_blocks(labels.size):
            t = xs @ rows[blk].T
            t *= labels[blk]
            np.tanh(t, out=t)
            values += np.sum(1.0 - t, axis=1)
            t *= t
            t -= 1.0
            t *= labels[blk]
            grads += t @ rows[blk]
        return values / labels.size, grads / labels.size


def build_denoise(img, lam=0.1, c1=-1.0, c2=1.0, boundary="periodic"):
    """Gradient-sparsity denoising of a noisy image.

    f(x) = 0.5 ||x - b||^2 (gradient x - b, L = 1), A the 2D discrete
    gradient, and the regularizer counts nonzero gradient entries while
    boxing them into [c1, c2].
    """
    if img.pixels.size == 0:
        raise ValueError("empty image")
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
    lam*||.||_p^p on the inf-ball of radius r.
    """
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if rows.ndim != 2 or rows.shape[0] != labels.size:
        raise ValueError("rows must be (N, n) with one label per row")
    if not np.all(np.isfinite(rows)):
        raise ValueError("rows must be finite")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if normalize_rows:
        # np.linalg.norm(rows, axis=1) is the root of the same row sums
        norms = np.sqrt(_row_sq_sums(rows))
        rows = rows / np.where(norms > 0, norms, 1.0)[:, None]
    return SigmoidLossSum(
        rows,
        labels,
        operator=StackedOverIdentity(np.asarray(V, dtype=float)),
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
    zero diagonal, symmetric. Constant features correlate with nothing.
    Non-finite rows raise ValueError. Beside the data it holds one
    full-size array, the centered and then standardized rows.
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
    centered = rows - mean
    std = _column_std(centered)
    safe = np.where(std > 0, std, 1.0)
    centered /= safe
    corr = centered.T @ centered / rows.shape[0]
    corr[std == 0, :] = 0.0
    corr[:, std == 0] = 0.0
    V = (np.abs(corr) > threshold).astype(float)
    np.fill_diagonal(V, 0.0)
    return V


def validate_graph_matrix(V):
    """Check a file-loaded V: square, symmetric, finite."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError("graph matrix must be square")
    if not np.all(np.isfinite(V)):
        raise ValueError("graph matrix must be finite")
    if not np.array_equal(V, V.T):
        raise ValueError("graph matrix must be symmetric")
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


def synthetic_fused_lasso_data(n_rows, n_features, seed=0, pair_noise=0.3):
    """Seeded classification data with correlated feature pairs.

    Half the features are latent Gaussians, the other half noisy copies
    of them, so the correlation-threshold graph has one edge per pair.
    Labels come from a random linear rule and land in {-1, +1}. The rows
    are written into one preallocated (n_rows, n_features) array.
    """
    if n_features % 2 != 0:
        raise ValueError("n_features must be even (features come in pairs)")
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
        noise *= pair_noise
        noise += latent[blk]
        copies[blk] = noise
    w_true = rng.standard_normal(n_features)
    margin = rows @ w_true + 0.1 * rng.standard_normal(n_rows)
    labels = np.where(margin >= 0, 1.0, -1.0)
    return rows, labels
