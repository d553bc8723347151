"""Problem builders: image denoising, graph-guided fused lasso, synthetics.

A CompositeProblem bundles a smooth term f (value, gradient, Lipschitz
constant of the gradient) with a linear operator and a regularizer, so
the solvers never see application specifics. A FiniteSumProblem is the
case f = (1/N) sum f_i, with the same interface plus per-component
access for the stochastic estimators, so both solvers take it as is.
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
    # vectorized overrides; default to averaging the components
    full_value: Callable = None
    full_grad: Callable = None

    def __post_init__(self):
        if self.full_value is None:
            self.full_value = self._mean_value
        if self.full_grad is None:
            self.full_grad = self._mean_grad

    def _mean_value(self, x):
        return sum(self.component_value(i, x) for i in range(self.n_components)) / self.n_components

    def _mean_grad(self, x):
        total = np.zeros_like(np.asarray(x, dtype=float))
        for i in range(self.n_components):
            total += self.component_grad(i, x)
        return total / self.n_components

    # the composite interface: f and grad f are the full means, looked up per call
    def f_value(self, x):
        return self.full_value(x)

    def grad_f(self, x):
        return self.full_grad(x)

    objective = CompositeProblem.objective


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

    Components f_i(x) = 1 - tanh(b_i <a_i, x>), the operator stacks the
    graph matrix V over the identity, and the regularizer is
    lam*||.||_p^p on the inf-ball of radius r. The gradient Lipschitz
    constant uses the analytic curvature bound of the sigmoid loss
    times max_i ||a_i||^2.
    """
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if rows.ndim != 2 or rows.shape[0] != labels.size:
        raise ValueError("rows must be (N, n) with one label per row")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if normalize_rows:
        norms = np.linalg.norm(rows, axis=1)
        rows = rows / np.where(norms > 0, norms, 1.0)[:, None]

    def component_value(i, x):
        return float(1.0 - np.tanh(labels[i] * (rows[i] @ x)))

    def component_grad(i, x):
        t = np.tanh(labels[i] * (rows[i] @ x))
        return (-labels[i] * (1.0 - t * t)) * rows[i]

    def full_value(x):
        t = np.tanh(labels * (rows @ x))
        return float(np.mean(1.0 - t))

    def full_grad(x):
        t = np.tanh(labels * (rows @ x))
        return (-(labels * (1.0 - t * t)) @ rows) / labels.size

    L = SIGMOID_CURVATURE * float(np.max(np.sum(rows**2, axis=1)))
    return FiniteSumProblem(
        n_components=labels.size,
        component_value=component_value,
        component_grad=component_grad,
        lipschitz_L=L,
        operator=StackedOverIdentity(np.asarray(V, dtype=float)),
        regularizer=LpBall(lam, p, r),
        full_value=full_value,
        full_grad=full_grad,
    )


def psnr(x, x_org, height, width):
    """Peak signal-to-noise ratio in dB, +inf when the images coincide.

    10 * log10(m * n * (max x)^2 / ||x - x_org||^2), the max taken over
    the evaluated image x.
    """
    x = np.asarray(x, dtype=float).ravel()
    x_org = np.asarray(x_org, dtype=float).ravel()
    if x.size != x_org.size or x.size != height * width:
        raise ValueError("psnr: image sizes disagree")
    err = float(np.sum((x - x_org) ** 2))
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(height * width * float(np.max(x)) ** 2 / err))


def build_precision_graph(rows, threshold=0.5):
    """Correlation-thresholded stand-in for a precision-pattern graph.

    V[j, k] = 1 when |corr(feature j, feature k)| > threshold (j != k),
    zero diagonal, symmetric. Constant features correlate with nothing.
    This is a documented substitute: the faithful path loads V from a
    file produced by an external sparse inverse covariance estimate.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError("need at least two data rows")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    centered = rows - rows.mean(axis=0)
    std = centered.std(axis=0)
    safe = np.where(std > 0, std, 1.0)
    corr = (centered / safe).T @ (centered / safe) / rows.shape[0]
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
    Labels come from a random linear rule and land in {-1, +1}.
    """
    if n_features % 2 != 0:
        raise ValueError("n_features must be even (features come in pairs)")
    rng = np.random.default_rng(seed)
    half = n_features // 2
    latent = rng.standard_normal((n_rows, half))
    copies = latent + pair_noise * rng.standard_normal((n_rows, half))
    rows = np.concatenate([latent, copies], axis=1)
    w_true = rng.standard_normal(n_features)
    margin = rows @ w_true + 0.1 * rng.standard_normal(n_rows)
    labels = np.where(margin >= 0, 1.0, -1.0)
    return rows, labels
