"""Linear operators with exact adjoints and spectral estimates.

Only the operator kinds the solvers need are provided: identity,
scaled identity, dense matrices, the 2D forward-difference gradient,
and the stacked map x -> (Vx; x). Every operator is immutable after
construction; ``apply`` and ``apply_adjoint`` are pure.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearOperator",
    "Identity",
    "ScaledIdentity",
    "DenseMatrix",
    "Gradient2D",
    "StackedOverIdentity",
    "SpectralBounds",
    "estimate_op_norm",
    "estimate_min_eig_gram",
    "materialize",
    "load_dense_csv",
]


class LinearOperator:
    """Base class: a linear map A with its adjoint A^T.

    Subclasses set ``in_dim``, ``out_dim``, ``kind`` and implement
    ``apply`` / ``apply_adjoint``. The pair must satisfy
    <Ax, y> = <x, A^T y> exactly (up to roundoff).
    """

    in_dim = 0
    out_dim = 0
    kind = "abstract"

    def apply(self, x):
        raise NotImplementedError

    def apply_adjoint(self, y):
        raise NotImplementedError

    def _check(self, v, dim):
        v = np.asarray(v, dtype=float)
        if v.shape != (dim,):
            raise ValueError(
                f"{self.kind}: expected input of shape ({dim},), got {v.shape}"
            )
        return v

    def exact_op_norm(self):
        """Known operator norm, or None when only an estimate is available."""
        return None

    def op_norm(self, iterations=200, seed=0):
        """Operator norm ||A||, exact where known, else a power-iteration estimate.

        The estimate is cached per (iterations, seed); repeated calls are
        free and deterministic.
        """
        known = self.exact_op_norm()
        if known is not None:
            return known
        cache = self.__dict__.setdefault("_op_norm_cache", {})
        if (iterations, seed) not in cache:
            cache[iterations, seed] = estimate_op_norm(self, iterations=iterations, seed=seed)
        return cache[iterations, seed]


class Identity(LinearOperator):
    kind = "identity"

    def __init__(self, n):
        if n < 1:
            raise ValueError("identity: dimension must be positive")
        self.in_dim = self.out_dim = int(n)

    def apply(self, x):
        return self._check(x, self.in_dim).copy()

    def apply_adjoint(self, y):
        return self._check(y, self.out_dim).copy()

    def exact_op_norm(self):
        return 1.0


class ScaledIdentity(LinearOperator):
    kind = "scaled-identity"

    def __init__(self, n, scale):
        if n < 1:
            raise ValueError("scaled-identity: dimension must be positive")
        self.in_dim = self.out_dim = int(n)
        self.scale = float(scale)

    def apply(self, x):
        return self.scale * self._check(x, self.in_dim)

    def apply_adjoint(self, y):
        return self.scale * self._check(y, self.out_dim)

    def exact_op_norm(self):
        return abs(self.scale)


class DenseMatrix(LinearOperator):
    kind = "dense-matrix"

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError("dense-matrix: need a nonempty 2D array")
        self.matrix = mat
        self.out_dim, self.in_dim = mat.shape

    def apply(self, x):
        return self.matrix @ self._check(x, self.in_dim)

    def apply_adjoint(self, y):
        return self.matrix.T @ self._check(y, self.out_dim)


class Gradient2D(LinearOperator):
    """2D forward-difference gradient of a row-major flattened image.

    Output stacks the horizontal-difference block before the vertical
    block, each flattened row-major, so ``out_dim = 2 * height * width``.
    ``boundary="periodic"`` wraps around; ``boundary="zero-pad"`` treats
    pixels beyond the edge as 0, so the last difference is -x at the edge.
    """

    kind = "gradient-2d"

    def __init__(self, height, width, boundary="periodic"):
        if height < 2 or width < 2:
            raise ValueError("gradient-2d: height and width must be at least 2")
        if boundary not in ("periodic", "zero-pad"):
            raise ValueError(f"gradient-2d: unknown boundary {boundary!r}")
        self.height = int(height)
        self.width = int(width)
        self.boundary = boundary
        self.in_dim = self.height * self.width
        self.out_dim = 2 * self.in_dim

    def apply(self, x):
        img = self._check(x, self.in_dim).reshape(self.height, self.width)
        out = np.empty(self.out_dim)
        dh = out[: self.in_dim].reshape(self.height, self.width)
        dv = out[self.in_dim :].reshape(self.height, self.width)
        if self.boundary == "periodic":
            # the wrapped last column and row are written apart from the rest
            np.subtract(img[:, 1:], img[:, :-1], out=dh[:, :-1])
            np.subtract(img[:, :1], img[:, -1:], out=dh[:, -1:])
            np.subtract(img[1:, :], img[:-1, :], out=dv[:-1, :])
            np.subtract(img[:1, :], img[-1:, :], out=dv[-1:, :])
        else:
            np.negative(img, out=dh)
            dh[:, :-1] += img[:, 1:]
            np.negative(img, out=dv)
            dv[:-1, :] += img[1:, :]
        return out

    def apply_adjoint(self, y):
        y = self._check(y, self.out_dim)
        n = self.in_dim
        dh = y[:n].reshape(self.height, self.width)
        dv = y[n:].reshape(self.height, self.width)
        if self.boundary == "periodic":
            out = np.roll(dh, 1, axis=1) - dh
            out += np.roll(dv, 1, axis=0) - dv
        else:
            out = -(dh + dv)
            out[:, 1:] += dh[:, :-1]
            out[1:, :] += dv[:-1, :]
        return out.ravel()

    def exact_op_norm(self):
        # periodic A^T A is circulant: eigenvalues 4 sin^2(pi i/h) + 4 sin^2(pi j/w)
        if self.boundary != "periodic":
            return None
        sh = 4.0 * np.sin(np.pi * np.arange(self.height) / self.height) ** 2
        sw = 4.0 * np.sin(np.pi * np.arange(self.width) / self.width) ** 2
        return float(np.sqrt(sh.max() + sw.max()))


class StackedOverIdentity(LinearOperator):
    """A = [V; I]: maps x to the concatenation (Vx, x)."""

    kind = "stacked-over-identity"

    def __init__(self, V):
        V = np.asarray(V, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1]:
            raise ValueError("stacked-over-identity: V must be square")
        self.V = V
        self.in_dim = V.shape[0]
        self.out_dim = 2 * V.shape[0]

    def apply(self, x):
        x = self._check(x, self.in_dim)
        return np.concatenate([self.V @ x, x])

    def apply_adjoint(self, y):
        y = self._check(y, self.out_dim)
        n = self.in_dim
        return self.V.T @ y[:n] + y[n:]


def estimate_op_norm(op, iterations=200, seed=0):
    """Estimate ||A|| by power iteration on A^T A.

    Returns a lower bound that converges monotonically (the Rayleigh
    quotient sequence of a PSD matrix under power iteration is
    nondecreasing). Deterministic for a fixed seed. A zero operator
    yields 0.
    """
    if iterations < 1:
        raise ValueError("op-norm estimate: iterations must be at least 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.in_dim)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    est = 0.0
    for _ in range(iterations):
        w = op.apply_adjoint(op.apply(v))
        est = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.sqrt(max(est, 0.0)))


def materialize(op):
    """Assemble the dense matrix of ``op`` column by column."""
    cols = np.empty((op.out_dim, op.in_dim))
    basis = np.zeros(op.in_dim)
    for j in range(op.in_dim):
        basis[j] = 1.0
        cols[:, j] = op.apply(basis)
        basis[j] = 0.0
    return cols


def estimate_min_eig_gram(op, iterations=200, seed=0, materialize_cap=4096):
    """Smallest eigenvalue of AA^T, clamped to be nonnegative.

    Below the materialization cap the gram matrix is assembled and
    eigensolved exactly; eigenvalues under 1e-10 of the largest are
    reported as exactly 0 (A is then not surjective, a legal outcome).
    Above the cap a shifted power iteration on s*I - AA^T is used,
    which needs only operator applications.
    """
    if op.out_dim <= materialize_cap:
        A = materialize(op)
        eigs = np.linalg.eigvalsh(A @ A.T)
        lo, hi = float(eigs[0]), float(eigs[-1])
        if lo < 1e-10 * max(hi, 1.0):
            return 0.0
        return lo
    shift = op.op_norm(iterations=iterations, seed=seed) ** 2 * (1.0 + 1e-9) + 1e-12
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.out_dim)
    v /= np.linalg.norm(v)
    rayleigh = 0.0
    for _ in range(iterations):
        w = shift * v - op.apply(op.apply_adjoint(v))
        rayleigh = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        v = w / nw
    lam = shift - rayleigh
    if lam < 1e-8 * shift:
        return 0.0
    return lam


@dataclass(frozen=True)
class SpectralBounds:
    """Cached spectral data for a linear operator.

    ``hat_lambda`` is sqrt of the smallest eigenvalue of AA^T and
    ``min_eig_gram`` is stored as ``hat_lambda**2`` so the two agree
    bit for bit.
    """

    op_norm: float
    min_eig_gram: float
    hat_lambda: float

    @property
    def is_surjective(self):
        return self.min_eig_gram > 0.0

    @classmethod
    def from_operator(cls, op, iterations=200, seed=0, materialize_cap=4096):
        norm = op.op_norm(iterations=iterations, seed=seed)
        raw = estimate_min_eig_gram(
            op, iterations=iterations, seed=seed, materialize_cap=materialize_cap
        )
        hat = float(np.sqrt(raw))
        return cls(op_norm=norm, min_eig_gram=hat * hat, hat_lambda=hat)


def load_dense_csv(path):
    """Load a dense operator from CSV, one row per line, comma separated."""
    mat = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    return DenseMatrix(mat)
