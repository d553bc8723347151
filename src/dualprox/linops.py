"""Linear operators with exact adjoints and exact norms.

Only the operator kinds the solvers need are provided: identity,
scaled identity, dense matrices, the 2D forward-difference gradient,
and the stacked map x -> (Vx; x). Every operator is immutable after
construction; ``apply`` and ``apply_adjoint`` are pure.

``op_norm()`` is the one ||A|| every caller reads, the solvers' dual
weight and ``dualprox spectra`` alike. Every kind states it exactly in
``exact_op_norm()``, from a closed form or an exact dense solve.

The smallest eigenvalue of the gram AA^T is read off the structure
where the structure decides it: 0 when A has more rows than columns,
||A||^2 when AA^T is a multiple of the identity (``gram_is_scalar``),
and an exact eigensolve of the assembled gram otherwise.
"""

import math

import numpy as np

__all__ = [
    "LinearOperator",
    "Identity",
    "ScaledIdentity",
    "DenseMatrix",
    "Gradient2D",
    "StackedOverIdentity",
    "estimate_op_norm",
    "estimate_min_eig_gram",
    "materialize",
]


class LinearOperator:
    """Base class: a linear map A with its adjoint A^T.

    Subclasses set ``in_dim``, ``out_dim``, ``kind`` and implement
    ``apply`` / ``apply_adjoint`` and ``exact_op_norm``. The pair must
    satisfy <Ax, y> = <x, A^T y> exactly (up to roundoff). ``gram_is_scalar``
    states that AA^T = ||A||^2 I, the case in which the scalar dual
    weight is the exact dual metric; it is a fact of the kind.
    """

    in_dim = 0
    out_dim = 0
    kind = "abstract"
    gram_is_scalar = False

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
        """||A||, the largest singular value, as a float."""
        raise NotImplementedError

    def op_norm(self):
        """``exact_op_norm()``, computed once per operator and cached."""
        if "_op_norm" not in self.__dict__:
            self._op_norm = self.exact_op_norm()
        return self._op_norm


class ScaledIdentity(LinearOperator):
    kind = "scaled-identity"
    gram_is_scalar = True

    def __init__(self, n, scale):
        if n < 1:
            raise ValueError(f"{self.kind}: dimension must be positive")
        self.in_dim = self.out_dim = int(n)
        self.scale = float(scale)
        if not np.isfinite(self.scale):
            raise ValueError(f"{self.kind}: scale must be finite")

    def apply(self, x):
        return self.scale * self._check(x, self.in_dim)

    def apply_adjoint(self, y):
        return self.scale * self._check(y, self.out_dim)

    def exact_op_norm(self):
        return abs(self.scale)


class Identity(ScaledIdentity):
    """The scaled identity at scale 1, where 1.0 * x equals x bit for bit."""

    kind = "identity"

    def __init__(self, n):
        super().__init__(n, 1.0)


class DenseMatrix(LinearOperator):
    kind = "dense-matrix"

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError("dense-matrix: need a nonempty 2D array")
        if not np.all(np.isfinite(mat)):
            raise ValueError("dense-matrix: entries must be finite")
        self.matrix = mat
        self.out_dim, self.in_dim = mat.shape

    def apply(self, x):
        return self.matrix @ self._check(x, self.in_dim)

    def apply_adjoint(self, y):
        return self.matrix.T @ self._check(y, self.out_dim)

    def exact_op_norm(self):
        return float(np.linalg.norm(self.matrix, 2))


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
            # (roll(dh, 1, 1) - dh) + (roll(dv, 1, 0) - dv), with the wrapped
            # first column and row written apart from the rest
            out = np.empty((self.height, self.width))
            np.subtract(dh[:, :-1], dh[:, 1:], out=out[:, 1:])
            np.subtract(dh[:, -1:], dh[:, :1], out=out[:, :1])
            tmp = np.empty_like(out)
            np.subtract(dv[:-1, :], dv[1:, :], out=tmp[1:, :])
            np.subtract(dv[-1:, :], dv[:1, :], out=tmp[:1, :])
            out += tmp
        else:
            out = -(dh + dv)
            out[:, 1:] += dh[:, :-1]
            out[1:, :] += dv[:-1, :]
        return out.ravel()

    def exact_op_norm(self):
        # A^T A = I (x) D_w^T D_w + D_h^T D_h (x) I for the 1D difference D_n,
        # so ||A||^2 is the sum of the two 1D maxima
        if self.boundary == "zero-pad":
            # D_n^T D_n is tridiagonal (1, 2, ..., 2; -1): largest eigenvalue 4 cos^2(pi/(2n+1))
            ch = math.cos(math.pi / (2 * self.height + 1))
            cw = math.cos(math.pi / (2 * self.width + 1))
            return 2.0 * math.sqrt(ch * ch + cw * cw)
        # periodic D_n^T D_n is circulant: eigenvalues 4 sin^2(pi i/n)
        sh = 4.0 * np.sin(np.pi * np.arange(self.height) / self.height) ** 2
        sw = 4.0 * np.sin(np.pi * np.arange(self.width) / self.width) ** 2
        return float(np.sqrt(sh.max() + sw.max()))


class StackedOverIdentity(LinearOperator):
    """A = [V; I]: maps x to the concatenation (Vx, x)."""

    kind = "stacked-over-identity"

    def __init__(self, V):
        V = np.asarray(V, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1] or V.size == 0:
            raise ValueError("stacked-over-identity: V must be a nonempty square matrix")
        if not np.all(np.isfinite(V)):
            raise ValueError("stacked-over-identity: entries of V must be finite")
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

    def exact_op_norm(self):
        # A^T A = V^T V + I
        return float(np.sqrt(1.0 + np.linalg.eigvalsh(self.V.T @ self.V)[-1]))


def estimate_op_norm(op, iterations=200, seed=0):
    """Estimate ||A|| by power iteration on A^T A.

    Returns a lower bound that converges monotonically (the Rayleigh
    quotient sequence of a PSD matrix under power iteration is
    nondecreasing). Deterministic for a fixed seed. A zero operator
    yields 0. No solver path calls this, since ``op_norm()`` is exact for
    every kind; it is the power-iteration reference of the tests and of
    the benchmark tracer.
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


def estimate_min_eig_gram(op):
    """Smallest eigenvalue of AA^T, clamped to be nonnegative.

    A with more rows than columns has rank(AA^T) <= in_dim < out_dim,
    so the answer is 0 (A is then not surjective, a legal outcome). A
    kind with ``gram_is_scalar`` gives ||A||^2. Otherwise the gram
    matrix is assembled and eigensolved exactly, and an eigenvalue at
    most 1e-10 of the largest is reported as exactly 0.
    """
    if op.out_dim > op.in_dim:
        return 0.0
    if op.gram_is_scalar:
        return op.op_norm() ** 2
    A = materialize(op)
    eigs = np.linalg.eigvalsh(A @ A.T)
    lo, hi = float(eigs[0]), float(eigs[-1])
    return 0.0 if lo <= 1e-10 * hi else lo
