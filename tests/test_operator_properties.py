"""Property tests of the operator algebra over drawn operators and vectors."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from dualprox import linops  # noqa: E402

# magnitudes in [1e-3, 10], or zero, so that no product underflows and
# roundoff stays relative to the compared values
entries = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))
sizes = st.integers(1, 8)


def filled(shape):
    # every entry drawn: a constant fill would hide a wrong wrap or a transposed block
    return arrays(np.float64, shape, elements=entries, fill=st.nothing())


operators = st.one_of(
    st.builds(linops.Identity, st.integers(1, 12)),
    st.builds(linops.ScaledIdentity, st.integers(1, 12), entries),
    st.tuples(sizes, sizes).flatmap(filled).map(linops.DenseMatrix),
    st.builds(linops.Gradient2D, st.integers(2, 12), st.integers(2, 12),
              st.sampled_from(("periodic", "zero-pad"))),
    sizes.flatmap(lambda n: filled((n, n))).map(linops.StackedOverIdentity),
)
# float roundoff, relative to the size of the compared values
RTOL = 1e-12

property_settings = settings(derandomize=True, max_examples=40, database=None, deadline=None)


def svd_norm(op):
    """The largest singular value of the assembled matrix of ``op``."""
    return float(np.linalg.norm(linops.materialize(op), 2))


@property_settings
@given(operators, st.data())
def test_adjoint_identity(op, data):
    # <Ax, y> = <x, A^T y> up to roundoff relative to ||A|| ||x|| ||y||
    x = data.draw(filled(op.in_dim))
    y = data.draw(filled(op.out_dim))
    lhs = float(op.apply(x) @ y)
    rhs = float(x @ op.apply_adjoint(y))
    scale = svd_norm(op) * np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= RTOL * scale


@property_settings
@given(operators, entries, entries, st.data())
def test_apply_and_adjoint_are_linear(op, a, b, data):
    norm = svd_norm(op)
    for fn, dim in ((op.apply, op.in_dim), (op.apply_adjoint, op.out_dim)):
        u = data.draw(filled(dim))
        v = data.draw(filled(dim))
        combined = fn(a * u + b * v)
        separate = a * fn(u) + b * fn(v)
        scale = norm * (abs(a) * np.linalg.norm(u) + abs(b) * np.linalg.norm(v))
        assert np.linalg.norm(combined - separate) <= RTOL * scale


@property_settings
@given(operators)
def test_known_op_norm_is_the_largest_singular_value(op):
    # every kind, zero-pad gradient included: beta is built from this number
    sigma = svd_norm(op)
    assert abs(op.op_norm() - sigma) <= RTOL * sigma


@property_settings
@given(operators)
def test_min_eig_gram_is_the_smallest_eigenvalue_of_the_assembled_gram(op):
    # tall and scalar-gram kinds are decided by their structure; the eigensolve is the oracle
    A = linops.materialize(op)
    eigs = np.linalg.eigvalsh(A @ A.T)
    lo, hi = float(eigs[0]), float(eigs[-1])
    got = linops.estimate_min_eig_gram(op)
    if lo <= 1e-10 * hi:
        assert got == 0.0
    else:
        assert abs(got - lo) <= RTOL * hi
