import numpy as np
import pytest

from dualprox import linops


def all_test_operators():
    rng = np.random.default_rng(0)
    return [
        linops.Identity(3),
        linops.ScaledIdentity(4, -2.5),
        linops.DenseMatrix(rng.standard_normal((5, 3))),
        linops.DenseMatrix(np.array([[2.0, 0.0], [0.0, 1.0]])),
        linops.Gradient2D(3, 3, boundary="periodic"),
        linops.Gradient2D(4, 5, boundary="zero-pad"),
        linops.StackedOverIdentity(rng.standard_normal((4, 4))),
    ]


def test_identity_apply():
    op = linops.Identity(3)
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(op.apply(x), x)
    assert np.array_equal(op.apply_adjoint(np.array([4.0, 5.0, 0.0])), [4.0, 5.0, 0.0])


def test_dense_diagonal_apply_and_adjoint():
    op = linops.DenseMatrix([[2.0, 0.0], [0.0, 1.0]])
    assert np.allclose(op.apply([1.0, 1.0]), [2.0, 1.0])
    assert np.allclose(op.apply_adjoint([1.0, 1.0]), [2.0, 1.0])


def test_shape_errors():
    op = linops.DenseMatrix([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        op.apply([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        op.apply_adjoint([1.0])


def test_gradient2d_constant_image_is_zero():
    op = linops.Gradient2D(4, 4)
    assert np.all(op.apply(np.full(16, 0.7)) == 0.0)


def test_gradient2d_hand_computed_periodic_diffs():
    # image [[1,2],[3,4]]: wraparound forward differences
    op = linops.Gradient2D(2, 2, boundary="periodic")
    out = op.apply(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(out[:4], [1.0, -1.0, 1.0, -1.0])
    assert np.array_equal(out[4:], [2.0, 2.0, -2.0, -2.0])


def test_gradient2d_rejects_tiny_dims():
    with pytest.raises(ValueError):
        linops.Gradient2D(1, 5)
    with pytest.raises(ValueError):
        linops.Gradient2D(3, 3, boundary="mirror")


@pytest.mark.parametrize("op", all_test_operators(), ids=lambda o: f"{o.kind}-{o.in_dim}")
def test_adjoint_identity_on_random_pairs(op):
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = rng.standard_normal(op.in_dim)
        y = rng.standard_normal(op.out_dim)
        lhs = op.apply(x) @ y
        rhs = x @ op.apply_adjoint(y)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + np.linalg.norm(x) * np.linalg.norm(y))


@pytest.mark.parametrize("op", all_test_operators(), ids=lambda o: f"{o.kind}-{o.in_dim}")
def test_linearity(op):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(op.in_dim)
    z = rng.standard_normal(op.in_dim)
    lhs = op.apply(0.7 * x + z)
    rhs = 0.7 * op.apply(x) + op.apply(z)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_op_norm_identity_and_diagonal():
    assert linops.estimate_op_norm(linops.Identity(3), iterations=50, seed=0) == pytest.approx(1.0)
    diag = linops.DenseMatrix([[2.0, 0.0], [0.0, 1.0]])
    assert linops.estimate_op_norm(diag, iterations=200, seed=0) == pytest.approx(2.0, abs=1e-10)


def test_op_norm_gradient2d_matches_svd_oracle():
    # oracle: largest singular value of the materialized 128 x 64 matrix
    op = linops.Gradient2D(8, 8, boundary="periodic")
    oracle = np.linalg.svd(linops.materialize(op), compute_uv=False)[0]
    assert oracle**2 == pytest.approx(8.0, abs=1e-10)
    est = linops.estimate_op_norm(op, iterations=400, seed=1)
    assert est**2 == pytest.approx(8.0, abs=1e-8)
    # the exact periodic formula agrees too
    assert op.op_norm() ** 2 == pytest.approx(8.0, abs=1e-12)


def test_op_norm_zero_operator():
    op = linops.DenseMatrix(np.zeros((3, 2)))
    assert linops.estimate_op_norm(op, iterations=10, seed=0) == 0.0


def test_op_norm_deterministic_given_seed():
    op = linops.DenseMatrix(np.random.default_rng(9).standard_normal((6, 4)))
    a = linops.estimate_op_norm(op, iterations=37, seed=123)
    b = linops.estimate_op_norm(op, iterations=37, seed=123)
    assert a == b


def test_op_norm_monotone_in_iterations():
    op = linops.DenseMatrix(np.random.default_rng(9).standard_normal((6, 4)))
    estimates = [linops.estimate_op_norm(op, iterations=k, seed=5) for k in (1, 2, 4, 8, 30)]
    true = np.linalg.svd(op.matrix, compute_uv=False)[0]
    assert all(a <= b + 1e-15 for a, b in zip(estimates, estimates[1:]))
    assert all(e <= true + 1e-12 for e in estimates)


def test_op_norm_caches_the_exact_norm_and_never_estimates(monkeypatch):
    estimates = []
    monkeypatch.setattr(linops, "estimate_op_norm", lambda op, **kw: estimates.append(op))
    for op in all_test_operators():
        calls = []
        exact = op.exact_op_norm
        monkeypatch.setattr(op, "exact_op_norm", lambda: calls.append(op) or exact())
        norms = [op.op_norm() for _ in range(3)]
        assert calls == [op], op.kind
        assert norms == [exact()] * 3 and type(norms[0]) is float, op.kind
    assert estimates == []
    # a kind that states no norm has none to fall back on
    with pytest.raises(NotImplementedError):
        linops.LinearOperator().op_norm()


@pytest.mark.parametrize("make, matrix, message", [
    (linops.DenseMatrix, [[1.0, np.inf]], "entries must be finite"),
    (linops.StackedOverIdentity, [[1.0, -np.inf], [0.0, 1.0]], "entries of V must be finite"),
    (linops.StackedOverIdentity, np.zeros((0, 0)), "nonempty square"),
], ids=["dense-inf", "stacked-inf", "stacked-empty"])
def test_dense_and_stacked_reject_bad_matrices(make, matrix, message):
    with pytest.raises(ValueError, match=message):
        make(matrix)


def test_min_eig_gram_identity_and_fat_matrix():
    assert linops.estimate_min_eig_gram(linops.Identity(3)) == pytest.approx(1.0)
    fat = linops.DenseMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert linops.estimate_min_eig_gram(fat) == pytest.approx(1.0)


def test_min_eig_gram_gradient2d_not_surjective():
    # oracle: exact eigensolve of the materialized gram matrix
    assert linops.estimate_min_eig_gram(linops.Gradient2D(4, 4)) == 0.0


def test_min_eig_gram_stacked_zero_block():
    op = linops.StackedOverIdentity(np.zeros((2, 2)))
    assert linops.estimate_min_eig_gram(op) == 0.0


def test_stacked_apply():
    V = np.eye(2)
    op = linops.StackedOverIdentity(V)
    x = np.array([1.0, -1.0])
    assert np.array_equal(op.apply(x), [1.0, -1.0, 1.0, -1.0])
    zero = linops.StackedOverIdentity(np.zeros((2, 2)))
    assert np.array_equal(zero.apply(x), [0.0, 0.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        linops.StackedOverIdentity(np.zeros((2, 3)))


def test_spectral_bounds_consistency_and_sandwich():
    rng = np.random.default_rng(8)
    for op in [
        linops.Identity(4),
        linops.DenseMatrix(rng.standard_normal((3, 5))),
        linops.StackedOverIdentity(rng.standard_normal((3, 3))),
    ]:
        norm = op.op_norm()
        hat_lambda = np.sqrt(linops.estimate_min_eig_gram(op))
        tol = 1e-12 * norm
        for _ in range(100):
            y = rng.standard_normal(op.out_dim)
            aty = np.linalg.norm(op.apply_adjoint(y))
            ny = np.linalg.norm(y)
            assert hat_lambda * ny <= aty + 1e-9
            assert aty <= (norm + tol) * ny + 1e-9


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (5, 7), (16, 4), (9, 9)])
def test_gradient2d_apply_equals_the_roll_and_pad_formulas(shape):
    h, w = shape
    x = np.random.default_rng(h * w).standard_normal(h * w)
    x[::5] = -0.0
    img = x.reshape(h, w)
    periodic = np.concatenate([
        (np.roll(img, -1, axis=1) - img).ravel(), (np.roll(img, -1, axis=0) - img).ravel()
    ])
    dh, dv = -img.copy(), -img.copy()
    dh[:, :-1] += img[:, 1:]
    dv[:-1, :] += img[1:, :]
    zero_pad = np.concatenate([dh.ravel(), dv.ravel()])
    for boundary, want in (("periodic", periodic), ("zero-pad", zero_pad)):
        got = linops.Gradient2D(h, w, boundary=boundary).apply(x)
        assert np.array_equal(got, want), boundary
        assert np.array_equal(np.signbit(got), np.signbit(want)), boundary


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (5, 7), (16, 4), (9, 9)])
def test_gradient2d_adjoint_equals_the_roll_formula(shape):
    h, w = shape
    rng = np.random.default_rng(h * w)
    y = rng.standard_normal(2 * h * w)
    y[::5] = -0.0
    # all signed zeros, so that some sums land on -0.0 (none do at 2x2)
    zeros = np.where(rng.random(2 * h * w) < 0.5, -0.0, 0.0)
    op = linops.Gradient2D(h, w, boundary="periodic")
    for x in (y, zeros):
        dh, dv = x[: h * w].reshape(h, w), x[h * w :].reshape(h, w)
        want = ((np.roll(dh, 1, axis=1) - dh) + (np.roll(dv, 1, axis=0) - dv)).ravel()
        got = op.apply_adjoint(x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
