import numpy as np
import pytest

from conftest import split_quadratic_finite_sum
from dualprox import ppdg, problems
from dualprox.dataio import ImageBuffer
from dualprox.problems import (
    CompositeProblem,
    FiniteSumProblem,
    blocks_image,
    build_denoise,
    build_fused_lasso,
    build_precision_graph,
    psnr,
    synthetic_fused_lasso_data,
    validate_graph_matrix,
)


def finite_difference_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = eps
        g[j] = (f(x + e) - f(x - e)) / (2 * eps)
    return g


@pytest.fixture
def denoise_problem():
    img = ImageBuffer(4, 4, np.linspace(0.1, 0.9, 16))
    return build_denoise(img, lam=0.1, c1=-1.0, c2=1.0), img


def test_denoise_gradient_at_data(denoise_problem):
    prob, img = denoise_problem
    assert np.array_equal(prob.grad_f(img.pixels), np.zeros(16))


def test_denoise_unit_perturbation(denoise_problem):
    prob, img = denoise_problem
    e1 = np.zeros(16)
    e1[0] = 1.0
    assert prob.f_value(img.pixels + e1) == pytest.approx(0.5)


def test_denoise_threads_parameters(denoise_problem):
    prob, _ = denoise_problem
    assert prob.regularizer.kind == "l0_box"
    assert prob.regularizer.lam == 0.1
    assert prob.regularizer.c1 == -1.0 and prob.regularizer.c2 == 1.0
    assert prob.operator.kind == "gradient-2d"
    assert prob.lipschitz_L == 1.0


def test_denoise_rejects_empty_image():
    with pytest.raises(ValueError):
        build_denoise(ImageBuffer(1, 1, np.array([0.5])))  # gradient needs 2x2


def test_denoise_gradient_matches_finite_differences(denoise_problem):
    prob, _ = denoise_problem
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(size=16)
        fd = finite_difference_grad(prob.f_value, x)
        g = prob.grad_f(x)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def fused_lasso_fixture(seed=0):
    rows, labels = synthetic_fused_lasso_data(40, 6, seed=seed)
    V = build_precision_graph(rows, threshold=0.5)
    return build_fused_lasso(rows, labels, V), rows, labels


def test_fused_lasso_gradient_at_zero():
    prob, rows, labels = fused_lasso_fixture()
    for i in (0, 3, 17):
        assert np.allclose(prob.component_grad(i, np.zeros(6)), -labels[i] * rows[i])
        assert prob.component_value(i, np.zeros(6)) == pytest.approx(1.0)


def test_fused_lasso_rejects_bad_labels():
    rows = np.ones((3, 2))
    with pytest.raises(ValueError):
        build_fused_lasso(rows, np.array([1.0, 0.0, -1.0]), np.eye(2))


def test_fused_lasso_component_grads_match_finite_differences():
    prob, _, _ = fused_lasso_fixture()
    rng = np.random.default_rng(2)
    for _ in range(20):
        i = rng.integers(prob.n_components)
        x = rng.standard_normal(6)
        fd = finite_difference_grad(lambda z: prob.component_value(i, z), x)
        g = prob.component_grad(i, x)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_fused_lasso_full_gradient_is_component_mean():
    prob, _, _ = fused_lasso_fixture()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(6)
    mean = np.mean([prob.component_grad(i, x) for i in range(prob.n_components)], axis=0)
    assert np.allclose(prob.full_grad(x), mean, atol=1e-12)


def test_finite_sum_f_is_its_full_mean_looked_up_per_call():
    prob, _, _ = fused_lasso_fixture()
    x = np.random.default_rng(5).standard_normal(6)
    assert prob.f_value(x) == prob.full_value(x)
    assert np.array_equal(prob.grad_f(x), prob.full_grad(x))
    assert FiniteSumProblem.objective is CompositeProblem.objective
    # an instance override of the full sums (as the benchmark's tracer installs) is seen
    prob.full_value = lambda z: 7.0
    prob.full_grad = lambda z: np.ones(6)
    assert prob.f_value(x) == 7.0
    assert np.array_equal(prob.grad_f(x), np.ones(6))


def test_hand_built_finite_sum_averages_its_components():
    fsp = split_quadratic_finite_sum(3, 2)
    x = np.array([0.5, -1.0])
    comps = [fsp.component_value(i, x) for i in range(3)]
    grads = [fsp.component_grad(i, x) for i in range(3)]
    assert fsp.f_value(x) == pytest.approx(np.mean(comps), abs=1e-12)
    assert np.allclose(fsp.grad_f(x), np.mean(grads, axis=0), atol=1e-12)
    assert fsp.objective(x) == pytest.approx(np.mean(comps) + 0.5 * np.abs(x).sum(), abs=1e-12)


def test_deterministic_solver_takes_a_finite_sum_as_is():
    prob, _, _ = fused_lasso_fixture()
    view = CompositeProblem(prob.full_value, prob.full_grad, prob.lipschitz_L,
                            prob.operator, prob.regularizer)
    cfg = ppdg.PpdgConfig(alpha=ppdg.default_alpha(prob.lipschitz_L), max_iters=30)
    direct, via_view = [], []
    report = ppdg.solve(prob, cfg, trace_sink=direct.append)
    expect = ppdg.solve(view, cfg, trace_sink=via_view.append)
    assert np.array_equal(report.x, expect.x) and np.array_equal(report.y, expect.y)
    for a, b in zip(direct, via_view, strict=True):
        a.elapsed_s = b.elapsed_s = 0.0
        assert a == b


def test_fused_lasso_lipschitz_bound_holds():
    prob, _, _ = fused_lasso_fixture()
    rng = np.random.default_rng(4)
    L = prob.lipschitz_L
    for _ in range(100):
        x = rng.standard_normal(6)
        z = rng.standard_normal(6)
        lhs = np.linalg.norm(prob.full_grad(x) - prob.full_grad(z))
        assert lhs <= L * np.linalg.norm(x - z) * (1 + 1e-9)


def test_fused_lasso_normalized_rows_L():
    rows, labels = synthetic_fused_lasso_data(30, 4, seed=1)
    prob = build_fused_lasso(rows, labels, np.zeros((4, 4)), normalize_rows=True)
    assert prob.lipschitz_L == pytest.approx(problems.SIGMOID_CURVATURE)


def test_psnr_direct_formula():
    # 2x2, max 1, ||diff||^2 = 0.04 -> 10 log10(4 / 0.04) = 20 dB
    x = np.array([1.0, 0.5, 0.5, 0.5])
    x_org = x + np.array([0.1, 0.1, 0.1, 0.1])
    assert psnr(x, x_org, 2, 2) == pytest.approx(20.0)


def test_psnr_doubling_error_drops_by_log_identity():
    x = np.array([1.0, 0.5, 0.5, 0.5])
    d = np.array([0.1, -0.1, 0.05, 0.0])
    a = psnr(x, x + d, 2, 2)
    b = psnr(x, x + 2 * d, 2, 2)
    assert a - b == pytest.approx(10 * np.log10(4.0))


def test_psnr_identical_images_sentinel():
    x = np.array([0.3, 0.4])
    assert psnr(x, x.copy(), 1, 2) == np.inf


def test_precision_graph_duplicate_features():
    rng = np.random.default_rng(8)
    col = rng.standard_normal(200)
    rows = np.column_stack([col, col, rng.standard_normal(200)])
    V = build_precision_graph(rows, threshold=0.99)
    assert V[0, 1] == 1.0 and V[1, 0] == 1.0
    assert V[0, 2] == 0.0
    assert np.all(np.diag(V) == 0.0)


def test_precision_graph_independent_features_no_edges():
    rng = np.random.default_rng(12345)
    rows = rng.standard_normal((10000, 5))
    V = build_precision_graph(rows, threshold=0.9)
    assert np.all(V == 0.0)


def test_precision_graph_constant_feature():
    rng = np.random.default_rng(2)
    rows = np.column_stack([np.ones(50), rng.standard_normal(50)])
    V = build_precision_graph(rows, threshold=0.1)
    assert np.all(V[0] == 0.0)


def test_validate_graph_matrix_pass_through():
    V = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert validate_graph_matrix(V) is not None
    with pytest.raises(ValueError, match="symmetric"):
        validate_graph_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        validate_graph_matrix(np.zeros((2, 3)))


def test_blocks_image_levels_and_determinism():
    img = blocks_image(16, 16)
    assert set(np.unique(img.pixels)) == {0.15, 0.35, 0.6, 0.85}
    assert np.array_equal(img.pixels, blocks_image(16, 16).pixels)


def test_synthetic_data_shapes_and_graph():
    rows, labels = synthetic_fused_lasso_data(200, 20, seed=0)
    assert rows.shape == (200, 20)
    assert set(np.unique(labels)) <= {-1.0, 1.0}
    V = build_precision_graph(rows, threshold=0.5)
    # one edge per latent/copy pair, symmetric
    assert V.sum() == pytest.approx(20.0)


def test_objective_bounded_below(denoise_problem):
    prob, img = denoise_problem
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(size=16)
        assert prob.objective(x) >= 0.0
