import gc
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import split_quadratic_finite_sum
from dualprox import ppdg, problems, sppdg
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
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fused_lasso_rejects_non_finite_rows(bad):
    rows = np.ones((3, 2))
    rows[1, 0] = bad
    for normalize_rows in (False, True):
        with pytest.raises(ValueError, match="rows must be finite"):
            build_fused_lasso(rows, np.array([1.0, -1.0, 1.0]), np.zeros((2, 2)),
                              normalize_rows=normalize_rows)


@pytest.mark.parametrize("n_labels", [2, 4])
def test_fused_lasso_rejects_a_label_count_other_than_the_row_count(n_labels):
    with pytest.raises(ValueError, match="^rows must be \\(N, n\\) with one label per row$"):
        build_fused_lasso(np.ones((3, 2)), np.ones(n_labels), np.zeros((2, 2)))


def test_fused_lasso_rejects_rows_without_columns():
    with pytest.raises(ValueError, match="at least one column"):
        build_fused_lasso(np.ones((3, 0)), np.array([1.0, -1.0, 1.0]), np.zeros((0, 0)))


def test_fused_lasso_rejects_zero_rows():
    with pytest.raises(ValueError, match="at least one data row"):
        build_fused_lasso(np.ones((0, 4)), np.ones(0), np.zeros((4, 4)))


@pytest.mark.parametrize("V, match", [
    (np.zeros((3, 3)), r"must be 4x4 for 4 features, got shape \(3, 3\)"),
    (np.zeros((4, 5)), r"must be 4x4 for 4 features, got shape \(4, 5\)"),
    (np.zeros(4), r"must be 4x4 for 4 features, got shape \(4,\)"),
    (np.where(np.eye(4) == 1, np.nan, 0.0), "stacked-over-identity: entries of V must be finite"),
    (np.where(np.eye(4) == 1, 0.0, np.inf), "stacked-over-identity: entries of V must be finite"),
], ids=["3x3", "4x5", "1-d", "nan", "inf"])
def test_fused_lasso_rejects_a_bad_graph_matrix(V, match):
    rows, labels = synthetic_fused_lasso_data(10, 4, seed=1)
    with pytest.raises(ValueError, match=match):
        build_fused_lasso(rows, labels, V)


def test_fused_lasso_takes_an_asymmetric_graph_matrix():
    rows, labels = synthetic_fused_lasso_data(10, 4, seed=1)
    V = np.zeros((4, 4))
    V[0, 1] = 1.0
    assert np.array_equal(build_fused_lasso(rows, labels, V).operator.V, V)


@pytest.mark.parametrize("n_features", [0, 1, 3])
def test_synthetic_data_needs_an_even_feature_count_of_at_least_two(n_features):
    with pytest.raises(ValueError, match="n_features"):
        synthetic_fused_lasso_data(10, n_features)


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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_fused_lasso_shared_margins_match_a_memo_free_reference():
    prob, rows, labels = fused_lasso_fixture()

    def value(x):
        t = np.tanh(labels * (rows @ x))
        return float(np.mean(1.0 - t))

    def grad(x):
        t = np.tanh(labels * (rows @ x))
        return (-(labels * (1.0 - t * t)) @ rows) / labels.size

    rng = np.random.default_rng(7)
    x1, x2 = rng.standard_normal(6), rng.standard_normal(6)

    def check(oracle, reference, x):
        expected = reference(np.array(x, copy=True))
        assert same_bits(oracle(x), expected)

    check(prob.full_value, value, x1)
    check(prob.full_grad, grad, x2)
    check(prob.full_grad, grad, x1)
    check(prob.full_value, value, x1)
    # the same object, changed in place, gives the new margins
    x1[2] += 0.5
    check(prob.full_grad, grad, x1)
    check(prob.full_value, value, x1)
    # a caller writing into a returned gradient does not reach later results
    prob.full_grad(x1)[:] = 7.0
    check(prob.full_grad, grad, x1)
    check(prob.full_value, value, x1.tolist())
    check(prob.full_grad, grad, x1.tolist())
    signed_zero = np.where(np.arange(6) % 2 == 0, -0.0, 0.0)
    for x in (np.zeros(6), signed_zero, np.zeros(6), np.full(6, np.nan),
              np.array([np.nan, 1.0, -0.0, 2.0, 0.0, -1.0])):
        check(prob.full_value, value, x)
        check(prob.full_grad, grad, x)


def test_finite_sum_f_is_its_full_mean_looked_up_per_call():
    prob, _, _ = fused_lasso_fixture()
    x = np.random.default_rng(5).standard_normal(6)
    assert prob.f_value(x) == prob.full_value(x)
    assert np.array_equal(prob.grad_f(x), prob.full_grad(x))
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
    objective = fsp.f_value(x) + fsp.regularizer.value_h(fsp.operator.apply(x))
    assert objective == pytest.approx(np.mean(comps) + 0.5 * np.abs(x).sum(), abs=1e-12)


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


@pytest.mark.parametrize("normalize_rows", [False, True])
def test_fused_lasso_is_a_finite_sum_over_its_rows_and_labels(normalize_rows):
    raw, labels = synthetic_fused_lasso_data(30, 4, seed=1)
    prob = build_fused_lasso(raw.copy(), labels, np.zeros((4, 4)), normalize_rows=normalize_rows)
    assert isinstance(prob, FiniteSumProblem)
    want = raw / np.linalg.norm(raw, axis=1)[:, None] if normalize_rows else raw
    assert np.array_equal(prob.rows, want) and np.array_equal(prob.labels, labels)
    # every oracle reads those two arrays, with the arithmetic written out here
    rows, labels = prob.rows, prob.labels
    x = np.random.default_rng(6).standard_normal(4)
    for i in (0, 11, 29):
        t = np.tanh(labels[i] * (rows[i] @ x))
        assert prob.component_value(i, x) == float(1.0 - t)
        assert np.array_equal(prob.component_grad(i, x), (-labels[i] * (1.0 - t * t)) * rows[i])
    t = np.tanh(labels * (rows @ x))
    assert prob.full_value(x) == float(np.mean(1.0 - t))
    assert np.array_equal(prob.full_grad(x), (-(labels * (1.0 - t * t)) @ rows) / 30)
    assert prob.lipschitz_L == problems.SIGMOID_CURVATURE * float(np.max(np.sum(rows**2, axis=1)))
    assert prob.n_components == 30


@st.composite
def fused_lasso_batches(draw):
    """(problem, sorted distinct idx, x): any size, batch, scale of x and row normalization."""
    n_rows, n = draw(st.integers(1, 80)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((n_rows, n))
    labels = rng.choice([-1.0, 1.0], n_rows)
    prob = build_fused_lasso(rows, labels, np.zeros((n, n)), normalize_rows=draw(st.booleans()))
    idx = draw(st.one_of(
        st.just(list(range(n_rows))),
        st.lists(st.integers(0, n_rows - 1), min_size=1, unique=True).map(sorted),
    ))
    x = 10.0 ** draw(st.floats(-4.0, 4.0)) * rng.standard_normal(n)
    return prob, np.array(idx), x


@settings(max_examples=200, deadline=None)
@given(fused_lasso_batches())
def test_fused_lasso_batch_rows_are_its_component_rows_bit_for_bit(case):
    prob, idx, x = case
    assert "component_grad" not in vars(prob)
    want = np.stack([prob.component_grad(i, x) for i in idx])
    assert np.array_equal(prob.batch_grad(idx, x), want)


@pytest.mark.parametrize("fused", [False, True], ids=["finite_sum", "fused_lasso"])
def test_batch_grad_calls_a_component_grad_on_the_instance_once_per_row(fused):
    # the default stacks component_grad; on the fused lasso, a wrapper set on
    # the instance, as a tracer sets one, turns the vectorized pass off
    if fused:
        rows, labels = synthetic_fused_lasso_data(30, 4, seed=1)
        prob = build_fused_lasso(rows, labels, np.zeros((4, 4)), normalize_rows=True)
    else:
        prob = split_quadratic_finite_sum(30, 4)
    component_grad, seen = prob.component_grad, []

    def counted(i, x):
        seen.append(i)
        return component_grad(i, x)

    prob.component_grad = counted
    x = np.random.default_rng(2).standard_normal(4)
    for idx in ([7], [0, 5, 9, 29], list(range(30))):
        seen.clear()
        got = prob.batch_grad(np.array(idx), x)
        assert seen == idx
        assert np.array_equal(got, np.stack([component_grad(i, x) for i in idx]))


def test_fused_lasso_problem_is_freed_without_the_cyclic_collector():
    # the problem keeps no reference to itself, such as a stored bound method,
    # so its N x n data is freed as soon as the last reference goes
    rows, labels = synthetic_fused_lasso_data(30, 4, seed=1)
    prob = build_fused_lasso(rows, labels, build_precision_graph(rows), normalize_rows=True)
    x = np.ones(4)
    prob.f_value(x) + prob.regularizer.value_h(prob.operator.apply(x))
    prob.grad_f(x), prob.component_grad(0, x), prob.batch_grad([0, 1], x)
    prob.full_sums(np.stack([x, -x]))
    freed = weakref.ref(prob)
    gc.disable()
    try:
        del prob
        assert freed() is None
    finally:
        gc.enable()


def test_psnr_direct_formula():
    # 2x2, max 1, ||diff||^2 = 0.04 -> 10 log10(4 / 0.04) = 20 dB
    x = np.array([1.0, 0.5, 0.5, 0.5])
    x_org = x + np.array([0.1, 0.1, 0.1, 0.1])
    assert psnr(x, x_org, 2, 2) == pytest.approx(20.0)


def test_psnr_of_an_all_zero_image_is_minus_inf_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert psnr(np.zeros(4), np.ones(4), 2, 2) == -np.inf
        assert psnr(np.zeros(4), np.zeros(4), 2, 2) == np.inf


def test_psnr_doubling_error_drops_by_log_identity():
    x = np.array([1.0, 0.5, 0.5, 0.5])
    d = np.array([0.1, -0.1, 0.05, 0.0])
    a = psnr(x, x + d, 2, 2)
    b = psnr(x, x + 2 * d, 2, 2)
    assert a - b == pytest.approx(10 * np.log10(4.0))


@pytest.mark.parametrize("x, x_org, height, width", [
    (np.zeros(4), np.zeros(3), 2, 2), (np.zeros(4), np.zeros(4), 2, 3),
], ids=["images", "shape"])
def test_psnr_rejects_sizes_that_disagree(x, x_org, height, width):
    with pytest.raises(ValueError, match="^psnr: image sizes disagree$"):
        psnr(x, x_org, height, width)


def test_psnr_identical_images_sentinel():
    x = np.array([0.3, 0.4])
    assert psnr(x, x.copy(), 1, 2) == np.inf


@pytest.mark.parametrize("rows", [np.ones((1, 3)), np.ones(3)], ids=["one-row", "1-d"])
def test_precision_graph_needs_two_data_rows(rows):
    with pytest.raises(ValueError, match="^need at least two data rows$"):
        build_precision_graph(rows)


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5, np.nan])
def test_precision_graph_threshold_must_lie_strictly_inside_the_unit_interval(threshold):
    with pytest.raises(ValueError, match=r"^threshold must lie in \(0, 1\)$"):
        build_precision_graph(np.ones((3, 2)), threshold=threshold)


@pytest.mark.parametrize("height, width", [(3, 8), (8, 3), (0, 0)])
def test_blocks_image_needs_at_least_4x4(height, width):
    with pytest.raises(ValueError, match="^blocks image needs at least 4x4$"):
        blocks_image(height, width)


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
        assert prob.f_value(x) + prob.regularizer.value_h(prob.operator.apply(x)) >= 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_precision_graph_rejects_non_finite_rows_without_warnings(bad):
    rows = np.ones((3, 2))
    rows[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rows must be finite"):
            build_precision_graph(rows)


def test_precision_graph_overflowing_mean_is_not_reported_as_non_finite():
    rows = np.array([[1e308, 1.0], [1e308, 2.0], [1.0, 4.0]])
    with np.errstate(all="ignore"):
        V = build_precision_graph(rows)
    assert V.shape == (2, 2)


# --- the blocked fused-lasso setup against the full-array expressions ----

BLOCK = problems.BLOCK_ROWS


def full_array_synthetic(n_rows, n_features, seed, pair_noise=0.3):
    rng = np.random.default_rng(seed)
    half = n_features // 2
    latent = rng.standard_normal((n_rows, half))
    copies = latent + pair_noise * rng.standard_normal((n_rows, half))
    rows = np.concatenate([latent, copies], axis=1)
    w_true = rng.standard_normal(n_features)
    margin = rows @ w_true + 0.1 * rng.standard_normal(n_rows)
    return rows, np.where(margin >= 0, 1.0, -1.0)


def full_array_graph(rows, threshold):
    centered = rows - rows.mean(axis=0)
    std = centered.std(axis=0)
    safe = np.where(std > 0, std, 1.0)
    corr = (centered / safe).T @ (centered / safe) / rows.shape[0]
    corr[std == 0, :] = 0.0
    corr[:, std == 0] = 0.0
    V = (np.abs(corr) > threshold).astype(float)
    np.fill_diagonal(V, 0.0)
    return V


def full_array_L(rows, normalize_rows):
    if normalize_rows:
        norms = np.linalg.norm(rows, axis=1)
        rows = rows / np.where(norms > 0, norms, 1.0)[:, None]
    return problems.SIGMOID_CURVATURE * float(np.max(np.sum(rows**2, axis=1)))


def assert_setup_matches_full_arrays(rows, labels, threshold=0.5):
    V_ref = full_array_graph(rows, threshold)
    V = build_precision_graph(rows, threshold=threshold)
    assert np.array_equal(V, V_ref)
    for normalize_rows in (False, True):
        prob = build_fused_lasso(rows, labels, V, normalize_rows=normalize_rows)
        assert prob.lipschitz_L == full_array_L(rows, normalize_rows)


@pytest.mark.parametrize("n_features", [2, 6, 40])
@pytest.mark.parametrize("n_rows", [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_blocked_setup_is_bit_identical_to_full_arrays(n_rows, n_features):
    rows, labels = synthetic_fused_lasso_data(n_rows, n_features, seed=n_rows + n_features)
    rows_ref, labels_ref = full_array_synthetic(n_rows, n_features, seed=n_rows + n_features)
    assert np.array_equal(rows, rows_ref)
    assert np.array_equal(labels, labels_ref)
    assert_setup_matches_full_arrays(rows, labels)


@pytest.mark.parametrize("n_rows", [3, BLOCK + 1, 2 * BLOCK + 3])
def test_blocked_setup_with_a_constant_column(n_rows):
    rows, labels = synthetic_fused_lasso_data(n_rows, 6, seed=4)
    rows[:, 2] = 0.1   # a column mean that does not round back to 0.1
    assert_setup_matches_full_arrays(rows, labels, threshold=0.3)
    assert np.all(build_precision_graph(rows, threshold=0.3)[2] == 0.0)
    # its centered entries are a tiny nonzero constant, which correlates with
    # the other columns' roundoff unless the column is found to be constant
    V = build_precision_graph(rows, threshold=1e-300)
    assert np.all(V[2] == 0.0) and np.all(V[:, 2] == 0.0)


def test_precision_graph_streams_the_rows_through_a_block_sized_buffer():
    rows, _ = synthetic_fused_lasso_data(8 * BLOCK + 3, 40, seed=5)
    tracemalloc.start()
    try:
        build_precision_graph(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block buffer is about an eighth of the data
    assert peak < rows.nbytes / 4, f"peak {peak} B against {rows.nbytes} B of data"


def test_precision_graph_of_a_single_column_is_a_zero_1x1():
    rows = np.random.default_rng(3).standard_normal((BLOCK + 5, 1))
    V = build_precision_graph(rows)
    assert V.shape == (1, 1) and V[0, 0] == 0.0


def test_precision_graph_links_nothing_to_a_column_whose_squares_underflow():
    rows, _ = synthetic_fused_lasso_data(50, 4, seed=1)
    rows[:, 0] *= 1e-170   # not constant, but its Gram diagonal rounds to 0
    V = build_precision_graph(rows)
    assert np.all(V[0] == 0.0) and np.all(V[:, 0] == 0.0)
    assert np.array_equal(V, full_array_graph(rows, 0.5))


def test_precision_graph_links_an_affine_copy_across_blocks():
    rows, _ = synthetic_fused_lasso_data(2 * BLOCK + 3, 6, seed=9)
    rows[:, 4] = 3.0 * rows[:, 1] + 5.0
    V = build_precision_graph(rows, threshold=0.99)
    assert V[1, 4] == 1.0 and V[4, 1] == 1.0
    assert np.array_equal(V, full_array_graph(rows, 0.99))


def test_fortran_ordered_rows_give_the_same_graph():
    rows, _ = synthetic_fused_lasso_data(2 * BLOCK + 3, 40, seed=6)
    V = build_precision_graph(np.asfortranarray(rows))
    assert np.array_equal(V, full_array_graph(rows, 0.5))
    assert V.sum() == 40.0


# VmHWM, not ru_maxrss: the latter keeps the high-water mark of the process
# that spawned the probe, so under a large test runner it reads no growth at all
MEMORY_PROBE = """
import re
from dualprox import problems

def peak_kib():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1))

def build(n_rows, n_features):
    rows, labels = problems.synthetic_fused_lasso_data(n_rows, n_features, seed=1)
    V = problems.build_precision_graph(rows)
    return problems.build_fused_lasso(rows, labels, V)

build(40, 6)
base = peak_kib()
build(20000, 200)
print(peak_kib() - base)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_fused_lasso_setup_peak_memory_stays_within_one_and_a_half_times_the_data():
    # the synthetic 20000 x 200 matrix is 32 MB; a fresh process measures the
    # growth of its high-water mark over a baseline taken after a tiny build
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    growth = int(out.stdout.split()[-1]) * 1024
    data = 20000 * 200 * 8
    assert growth <= 1.5 * data, f"setup grew the peak by {growth / data:.2f}x the data"


@pytest.mark.parametrize("n_points", [1, 5, sppdg.ROW_BATCH])
def test_fused_lasso_full_sums_match_the_per_point_oracles(n_points):
    # N is not a multiple of BLOCK_ROWS, so the last block of data rows is short
    n_rows = problems.BLOCK_ROWS + 37
    rows, labels = synthetic_fused_lasso_data(n_rows, 6, seed=7)
    prob = build_fused_lasso(rows, labels, build_precision_graph(rows), normalize_rows=True)
    xs = 0.5 * np.random.default_rng(n_points).standard_normal((n_points, 6))
    values, grads = prob.full_sums(xs)
    assert values.shape == (n_points,) and grads.shape == (n_points, 6)
    for x, value, grad in zip(xs, values, grads):
        want_value, want_grad = prob.full_value(x), prob.full_grad(x)
        assert abs(value - want_value) <= 1e-12 * abs(want_value)
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
    # the default evaluates full_value and full_grad at each point, bit for bit
    by_point = FiniteSumProblem.full_sums(prob, xs)
    assert by_point[0].tolist() == [prob.full_value(x) for x in xs]
    assert np.array_equal(by_point[1], np.stack([prob.full_grad(x) for x in xs]))
