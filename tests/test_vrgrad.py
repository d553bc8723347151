import itertools

import numpy as np
import pytest

from conftest import anchored_estimate, stacked
from dualprox import vrgrad
from dualprox.vrgrad import default_period, make_estimator, sample_batch, sample_batches


@pytest.fixture
def quad_components():
    rng = np.random.default_rng(11)
    mats = rng.standard_normal((8, 3))

    def cg(i, x):
        return mats[i] * (mats[i] @ x) + float(i)

    def fg(x):
        return np.mean([cg(i, x) for i in range(8)], axis=0)

    return cg, fg


# --- batch sampling -------------------------------------------------------


def test_sample_batch_full():
    assert np.array_equal(sample_batch(0, 5, 5, 3), np.arange(5))


def test_sample_batch_forced_single():
    assert np.array_equal(sample_batch(9, 1, 1, 0), [0])


def test_sample_batch_deterministic_and_sorted():
    a = sample_batch(42, 8, 2, 0)
    b = sample_batch(42, 8, 2, 0)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) > 0)
    c = sample_batch(42, 8, 2, 1)
    assert not np.array_equal(a, c)


def test_sample_batch_without_replacement():
    for k in range(50):
        batch = sample_batch(3, 10, 6, k)
        assert len(set(batch.tolist())) == 6
        assert batch.min() >= 0 and batch.max() < 10


def test_sample_batch_errors():
    with pytest.raises(ValueError):
        sample_batch(0, 4, 5, 0)
    with pytest.raises(ValueError):
        sample_batch(0, 4, 0, 0)
    with pytest.raises(ValueError):
        sample_batch(-1, 4, 2, 0)


# seeds of one word, of two, and of four: more entropy words than SeedSequence's pool
BLOCK_SEEDS = [0, 1, 2**32 - 1, 2**32 + 5, 2**100 + 3]
# (N, b): (1, 1) and (5, 5) take j = 0 without a draw, (10, 3) repeats picks,
# (2**31 + 1, 2) rejects about half its draws on [0, 2**31], and (20000, 500)
# is numpy's tail shuffle
BLOCK_SHAPES = [(1, 1), (5, 5), (10, 3), (2000, 1), (20000, 20), (2**31 + 1, 2), (20000, 500)]


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
@pytest.mark.parametrize("n_components, batch_size", BLOCK_SHAPES)
@pytest.mark.parametrize("k0", [0, 4095, 2**32 - 3])
def test_sample_batches_rows_are_sample_batch_bit_for_bit(seed, n_components, batch_size, k0):
    # from k0 = 2**32 - 3 the block crosses into k of two 32-bit words
    block = sample_batches(seed, n_components, batch_size, k0, 6)
    assert block.dtype == np.int64 and block.shape == (6, batch_size)
    for i, row in enumerate(block):
        assert np.array_equal(row, sample_batch(seed, n_components, batch_size, k0 + i))


def test_sample_batches_rows_equal_sample_batch_on_drawn_settings():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**80),
        n_components=st.one_of(st.integers(1, 40), st.integers(1, 30000)),
        data=st.data(),
        k0=st.one_of(st.integers(0, 10**6), st.integers(2**32 - 20, 2**32 + 5)),
        count=st.integers(0, 24),
    )
    def check(seed, n_components, data, k0, count):
        batch_size = data.draw(st.integers(1, min(n_components, 300)), label="batch_size")
        block = sample_batches(seed, n_components, batch_size, k0, count)
        assert block.shape == (count, batch_size)
        for i, row in enumerate(block):
            assert np.array_equal(row, sample_batch(seed, n_components, batch_size, k0 + i))

    check()


def test_sample_batches_errors():
    with pytest.raises(ValueError, match="batch size must be in"):
        sample_batches(0, 4, 5, 0, 3)
    with pytest.raises(ValueError, match="seed and iteration index must be nonnegative"):
        sample_batches(-1, 4, 2, 0, 3)
    with pytest.raises(ValueError, match="seed and iteration index must be nonnegative"):
        sample_batches(0, 4, 2, -1, 3)
    with pytest.raises(ValueError, match="count must be nonnegative"):
        sample_batches(0, 4, 2, 0, -1)


def test_default_period_is_one_epoch():
    assert default_period(8, 2) == 4
    assert default_period(10, 3) == 4
    assert default_period(5, 5) == 1


# --- estimator contracts --------------------------------------------------


def test_estimate_requires_reset(quad_components):
    cg, fg = quad_components
    est = make_estimator("saga", 8, 2, seed=0)
    with pytest.raises(RuntimeError, match="reset"):
        est.estimate(0, np.zeros(3))


@pytest.mark.parametrize("kind", ["saga", "svrg", "sarah", "full"])
def test_estimates_before_reset_or_a_k0_start_raise(quad_components, kind):
    cg, fg = quad_components
    est = make_estimator(kind, 8, 2, seed=0, period=4)
    with pytest.raises(RuntimeError, match="call reset"):
        est.estimate(0, np.zeros(3))
    est.reset(stacked(cg), fg)
    # k = 4 is a snapshot of the period-4 kinds, but still no start
    for k in (1, 4):
        with pytest.raises(RuntimeError, match=f"first estimate after reset is at k = 0, not {k}"):
            est.estimate(k, np.zeros(3))
    assert est.evals == 0


@pytest.mark.parametrize("kind", ["saga", "svrg", "sarah", "full"])
def test_the_k0_estimate_seeds_the_memory_at_its_point(quad_components, kind):
    cg, fg = quad_components
    x0 = np.array([0.4, -1.5, 2.0])
    est = make_estimator(kind, 8, 2, seed=3)
    est.reset(stacked(cg), fg)
    assert est.evals == 0
    est.estimate(0, x0)
    if kind == "saga":
        grads = np.stack([cg(i, x0) for i in range(8)])
        assert np.array_equal(est.table, grads)
        assert np.array_equal(est.anchor_mean, grads.mean(axis=0))
        assert est.evals == 8 + 2
    else:
        assert np.array_equal(est.anchor_x, x0) and est.anchor_x is not x0
        assert np.array_equal(est.anchor_mean, fg(x0))
        assert est.evals == 8


@pytest.mark.parametrize("kind", ["saga", "svrg", "sarah", "full"])
@pytest.mark.parametrize("period", [0, -3])
def test_period_below_one_is_rejected(kind, period):
    # k % -3 == 0 at multiples of 3, so a negative period would act as its absolute value
    with pytest.raises(ValueError, match="period must be at least 1"):
        make_estimator(kind, 8, 2, seed=0, period=period)
    default = 1 if kind == "full" else default_period(8, 2)
    assert make_estimator(kind, 8, 2, seed=0, period=None).period == default


@pytest.mark.parametrize("kind", ["saga", "svrg", "sarah", "full"])
@pytest.mark.parametrize("batch_size", [0, -2, 9])
def test_batch_outside_one_to_n_is_rejected(kind, batch_size):
    # "full" runs with batch N, but a bad --batch is still an error, not ignored
    with pytest.raises(ValueError, match="batch size must be in"):
        make_estimator(kind, 8, batch_size, seed=0)


@pytest.mark.parametrize("kind", ["saga", "svrg", "sarah", "full"])
def test_a_negative_seed_is_rejected_at_construction(kind):
    with pytest.raises(ValueError, match="seed and iteration index must be nonnegative"):
        make_estimator(kind, 10, 1, -1)


def test_unknown_kind():
    with pytest.raises(ValueError):
        make_estimator("spider", 8, 2, seed=0)


@pytest.mark.parametrize("kind", ["saga", "svrg"])
@pytest.mark.parametrize("batch_size", [1, 2])
def test_unbiasedness_by_batch_enumeration(quad_components, kind, batch_size):
    cg, fg = quad_components
    rng = np.random.default_rng(5)
    x = rng.standard_normal(3)
    est = make_estimator(kind, 8, batch_size, seed=0)
    est.reset(stacked(cg), fg).estimate(0, np.zeros(3))
    vals = [
        anchored_estimate(est, np.array(batch), x)
        for batch in itertools.combinations(range(8), batch_size)
    ]
    assert np.max(np.abs(np.mean(vals, axis=0) - fg(x))) <= 1e-12


def test_saga_full_table_gives_exact_gradient(quad_components):
    cg, fg = quad_components
    x = np.full(3, 0.25)
    est = make_estimator("saga", 8, 3, seed=0)
    est.reset(stacked(cg), fg).estimate(0, x)  # table entries equal the gradients at x
    g = anchored_estimate(est, np.array([1, 4, 6]), x)
    assert np.allclose(g, fg(x), atol=1e-12)


def test_svrg_snapshot_emits_exact_full_gradient(quad_components):
    cg, fg = quad_components
    est = make_estimator("svrg", 8, 2, seed=1)  # period 4
    est.reset(stacked(cg), fg)
    assert np.array_equal(est.estimate(0, np.zeros(3)), fg(np.zeros(3)))
    x4 = np.ones(3)
    assert np.array_equal(est.estimate(4, x4), fg(x4))


def test_sarah_restart_emits_exact_full_gradient(quad_components):
    cg, fg = quad_components
    est = make_estimator("sarah", 8, 2, seed=1)
    est.reset(stacked(cg), fg)
    assert np.array_equal(est.estimate(0, np.zeros(3)), fg(np.zeros(3)))
    x4 = -np.ones(3)
    assert np.array_equal(est.estimate(4, x4), fg(x4))


def test_sarah_recursion_formula(quad_components):
    cg, fg = quad_components
    est = make_estimator("sarah", 8, 2, seed=3)
    x0 = np.zeros(3)
    est.reset(stacked(cg), fg)
    g0 = est.estimate(0, x0)
    x1 = np.array([0.1, -0.2, 0.3])
    batch = sample_batch(3, 8, 2, 1)
    expect = np.mean([cg(i, x1) - cg(i, x0) for i in batch], axis=0) + g0
    got = est.estimate(1, x1)
    assert np.allclose(got, expect, atol=1e-15)


def test_saga_table_mean_invariant(quad_components):
    cg, fg = quad_components
    est = make_estimator("saga", 8, 2, seed=7)
    est.reset(stacked(cg), fg)
    rng = np.random.default_rng(0)
    x = np.zeros(3)
    for k in range(60):
        x = x + 0.1 * rng.standard_normal(3)
        est.estimate(k, x)
        assert np.max(np.abs(est.table.mean(axis=0) - est.anchor_mean)) <= 1e-12


def test_reset_restores_identical_stream(quad_components):
    cg, fg = quad_components
    xs = [np.full(3, 0.1 * k) for k in range(9)]

    def stream():
        est = make_estimator("saga", 8, 2, seed=4)
        est.reset(stacked(cg), fg)
        return [est.estimate(k, xs[k]) for k in range(9)]

    first, second = stream(), stream()
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_reset_then_first_estimates_are_full_gradients(quad_components):
    cg, fg = quad_components
    x0 = np.array([0.5, 0.5, 0.5])
    for kind in ("svrg", "sarah"):
        est = make_estimator(kind, 8, 2, seed=2)
        est.reset(stacked(cg), fg)
        assert np.array_equal(est.estimate(0, x0), fg(x0))


def test_full_kind_is_full_batch_svrg_with_period_one(quad_components):
    cg, fg = quad_components
    full = make_estimator("full", 8, 2, seed=5, period=3)
    svrg = make_estimator("svrg", 8, 8, seed=5, period=1)
    assert (full.batch_size, full.period) == (8, 1)
    xs = np.random.default_rng(9).standard_normal((12, 3))
    full.reset(stacked(cg), fg)
    svrg.reset(stacked(cg), fg)
    for k, x in enumerate(xs):
        got = full.estimate(k, x)
        assert np.array_equal(got, svrg.estimate(k, x))
        assert np.array_equal(got, fg(x))
        assert full.evals == svrg.evals == 8 * (k + 1)


def test_sarah_recursion_over_a_period(quad_components):
    cg, fg = quad_components
    est = make_estimator("sarah", 8, 2, seed=6, period=6)
    xs = np.random.default_rng(2).standard_normal((7, 3))
    est.reset(stacked(cg), fg)
    previous = est.estimate(0, xs[0])
    for k in range(1, 6):
        batch = sample_batch(6, 8, 2, k)
        expect = np.mean([cg(i, xs[k]) - cg(i, xs[k - 1]) for i in batch], axis=0) + previous
        previous = est.estimate(k, xs[k])
        np.testing.assert_allclose(previous, expect, rtol=0, atol=1e-14)
    assert np.array_equal(est.estimate(6, xs[6]), fg(xs[6]))


def test_full_estimator_is_exact(quad_components):
    cg, fg = quad_components
    est = make_estimator("full", 8, 2, seed=0)
    est.reset(stacked(cg), fg).estimate(0, np.zeros(3))
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(est.estimate(5, x), fg(x))


def test_eval_accounting(quad_components):
    cg, fg = quad_components
    est = make_estimator("svrg", 8, 2, seed=0)  # period 4
    est.reset(stacked(cg), fg)
    assert est.evals == 0
    est.estimate(0, np.zeros(3))
    assert est.evals == 8  # the snapshot is seeded at k = 0
    est.estimate(1, np.ones(3))
    assert est.evals == 8 + 4  # two fresh points per batch element
    est.estimate(4, np.ones(3))
    assert est.evals == 12 + 8  # refresh costs a full pass


def test_variance_decays_along_converging_run(quad_components):
    # mean squared estimator error over many batches shrinks as the
    # iterates settle (checkpoints of a geometric approach to x*)
    cg, fg = quad_components
    x_star = np.array([0.3, -0.1, 0.2])
    checkpoints = {10: None, 100: None, 1000: None}
    est = make_estimator("saga", 8, 2, seed=0)
    est.reset(stacked(cg), fg)
    for k in range(1001):
        x = x_star + (x_star - np.zeros(3)) * 0.99**k * np.array([1.0, -1.0, 0.5])
        est.estimate(k, x)
        if k in checkpoints:
            rng = np.random.default_rng(k)
            errs = []
            for _ in range(1000):
                batch = np.sort(rng.choice(8, size=2, replace=False))
                errs.append(
                    np.sum((anchored_estimate(est, batch, x) - fg(x)) ** 2)
                )
            checkpoints[k] = float(np.mean(errs))
    assert checkpoints[10] >= checkpoints[100] >= checkpoints[1000]


# --- batch blocks -----------------------------------------------------------


def drawn_batches(est):
    """Record, by k, every batch the estimator's own ``sample_batch`` hands out."""
    drawn = {}
    draw = est.sample_batch

    def record(k):
        drawn[k] = draw(k)
        return drawn[k]

    est.sample_batch = record
    return drawn


@pytest.mark.parametrize("kind, draws_at", [
    ("saga", list(range(10))),
    # the period-4 snapshots at k = 0, 4, 8 draw no batch
    ("svrg", [1, 2, 3, 5, 6, 7, 9]),
    ("sarah", [1, 2, 3, 5, 6, 7, 9]),
])
def test_estimates_draw_sample_batch_across_block_boundaries(quad_components, monkeypatch, kind,
                                                             draws_at):
    # blocks of 6 // 2 = 3 iterations: k = 0..9 crosses at least two boundaries
    monkeypatch.setattr(vrgrad, "BATCH_BLOCK_PICKS", 6)
    cg, fg = quad_components
    est = make_estimator(kind, 8, 2, seed=9, period=4)
    drawn = drawn_batches(est)
    est.reset(stacked(cg), fg)
    xs = np.random.default_rng(4).standard_normal((10, 3))
    for k, x in enumerate(xs):
        est.estimate(k, x)
    assert sorted(drawn) == draws_at
    for k, batch in drawn.items():
        assert np.array_equal(batch, sample_batch(9, 8, 2, k))


@pytest.mark.parametrize("n_components, batch_size, block, fills", [
    (50, 1, 4096, [5, 4101, 2]),
    (50, 3, 1365, [5, 1370, 2]),
    # a batch above BATCH_BLOCK_PICKS: every k is a block of its own
    (6000, 5000, 1, [5, 6, 5, 6, 2]),
])
def test_a_block_is_drawn_from_the_first_k_it_misses(monkeypatch, n_components, batch_size,
                                                     block, fills):
    drawn = []
    draw = vrgrad.sample_batches

    def counted(seed, n, b, k0, count):
        drawn.append((k0, count))
        return draw(seed, n, b, k0, count)

    monkeypatch.setattr(vrgrad, "sample_batches", counted)
    est = make_estimator("saga", n_components, batch_size, seed=3)
    # a first k off any multiple of the block, the last k of that block, the
    # first k past it, and a step back before the first
    for k in [5, 6, block + 4, block + 5, 2]:
        assert np.array_equal(est.sample_batch(k), sample_batch(3, n_components, batch_size, k))
    assert drawn == [(k0, block) for k0 in fills]
