"""The fused lasso's full_sums shares its row blocks with helper threads.

A large call under a one-thread BLAS splits its blocks between the
caller and a pool of usable cores - 1 threads, and adds the blocks'
sums in ascending order, so its output is the one-thread loop's
(``sequential_full_sums`` in conftest) byte for byte. Small calls, and
calls under a threaded BLAS, run inline and start no thread.
"""

import collections
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import sequential_full_sums
from dualprox import problems, sppdg

BLOCK = problems.BLOCK_ROWS
SRC = str(Path(__file__).resolve().parents[1] / "src")
N_FEATURES = 6


def lasso(n_rows, n_features=N_FEATURES, seed=3):
    rows, labels = problems.synthetic_fused_lasso_data(n_rows, n_features, seed=seed)
    return problems.build_fused_lasso(rows, labels, np.zeros((n_features, n_features)))


def points(k, n_features=N_FEATURES, seed=0):
    return 0.7 * np.random.default_rng(seed).standard_normal((k, n_features))


@pytest.fixture
def fresh_helper_count():
    """Let _fanout_helpers read the environment again, here and after the test."""
    problems._fanout_helpers.cache_clear()
    yield
    problems._fanout_helpers.cache_clear()


@pytest.mark.parametrize("helpers", [1, 2, 3])
@pytest.mark.parametrize("n_rows", [1, BLOCK, BLOCK + 37, 5 * BLOCK + 1])
def test_a_split_call_equals_the_one_thread_loop_byte_for_byte(fan_out, helpers, n_rows):
    fan_out(helpers)
    prob = lasso(n_rows)
    for k in (1, 5, sppdg.ROW_BATCH):
        xs = points(k, seed=k)
        want = sequential_full_sums(prob, xs)
        for _ in range(3):
            values, grads = prob.full_sums(xs)
            assert values.tobytes() == want[0].tobytes()
            assert grads.tobytes() == want[1].tobytes()
    # only a call with two blocks or more makes the pool
    assert (problems._pool is not None) == (n_rows > BLOCK)


def _no_thread_starts(prob, xs):
    threads = threading.active_count()
    want = sequential_full_sums(prob, xs)
    values, grads = prob.full_sums(xs)
    assert values.tobytes() == want[0].tobytes() and grads.tobytes() == want[1].tobytes()
    assert problems._pool is None
    assert threading.active_count() == threads


def test_a_one_block_call_runs_inline(fan_out):
    fan_out(3)
    _no_thread_starts(lasso(BLOCK), points(sppdg.ROW_BATCH))


def test_a_call_at_or_below_the_work_floor_runs_inline(fan_out):
    fan_out(3, min_work=problems.FANOUT_MIN_WORK)
    n_rows = 3 * BLOCK
    k = problems.FANOUT_MIN_WORK // (n_rows * N_FEATURES)
    assert k * n_rows * N_FEATURES <= problems.FANOUT_MIN_WORK
    _no_thread_starts(lasso(n_rows), points(k))


def test_a_call_under_a_threaded_blas_runs_inline(monkeypatch, fresh_helper_count):
    monkeypatch.setattr(problems, "_pool", None)
    monkeypatch.setattr(problems, "_usable_cores", lambda: 4)
    monkeypatch.setattr(problems, "FANOUT_MIN_WORK", 0)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert problems._fanout_helpers() == 0
    _no_thread_starts(lasso(3 * BLOCK), points(sppdg.ROW_BATCH))


@pytest.mark.parametrize("openblas, omp, cores, helpers", [
    ("1", None, 4, 3),
    (None, "1", 4, 3),
    ("1", "4", 2, 1),
    ("2", "1", 4, 0),  # OPENBLAS_NUM_THREADS wins
    (None, None, 4, 0),  # unset: one BLAS thread per core
    ("0", None, 4, 0),
    ("one", None, 4, 0),
    ("1", None, 1, 0),
])
def test_helper_count_reads_the_blas_thread_setting(monkeypatch, fresh_helper_count,
                                                    openblas, omp, cores, helpers):
    for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    monkeypatch.setattr(problems, "_usable_cores", lambda: cores)
    assert problems._fanout_helpers() == helpers
    # read once: a later change of the environment is not seen
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1" if helpers == 0 else "8")
    assert problems._fanout_helpers() == helpers


def _inf_problem(n_rows):
    """A lasso whose first column holds zeros, and a point with x_0 = inf."""
    prob = lasso(n_rows)
    prob.rows[::5, 0] = 0.0
    xs = points(4)
    xs[2, 0] = np.inf
    return prob, xs


@pytest.mark.parametrize("n_rows", [BLOCK, 6 * BLOCK + 3])
def test_inf_times_zero_raises_under_errstate_raise(fan_out, n_rows):
    # xs @ rows.T meets inf * 0 in every block
    fan_out(2)
    prob, xs = _inf_problem(n_rows)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        prob.full_sums(xs)
    assert (problems._pool is not None) == (n_rows > BLOCK)


@pytest.mark.parametrize("n_rows", [BLOCK, 6 * BLOCK + 3])
def test_inf_times_zero_warns_nothing_under_errstate_ignore(fan_out, n_rows):
    fan_out(2)
    prob, xs = _inf_problem(n_rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(invalid="ignore"):
            values, grads = prob.full_sums(xs)
    assert caught == []
    assert np.isnan(values[2]) and np.all(np.isfinite(np.delete(values, 2)))
    with np.errstate(invalid="ignore"):
        want = sequential_full_sums(prob, xs)
    assert values.tobytes() == want[0].tobytes() and grads.tobytes() == want[1].tobytes()


def _on_a_helper():
    return threading.current_thread().name.startswith("full_sums")


def _leave_a_helper_a_block(helper_started):
    """In the caller, wait until a helper has taken a block; in a helper, say so."""
    if _on_a_helper():
        helper_started.set()
    else:
        assert helper_started.wait(10)


def _within(seconds, fn):
    """Run fn() on a thread of its own, which must end in time; its exception or None."""
    raised = []

    def call():
        try:
            fn()
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no return within {seconds} s"
    return raised[0] if raised else None


def test_helpers_run_under_the_callers_errstate(fan_out):
    fan_out(2)
    helper_started, seen, added = threading.Event(), {}, []

    def block_sum(i):
        _leave_a_helper_a_block(helper_started)
        seen[i] = (_on_a_helper(), np.geterr())
        return i

    def call():
        with np.errstate(over="ignore", invalid="raise"):
            problems._sum_blocks(block_sum, added.append, 8, 2)

    assert _within(20, call) is None
    assert added == list(range(8))
    assert any(on_helper for on_helper, _ in seen.values())
    assert all((err["over"], err["invalid"]) == ("ignore", "raise") for _, err in seen.values())


def test_a_helpers_exception_is_raised_in_the_caller_in_block_order(fan_out):
    fan_out(1)
    helper_started, summed, added = threading.Event(), [], []

    def block_sum(i):
        summed.append(i)
        _leave_a_helper_a_block(helper_started)
        if _on_a_helper():
            raise ValueError(f"block {i}")
        return i

    exc = _within(20, lambda: problems._sum_blocks(block_sum, added.append, 50, 1))
    assert isinstance(exc, ValueError), exc
    failed = int(re.search(r"\d+", str(exc)).group())
    # every block before the failing one is added, and none after it
    assert added == list(range(failed))
    # once a block has failed, no thread claims another one
    assert len(summed) <= failed + 3


def test_every_block_is_summed_once_under_contention(fan_out):
    # more helpers than cores and a short switch interval: a lost update of
    # the claim counter would sum a block twice or skip one
    fan_out(6)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            counts, lock, added = collections.Counter(), threading.Lock(), []

            def block_sum(i):
                with lock:
                    counts[i] += 1
                return i

            assert _within(20, lambda: problems._sum_blocks(block_sum, added.append, 40, 6)) is None
            assert added == list(range(40))
            assert set(counts.values()) == {1} and len(counts) == 40
    finally:
        sys.setswitchinterval(switch)


FANNED_OUT_CLI = """
import sys
from dualprox import cli, problems
problems._usable_cores = lambda: 3
problems.FANOUT_MIN_WORK = 0
code = cli.main(sys.argv[1:])
print("pool" if problems._pool is not None else "no pool")
sys.exit(code)
"""


def test_a_cli_run_that_fans_out_exits_promptly(tmp_path):
    # the pool's idle helpers must not keep the interpreter alive
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    argv = ["lasso", "--synthetic", f"{2 * BLOCK + 9},8", "--estimator", "svrg", "--batch", "16",
            "--max-epochs", "2", "--seeds", "1", "--out-dir", str(tmp_path / "out")]
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", FANNED_OUT_CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "pool"
    assert time.monotonic() - start < 30


FORKED_CHILD = """
import os, threading
import numpy as np
from dualprox import problems
problems._fanout_helpers = lambda: 2
problems.FANOUT_MIN_WORK = 0
rows, labels = problems.synthetic_fused_lasso_data(3 * problems.BLOCK_ROWS, 4, seed=1)
prob = problems.build_fused_lasso(rows, labels, np.zeros((4, 4)))
xs = np.full((3, 4), 0.1)
want = prob.full_sums(xs)
parents_pool = problems._pool
pid = os.fork()
if pid == 0:
    got = prob.full_sums(xs)
    same = all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    own_pool = problems._pool is not None and problems._pool is not parents_pool
    os._exit(0 if same and own_pool and threading.active_count() > 1 else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_fans_out_through_a_pool_of_its_own():
    # the parent's helper threads do not exist in the child
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FORKED_CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
