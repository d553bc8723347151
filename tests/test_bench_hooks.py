"""The benchmark's span tracing still hooks the solver layers, and its
workloads still run against the public API.

``perfbench/tracing.py`` patches dualprox callables from outside the
package. A renamed or dropped callable, or an estimator method that calls
its parent's, breaks the traced benchmark runs without failing any
solver test; these tests catch that. ``perfbench/workloads.py`` passes
config fields and keywords of its own, so its pipelines are run here on
tiny instances.
"""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from dualprox import conjprox, dataio, linops, ppdg, problems, sppdg, vrgrad

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1)


def _attributes():
    """Every module attribute and class attribute of the traced modules."""
    found = {}
    for module in (conjprox, dataio, linops, ppdg, problems, sppdg, vrgrad):
        for name, value in vars(module).items():
            found[(module, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    found[(value, attr)] = member
    return found


def _traced_run(kind):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer), tracer.root(1):
        rows, labels = problems.synthetic_fused_lasso_data(12, 4, seed=2)
        V = problems.build_precision_graph(rows, threshold=0.5)
        problem = problems.build_fused_lasso(rows, labels, V, normalize_rows=True)
        config = sppdg.SppdgConfig(max_epochs=3, seeds=SEEDS)
        result = sppdg.solve_stochastic(problem, kind, config, batch_size=2)
    return tracer, result


@pytest.mark.parametrize("kind", ["saga", "svrg", "sarah", "full"])
def test_one_span_per_estimator_call(kind):
    tracer, result = _traced_run(kind)
    assert all(not run.failed for run in result.per_seed)
    names = np.array(tracer.names)[np.frombuffer(tracer.name, dtype=np.int32)]
    # one estimate at k = 0, then one per recorded step
    calls = sum(len(run.records) + 1 for run in result.per_seed)
    assert np.count_nonzero(names == "vrgrad.estimate") == calls
    assert np.count_nonzero(names == "vrgrad.reset") == len(SEEDS)
    metrics, nested = tracing.layer_metrics(tracer, 1, 12)
    assert nested
    assert metrics["vrgrad.estimate_calls"][0] == calls
    assert metrics["vrgrad.comp_evals"][0] == sum(run.comp_evals[-1] for run in result.per_seed)


@pytest.mark.parametrize("kind", ["saga", "svrg", "sarah", "full"])
def test_one_full_value_and_full_grad_span_per_row(kind):
    # The rows' full sums run in one problem.full_sums call per batch of rows,
    # which the tracer does not wrap, so sppdg.diag_evals, sppdg.diag_s and
    # ppdg.record_s leave them out. What the tracer sees: one ppdg.make_record
    # span per row, and every gate the traced benchmark checks.
    tracer = tracing.Tracer()
    results = []
    with tracing.instrument(tracer):
        for run_id in (1, 2):
            with tracer.root(run_id):
                rows, labels = problems.synthetic_fused_lasso_data(12, 4, seed=2)
                V = problems.build_precision_graph(rows, threshold=0.5)
                problem = problems.build_fused_lasso(rows, labels, V, normalize_rows=True)
                config = sppdg.SppdgConfig(max_epochs=3, seeds=SEEDS)
                results.append(sppdg.solve_stochastic(problem, kind, config, batch_size=2))
    name, parent, run, start, end = tracer.spans()
    names = np.array(tracer.names)[name]
    (m1, nested1), (m2, nested2) = (tracing.layer_metrics(tracer, r, 12) for r in (1, 2))
    for run_id, result, metrics in ((1, results[0], m1), (2, results[1], m2)):
        rows = sum(len(seed_run.records) for seed_run in result.per_seed)
        assert np.count_nonzero((run == run_id) & (names == "ppdg.make_record")) == rows
        assert metrics["vrgrad.comp_evals"][0] == sum(r.comp_evals[-1] for r in result.per_seed)
        root = (run == run_id) & (names == tracing.ROOT)
        parts = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
        assert abs(parts + metrics["unattributed_s"][0] - float((end - start)[root][0])) <= 2e-3
    assert nested1 and nested2
    assert all(m1[k][0] == m2[k][0] for k, (_, unit) in m1.items() if unit == "count")


def test_a_fanned_out_full_sums_keeps_the_spans_nested(fan_out):
    # The tracer keeps one span stack, so the helper threads that share a
    # full_sums call's row blocks must call nothing it wraps.
    fan_out(2)
    n_rows = 3 * problems.BLOCK_ROWS + 5
    tracer = tracing.Tracer()
    open_span, opened_on = tracer._open, set()

    def open_and_note_the_thread(name_id):
        opened_on.add(threading.get_ident())
        return open_span(name_id)

    tracer._open = open_and_note_the_thread
    results = []
    with tracing.instrument(tracer):
        for run_id in (1, 2):
            with tracer.root(run_id):
                rows, labels = problems.synthetic_fused_lasso_data(n_rows, 4, seed=2)
                V = problems.build_precision_graph(rows, threshold=0.5)
                problem = problems.build_fused_lasso(rows, labels, V, normalize_rows=True)
                config = sppdg.SppdgConfig(max_epochs=2, seeds=SEEDS)
                results.append(sppdg.solve_stochastic(problem, "svrg", config, batch_size=64))
    assert problems._pool is not None
    assert opened_on == {threading.get_ident()}
    (m1, nested1), (m2, nested2) = (tracing.layer_metrics(tracer, r, n_rows) for r in (1, 2))
    assert nested1 and nested2
    assert all(m1[k][0] == m2[k][0] for k, (_, unit) in m1.items() if unit == "count")
    for result, metrics in zip(results, (m1, m2)):
        assert all(not run.failed for run in result.per_seed)
        assert metrics["vrgrad.comp_evals"][0] == sum(r.comp_evals[-1] for r in result.per_seed)


def test_instrument_restores_every_attribute():
    before = _attributes()
    with tracing.instrument(tracing.Tracer()):
        during = _attributes()
    after = _attributes()
    patched = [key for key, value in before.items() if during.get(key) is not value]
    assert (vrgrad.SvrgEstimator, "estimate") in patched
    assert (sppdg, "lagrangian") in patched
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _tiny_denoise():
    workload = workloads.Denoise("tiny-denoise")
    workload.height = workload.width = 8
    workload.max_iters = 20
    return workload


@pytest.mark.parametrize("workload", [
    _tiny_denoise(),
    workloads.Lasso("tiny-saga", 40, 4, "saga", batch=2, max_epochs=2),
    workloads.Lasso("tiny-svrg", 40, 4, "svrg", batch=2, max_epochs=2, period=5),
], ids=lambda w: w.name)
def test_workload_pipelines_run_on_tiny_instances(tmp_path, workload):
    # the benchmark calls the solvers with the config fields and keywords
    # it names (such as preconditioner), so dropping one fails here too
    run = workloads.run_pipeline(workload, 3, tmp_path)
    assert run.solves and not any(s.failed for s in run.solves)
    if isinstance(workload, workloads.Lasso):
        iters, evals = workload.budget()
        assert all((s.iters, s.comp_evals) == (iters, evals) for s in run.solves)
    else:
        assert run.solves[0].iters == workload.max_iters
