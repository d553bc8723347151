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
    # the shared margin pass stays inside the two public full-sum oracles,
    # so each stochastic row still shows one span of each and costs 2 N evaluations
    tracer, result = _traced_run(kind)
    rows = sum(len(run.records) for run in result.per_seed)
    names = np.array(tracer.names)[np.frombuffer(tracer.name, dtype=np.int32)]
    parents = np.frombuffer(tracer.parent, dtype=np.int64)
    in_row = tracing._flag_descendants(names == "ppdg.make_record", parents)
    assert np.count_nonzero(in_row & (names == "problems.full_value")) == rows
    assert np.count_nonzero(in_row & (names == "problems.full_grad")) == rows
    metrics, _ = tracing.layer_metrics(tracer, 1, 12)
    assert metrics["sppdg.diag_evals"][0] == 2 * 12 * rows


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
