"""Span tracing of the dualprox layers, applied from outside the package.

``instrument(tracer)`` replaces the public callables of every dualprox
module (module functions, operator / regularizer / estimator methods,
and the callables of each problem the builders return) with wrappers
that record one span per call, and puts the originals back on exit.
A span is (name, start, end, parent span, run id). Spans stay in
memory in flat arrays until the benchmark writes them out at the end.

A span's self time is its duration minus the durations of its child
spans; calls are sequential on one thread, so children never overlap.
"""

import contextlib
import functools
import os
import time
from array import array
from collections import Counter

import numpy as np

from dualprox import conjprox, dataio, linops, ppdg, problems, sppdg, vrgrad

LAYERS = ("conjprox", "linops", "ppdg", "vrgrad", "sppdg", "problems", "dataio")
ROOT = "bench.pipeline"

# calls the stochastic loop makes for its per-iteration diagnostics
_SPPDG_DIAG = (
    "sppdg.lagrangian",
    "problems.full_value",
    "problems.full_grad",
    "conjprox.value_h",
    "conjprox.conj_value",
)
_PROBLEM_CALLABLES = (
    "f_value",
    "grad_f",
    "component_value",
    "component_grad",
    "full_value",
    "full_grad",
)


class Tracer:
    """In-memory span store plus counters recorded at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_id = 0
        self.counts = {}
        self.estimators = {}

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key, amount):
        counts = self.counts.setdefault(self.run_id, Counter())
        counts[key] += amount

    @contextlib.contextmanager
    def root(self, run_id):
        """Open the root span of one traced pipeline run."""
        self.run_id = run_id
        idx = self._open(self._intern(ROOT))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(result, args, kwargs)`` runs outside it."""
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def spans(self):
        """All spans as numpy arrays (name id, parent index, run id, start, end)."""
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.run, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def save(self, path):
        name, parent, run, start, end = self.spans()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, run=run,
                 start=start, end=end)


def _nbytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return getattr(getattr(value, "pixels", None), "nbytes", 0)


@contextlib.contextmanager
def instrument(tracer):
    """Wrap the public callables of every dualprox layer for the duration."""
    patched = []

    def patch(owner, attr, name, after=None):
        original = vars(owner)[attr]
        patched.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, after))

    def instrument_problem(problem, args, kwargs):
        for attr in _PROBLEM_CALLABLES:
            fn = getattr(problem, attr, None)
            if fn is not None:
                setattr(problem, attr, tracer.wrap(f"problems.{attr}", fn))

    def count_data(result, args, kwargs):
        tracer.count("problems.data_bytes", _nbytes(result))

    def count_trace_rows(result, args, kwargs):
        tracer.count("dataio.rows_written", len(args[1]))
        tracer.count("dataio.bytes_written", os.path.getsize(args[0]))

    def count_image(result, args, kwargs):
        tracer.count("dataio.bytes_written", os.path.getsize(args[0]))

    def count_prox(result, args, kwargs):
        # computed traffic: read v, write the result
        tracer.count("conjprox.prox_bytes", 2 * result.nbytes)

    def keep_estimator(result, args, kwargs):
        tracer.estimators.setdefault(tracer.run_id, []).append(args[0])

    try:
        for fn in ("blocks_image", "synthetic_fused_lasso_data", "build_precision_graph"):
            patch(problems, fn, f"problems.{fn}", count_data)
        for fn in ("build_denoise", "build_fused_lasso"):
            patch(problems, fn, f"problems.{fn}", instrument_problem)
        patch(problems, "psnr", "problems.psnr")
        patch(dataio, "add_gaussian_noise", "dataio.add_gaussian_noise")
        patch(dataio, "write_trace_csv", "dataio.write_trace_csv", count_trace_rows)
        patch(dataio, "write_pgm", "dataio.write_pgm", count_image)
        for fn in ("solve", "step", "make_record"):
            patch(ppdg, fn, f"ppdg.{fn}")
        for fn in ("solve_stochastic", "lagrangian"):
            patch(sppdg, fn, f"sppdg.{fn}")
        patch(vrgrad, "sample_batch", "vrgrad.sample_batch")
        patch(linops, "estimate_op_norm", "linops.estimate_op_norm")
        patch(linops.LinearOperator, "op_norm", "linops.op_norm")
        for cls in vars(linops).values():
            if isinstance(cls, type) and issubclass(cls, linops.LinearOperator):
                for method in ("apply", "apply_adjoint"):
                    if method in vars(cls):
                        patch(cls, method, f"linops.{method}")
        patch(conjprox.Regularizer, "prox_conj", "conjprox.prox_conj", count_prox)
        for method in ("conj_value", "value_h", "penalty_value"):
            patch(conjprox.Regularizer, method, f"conjprox.{method}")
        for cls in vars(vrgrad).values():
            if isinstance(cls, type) and issubclass(cls, vrgrad._EstimatorBase):
                if "reset" in vars(cls):
                    patch(cls, "reset", "vrgrad.reset", keep_estimator)
                if "estimate" in vars(cls):
                    patch(cls, "estimate", "vrgrad.estimate")
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _flag_descendants(flag, parent):
    """Propagate a per-span flag from each span to all its descendants."""
    has_parent = parent >= 0
    while True:
        inherited = flag.copy()
        inherited[has_parent] |= flag[parent[has_parent]]
        if np.array_equal(inherited, flag):
            return flag
        flag = inherited


def layer_metrics(tracer, run_id, n_components):
    """Per-layer metrics of one traced run as {name: (value, unit)}, and
    whether every span of the run lies inside its parent."""
    name, parent, run, start, end = tracer.spans()
    names = tracer.names
    dur = end - start
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    self_t = dur - child
    # spans of this run inside its root (not the untimed evaluation after it)
    mine = (run == run_id) & _flag_descendants(name == names.index(ROOT), parent)
    if not mine.any():
        raise RuntimeError(f"no spans recorded for traced run {run_id}")
    child_of = parent[mine]
    has_parent = child_of >= 0
    nested = (
        self_t[mine].min() >= -1e-9
        and np.all(start[mine][has_parent] >= start[child_of[has_parent]])
        and np.all(end[mine][has_parent] <= end[child_of[has_parent]])
    )

    def ids(*wanted):
        return np.array([names.index(w) for w in wanted if w in names], dtype=np.int32)

    def is_named(*wanted):
        return np.isin(name, ids(*wanted))

    under_estimator = _flag_descendants(is_named("vrgrad.reset", "vrgrad.estimate"), parent)
    under_solve = _flag_descendants(is_named("sppdg.solve_stochastic"), parent)
    diag = is_named(*_SPPDG_DIAG) & under_solve & ~under_estimator
    has_parent = parent >= 0
    parent_diag = np.zeros_like(diag)
    parent_diag[has_parent] = diag[parent[has_parent]]

    def calls(span_name, where=None):
        sel = mine & is_named(span_name)
        if where is not None:
            sel &= where
        return int(np.count_nonzero(sel))

    def total(*span_names):
        return float(dur[mine & is_named(*span_names)].sum())

    def self_of(*span_names):
        return float(self_t[mine & is_named(*span_names)].sum())

    full_sum_in_estimator = calls("problems.full_grad", under_estimator) + calls(
        "problems.full_value", under_estimator
    )
    comp_evals = calls("problems.component_grad", under_estimator) + (
        n_components * full_sum_in_estimator
    )
    diag_evals = n_components * (
        calls("problems.full_value", diag) + calls("problems.full_grad", diag)
    )
    counts = tracer.counts.get(run_id, Counter())
    solve_s = total("ppdg.solve")
    record_s = total("ppdg.make_record")
    metrics = {
        "conjprox.prox_calls": (calls("conjprox.prox_conj"), "count"),
        "conjprox.prox_s": (total("conjprox.prox_conj"), "s"),
        "conjprox.prox_bytes": (counts["conjprox.prox_bytes"], "B"),
        "conjprox.conj_value_s": (total("conjprox.conj_value"), "s"),
        "conjprox.value_h_s": (total("conjprox.value_h"), "s"),
        "linops.apply_calls": (calls("linops.apply"), "count"),
        "linops.apply_s": (total("linops.apply"), "s"),
        "linops.adjoint_calls": (calls("linops.apply_adjoint"), "count"),
        "linops.adjoint_s": (total("linops.apply_adjoint"), "s"),
        "linops.op_norm_s": (total("linops.op_norm"), "s"),
        "problems.build_s": (
            total("problems.build_denoise", "problems.build_fused_lasso",
                  "problems.build_precision_graph"),
            "s",
        ),
        "dataio.noise_s": (total("dataio.add_gaussian_noise"), "s"),
        "ppdg.step_s": (total("ppdg.step"), "s"),
        "ppdg.record_s": (record_s, "s"),
        "ppdg.diag_share": (record_s / solve_s if solve_s > 0 else 0.0, "ratio"),
        "problems.grad_f_s": (total("problems.grad_f"), "s"),
        "vrgrad.estimate_calls": (calls("vrgrad.estimate"), "count"),
        "vrgrad.estimate_self_s": (self_of("vrgrad.estimate"), "s"),
        "vrgrad.sample_batch_s": (total("vrgrad.sample_batch"), "s"),
        "vrgrad.reset_s": (total("vrgrad.reset"), "s"),
        "problems.component_grad_calls": (calls("problems.component_grad"), "count"),
        "problems.component_grad_s": (total("problems.component_grad"), "s"),
        "vrgrad.comp_evals": (comp_evals, "count"),
        "problems.full_grad_calls": (calls("problems.full_grad"), "count"),
        "problems.full_grad_s": (total("problems.full_grad"), "s"),
        "problems.full_value_calls": (calls("problems.full_value"), "count"),
        "problems.full_value_s": (total("problems.full_value"), "s"),
        "sppdg.diag_s": (float(dur[mine & diag & ~parent_diag].sum()), "s"),
        "sppdg.diag_evals": (diag_evals, "count"),
        "sppdg.useful_eval_ratio": (
            comp_evals / (comp_evals + diag_evals) if comp_evals + diag_evals else 0.0,
            "ratio",
        ),
        "dataio.write_s": (total("dataio.write_trace_csv", "dataio.write_pgm"), "s"),
        "dataio.bytes_written": (counts["dataio.bytes_written"], "B"),
        "dataio.rows_written": (counts["dataio.rows_written"], "count"),
        "vrgrad.state_mb": (
            max(
                (sum(v.nbytes for v in vars(est).values() if isinstance(v, np.ndarray))
                 for est in tracer.estimators.get(run_id, [])),
                default=0,
            ) / 1e6,
            "MB",
        ),
        "problems.data_mb": (counts["problems.data_bytes"] / 1e6, "MB"),
    }
    for layer in LAYERS:
        prefix = ids(*(n for n in names if n.startswith(layer + ".")))
        metrics[f"{layer}.self_s"] = (float(self_t[mine & np.isin(name, prefix)].sum()), "s")
    metrics["unattributed_s"] = (self_of(ROOT), "s")
    return metrics, bool(nested)
