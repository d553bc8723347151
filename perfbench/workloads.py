"""The benchmark workloads, run through the public dualprox API.

Each workload mirrors one `dualprox` subcommand call for call: generate
the data, build the problem, solve, then write the trace CSVs and the
summary. `cli_argv` gives the equivalent command line, whose summary
the pipeline must reproduce. Every dualprox callable is looked up on
its module at call time, so `tracing.instrument` sees each call.
"""

import contextlib
import time
from dataclasses import dataclass

import numpy as np

from dualprox import dataio, ppdg, problems, sppdg


@dataclass
class Solve:
    """Outcome of one solve (one seed of a multi-seed run)."""

    iters: int
    objective: float  # finite penalized objective, indicator dropped
    kkt: float  # max(kkt_x, kkt_y) at the last iterate
    kkt_tail: float  # median of max(kkt_x, kkt_y) over the last tenth of the trace
    comp_evals: int = 0  # the estimator's own count at the end
    failed: bool = False
    error: str = ""


@dataclass
class PipelineRun:
    setup_s: float
    solve_s: float
    run_s: float
    solves: list
    summary: dict  # values the CLI summary also reports


def _mean(values):
    return float(np.mean(values)) if values else float("nan")


def tail_kkt(records):
    """Median of max(kkt_x, kkt_y) over the last tenth of a solve's trace.

    The last-iterate residual of the stochastic solves is heavy-tailed:
    with the nonconvex lp penalty the dual iterate jumps away and back
    within one iteration on a few percent of the late iterations, and
    the last iterate sometimes lands on such a jump. The median over
    the tail of the trace is what the reference band checks.
    """
    if not records:
        return float("nan")
    tail = records[-max(1, len(records) // 10):]
    return float(np.median([max(r.kkt_x, r.kkt_y) for r in tail]))


def _write_summary(path, pairs):
    with open(path, "w", newline="") as fh:
        for key, value in pairs:
            fh.write(f"{key}={value}\n")


def run_pipeline(workload, seed, out_dir, span=contextlib.nullcontext()):
    """One timed pass (setup, solve, outputs) inside ``span``, then the
    untimed evaluation of its solves. Returns a PipelineRun."""
    with span:
        t0 = time.perf_counter()
        state = workload.setup(seed)
        t1 = time.perf_counter()
        workload.solve(state, seed)
        t2 = time.perf_counter()
        summary = workload.write(state, out_dir)
        t3 = time.perf_counter()
    return PipelineRun(
        setup_s=t1 - t0,
        solve_s=t2 - t1,
        run_s=t3 - t0,
        solves=workload.solves(state),
        summary=summary,
    )


def time_setup(workload, seed):
    t0 = time.perf_counter()
    workload.setup(seed)
    return time.perf_counter() - t0


class Denoise:
    """`dualprox denoise --synthetic HxW` on the blocks image."""

    height = width = 256
    sigma = 0.05
    lam, c1, c2 = 0.1, -1.0, 1.0
    boundary = "periodic"
    # the 1e-8 step tolerance is never met within this many iterations,
    # so every seed does the same work
    max_iters = 600
    tol = 1e-8

    def __init__(self, name):
        self.name = name

    def cli_argv(self, seed, out_dir):
        return [
            "denoise", "--synthetic", f"{self.height}x{self.width}",
            "--sigma", repr(self.sigma), "--seed", str(seed),
            "--lam", repr(self.lam), "--c1", repr(self.c1), "--c2", repr(self.c2),
            "--boundary", self.boundary, "--max-iters", str(self.max_iters),
            "--tol", repr(self.tol), "--out-dir", str(out_dir),
        ]

    def parity_keys(self):
        return {"psnr_in": float, "psnr_out": float, "iters": int}

    def setup(self, seed):
        original = problems.blocks_image(self.height, self.width)
        noisy = dataio.add_gaussian_noise(original, self.sigma, seed)
        psnr_in = problems.psnr(noisy.pixels, original.pixels, noisy.height, noisy.width)
        problem = problems.build_denoise(
            noisy, lam=self.lam, c1=self.c1, c2=self.c2, boundary=self.boundary
        )
        problem.operator.op_norm()
        return {"original": original, "noisy": noisy, "psnr_in": psnr_in, "problem": problem}

    def solve(self, state, seed):
        problem = state["problem"]
        config = ppdg.PpdgConfig(
            alpha=ppdg.default_alpha(problem.lipschitz_L),
            max_iters=self.max_iters,
            tol_step=self.tol,
            preconditioner="scalar_beta",
        )
        records = []
        state["records"] = records
        try:
            state["report"] = ppdg.solve(problem, config, trace_sink=records.append)
        except ppdg.SolverDivergence as exc:
            state["report"], state["error"] = None, str(exc)

    def write(self, state, out_dir):
        noisy, report = state["noisy"], state["report"]
        if report is None:
            return {"psnr_in": state["psnr_in"], "psnr_out": float("nan"), "iters": 0}
        denoised = dataio.ImageBuffer(noisy.height, noisy.width, np.clip(report.x, 0.0, 1.0))
        psnr_out = problems.psnr(
            report.x, state["original"].pixels, noisy.height, noisy.width
        )
        dataio.write_trace_csv(
            out_dir / "trace.csv", state["records"], fieldnames=ppdg.TRACE_FIELDS,
            comment=f"perfbench {self.name}",
        )
        dataio.write_pgm(out_dir / "noisy.pgm", noisy)
        dataio.write_pgm(out_dir / "denoised.pgm", denoised)
        summary = {"psnr_in": state["psnr_in"], "psnr_out": psnr_out, "iters": report.iters}
        _write_summary(
            out_dir / "summary.txt",
            [("psnr_in", f"{state['psnr_in']:.17g}"), ("psnr_out", f"{psnr_out:.17g}"),
             ("iters", report.iters), ("reason", report.reason)],
        )
        return summary

    def solves(self, state):
        problem, report = state["problem"], state["report"]
        if report is None:
            return [Solve(0, float("nan"), float("nan"), float("nan"), failed=True,
                          error=state["error"])]
        x = report.x
        objective = problem.f_value(x) + problem.regularizer.penalty_value(
            problem.operator.apply(x)
        )
        finite = bool(np.all(np.isfinite(x)) and np.all(np.isfinite(report.y)))
        return [Solve(report.iters, float(objective), max(report.kkt_x, report.kkt_y),
                      tail_kkt(state["records"]), failed=not finite, error="" if finite else "non-finite iterate")]


class Lasso:
    """`dualprox lasso --synthetic N,n` with one estimator, two solver seeds."""

    lam, p, r = 1e-4, 0.5, 1.0
    threshold = 0.5

    def __init__(self, name, n_rows, n_features, estimator, batch, max_epochs, period=None):
        self.name = name
        self.n_rows = n_rows
        self.n_features = n_features
        self.estimator = estimator
        self.batch = batch
        self.max_epochs = max_epochs
        self.period = period

    def solver_seeds(self, seed):
        return (2 * seed, 2 * seed + 1)

    def cli_argv(self, seed, out_dir):
        argv = [
            "lasso", "--synthetic", f"{self.n_rows},{self.n_features}",
            "--data-seed", str(seed), "--estimator", self.estimator,
            "--seeds", ",".join(str(s) for s in self.solver_seeds(seed)),
            "--batch", str(self.batch), "--max-epochs", str(self.max_epochs),
            "--lam", repr(self.lam), "--p", repr(self.p), "--r", repr(self.r),
            "--threshold", repr(self.threshold), "--out-dir", str(out_dir),
        ]
        if self.period:
            argv += ["--period", str(self.period)]
        return argv

    def parity_keys(self):
        return {
            "seeds_ok": int,
            "mean_final_penalized_objective": float,
            "mean_final_kkt_x": float,
            "mean_final_kkt_y": float,
        }

    def setup(self, seed):
        rows, labels = problems.synthetic_fused_lasso_data(self.n_rows, self.n_features, seed=seed)
        V = problems.build_precision_graph(rows, threshold=self.threshold)
        problem = problems.build_fused_lasso(rows, labels, V, lam=self.lam, p=self.p, r=self.r)
        problem.operator.op_norm()
        return {"problem": problem}

    def solve(self, state, seed):
        config = sppdg.SppdgConfig(max_epochs=self.max_epochs, seeds=self.solver_seeds(seed))
        state["result"] = sppdg.solve_stochastic(
            state["problem"], self.estimator, config, batch_size=self.batch, period=self.period
        )

    def write(self, state, out_dir):
        problem, result = state["problem"], state["result"]
        for run in result.per_seed:
            dataio.write_trace_csv(
                out_dir / f"seed_{run.seed}_trace.csv", run.records,
                fieldnames=ppdg.TRACE_FIELDS, comment=f"perfbench {self.name}",
            )
        dataio.write_trace_csv(
            out_dir / "aggregate.csv", result.aggregate,
            fieldnames=sppdg.AGGREGATE_FIELDS, comment=f"perfbench {self.name}",
        )
        survivors = [r for r in result.per_seed if not r.failed]
        reg, op = problem.regularizer, problem.operator
        penalized = [
            problem.full_value(r.report.x) + reg.penalty_value(op.apply(r.report.x))
            for r in survivors
        ]
        state["penalized"] = penalized
        summary = {
            "seeds_ok": len(survivors),
            "mean_final_penalized_objective": _mean(penalized),
            "mean_final_kkt_x": _mean([r.report.kkt_x for r in survivors]),
            "mean_final_kkt_y": _mean([r.report.kkt_y for r in survivors]),
        }
        _write_summary(
            out_dir / "summary.txt",
            [("estimator", self.estimator), ("batch", self.batch)]
            + [(k, v if isinstance(v, int) else f"{v:.17g}") for k, v in summary.items()],
        )
        return summary

    def solves(self, state):
        out = []
        penalized = iter(state["penalized"])
        for run in state["result"].per_seed:
            if run.failed:
                out.append(Solve(0, float("nan"), float("nan"), float("nan"), failed=True,
                                 error=run.error))
                continue
            rep = run.report
            finite = bool(np.all(np.isfinite(rep.x)) and np.all(np.isfinite(rep.y)))
            out.append(Solve(rep.iters, float(next(penalized)), max(rep.kkt_x, rep.kkt_y),
                             tail_kkt(run.records), comp_evals=run.comp_evals[-1] if run.comp_evals else 0,
                             failed=not finite, error="" if finite else "non-finite iterate"))
        return out

    def budget(self):
        """(iterations, component-gradient evaluations) of one seed, by the
        epoch-budget rule: stop once the estimator has spent max_epochs * N."""
        n, b = self.n_rows, self.batch
        period = self.period or -(-n // b)

        def cost(k):
            if self.estimator == "saga":
                return b
            if self.estimator == "svrg":
                return 0 if k == 0 else (n if k % period == 0 else 2 * b)
            raise ValueError(f"no budget rule for {self.estimator}")

        evals, k = n + cost(0), 0
        while evals < self.max_epochs * n:
            k += 1
            evals += cost(k)
        return k, evals


WORKLOADS = {
    w.name: w
    for w in (
        Denoise("denoise-256"),
        Lasso("lasso-saga-b1", 2000, 40, "saga", batch=1, max_epochs=5),
        Lasso("lasso-svrg-b20", 20000, 200, "svrg", batch=20, max_epochs=3, period=200),
    )
}
