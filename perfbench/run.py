"""dualprox benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload denoise-256 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory. One run: an untimed warm-up that is the
equivalent ``dualprox`` CLI call (its summary is the parity reference and
its peak resident size is ``peak_mem_mb``), then timed passes of the
workload pipeline until --seconds have gone by. With --trace 1, untraced
passes fill half the time and two traced passes follow. Human-readable
lines go first; the last line of stdout is the JSON result. Scratch
output goes to ``.perfbench_out/``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("denoise-256", "lasso-saga-b1", "lasso-svrg-b20")
# extra setup-only passes per timed pass, so setup_s is a median of many
SETUP_SAMPLES_PER_PASS = 3
# CLI summaries are printed with 17 significant digits, so a faithful
# pipeline reproduces them to the last bit; this only absorbs parsing
PARITY_RTOL = 1e-12

E2E_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "iters_per_s": "1/s",
    "peak_mem_mb": "MB",
    "objective_final": "1",
    "kkt_final": "1",
    "fail_rate": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def provenance(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
               if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def cli_warmup(cli, workload, seed, out_dir):
    """The equivalent CLI call: returns (exit code, summary dict)."""
    out_dir.mkdir(parents=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(workload.cli_argv(seed, out_dir))
    summary = {}
    if code == 0:
        for line in (out_dir / "summary.txt").read_text().splitlines():
            key, _, value = line.partition("=")
            summary[key] = value
    return code, summary


def parity_failures(workload, cli_summary, run):
    bad = []
    for key, kind in workload.parity_keys().items():
        if key not in cli_summary:
            bad.append(f"{key} missing from the CLI summary")
            continue
        want, got = kind(cli_summary[key]), run.summary[key]
        if kind is int:
            ok = want == got
        else:
            ok = abs(want - got) <= PARITY_RTOL * max(abs(want), 1e-300)
        if not ok:
            bad.append(f"{key}: cli {want!r} != pipeline {got!r}")
    return bad


def reference_failures(ref, run):
    """Solves outside the recorded reference band, as (index, reason)."""
    obj, kkt = ref["objective_final"], ref["kkt_tail"]
    lo = obj["reference"] * (1 - obj["rel_tol"])
    hi = obj["reference"] * (1 + obj["rel_tol"])
    kkt_max = kkt["reference"] * kkt["max_factor"]
    bad = []
    for i, s in enumerate(run.solves):
        if s.failed:
            bad.append((i, s.error or "failed"))
        elif not lo <= s.objective <= hi:
            bad.append((i, f"objective {s.objective!r} outside [{lo:.6g}, {hi:.6g}]"))
        elif not s.kkt_tail <= kkt_max:
            bad.append((i, f"tail kkt {s.kkt_tail!r} above {kkt_max:.6g}"))
    if "psnr_out" in ref:
        psnr_in, psnr_out = run.summary["psnr_in"], run.summary["psnr_out"]
        floor = ref["psnr_out"]["reference"] - ref["psnr_out"]["abs_tol"]
        if not psnr_out > psnr_in:
            bad.append((0, f"psnr_out {psnr_out!r} does not exceed psnr_in {psnr_in!r}"))
        elif not psnr_out >= floor:
            bad.append((0, f"psnr_out {psnr_out!r} below {floor:.6g}"))
    return bad


def same_outputs(a, b):
    return a.summary == b.summary and a.solves == b.solves


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "dualprox" / "__init__.py").is_file():
        print(f"perfbench: no dualprox sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One BLAS thread: on a small shared machine a threaded BLAS call stalls
    # whenever its second core is busy, which made setup_s swing tenfold.
    # Set before numpy loads; an explicit setting in the environment wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np
    from dualprox import cli
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    references = json.loads((HERE / "references.json").read_text())[workload.name]
    out_root = ROOT / ".perfbench_out" / workload.name
    shutil.rmtree(out_root, ignore_errors=True)
    pipeline_dir = out_root / "pipeline"
    pipeline_dir.mkdir(parents=True)
    prov = provenance(np)
    checks = {}

    code, cli_summary = cli_warmup(cli, workload, args.seed, out_root / "cli")
    # the warm-up is the first work this process does, so the high-water
    # mark is the peak resident size of one CLI run (ru_maxrss is in KiB)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    checks["cli exits 0"] = code == 0

    started = time.perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    runs, setup_samples = [], []
    while not runs or time.perf_counter() - started < budget:
        gc.collect()
        runs.append(workloads.run_pipeline(workload, args.seed, pipeline_dir))
        setup_samples.append(runs[-1].setup_s)
        for _ in range(SETUP_SAMPLES_PER_PASS):
            setup_samples.append(workloads.time_setup(workload, args.seed))

    traced = []
    tracer = tracing.Tracer()
    if args.trace:
        with tracing.instrument(tracer):
            for run_id in (1, 2):
                gc.collect()
                traced.append(workloads.run_pipeline(
                    workload, args.seed, pipeline_dir, span=tracer.root(run_id)))

    first = runs[0]
    parity = parity_failures(workload, cli_summary, first) if code == 0 else ["no CLI summary"]
    checks["pipeline reproduces the CLI summary"] = not parity
    checks["every pass gives identical outputs"] = all(
        same_outputs(first, r) for r in runs[1:] + traced
    )
    if isinstance(workload, workloads.Lasso):
        iters, evals = workload.budget()
        checks["iterations and comp_evals match the epoch budget"] = all(
            s.iters == iters and s.comp_evals == evals for s in first.solves)

    attempted = sum(len(r.solves) for r in runs + traced)
    failed_solves = set()
    for n, r in enumerate(runs + traced):
        for i, reason in reference_failures(references, r):
            failed_solves.add((n, i))
            print(f"failed solve (pass {n}, solve {i}): {reason}")
    failed = len(failed_solves)

    metrics = {}
    if args.trace:
        n = getattr(workload, "n_rows", 0)
        (m1, nested1), (m2, nested2) = (
            tracing.layer_metrics(tracer, run_id, n) for run_id in (1, 2))
        checks["spans nest inside their parents"] = nested1 and nested2
        counts = [k for k, (_, unit) in m1.items() if unit == "count"]
        checks["counts repeat exactly across traced passes"] = all(
            m1[k][0] == m2[k][0] for k in counts
        )
        for k, (v1, unit) in m1.items():
            metrics[k] = (v1 if unit == "count" else (v1 + m2[k][0]) / 2, unit)
        if isinstance(workload, workloads.Lasso):
            checks["vrgrad.comp_evals matches the estimators and the budget"] = (
                m1["vrgrad.comp_evals"][0] == sum(s.comp_evals for s in first.solves)
                == len(first.solves) * workload.budget()[1]
            )
        traced_run_s = statistics.mean(r.run_s for r in traced)
        parts = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
        residual = parts + metrics["unattributed_s"][0] - traced_run_s
        checks["layer self times + unattributed_s add up to traced run_s"] = (
            abs(residual) <= 2e-3 + 1e-3 * traced_run_s
        )
        metrics["traced_run_s"] = (traced_run_s, "s")
        metrics["trace_overhead"] = (
            traced_run_s / statistics.median(r.run_s for r in runs) - 1.0, "ratio")
        tracer.save(out_root / "spans.npz")
    else:
        ok = [s for s in first.solves if not s.failed]
        metrics = {
            "run_s": statistics.median(r.run_s for r in runs),
            "setup_s": statistics.median(setup_samples),
            "solve_s": statistics.median(r.solve_s for r in runs),
            "iters_per_s": statistics.median(
                sum(s.iters for s in r.solves) / r.solve_s for r in runs),
            "peak_mem_mb": peak_mb,
            "objective_final": statistics.mean(s.objective for s in ok) if ok else float("nan"),
            "kkt_final": statistics.mean(s.kkt for s in ok) if ok else float("nan"),
            "fail_rate": failed / attempted,
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}

    correct = all(checks.values()) and failed == 0
    header = f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    print(header)
    print("provenance: " + json.dumps(prov))
    print(f"passes: {len(runs)} timed" + (f", {len(traced)} traced" if traced else ""))
    if not args.trace:
        for label, values in (("run_s", [r.run_s for r in runs]), ("setup_s", setup_samples)):
            q1, q2, q3 = quartiles(values)
            print(f"  {label} over {len(values)} samples: q1={q1:.6g} median={q2:.6g} q3={q3:.6g}")
    for k, (v, unit) in metrics.items():
        print(f"{k:32s} {v:>16.8g} {unit}")
    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for line in parity:
        print(f"parity: {line}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    record = {"header": header, "provenance": prov, "checks": checks,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "run_s": [r.run_s for r in runs], "setup_s": setup_samples, "result": result}
    (out_root / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
