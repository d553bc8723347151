"""Command line: the denoise, lasso, prox-check and spectra subcommands.

Every run is deterministic given its flags (wall-clock columns aside);
trace CSVs open with a `#` comment echoing the full flag vector so the
files are self-describing. Exit codes: 0 success, 1 runtime or solver
error, 2 usage error.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import conjprox, dataio, linops, ppdg, problems, sppdg
from .sppdg import AGGREGATE_FIELDS
from .ppdg import TRACE_FIELDS

__all__ = ["main", "build_parser"]

PROX_CHECK_POINTS = 1000
PROX_CHECK_BETAS = (0.1, 1.0, 10.0)
PROX_CHECK_TOL = 5e-4


class UsageError(Exception):
    pass


def _flag_echo(args):
    """Every parsed flag but the output directory, in the parser's order."""
    return " ".join(
        f"{name}={value}" for name, value in vars(args).items()
        if name not in ("command", "func", "out_dir")
    )


def _check_out_dir(out_dir):
    """Fail before any work when ``out_dir`` cannot be made; creates nothing."""
    path = Path(out_dir).absolute()
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out-dir {out_dir}: {existing} is not a directory")


def _write_summary(path, pairs):
    with open(path, "w", newline="") as fh:
        for key, value in pairs:
            fh.write(f"{key}={value}\n")


def _parse_synthetic(text, sep, form):
    """The two integers of ``text`` around ``sep``; a UsageError naming ``form`` otherwise."""
    try:
        first, second = text.lower().split(sep)
        return int(first), int(second)
    except ValueError:
        raise UsageError(f"--synthetic expects {form} got {text!r}") from None


def _parse_seeds(text):
    parts = [p.strip() for p in text.split(",")]
    seeds = tuple(int(p) for p in parts if p.isdecimal())
    if len(parts) == 1 and seeds:
        try:
            seeds = tuple(range(seeds[0]))
        except OverflowError:  # a count past sys.maxsize
            seeds = ()
    if not seeds or len(seeds) < len(parts):
        raise UsageError(f"--seeds expects a positive count or a comma list of seeds, got {text!r}")
    if len(set(seeds)) < len(seeds):
        raise UsageError(f"--seeds lists a seed more than once: {text!r}")
    return seeds


def cmd_denoise(args):
    if args.max_iters < 0:
        raise UsageError("denoise needs --max-iters >= 0")
    _check_out_dir(args.out_dir)
    # the parser requires exactly one of --input and --synthetic
    if args.input is not None:
        original = dataio.read_pgm(args.input)
    else:
        original = problems.blocks_image(*_parse_synthetic(args.synthetic, "x", "HxW,"))
    noisy = dataio.add_gaussian_noise(original, args.sigma, args.seed)
    psnr_in = problems.psnr(noisy.pixels, original.pixels, noisy.height, noisy.width)
    problem = problems.build_denoise(
        noisy, lam=args.lam, c1=args.c1, c2=args.c2, boundary=args.boundary
    )
    alpha = ppdg.default_alpha(problem.lipschitz_L) if args.alpha is None else args.alpha
    config = ppdg.PpdgConfig(alpha=alpha, max_iters=args.max_iters, tol_step=args.tol)
    records = []
    started = time.perf_counter()
    report = ppdg.solve(problem, config, trace_sink=records.append)
    seconds = time.perf_counter() - started
    x = noisy.pixels if args.max_iters == 0 else report.x  # not the solver's zero start
    denoised = dataio.ImageBuffer(noisy.height, noisy.width, np.clip(x, 0.0, 1.0))
    psnr_out = problems.psnr(x, original.pixels, noisy.height, noisy.width)
    echo = _flag_echo(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_trace_csv(
        out / "trace.csv", records, fieldnames=TRACE_FIELDS, comment=f"denoise {echo}"
    )
    dataio.write_pgm(out / "noisy.pgm", noisy)
    dataio.write_pgm(out / "denoised.pgm", denoised)
    _write_summary(
        out / "summary.txt",
        [
            ("psnr_in", f"{psnr_in:.17g}"),
            ("psnr_out", f"{psnr_out:.17g}"),
            ("iters", report.iters),
            ("seconds", f"{seconds:.3f}"),
            ("reason", report.reason),
        ],
    )
    print(f"{psnr_in:.4f},{psnr_out:.4f},{report.iters},{seconds:.3f}")
    return 0


def _load_lasso_problem(args):
    V = dataio.read_csv_matrix(args.v_file) if args.v_file else None
    # the operator checks V is square and finite; a file's graph must be symmetric
    if V is not None and not np.array_equal(V, V.T, equal_nan=True):
        raise ValueError(f"{args.v_file}: graph matrix must be symmetric")
    # the parser requires exactly one of --data and --synthetic
    if args.data is not None:
        # a graph fixes the width: features the file never names are zero columns
        rows, labels = dataio.parse_libsvm(args.data, n_hint=None if V is None else len(V))
        # parse_libsvm maps two classes to {-1, +1}; build_fused_lasso rejects no rows
        if labels.size and np.unique(labels).size != 2:
            raise UsageError("dataset labels do not form a two-class set")
    else:
        n_rows, n_feat = _parse_synthetic(args.synthetic, ",", "N,n")
        rows, labels = problems.synthetic_fused_lasso_data(n_rows, n_feat, seed=args.data_seed)
    if V is None:
        V = problems.build_precision_graph(rows, threshold=args.threshold)
    elif V.shape[0] != rows.shape[1]:
        raise UsageError("graph matrix size does not match the feature count")
    return problems.build_fused_lasso(
        rows, labels, V, lam=args.lam, p=args.p, r=args.r,
        normalize_rows=args.normalize_rows,
    )


def cmd_lasso(args):
    _check_out_dir(args.out_dir)
    problem = _load_lasso_problem(args)
    n = problem.n_components
    batch = max(1, int(0.01 * n)) if args.batch is None else args.batch
    seeds = _parse_seeds(args.seeds)
    config = sppdg.SppdgConfig(
        alpha=args.alpha,
        kappa_hat=args.kappa_hat,
        max_epochs=args.max_epochs,
        tol_step=args.tol,
        seeds=seeds,
    )
    result = sppdg.solve_stochastic(
        problem, args.estimator, config, batch_size=batch, period=args.period
    )
    echo = _flag_echo(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for run in result.per_seed:
        dataio.write_trace_csv(
            out / f"seed_{run.seed}_trace.csv",
            run.records,
            fieldnames=TRACE_FIELDS,
            comment=f"lasso {echo}",
        )
    dataio.write_trace_csv(
        out / "aggregate.csv",
        result.aggregate,
        fieldnames=AGGREGATE_FIELDS,
        comment=f"lasso {echo}",
    )
    survivors = [r for r in result.per_seed if not r.failed]
    if not survivors:
        print("all seeds failed", file=sys.stderr)
        return 1
    # the objective f + h(Ax), and the finite penalized value with h's indicator
    # dropped: iterates can sit a hair outside the ball, which turns the
    # extended-real objective infinite
    reg, op = problem.regularizer, problem.operator
    objectives, penalized = [], []
    for run in survivors:
        f_x, ax = problem.full_value(run.report.x), op.apply(run.report.x)
        objectives.append(float(f_x + reg.value_h(ax)))
        penalized.append(f_x + reg.penalty_value(ax))
    final_obj = float(np.mean(objectives))
    final_pen = float(np.mean(penalized))
    final_rx = float(np.mean([r.report.kkt_x for r in survivors]))
    final_ry = float(np.mean([r.report.kkt_y for r in survivors]))
    _write_summary(
        out / "summary.txt",
        [
            ("estimator", args.estimator),
            ("batch", batch),
            ("seeds_ok", len(survivors)),
            ("seeds_failed", len(result.per_seed) - len(survivors)),
            ("mean_final_objective", f"{final_obj:.17g}"),
            ("mean_final_penalized_objective", f"{final_pen:.17g}"),
            ("mean_final_kkt_x", f"{final_rx:.17g}"),
            ("mean_final_kkt_y", f"{final_ry:.17g}"),
        ],
    )
    print(f"{args.estimator},{len(survivors)},{final_pen:.10g},{final_rx:.4g},{final_ry:.4g}")
    return 0


def _build_regularizer(args):
    if args.reg == "l1":
        return conjprox.L1(args.lam)
    if args.reg == "l0":
        return conjprox.L0Box(args.lam, args.c1, args.c2)
    if args.reg == "lp":
        return conjprox.LpBall(args.lam, args.p, args.r)
    return conjprox.ScadBox(args.lam, args.gamma, args.r)


def cmd_prox_check(args):
    try:
        reg = _build_regularizer(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.points < 1:
        raise UsageError("prox-check needs --points >= 1")
    if args.seed < 0:
        raise ValueError(f"prox-check seed {args.seed} is out of range: it must be >= 0")
    rng = np.random.default_rng(args.seed)
    points = rng.uniform(-8.0, 8.0, size=args.points)
    deviation = conjprox.oracle_prox_deviation(reg, points, PROX_CHECK_BETAS)
    status = "ok" if deviation <= PROX_CHECK_TOL else "FAIL"
    print(
        f"{reg.kind}: max |closed-form - grid oracle| = {deviation:.3e} "
        f"over {args.points} points x {len(PROX_CHECK_BETAS)} betas [{status}]"
    )
    return 0 if deviation <= PROX_CHECK_TOL else 1


def _build_operator(args):
    if args.op in ("dense", "stacked"):
        if not args.csv:
            raise UsageError(f"{args.op} operator needs --csv")
        kind = linops.DenseMatrix if args.op == "dense" else linops.StackedOverIdentity
        return kind(dataio.read_csv_matrix(args.csv))
    # the other kinds are built from flags alone, so a rejected value is a usage error
    try:
        if args.op == "identity":
            return linops.Identity(args.n)
        if args.op == "scaled":
            return linops.ScaledIdentity(args.n, args.scale)
        return linops.Gradient2D(args.height, args.width, boundary=args.boundary)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_spectra(args):
    op = _build_operator(args)
    norm = op.op_norm()
    min_eig = linops.estimate_min_eig_gram(op)
    print(f"kind: {op.kind}  ({op.out_dim} x {op.in_dim})")
    print(f"op_norm: {norm:.12g}")
    print(f"min_eig_gram: {min_eig:.12g}")
    print(f"hat_lambda: {np.sqrt(min_eig):.12g}")
    if min_eig > 0.0:
        print("surjective: yes (exact metric preconditioning is well posed)")
    else:
        print("surjective: no (AA^T is singular)")
    if not op.gram_is_scalar:
        print(
            "note: AA^T is not a multiple of the identity, so the dual step relies on "
            "the scalar approximation beta = 1/(alpha ||A||^2), as the denoising "
            "experiments do"
        )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dualprox",
        description="Primal-dual solvers built on proximal maps of conjugate regularizers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    d = sub.add_parser("denoise", help="gradient-sparsity image denoising benchmark", **fmt)
    source = d.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="clean source image (PGM); noise is added by --sigma")
    source.add_argument("--synthetic", help="HxW piecewise-constant test image, e.g. 64x64")
    d.add_argument("--sigma", type=float, default=0.05, help="noise level")
    d.add_argument("--seed", type=int, default=1, help="noise seed")
    d.add_argument("--lam", type=float, default=0.1, help="gradient-sparsity weight")
    d.add_argument("--c1", type=float, default=-1.0, help="lower gradient bound")
    d.add_argument("--c2", type=float, default=1.0, help="upper gradient bound")
    d.add_argument("--boundary", choices=("periodic", "zero-pad"), default="periodic")
    d.add_argument("--alpha", type=float, default=None, help="primal step (default 0.9/(3L))")
    d.add_argument("--max-iters", dest="max_iters", type=int, default=5000)
    d.add_argument("--tol", type=float, default=1e-8)
    d.add_argument("--out-dir", dest="out_dir", default="denoise_out")
    d.set_defaults(func=cmd_denoise)

    l = sub.add_parser("lasso", help="graph-guided fused lasso benchmark", **fmt)
    source = l.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="LIBSVM file with two-class labels")
    source.add_argument("--synthetic", help="N,n synthetic instance, e.g. 200,20")
    l.add_argument("--data-seed", dest="data_seed", type=int, default=0)
    l.add_argument("--estimator", choices=("saga", "svrg", "sarah", "full"), default="svrg")
    l.add_argument("--seeds", default="10", help="seed count, or comma list of distinct seeds")
    l.add_argument("--batch", type=int, default=None, help="mini-batch size (default 1%% of N)")
    l.add_argument("--period", type=int, default=None, help="snapshot/restart period")
    l.add_argument("--lam", type=float, default=1e-4)
    l.add_argument("--p", type=float, default=0.5)
    l.add_argument("--r", type=float, default=1.0)
    l.add_argument("--threshold", type=float, default=0.5, help="graph correlation threshold")
    l.add_argument("--v-file", dest="v_file", help="CSV graph matrix (overrides --threshold)")
    l.add_argument("--normalize-rows", dest="normalize_rows", action="store_true")
    l.add_argument("--max-epochs", dest="max_epochs", type=int, default=50)
    l.add_argument("--tol", type=float, default=0.0)
    l.add_argument("--alpha", type=float, default=None)
    l.add_argument("--kappa-hat", dest="kappa_hat", type=float, default=0.0)
    l.add_argument("--out-dir", dest="out_dir", default="lasso_out")
    l.set_defaults(func=cmd_lasso)

    p = sub.add_parser("prox-check", help="grid-oracle conformance of a conjugate prox", **fmt)
    p.add_argument("--reg", choices=("l1", "l0", "lp", "scad"), required=True)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--c1", type=float, default=-1.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--points", type=int, default=PROX_CHECK_POINTS)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_prox_check)

    s = sub.add_parser("spectra", help="operator norm, gram spectrum, surjectivity verdict", **fmt)
    s.add_argument("--op", choices=("identity", "scaled", "dense", "gradient2d", "stacked"),
                   required=True)
    s.add_argument("--n", type=int, default=4)
    s.add_argument("--scale", type=float, default=1.0)
    s.add_argument("--height", type=int, default=8)
    s.add_argument("--width", type=int, default=8)
    s.add_argument("--boundary", choices=("periodic", "zero-pad"), default="periodic")
    s.add_argument("--csv", help="dense matrix / stacked top block")
    s.set_defaults(func=cmd_spectra)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
