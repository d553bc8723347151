"""Acceptance suite: one test per criterion, each printing a pass line.

Quantitative tolerances are pinned here, not configurable. Wall-clock
budgets are asserted on the machine running the suite. Two documented
interpretation notes:

* criterion 8 runs a fixed 100-iteration budget (the denoised image is
  fully formed by then; much longer horizons accumulate float-level
  fluctuations of the exact nonzero-gradient count, see the trace notes
  in the README);
* criterion 11 compares the penalized objective (smooth part plus the
  p-norm penalty, the quantity the benchmark figures plot) and checks
  ball feasibility separately at the residual scale.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import (
    anchored_estimate,
    compare_outputs,
    lyapunov_reference,
    oracle_conj_deviation,
    quadratic_finite_sum,
    quadratic_problem,
    run_history,
)
from dualprox import cli, conjprox, dataio, linops, ppdg, problems, sppdg, vrgrad
from dualprox.ppdg import LyapunovConstants, PpdgConfig
from dualprox.sppdg import SppdgConfig

ALL_REGULARIZERS = [
    conjprox.L1(2.0),
    conjprox.L0Box(0.1, -1.0, 1.0),
    conjprox.LpBall(1.0, 0.5, 1.0),
    conjprox.ScadBox(1.0, 3.0, 0.5),   # r < lam
    conjprox.ScadBox(1.0, 3.0, 2.0),   # lam <= r < gamma*lam
    conjprox.ScadBox(0.1, 3.0, 1.0),   # r >= gamma*lam
]


def _report(criterion, detail):
    print(f"acceptance criterion {criterion}: PASS ({detail})")


def descent_problem():
    rng = np.random.default_rng(4)
    return quadratic_problem(
        rng.standard_normal(10), linops.Identity(10), conjprox.L0Box(0.1, -1.0, 1.0)
    )


def test_criterion_01_prox_oracle_conformance():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    points = rng.uniform(-8.0, 8.0, size=1000)
    worst = {}
    for reg in ALL_REGULARIZERS:
        worst[reg.kind] = conjprox.oracle_prox_deviation(reg, points, (0.1, 1.0, 10.0))
        assert worst[reg.kind] <= 5e-4, reg.kind
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(1, f"max deviation {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_02_conjugate_conformance():
    rng = np.random.default_rng(21)
    for reg in ALL_REGULARIZERS:
        ys = rng.uniform(-2.0 * reg.scale - 2.0, 2.0 * reg.scale + 2.0, size=200)
        dev = oracle_conj_deviation(reg, ys)
        assert dev <= 1e-3, reg.kind
    _report(2, "grid-sup deviation <= 1e-3 on 200 points per kind")


def test_criterion_03_moreau_identity():
    rng = np.random.default_rng(9)
    lam = 2.0
    reg = conjprox.L1(lam)
    worst = 0.0
    for _ in range(1000):
        v = rng.uniform(-6, 6)
        beta = rng.uniform(0.05, 10.0)
        soft = np.sign(v / beta) * max(abs(v / beta) - lam / beta, 0.0)
        recon = reg.prox_conj(np.array([v]), beta)[0] + beta * soft
        worst = max(worst, abs(recon - v))
    assert worst <= 1e-10
    _report(3, f"max reconstruction error {worst:.2e}")


@pytest.fixture(scope="module")
def descent_history():
    prob = descent_problem()
    cfg = PpdgConfig(alpha=0.3, max_iters=502, tol_step=0.0)
    states = run_history(prob, cfg, np.zeros(10), np.zeros(10), 502)
    consts = LyapunovConstants.from_parameters(0.3, 1.0)
    return prob, states, consts


def test_criterion_04_lyapunov_descent(descent_history):
    prob, states, consts = descent_history
    values = [lyapunov_reference(prob, (s.x_cur, s.y_cur, s.x_next, s.x_prev), consts)
              for s in states[1:]]
    violations = 0
    for k in range(1, 501):
        cur, nxt = states[k], states[k + 1]
        drop = values[k - 1] - values[k]
        required = consts.c * (
            np.sum((nxt.x_cur - nxt.x_prev) ** 2)
            + np.sum((cur.x_cur - cur.x_prev) ** 2)
        )
        if drop < required - 1e-9 * (1.0 + abs(values[k - 1])):
            violations += 1
    assert violations == 0
    _report(4, "descent inequality holds for k in [1, 500], zero violations")


def test_criterion_05_subgradient_and_dual_bounds(descent_history):
    prob, states, consts = descent_history
    gamma1, gamma2 = ppdg.subgradient_bound_gammas(
        consts, 0.3, prob.operator.op_norm(), 1.0
    )
    for k in range(1, 501):
        st = states[k]
        _, norm = ppdg.subgradient_d(prob, st, consts)
        bound = gamma1 * np.linalg.norm(st.x_cur - st.x_prev) + gamma2 * np.linalg.norm(
            st.x_next - st.x_cur
        )
        assert norm <= bound + 1e-9, f"subgradient bound failed at k={k}"
    alpha, L = 0.3, 1.0
    for k in range(len(states) - 2):
        cur, nxt = states[k], states[k + 1]
        lhs = np.linalg.norm(prob.operator.apply_adjoint(nxt.y_cur - cur.y_cur))
        rhs = (1 / alpha + L) * np.linalg.norm(nxt.x_cur - cur.x_cur) + (
            1 / alpha
        ) * np.linalg.norm(nxt.x_next - nxt.x_cur)
        assert lhs <= rhs + 1e-9, f"dual bound failed at k={k}"
    _report(5, "subgradient and dual bounds hold at every iterate")


def test_criterion_06_deterministic_convergence():
    prob = descent_problem()
    cfg = PpdgConfig(alpha=0.3, max_iters=5000, tol_step=1e-8)
    started = time.perf_counter()
    report = ppdg.solve(prob, cfg)
    elapsed = time.perf_counter() - started
    assert report.reason == "converged"
    assert report.iters <= 5000
    assert max(report.dx_norm, report.dy_norm) <= 1e-8
    assert report.kkt_x <= 1e-6
    assert elapsed < 1.0
    _report(6, f"converged in {report.iters} iterations, r_x {report.kkt_x:.1e}, {elapsed:.2f}s")


def test_criterion_07_convex_sanity():
    prob = quadratic_problem(
        2.0 * np.ones(5), linops.Identity(5), conjprox.L1(0.5)
    )
    cfg = PpdgConfig(alpha=0.3, max_iters=5000, tol_step=1e-12)
    report = ppdg.solve(prob, cfg)
    err = float(np.max(np.abs(report.x - 1.5)))
    assert report.iters <= 5000
    assert err <= 1e-6
    _report(7, f"soft-threshold solution reached, max error {err:.1e}")


def test_criterion_08_denoising_property(tmp_path):
    # fixed 100-iteration budget; see the module docstring
    out = tmp_path / "denoise"
    started = time.perf_counter()
    code = cli.main([
        "denoise", "--synthetic", "64x64", "--sigma", "0.05", "--seed", "1",
        "--lam", "0.1", "--c1", "-1", "--c2", "1",
        "--max-iters", "100", "--tol", "0", "--out-dir", str(out),
    ])
    elapsed = time.perf_counter() - started
    assert code == 0
    summary = dict(
        line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines()
    )
    psnr_in = float(summary["psnr_in"])
    psnr_out = float(summary["psnr_out"])
    assert psnr_out >= psnr_in + 3.0
    objs = [
        float(line.split(",")[2])
        for line in (out / "trace.csv").read_text().splitlines()[2:]
    ]
    rises = sum(1 for a, b in zip(objs, objs[1:]) if b > a + 1e-10 * (1 + abs(a)))
    assert rises <= 0.05 * (len(objs) - 1)
    assert elapsed < 5.0
    _report(8, f"psnr {psnr_in:.2f} -> {psnr_out:.2f} dB, "
               f"{rises}/{len(objs) - 1} objective rises, {elapsed:.1f}s")


def test_criterion_09_estimator_unbiasedness():
    rng = np.random.default_rng(11)
    mats = rng.standard_normal((8, 3))

    def cg(i, x):
        return mats[i] * (mats[i] @ x) + float(i)

    def fg(x):
        return np.mean([cg(i, x) for i in range(8)], axis=0)

    x = rng.standard_normal(3)
    for kind in ("saga", "svrg"):
        for b in (1, 2):
            est = vrgrad.make_estimator(kind, 8, b, seed=0)
            est.reset(cg, fg).estimate(0, np.zeros(3))
            vals = [
                anchored_estimate(est, np.array(batch), x)
                for batch in itertools.combinations(range(8), b)
            ]
            err = float(np.max(np.abs(np.mean(vals, axis=0) - fg(x))))
            assert err <= 1e-12, (kind, b)
    svrg = vrgrad.make_estimator("svrg", 8, 2, seed=0)
    svrg.reset(cg, fg).estimate(0, np.zeros(3))
    assert np.array_equal(svrg.estimate(4, x), fg(x))
    sarah = vrgrad.make_estimator("sarah", 8, 2, seed=0)
    sarah.reset(cg, fg)
    assert np.array_equal(sarah.estimate(0, np.zeros(3)), fg(np.zeros(3)))
    _report(9, "batch-enumeration means exact to 1e-12; snapshot/restart exact")


def test_criterion_10_full_batch_degeneracy():
    compared = ("iter", "objective", "lagrangian", "dx_norm", "dy_norm", "kkt_x", "kkt_y")
    cases = []
    rng = np.random.default_rng(11)
    cases.append((
        quadratic_finite_sum(
            2.0 + 0.3 * rng.standard_normal((4, 5)), linops.Identity(5), conjprox.L1(0.5)
        ),
        ppdg.default_alpha(1.0),
    ))
    rng4 = np.random.default_rng(4)
    cases.append((
        quadratic_finite_sum(
            rng4.standard_normal((2, 10)), linops.Identity(10),
            conjprox.L0Box(0.1, -1.0, 1.0),
        ),
        0.3,
    ))
    for fsp, alpha in cases:
        pp_recs = []
        pp_cfg = PpdgConfig(alpha=alpha, max_iters=400, tol_step=1e-10)
        pp = ppdg.solve(fsp, pp_cfg, trace_sink=pp_recs.append)
        sp_cfg = SppdgConfig(alpha=alpha, max_epochs=5000, tol_step=1e-10, seeds=(0,))
        run = sppdg.solve_stochastic(
            fsp, "svrg", sp_cfg, batch_size=fsp.n_components
        ).per_seed[0]
        assert np.array_equal(pp.x, run.report.x)
        assert np.array_equal(pp.y, run.report.y)
        assert len(pp_recs) == len(run.records)
        for a, b in zip(pp_recs, run.records):
            for name in compared:
                assert getattr(a, name) == getattr(b, name), name
    _report(10, "bit-identical iterates and traces on both degeneracy problems")


def penalized_objective(problem, x):
    ax = problem.operator.apply(x)
    return problem.full_value(x) + problem.regularizer.penalty_value(ax)


def test_criterion_11_stochastic_convergence():
    started = time.perf_counter()
    rows, labels = problems.synthetic_fused_lasso_data(200, 20, seed=0)
    V = problems.build_precision_graph(rows, threshold=0.5)
    prob = problems.build_fused_lasso(
        rows, labels, V, lam=1e-4, p=0.5, r=1.0, normalize_rows=True
    )
    ref_cfg = PpdgConfig(
        alpha=ppdg.default_alpha(prob.lipschitz_L),
        max_iters=20000, tol_step=1e-12,
    )
    ref = ppdg.solve(prob, ref_cfg)
    assert ref.reason == "converged"
    ref_obj = penalized_objective(prob, ref.x)

    cfg = SppdgConfig(max_epochs=50, tol_step=0.0, seeds=tuple(range(10)))
    result = sppdg.solve_stochastic(prob, "svrg", cfg, batch_size=2)
    assert all(not r.failed for r in result.per_seed)
    finals = [penalized_objective(prob, r.report.x) for r in result.per_seed]
    gap = abs(float(np.mean(finals)) - ref_obj) / abs(ref_obj)
    assert gap <= 0.01
    good = sum(
        1 for r in result.per_seed
        if r.report.kkt_x <= 1e-3 and r.report.kkt_y <= 1e-3
    )
    assert good >= 9
    for r in result.per_seed:
        ax = prob.operator.apply(r.report.x)
        assert float(np.max(np.abs(ax))) <= 1.0 * (1.0 + 2e-3)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(11, f"objective gap {gap:.2%}, {good}/10 seeds at KKT 1e-3, {elapsed:.0f}s")


def test_criterion_12_determinism(tmp_path, capsys):
    # two runs' output files and stdout, wall clock masked by tools/compare_outputs.py
    def rerun(args, name):
        runs = []
        for i in (1, 2):
            out = tmp_path / f"{name}{i}"
            assert cli.main(args + ["--out-dir", str(out)]) == 0
            stdout = compare_outputs.mask("stdout", capsys.readouterr().out.encode(), args)
            runs.append((compare_outputs.masked_files(out, args), stdout))
        assert runs[0] == runs[1]
        return sorted(runs[0][0])

    denoise_args = ["denoise", "--synthetic", "64x64", "--sigma", "0.05", "--seed", "1",
                    "--max-iters", "100", "--tol", "0"]
    assert rerun(denoise_args, "d") == ["denoised.pgm", "noisy.pgm", "summary.txt", "trace.csv"]
    lasso_args = ["lasso", "--synthetic", "100,10", "--estimator", "sarah", "--seeds", "4",
                  "--batch", "2", "--max-epochs", "8", "--normalize-rows"]
    assert rerun(lasso_args, "l") == ["aggregate.csv", *(f"seed_{s}_trace.csv" for s in range(4)),
                                      "summary.txt"]
    _report(12, "every output file and stdout byte-identical, wall clock masked")
