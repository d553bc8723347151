"""Graph-guided fused lasso with the three variance-reduced estimators.

A synthetic two-class dataset with correlated feature pairs; the graph
matrix comes from thresholded feature correlations and enters through
the stacked operator x -> (Vx; x). SAGA, SVRG and SARAH runs replicate
over seeds; the seed-averaged penalized objective is compared against a
fully converged deterministic reference.

Run:  python3 demos/fused_lasso.py
"""

import numpy as np

from dualprox import ppdg, problems, sppdg

N, DIM, SEEDS, EPOCHS, BATCH = 200, 20, 5, 30, 2

rows, labels = problems.synthetic_fused_lasso_data(N, DIM, seed=0)
V = problems.build_precision_graph(rows, threshold=0.5)
problem = problems.build_fused_lasso(
    rows, labels, V, lam=1e-4, p=0.5, r=1.0, normalize_rows=True
)
print(f"N={N}, n={DIM}, graph edges={int(V.sum())}, L={problem.lipschitz_L:.4f}")


def penalized(x):
    ax = problem.operator.apply(x)
    return problem.full_value(x) + problem.regularizer.penalty_value(ax)


ref_cfg = ppdg.PpdgConfig(
    alpha=ppdg.default_alpha(problem.lipschitz_L), max_iters=20000, tol_step=1e-12
)
reference = ppdg.solve(problem, ref_cfg)
ref_obj = penalized(reference.x)
print(f"deterministic reference: {reference.iters} iterations, objective {ref_obj:.8f}\n")

config = sppdg.SppdgConfig(max_epochs=EPOCHS, tol_step=0.0, seeds=tuple(range(SEEDS)))
print(f"{'estimator':>10} {'iters':>6} {'mean objective':>15} {'gap':>10} {'kkt_x':>9}")
for kind in ("saga", "svrg", "sarah"):
    result = sppdg.solve_stochastic(problem, kind, config, batch_size=BATCH)
    finals = [penalized(r.report.x) for r in result.per_seed]
    rx = np.mean([r.report.kkt_x for r in result.per_seed])
    gap = abs(np.mean(finals) - ref_obj) / abs(ref_obj)
    print(
        f"{kind:>10} {result.per_seed[0].report.iters:>6} "
        f"{np.mean(finals):>15.8f} {gap:>10.2e} {rx:>9.1e}"
    )

consts = sppdg.SppdgLyapunovConstants.from_parameters(
    config.resolve_alpha(problem.lipschitz_L), problem.lipschitz_L, config.kappa_hat
)
result = sppdg.solve_stochastic(problem, "svrg", config, batch_size=BATCH)
violations, checked = sppdg.expectation_descent_report(
    [r.records for r in result.per_seed], consts
)
print(
    f"\nseed-averaged descent report (advisory): "
    f"{violations}/{checked} iterations rose beyond the allowance"
)
