"""Lyapunov descent and residual diagnostics on a small test problem.

The solver tracks a Lyapunov function, the Lagrangian plus weighted
squared distances between consecutive primal iterates. With the exact
dual metric (identity operator) and a step below 1/(3L), that value is
provably nonincreasing; this script verifies the descent numerically at
every iteration, together with the subgradient bound linking the
residual to the last two step norms.

Run:  python3 demos/solver_diagnostics.py
"""

import numpy as np

from dualprox import conjprox, linops, ppdg
from dualprox.problems import CompositeProblem

rng = np.random.default_rng(4)
target = rng.standard_normal(10)
problem = CompositeProblem(
    f_value=lambda x: 0.5 * float(np.sum((x - target) ** 2)),
    grad_f=lambda x: x - target,
    lipschitz_L=1.0,
    operator=linops.Identity(10),
    regularizer=conjprox.L0Box(0.1, -1.0, 1.0),
)

config = ppdg.PpdgConfig(alpha=0.3, max_iters=200, tol_step=0.0, lyapunov_checks=True)
constants = ppdg.LyapunovConstants.from_parameters(0.3, 1.0)
print(f"descent constants: a={constants.a:.4f} b={constants.b:.4f} c={constants.c:.4f}")

records = []
report = ppdg.solve(problem, config, trace_sink=records.append)
print(f"solver asserted descent on every iteration ({report.iters} steps)\n")

print(f"{'iter':>5} {'lyapunov':>12} {'drop':>11} {'c*steps^2':>11} {'kkt_x':>9} {'kkt_y':>9}")
prev = None
for rec in records:
    if rec.iter in (1, 2, 3, 5, 10, 20, 50, 100, 200):
        drop = float("nan") if prev is None else prev - rec.lyapunov
        need = constants.c * rec.dx_norm**2
        print(
            f"{rec.iter:>5} {rec.lyapunov:>12.6f} {drop:>11.2e} "
            f"{need:>11.2e} {rec.kkt_x:>9.1e} {rec.kkt_y:>9.1e}"
        )
    prev = rec.lyapunov

gamma1, gamma2 = ppdg.subgradient_bound_gammas(
    constants, 0.3, problem.operator.op_norm(), 1.0
)
print(f"\nsubgradient bound coefficients: gamma1={gamma1:.3f} gamma2={gamma2:.3f}")

state = ppdg.init_state(problem, np.zeros(10), np.zeros(10), config)
worst_ratio = 0.0
for _ in range(200):
    state = ppdg.step(problem, state, config)
    _, norm = ppdg.subgradient_d(problem, state, constants)
    bound = gamma1 * np.linalg.norm(state.x_cur - state.x_prev) + gamma2 * np.linalg.norm(
        state.x_next - state.x_cur
    )
    if bound > 0:
        worst_ratio = max(worst_ratio, norm / bound)
print(f"max ||d^k|| / bound over 200 iterations: {worst_ratio:.3f} (must be <= 1)")
