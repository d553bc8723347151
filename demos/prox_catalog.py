"""Tour of the regularizer catalog: conjugates and their proximal maps.

Each regularizer h is nonconvex or nonsmooth, yet its conjugate h* is a
simple convex function whose prox has a closed form. For every kind h*
is a ramp: zero on [lo, hi], slope s_lo below and s_hi above, and the
slopes are the ends of dom h = [s_lo, s_hi]. This script prints each
ramp and domain, the closed forms at a few probe points, and
cross-checks the prox values against the exhaustive grid oracle.
``dualprox prox-check`` runs the full conformance sweep of one kind.

Run:  python3 demos/prox_catalog.py
"""

import numpy as np

from dualprox.conjprox import L0Box, L1, LpBall, ScadBox, prox_conj_oracle

CATALOG = [
    ("l1, lam=2", L1(2.0)),
    ("l0 + box, lam=0.1 on [-1, 1]", L0Box(0.1, -1.0, 1.0)),
    ("lp + inf-ball, lam=1, p=0.5, r=1", LpBall(1.0, 0.5, 1.0)),
    ("scad + box, lam=1, gamma=3, r=0.5", ScadBox(1.0, 3.0, 0.5)),
    ("scad + box, lam=0.1, gamma=3, r=1", ScadBox(0.1, 3.0, 1.0)),
]

probes = np.array([-3.0, -1.2, -0.4, 0.0, 0.3, 0.9, 2.5])
beta = 1.0

for title, reg in CATALOG:
    print(f"\n=== {title}")
    lo, hi, s_lo, s_hi = reg._ramp()
    print(f"  ramp: h* = 0 on [{lo:.4g}, {hi:.4g}], slopes {s_lo:.4g} / {s_hi:.4g}"
          f"  ->  dom h = [{s_lo:.4g}, {s_hi:.4g}]")
    conj = [reg._conj_elem(np.array([v]))[0] for v in probes]
    print("  h*(v):        ", " ".join(f"{c:8.4f}" for c in conj))
    closed = reg.prox_conj(probes, beta)
    print("  prox(v, b=1): ", " ".join(f"{c:8.4f}" for c in closed))
    gap = np.max(np.abs(closed - prox_conj_oracle(reg, probes, beta)))
    print(f"  grid-oracle max gap: {gap:.2e}  (grid step 1e-4)")

print("\nThe full conformance sweep of one kind, 1000 points x 3 prox weights:")
print("  dualprox prox-check --reg {l1,l0,lp,scad}")
