"""Gradient-sparsity image denoising with the deterministic solver.

Builds a piecewise-constant test image, adds seeded Gaussian noise, and
runs the primal-dual iteration with the scalar dual weight. The
regularizer counts nonzero entries of the discrete image gradient, so
the solver recovers flat regions with crisp edges; PSNR improves by
several dB within a hundred iterations.

Run:  python3 demos/denoise_image.py
"""

import numpy as np

from dualprox import dataio, ppdg, problems

SIZE = 64
SIGMA = 0.05

original = problems.blocks_image(SIZE, SIZE)
noisy = dataio.add_gaussian_noise(original, SIGMA, seed=1)
psnr_in = problems.psnr(noisy.pixels, original.pixels, SIZE, SIZE)
print(f"{SIZE}x{SIZE} blocks image, sigma={SIGMA}: noisy psnr {psnr_in:.2f} dB")

problem = problems.build_denoise(noisy, lam=0.1, c1=-1.0, c2=1.0)
config = ppdg.PpdgConfig(
    alpha=ppdg.default_alpha(problem.lipschitz_L),
    max_iters=100,
    tol_step=0.0,
)

records = []
report = ppdg.solve(problem, config, trace_sink=records.append)

print(f"\n{'iter':>5} {'objective':>12} {'lagrangian':>12} {'dx':>10} {'kkt_x':>10}")
for rec in records:
    if rec.iter in (1, 2, 5, 10, 20, 50, 100):
        print(
            f"{rec.iter:>5} {rec.objective:>12.2f} {rec.lagrangian:>12.2f} "
            f"{rec.dx_norm:>10.2e} {rec.kkt_x:>10.2e}"
        )

psnr_out = problems.psnr(report.x, original.pixels, SIZE, SIZE)
print(f"\ndenoised psnr {psnr_out:.2f} dB (gain {psnr_out - psnr_in:+.2f} dB)")

zeros = int(np.sum(problem.operator.apply(report.x) == 0.0))
print(f"exactly-zero gradient entries: {zeros} of {2 * SIZE * SIZE}")

dataio.write_pgm("denoise_demo_noisy.pgm", noisy)
dataio.write_pgm(
    "denoise_demo_out.pgm",
    dataio.ImageBuffer(SIZE, SIZE, np.clip(report.x, 0.0, 1.0)),
)
print("wrote denoise_demo_noisy.pgm / denoise_demo_out.pgm")
