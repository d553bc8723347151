"""Primal-dual gradient solvers driven by proximal maps of conjugate regularizers.

The package splits into:

* :mod:`dualprox.linops` - linear operators with exact adjoints and
  exact norms,
* :mod:`dualprox.conjprox` - the regularizer catalog (h, h*, prox of
  beta*h*) with a brute-force prox oracle,
* :mod:`dualprox.ppdg` - the deterministic solver with Lyapunov
  diagnostics, and the one primal-dual loop both solvers run,
* :mod:`dualprox.vrgrad` / :mod:`dualprox.sppdg` - variance-reduced
  estimators and the stochastic solver (seed replication and
  aggregation around that loop),
* :mod:`dualprox.problems` - two problem types, the finite sum a case
  both solvers take as is; denoising and fused-lasso builders, PSNR,
* :mod:`dualprox.dataio` - PGM, LIBSVM, CSV matrices, seeded noise, CSV traces,
* :mod:`dualprox.cli` - the ``dualprox`` command line.

The benchmark lives outside the package, in ``perfbench/`` at the root
of a source checkout (``python3 perfbench/run.py --workload denoise-256
--seed 1 --seconds 30``).
"""

from .conjprox import L0Box, L1, LpBall, ScadBox
from .dataio import ImageBuffer, add_gaussian_noise, parse_libsvm, read_pgm, write_pgm
from .linops import (
    DenseMatrix,
    Gradient2D,
    Identity,
    ScaledIdentity,
    StackedOverIdentity,
)
from .ppdg import LyapunovConstants, PpdgConfig, SolveReport, TraceRecord, solve
from .problems import (
    CompositeProblem,
    FiniteSumProblem,
    build_denoise,
    build_fused_lasso,
    build_precision_graph,
    psnr,
)
from .sppdg import SppdgConfig, SppdgLyapunovConstants, solve_stochastic
from .vrgrad import make_estimator, sample_batch, sample_batches

__version__ = "0.1.0"
