"""Regularizers with closed-form conjugates and conjugate proximal maps.

Each regularizer h is nonconvex (or nonsmooth), but its conjugate h* is
convex, and for every kind here it has the same shape: a ramp that is
zero on [lo, hi] and linear with slopes s_lo < 0 < s_hi outside it. The
slopes are the endpoints of dom h; l1 is the case with infinite slopes,
where h* is the indicator of [-lam, lam]. A kind states only its ramp
``(lo, hi, s_lo, s_hi)``, and the base class derives h* and

    prox_{beta h*}(v) = v - beta*s_hi   if v > hi + beta*s_hi
                        clip(v, lo, hi) if lo + beta*s_lo <= v <= hi + beta*s_hi
                        v - beta*s_lo   if v < lo + beta*s_lo

from it. The catalog covers:

* ``L1(lam)``:            h(x) = lam * ||x||_1
* ``L0Box(lam, c1, c2)``: h(x) = lam * ||x||_0 + indicator of [c1, c2]^n
* ``LpBall(lam, p, r)``:  h(x) = lam * ||x||_p^p + indicator of ||x||_inf <= r
* ``ScadBox(lam, gamma, r)``: SCAD penalty + indicator of [-r, r]^n

Everything acts coordinate-wise. A brute-force grid oracle backs every
closed form: ``conj_value_oracle`` takes the sup over h itself
(``_h_elem``), never over the ramp, and ``prox_conj_oracle`` minimizes
the prox objective over a grid. For SCAD the closed forms are the
symmetrized ones the oracle certifies (all three parameter cases reduce
to h*(y) = r * max(|y| - theta, 0)), not the asymmetric variants
sometimes quoted for this penalty.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Regularizer",
    "L1",
    "L0Box",
    "LpBall",
    "ScadBox",
    "ProxOracle",
    "prox_conj_oracle",
    "conj_value_oracle",
    "oracle_prox_deviation",
    "oracle_conj_deviation",
]


# indicator boundaries carry a relative float margin so objective reporting
# stays finite at boundary-active solutions (iterates land within a few ulp
# of the box/ball edge)
INDICATOR_RTOL = 1e-9


def _beyond(x, bound):
    """True where x exceeds the bound by more than float roundoff."""
    return x > bound + INDICATOR_RTOL * max(1.0, abs(bound))


class Regularizer:
    """Conjugate pair: evaluators for h, h*, and prox of beta*h*."""

    kind = "abstract"
    #: magnitude scale of the prox displacement / conjugate domain,
    #: used to size oracle grids
    scale = 1.0

    def value_h(self, x):
        """h(x), possibly +inf; used for objective reporting only."""
        return float(np.sum(self._h_elem(np.asarray(x, dtype=float))))

    def penalty_value(self, x):
        """The finite penalty part of h, with the indicator dropped."""
        return float(np.sum(self._penalty_elem(np.asarray(x, dtype=float))))

    def conj_value(self, y):
        """h*(y) summed over coordinates."""
        return float(np.sum(self._conj_elem(np.asarray(y, dtype=float))))

    def prox_conj(self, v, beta):
        """argmin_u h*(u) + ||u - v||^2 / (2 beta), coordinate-wise."""
        if not beta > 0.0:
            raise ValueError("prox_conj: beta must be positive")
        return self._prox_elem(np.asarray(v, dtype=float), float(beta))

    # elementwise pieces, implemented per kind
    def _h_elem(self, x):
        raise NotImplementedError

    def _penalty_elem(self, x):
        raise NotImplementedError

    def _ramp(self):
        """(lo, hi, s_lo, s_hi): h* is 0 on [lo, hi], slope s_lo below, s_hi above."""
        raise NotImplementedError

    # Each linear piece is evaluated only where it applies, so an infinite
    # slope never meets a zero excess (inf * 0) or an infinite input
    # (inf - inf). The output arrays are made up front so that 0-d inputs
    # stay arrays. The upper piece also takes nan, which it keeps.
    def _conj_elem(self, y):
        lo, hi, s_lo, s_hi = self._ramp()
        out = np.zeros_like(y)
        np.multiply(s_hi, y - hi, out=out, where=~(y <= hi))
        np.multiply(s_lo, y - lo, out=out, where=y < lo)
        return out

    def _prox_elem(self, v, beta):
        lo, hi, s_lo, s_hi = self._ramp()
        u = np.clip(v, lo, hi, out=np.empty_like(v))
        np.subtract(v, beta * s_hi, out=u, where=v > hi + beta * s_hi)
        np.subtract(v, beta * s_lo, out=u, where=v < lo + beta * s_lo)
        return u


class L1(Regularizer):
    """h = lam * ||.||_1; h* is the indicator of the inf-ball of radius lam."""

    kind = "l1"

    def __init__(self, lam):
        if not lam > 0:
            raise ValueError("l1: lam must be positive")
        self.lam = float(lam)
        self.scale = self.lam

    def _h_elem(self, x):
        return self.lam * np.abs(x)

    def _penalty_elem(self, x):
        return self.lam * np.abs(x)

    def _ramp(self):
        return -self.lam, self.lam, -np.inf, np.inf


class L0Box(Regularizer):
    """h = lam * ||.||_0 + indicator of the box [c1, c2]^n, c1 < 0 < c2."""

    kind = "l0_box"

    def __init__(self, lam, c1, c2):
        if not (lam > 0 and c1 < 0 < c2):
            raise ValueError("l0_box: need lam > 0 and c1 < 0 < c2")
        self.lam = float(lam)
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.scale = max(self.c2, -self.c1)

    def _h_elem(self, x):
        outside = _beyond(x, self.c2) | _beyond(-x, -self.c1)
        return np.where(outside, np.inf, self._penalty_elem(x))

    def _penalty_elem(self, x):
        out = np.multiply(self.lam, x != 0, out=np.empty_like(x))
        # nan != 0 holds too, so put the nan back
        np.copyto(out, x, where=np.isnan(x))
        return out

    def _ramp(self):
        return self.lam / self.c1, self.lam / self.c2, self.c1, self.c2


class LpBall(Regularizer):
    """h = lam * ||.||_p^p (0 < p < 1) + indicator of ||.||_inf <= r."""

    kind = "lp_ball"

    def __init__(self, lam, p, r):
        if not (lam > 0 and 0 < p < 1 and r > 0):
            raise ValueError("lp_ball: need lam > 0, 0 < p < 1, r > 0")
        self.lam = float(lam)
        self.p = float(p)
        self.r = float(r)
        self.scale = self.r

    def _h_elem(self, x):
        return np.where(_beyond(np.abs(x), self.r), np.inf, self.lam * np.abs(x) ** self.p)

    def _penalty_elem(self, x):
        return self.lam * np.abs(x) ** self.p

    def _ramp(self):
        kink = self.lam * self.r ** (self.p - 1.0)
        return -kink, kink, -self.r, self.r


class ScadBox(Regularizer):
    """SCAD penalty plus the box indicator of [-r, r]^n.

    The conjugate collapses, in every parameter regime, to the convex
    ramp h*(y) = r * max(|y| - theta, 0) with a case-dependent kink
    theta, the same shape as the lp case.
    """

    kind = "scad_box"

    def __init__(self, lam, gamma, r):
        if not (lam > 0 and gamma > 2 and r > 0):
            raise ValueError("scad_box: need lam > 0, gamma > 2, r > 0")
        self.lam = float(lam)
        self.gamma = float(gamma)
        self.r = float(r)
        self.scale = self.r
        lam_, gam, r_ = self.lam, self.gamma, self.r
        if r_ < lam_:
            self.theta = lam_
        elif r_ < gam * lam_:
            self.theta = lam_ - (r_ - lam_) ** 2 / (2.0 * r_ * (gam - 1.0))
        else:
            self.theta = lam_**2 * (gam + 1.0) / (2.0 * r_)

    def penalty(self, w):
        """The scalar SCAD penalty, applied elementwise."""
        lam, gam = self.lam, self.gamma
        a = np.abs(w)
        out = np.where(a <= lam, lam * a, lam**2 * (gam + 1.0) / 2.0)
        # the quadratic is evaluated only where it applies, so a = inf never
        # meets inf - inf; nan fails both tests and lands there, which keeps it
        mid = ~((a <= lam) | (a > gam * lam))
        q = a[mid]
        out[mid] = (2.0 * gam * lam * q - q**2 - lam**2) / (2.0 * (gam - 1.0))
        return out

    def _h_elem(self, x):
        return np.where(_beyond(np.abs(x), self.r), np.inf, self.penalty(x))

    def _penalty_elem(self, x):
        return self.penalty(x)

    def _ramp(self):
        return -self.theta, self.theta, -self.r, self.r


@dataclass
class ProxOracle:
    """Exhaustive grid search settings for verifying prox_conj."""

    grid_lo: float
    grid_hi: float
    grid_step: float = 1e-4

    def grid(self):
        if not (self.grid_step > 0 and self.grid_hi > self.grid_lo):
            raise ValueError("prox oracle: empty grid")
        return np.arange(self.grid_lo, self.grid_hi + self.grid_step, self.grid_step)


def _default_oracle(reg, v, beta):
    half = max(10.0, 3.0 * (abs(v) + reg.scale * beta))
    return ProxOracle(grid_lo=-half, grid_hi=half)


def prox_conj_oracle(reg, v, beta, oracle=None):
    """Grid argmin of h*(u) + (u - v)^2 / (2 beta) for a scalar v.

    Test harness only; the default grid is [-max(10, 3(|v| + scale*beta)),
    +same] with step 1e-4, wide enough for every cataloged regularizer.
    """
    if not beta > 0.0:
        raise ValueError("prox oracle: beta must be positive")
    if oracle is None:
        oracle = _default_oracle(reg, float(v), float(beta))
    u = oracle.grid()
    vals = reg._conj_elem(u) + (u - float(v)) ** 2 / (2.0 * beta)
    return float(u[np.argmin(vals)])


def conj_value_oracle(reg, y, step=1e-4, unbounded_halfwidth=40.0):
    """Grid sup of y*x - h(x) for a scalar y.

    The grid spans dom h (the box or ball for the bounded kinds, a wide
    window for l1) and always contains x = 0 exactly, which matters for
    the l0 penalty. For l1 with |y| > lam the true sup is +inf; the
    returned value then grows with the window and the caller should
    only check that it exceeds any fixed bound.
    """
    if reg.kind == "l1":
        lo, hi = -unbounded_halfwidth, unbounded_halfwidth
    elif reg.kind == "l0_box":
        lo, hi = reg.c1, reg.c2
    else:
        lo, hi = -reg.r, reg.r
    xs = np.arange(lo, hi + step, step)
    xs = np.concatenate([xs, [0.0]])
    return float(np.max(float(y) * xs - reg._h_elem(xs)))


def oracle_prox_deviation(reg, points, betas, step=1e-4):
    """Max |closed-form prox - grid-oracle prox| over points x betas.

    Shares one grid (and one h* evaluation on it) per beta, which keeps
    the full conformance sweep fast without changing the oracle math.
    """
    points = np.asarray(points, dtype=float)
    worst = 0.0
    for beta in betas:
        closed = reg.prox_conj(points, beta)
        half = max(10.0, float(np.max(np.abs(points))) + reg.scale * (beta + 1.0) + 1.0)
        grid = np.arange(-half, half + step, step)
        hstar = reg._conj_elem(grid)
        for v, c in zip(points, closed):
            best = grid[np.argmin(hstar + (grid - v) ** 2 / (2.0 * beta))]
            worst = max(worst, abs(c - best))
    return worst


def oracle_conj_deviation(reg, points, step=1e-4):
    """Max |closed-form h* - grid sup| over finite-valued points."""
    worst = 0.0
    for y in np.asarray(points, dtype=float):
        closed = reg.conj_value(np.array([y]))
        if np.isinf(closed):
            continue
        worst = max(worst, abs(closed - conj_value_oracle(reg, y, step=step)))
    return worst
