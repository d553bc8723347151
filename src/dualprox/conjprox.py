"""Regularizers with closed-form conjugates and conjugate proximal maps.

Each regularizer h is nonconvex (or nonsmooth), but its conjugate h* is
convex, and for every kind here it has the same shape: a ramp that is
zero on [lo, hi] and linear with slopes s_lo < 0 < s_hi outside it. The
slopes are the endpoints of dom h = [s_lo, s_hi]; l1 is the case with
infinite slopes, where h* is the indicator of [-lam, lam]. A kind states
only its penalty (h on dom h) and its ramp ``(lo, hi, s_lo, s_hi)``; the
base class derives h (the penalty, +inf beyond dom h), h* and

    prox_{beta h*}(v) = v - beta*s_hi   if v > hi + beta*s_hi
                        clip(v, lo, hi) if lo + beta*s_lo <= v <= hi + beta*s_hi
                        v - beta*s_lo   if v < lo + beta*s_lo

The catalog covers:

* ``L1(lam)``:            h(x) = lam * ||x||_1
* ``L0Box(lam, c1, c2)``: h(x) = lam * ||x||_0 + indicator of [c1, c2]^n
* ``LpBall(lam, p, r)``:  h(x) = lam * ||x||_p^p + indicator of ||x||_inf <= r
* ``ScadBox(lam, gamma, r)``: SCAD penalty + indicator of [-r, r]^n

Each evaluator reads its input's span (min and max) before any full-size
pass and evaluates only the pieces some entry reaches: h* is +0.0 on the
flat part, h is the penalty inside dom h, and the prox writes a shifted
line only where an entry crosses its threshold. A nan fails every
comparison, so an input with a nan always takes the full path.

Everything acts coordinate-wise. A brute-force grid oracle backs the
prox, and ``dualprox prox-check`` runs it: ``prox_conj_oracle``
minimizes the prox objective over one grid per call, of the fixed step
``ORACLE_STEP``, centred on 0 with half-width max(10, max|v| +
scale*(beta + 1) + 1), which holds the minimizer. The test suite
checks h* against a grid sup of y*x - h(x) on the same step. For SCAD
the closed forms are the symmetrized ones the oracles certify (all
three parameter cases reduce to h*(y) = r * max(|y| - theta, 0)), not
the asymmetric variants sometimes quoted for this penalty.
"""

import numpy as np

__all__ = [
    "Regularizer",
    "L1",
    "L0Box",
    "LpBall",
    "ScadBox",
    "prox_conj_oracle",
    "oracle_prox_deviation",
]


# indicator boundaries carry a relative float margin so objective reporting
# stays finite at boundary-active solutions (iterates land within a few ulp
# of the box/ball edge)
INDICATOR_RTOL = 1e-9
# grid spacing of the brute-force oracles
ORACLE_STEP = 1e-4


class Regularizer:
    """Conjugate pair: evaluators for h, h*, and prox of beta*h*."""

    kind = "abstract"

    @property
    def scale(self):
        """Magnitude that sizes the oracle grids: max(-s_lo, s_hi), or max(-lo, hi) for l1."""
        lo, hi, s_lo, s_hi = self._ramp()
        return max(-lo, hi) if s_hi == np.inf else max(-s_lo, s_hi)

    # The span tests (see the module docstring) cost one reduction when the
    # first fails; an empty input has no span and takes the full path.
    def value_h(self, x):
        """h(x), possibly +inf; used for objective reporting only."""
        x = np.asarray(x, dtype=float)
        dom = self._dom_bounds()
        if x.size and dom[0] <= x.min() and x.max() <= dom[1]:
            return float(np.sum(self._penalty_elem(x)))
        return float(np.sum(self._h_elem(x, dom)))

    def penalty_value(self, x):
        """The finite penalty part of h, with the indicator dropped."""
        return float(np.sum(self._penalty_elem(np.asarray(x, dtype=float))))

    def conj_value(self, y):
        """h*(y) summed over coordinates."""
        y = np.asarray(y, dtype=float)
        ramp = self._ramp()
        # h* is +0.0 on every entry of the flat part, and so is their sum
        if y.size and ramp[0] <= y.min() and y.max() <= ramp[1]:
            return 0.0
        return float(np.sum(self._conj_elem(y, ramp)))

    def prox_conj(self, v, beta):
        """argmin_u h*(u) + ||u - v||^2 / (2 beta), coordinate-wise."""
        if not beta > 0.0:
            raise ValueError("prox_conj: beta must be positive")
        return self._prox_elem(np.asarray(v, dtype=float), float(beta))

    # elementwise pieces: a kind states _penalty_elem and _ramp
    def _penalty_elem(self, x):
        raise NotImplementedError

    def _ramp(self):
        """(lo, hi, s_lo, s_hi): h* is 0 on [lo, hi], slope s_lo below, s_hi above."""
        raise NotImplementedError

    def _dom_bounds(self):
        """(below, above): dom h = [s_lo, s_hi] widened by INDICATOR_RTOL.

        An infinite slope widens to itself.
        """
        _, _, s_lo, s_hi = self._ramp()
        return (s_lo - INDICATOR_RTOL * max(1.0, abs(s_lo)),
                s_hi + INDICATOR_RTOL * max(1.0, abs(s_hi)))

    # h is the penalty within _dom_bounds and +inf beyond; nan fails both
    # tests. +inf goes into the penalty's own new array (0-d for a scalar),
    # several times faster than an np.where output.
    def _h_elem(self, x, dom):
        below, above = dom
        out = np.asarray(self._penalty_elem(x))
        np.copyto(out, np.inf, where=(x > above) | (x < below))
        return out

    # With finite slopes h* is the larger of the two lines and 0, in one
    # pass. 0.0 is the second operand because np.maximum returns the second
    # of two equal zeros, and the lower line is -0.0 at y == lo. nan stays in
    # the upper line, which np.maximum keeps. Infinite slopes (L1) would
    # multiply a zero excess or meet inf - inf there, so each line is then
    # evaluated only where it applies. The output arrays are made up front
    # so that 0-d inputs stay arrays. ``ramp`` is self._ramp() when the
    # caller has it.
    def _conj_elem(self, y, ramp=None):
        lo, hi, s_lo, s_hi = self._ramp() if ramp is None else ramp
        if s_hi == np.inf:
            out = np.zeros_like(y)
            np.multiply(s_hi, y - hi, out=out, where=~(y <= hi))
            np.multiply(s_lo, y - lo, out=out, where=y < lo)
            return out
        out = np.multiply(s_hi, y - hi, out=np.empty_like(y))
        np.maximum(out, s_lo * (y - lo), out=out)
        return np.maximum(out, 0.0, out=out)

    # Each shifted line is written only when some entry crosses its
    # threshold; "not max <= top" holds for a nan, which keeps the masked
    # pass. With infinite slopes (L1) no finite entry crosses, so only the
    # clip runs.
    def _prox_elem(self, v, beta):
        lo, hi, s_lo, s_hi = self._ramp()
        u = np.clip(v, lo, hi, out=np.empty_like(v))
        if v.size:
            top = hi + beta * s_hi
            if not v.max() <= top:
                np.subtract(v, beta * s_hi, out=u, where=v > top)
            bottom = lo + beta * s_lo
            if not v.min() >= bottom:
                np.subtract(v, beta * s_lo, out=u, where=v < bottom)
        return u


class L1(Regularizer):
    """h = lam * ||.||_1; h* is the indicator of the inf-ball of radius lam."""

    kind = "l1"

    def __init__(self, lam):
        if not 0 < lam < np.inf:
            raise ValueError("l1: lam must be positive and finite")
        self.lam = float(lam)

    def _penalty_elem(self, x):
        return self.lam * np.abs(x)

    def _ramp(self):
        return -self.lam, self.lam, -np.inf, np.inf


class L0Box(Regularizer):
    """h = lam * ||.||_0 + indicator of the box [c1, c2]^n, c1 < 0 < c2."""

    kind = "l0_box"

    def __init__(self, lam, c1, c2):
        if not (0 < lam < np.inf and -np.inf < c1 < 0 < c2 < np.inf):
            raise ValueError("l0_box: need finite lam > 0 and c1 < 0 < c2")
        self.lam = float(lam)
        self.c1 = float(c1)
        self.c2 = float(c2)

    # sign(x)^2 is 1.0 off zero, +0.0 at either zero and x itself at a nan,
    # sign bit included; it is scaled in place (lam*1.0 = lam, lam*0.0 = +0.0)
    def _penalty_elem(self, x):
        out = np.sign(x, out=np.empty_like(x))
        out *= out
        out *= self.lam
        return out

    def _ramp(self):
        return self.lam / self.c1, self.lam / self.c2, self.c1, self.c2


class LpBall(Regularizer):
    """h = lam * ||.||_p^p (0 < p < 1) + indicator of ||.||_inf <= r."""

    kind = "lp_ball"

    def __init__(self, lam, p, r):
        if not (0 < lam < np.inf and 0 < p < 1 and 0 < r < np.inf):
            raise ValueError("lp_ball: need finite lam > 0, 0 < p < 1, finite r > 0")
        self.lam = float(lam)
        self.p = float(p)
        self.r = float(r)
        try:
            finite = self._ramp()[1] < np.inf
        except OverflowError:  # r ** (p - 1) past the largest float
            finite = False
        if not finite:
            raise ValueError("lp_ball: the kink lam * r**(p - 1) overflows a float")

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
        if not (0 < lam < np.inf and 2 < gamma < np.inf and 0 < r < np.inf):
            raise ValueError("scad_box: need finite lam > 0, gamma > 2, r > 0")
        self.lam = float(lam)
        self.gamma = float(gamma)
        self.r = float(r)
        lam_, gam, r_ = self.lam, self.gamma, self.r
        # the largest product the penalty forms; theta's numerators stay below it
        if not 2.0 * gam * lam_ * (gam * lam_) < np.inf:
            raise ValueError("scad_box: 2 (gamma * lam)**2 overflows a float")
        # theta's denominator: 2 r (gamma - 1) below r = gamma * lam, 2 r from there on
        if not 2.0 * r_ * (gam - 1.0 if r_ < gam * lam_ else 1.0) < np.inf:
            raise ValueError("scad_box: theta's denominator overflows a float")
        if r_ < lam_:
            self.theta = lam_
        elif r_ < gam * lam_:
            self.theta = lam_ - (r_ - lam_) ** 2 / (2.0 * r_ * (gam - 1.0))
        else:
            self.theta = lam_**2 * (gam + 1.0) / (2.0 * r_)

    # Each piece is evaluated everywhere on |x| capped to its own end, so no
    # entry overflows or meets inf - inf, and each is then weighted by its
    # 0/1 mask and summed. That is exact: p*1 = p, p*0 = ±0 and p ± 0 = p.
    # nan passes the caps and lands in every piece, so it stays nan. Masked
    # writes (np.where, where=) took longer than all the arithmetic here.
    # The out= arrays keep a 0-d input an array.
    def _penalty_elem(self, x):
        lam, gam = self.lam, self.gamma
        a = np.abs(x, out=np.empty_like(x))
        low = a <= lam
        high = a > gam * lam
        q = np.minimum(a, gam * lam, out=np.empty_like(a))
        out = np.multiply(2.0 * gam * lam, q, out=np.empty_like(a))
        out -= np.square(q, out=q)
        out -= lam**2
        out /= 2.0 * (gam - 1.0)
        out *= ~(low | high)
        np.minimum(a, lam, out=q)
        q *= lam
        q *= low
        out += q
        out += np.multiply(high, lam**2 * (gam + 1.0) / 2.0, out=q)
        return out

    def _ramp(self):
        return -self.theta, self.theta, -self.r, self.r


def prox_conj_oracle(reg, v, beta):
    """Grid argmin of h*(u) + (u - v)^2 / (2 beta) for each entry of v.

    ``dualprox prox-check`` runs it, and so do the tests. One grid per
    call, of step ORACLE_STEP and half-width max(10, max|v| +
    scale*(beta + 1) + 1): the minimizer has |u*| <= |v| + beta*scale
    (|u*| <= |v| for l1), so the grid holds it. Returns a float for a
    scalar v, else v's shape.
    """
    if not beta > 0.0:
        raise ValueError("prox oracle: beta must be positive")
    v = np.asarray(v, dtype=float)
    half = max(10.0, float(np.max(np.abs(v), initial=0.0)) + reg.scale * (beta + 1.0) + 1.0)
    grid = np.arange(-half, half + ORACLE_STEP, ORACLE_STEP)
    hstar = reg._conj_elem(grid)
    best = np.array([grid[np.argmin(hstar + (grid - x) ** 2 / (2.0 * beta))]
                     for x in v.ravel()]).reshape(v.shape)
    return float(best) if v.ndim == 0 else best


def oracle_prox_deviation(reg, points, betas):
    """Max |closed-form prox - grid-oracle prox| over points x betas."""
    points = np.asarray(points, dtype=float)
    gaps = [np.abs(reg.prox_conj(points, b) - prox_conj_oracle(reg, points, b)) for b in betas]
    return float(np.max(gaps, initial=0.0))

