import warnings

import numpy as np
import pytest

from conftest import conj_value_oracle, oracle_conj_deviation
from dualprox import conjprox, dataio, ppdg, problems
from dualprox.conjprox import (
    L0Box,
    L1,
    LpBall,
    ScadBox,
    prox_conj_oracle,
)


def catalog():
    return [
        L1(2.0),
        L0Box(0.1, -1.0, 1.0),
        LpBall(1.0, 0.5, 1.0),
        ScadBox(1.0, 3.0, 0.5),   # r < lam
        ScadBox(1.0, 3.0, 2.0),   # lam <= r < gamma*lam
        ScadBox(0.1, 3.0, 1.0),   # r >= gamma*lam
    ]


def test_parameter_validation():
    # the last seven: parameters whose derived constants overflow a float (the last two:
    # theta's denominator, 2 r (gamma - 1) below r = gamma lam and 2 r above it)
    for kind, args in [(L1, (0.0,)), (L0Box, (0.1, 0.5, 1.0)), (LpBall, (1.0, 1.5, 1.0)),
                       (ScadBox, (1.0, 2.0, 1.0)), (ScadBox, (1e200, 3.0, 1e201)),
                       (ScadBox, (1e200, 3.0, 1.0)), (LpBall, (1.0, 0.01, 1e-320)),
                       (ScadBox, (1e-200, 1e308, 1.0)),  # 2 gamma alone overflows
                       (LpBall, (1e300, 0.5, 1e-20)),  # r**(p - 1) is finite, lam times it not
                       (ScadBox, (1e-154, 8e307, 1e153)), (ScadBox, (1.0, 3.0, 1e308))]:
        with pytest.raises(ValueError, match=f"^{kind.kind}: "):
            kind(*args)
    # the largest accepted gamma * lam still gives a finite penalty everywhere
    assert np.isfinite(ScadBox(1.0, 9e153, 1e160).value_h(np.array([0.0, 1.0, 5e153, 1e160])))
    assert ScadBox(1.0, 3.0, 5e307).theta == 4.0 / 1e308  # 2 r just below inf: theta is not 0


# --- conjugate values ---------------------------------------------------


def test_l1_conjugate_is_ball_indicator():
    reg = L1(2.0)
    assert reg.conj_value(np.array([1.0, -2.0])) == 0.0
    assert reg.conj_value(np.array([3.0, 0.0])) == np.inf


def test_l0_box_conjugate_derived_value():
    # grid sup oracle gives c2*y - lam = 0.4 at y = 0.5
    reg = L0Box(0.1, -1.0, 1.0)
    assert reg.conj_value(np.array([0.5])) == pytest.approx(0.4)
    assert reg.conj_value(np.array([0.5])) == pytest.approx(
        conj_value_oracle(reg, 0.5), abs=1e-3
    )


def test_lp_conjugate_derived_value():
    reg = LpBall(1.0, 0.5, 1.0)
    assert reg.conj_value(np.array([3.0])) == pytest.approx(2.0)
    assert reg.conj_value(np.array([3.0])) == pytest.approx(
        conj_value_oracle(reg, 3.0), abs=1e-3
    )


def test_conjugate_grid_sup_consistency():
    rng = np.random.default_rng(17)
    for reg in catalog():
        ys = rng.uniform(-2.0 * reg.scale - 2.0, 2.0 * reg.scale + 2.0, size=40)
        assert oracle_conj_deviation(reg, ys) <= 1e-3


def test_l1_conjugate_infinite_branch_matches_growing_sup():
    reg = L1(1.0)
    # outside the ball the sup grows linearly with the grid halfwidth
    small = conj_value_oracle(reg, 1.5, unbounded_halfwidth=20.0)
    large = conj_value_oracle(reg, 1.5, unbounded_halfwidth=40.0)
    assert reg.conj_value(np.array([1.5])) == np.inf
    assert large > small > 5.0


def test_conjugate_convexity_per_coordinate():
    rng = np.random.default_rng(5)
    for reg in catalog():
        for _ in range(200):
            y, z = rng.uniform(-3, 3, size=2)
            t = rng.uniform()
            lhs = reg._conj_elem(np.array([t * y + (1 - t) * z]))[0]
            rhs = t * reg._conj_elem(np.array([y]))[0] + (1 - t) * reg._conj_elem(
                np.array([z])
            )[0]
            if np.isinf(rhs):
                continue
            assert lhs <= rhs + 1e-9


# --- primal values ------------------------------------------------------


def test_value_h_l0_box():
    reg = L0Box(0.1, -1.0, 1.0)
    assert reg.value_h(np.array([0.0, 0.5, -1.0])) == pytest.approx(0.2)
    assert reg.value_h(np.array([2.0, 0.0, 0.0])) == np.inf


def test_value_h_lp():
    reg = LpBall(2.0, 0.5, 1.0)
    assert reg.value_h(np.array([0.25, 0.0])) == pytest.approx(1.0)


def test_value_h_scad_saturated_branch():
    # |w| > gamma*lam: penalty saturates at lam^2 (gamma+1) / 2
    reg = ScadBox(1.0, 3.0, 10.0)
    assert reg.value_h(np.array([5.0])) == pytest.approx(2.0)


def test_each_kind_states_only_its_penalty_and_its_ramp():
    kinds = {
        cls for cls in vars(conjprox).values()
        if isinstance(cls, type) and issubclass(cls, conjprox.Regularizer)
    } - {conjprox.Regularizer}
    assert kinds == {L1, L0Box, LpBall, ScadBox}
    for cls in kinds:
        stated = {name for name, value in vars(cls).items() if callable(value)}
        assert stated <= {"__init__", "_penalty_elem", "_ramp"}, cls.__name__
        # the benchmark tracer wraps these four on the base class
        public = {"value_h", "penalty_value", "conj_value", "prox_conj"}
        assert not public & set(vars(cls)), cls.__name__
    # the oracle grids' scale is read off the ramp, not stated
    for reg in catalog():
        assert "scale" not in vars(reg), reg.kind


def test_value_h_domain_ends_carry_the_relative_margin():
    # ends read from each kind's own parameters, all of magnitude >= 1, so
    # the margin INDICATOR_RTOL * max(1, |end|) is relative to the end
    kinds = [
        L0Box(0.1, -2.0, 3.0),
        L0Box(0.5, -1.0, 1e6),
        LpBall(1.0, 0.5, 1.5),
        ScadBox(1.0, 3.0, 2.0),
        ScadBox(0.1, 3.0, 1.0),
    ]
    for reg in kinds:
        ends = (reg.c1, reg.c2) if isinstance(reg, L0Box) else (-reg.r, reg.r)
        for end in ends:
            assert np.isfinite(reg.value_h(end * (1 + 0.5e-9))), (reg.kind, end)
            assert reg.value_h(end * (1 + 2e-9)) == np.inf, (reg.kind, end)
    assert np.isfinite(L1(2.0).value_h(np.array([1e300, -1e300])))


def test_base_class_declares_every_elementwise_piece():
    class Bare(conjprox.Regularizer):
        pass

    reg = Bare()
    x = np.zeros(2)
    for evaluate in (reg.value_h, reg.penalty_value, reg.conj_value,
                     lambda v: reg.prox_conj(v, 1.0)):
        with pytest.raises(NotImplementedError):
            evaluate(x)


# --- closed-form prox against hand values --------------------------------


def test_prox_l1_is_projection():
    reg = L1(2.0)
    v = np.array([3.0, -1.0, 0.5])
    for beta in (0.1, 1.0, 7.3):
        assert np.allclose(reg.prox_conj(v, beta), [2.0, -1.0, 0.5])


def test_prox_l0_box_cases():
    reg = L0Box(0.1, -1.0, 1.0)
    got = reg.prox_conj(np.array([2.0, 0.5, 0.0]), 1.0)
    assert np.allclose(got, [1.0, 0.1, 0.0])


def test_prox_lp_cases():
    reg = LpBall(1.0, 0.5, 1.0)
    got = reg.prox_conj(np.array([0.5, 1.5, -3.0]), 1.0)
    assert np.allclose(got, [0.5, 1.0, -2.0])


def test_prox_scad_small_r_case():
    reg = ScadBox(1.0, 3.0, 0.5)
    got = reg.prox_conj(np.array([2.0, 1.2, 0.3]), 1.0)
    assert np.allclose(got, [1.5, 1.0, 0.3])


def test_prox_rejects_bad_beta():
    with pytest.raises(ValueError):
        L1(1.0).prox_conj(np.array([1.0]), 0.0)


def test_prox_special_values():
    # +-inf lie beyond a finite slope's shifted branch and stay infinite;
    # l1's slopes are infinite, so it projects them onto [-lam, lam]
    v = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    for reg in catalog():
        edge = reg.lam if reg.kind == "l1" else np.inf
        for beta in (0.3, 7.0):
            got = reg.prox_conj(v, beta)
            assert got[0] == 0.0 and got[1] == 0.0, reg.kind
            assert got[2] == edge and got[3] == -edge, reg.kind
            assert np.isnan(got[4]), reg.kind


def test_nan_input_gives_nan_values():
    for reg in catalog():
        for value in (reg.conj_value, reg.value_h, reg.penalty_value):
            assert np.isnan(value(np.nan)), (reg.kind, value.__name__)
            assert np.isnan(value(np.array([0.3, np.nan, -0.2]))), (reg.kind, value.__name__)


def test_infinite_input_gives_infinite_h_without_warnings():
    infs = np.array([np.inf, -np.inf])
    for reg in catalog():
        if isinstance(reg, (L1, LpBall)):
            per_entry = np.inf
        elif isinstance(reg, L0Box):
            per_entry = reg.lam
        else:
            per_entry = reg.lam**2 * (reg.gamma + 1.0) / 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert reg.value_h(infs) == np.inf, reg.kind
            assert reg.penalty_value(infs) == 2.0 * per_entry, reg.kind


def test_zero_dimensional_inputs():
    for reg in catalog():
        for beta in (0.3, 7.0):
            got = reg.prox_conj(0.7, beta)
            assert np.ndim(got) == 0
            assert float(got) == reg.prox_conj(np.array([0.7]), beta)[0], reg.kind
        for value in (reg.conj_value, reg.value_h, reg.penalty_value):
            for x in (0.7, 3.0):
                assert value(x) == value(np.array([x])), (reg.kind, value.__name__, x)


# --- grid oracle --------------------------------------------------------


def test_oracle_examples():
    assert prox_conj_oracle(L1(1.0), 0.5, 1.0) == pytest.approx(0.5, abs=1e-4)
    assert prox_conj_oracle(L0Box(0.1, -1.0, 1.0), -2.0, 1.0) == pytest.approx(-1.0, abs=1e-4)
    # scad case (iii): 0 sits in the flat region of h*
    assert prox_conj_oracle(ScadBox(0.1, 3.0, 1.0), 0.0, 1.0) == pytest.approx(0.0, abs=1e-4)


def test_oracle_rejects_bad_beta():
    with pytest.raises(ValueError):
        prox_conj_oracle(L1(1.0), 0.0, -1.0)


def test_oracle_argmin_tracks_closed_form_within_grid_step():
    reg = L0Box(0.2, -0.5, 1.5)
    for v in (-3.0, -0.4, 0.05, 0.9, 4.0):
        closed = reg.prox_conj(np.array([v]), 0.7)[0]
        assert prox_conj_oracle(reg, v, 0.7) == pytest.approx(
            closed, abs=5e-4
        )


# --- structural properties ----------------------------------------------


def test_moreau_identity_l1():
    # prox_{beta h*}(v) = v - beta * prox_{h / beta}(v / beta) for h = lam |.|
    rng = np.random.default_rng(23)
    lam = 0.8
    reg = L1(lam)
    for _ in range(1000):
        v = rng.uniform(-5, 5)
        beta = rng.uniform(0.05, 10.0)
        soft = np.sign(v / beta) * max(abs(v / beta) - lam / beta, 0.0)
        recon = reg.prox_conj(np.array([v]), beta)[0] + beta * soft
        assert abs(recon - v) <= 1e-10


def test_prox_is_nonexpansive():
    rng = np.random.default_rng(31)
    for reg in catalog():
        for _ in range(200):
            v1, v2 = rng.uniform(-6, 6, size=2)
            beta = rng.choice([0.1, 1.0, 10.0])
            p1 = reg.prox_conj(np.array([v1]), beta)[0]
            p2 = reg.prox_conj(np.array([v2]), beta)[0]
            assert abs(p1 - p2) <= abs(v1 - v2) + 1e-12


def test_fenchel_young_at_prox_output():
    # u_proj maximizes g*x - h(x) on the grid; the conjugate value must
    # dominate g*u_proj - h(u_proj)
    rng = np.random.default_rng(13)
    for reg in catalog():
        xs_hi = reg.scale if reg.kind != "l1" else 10.0
        xs = np.concatenate([np.arange(-xs_hi, xs_hi + 1e-3, 1e-3), [0.0]])
        dom = reg._dom_bounds()
        hx = reg._h_elem(xs, dom)
        for _ in range(25):
            v = rng.uniform(-4, 4)
            beta = rng.choice([0.5, 2.0])
            g = reg.prox_conj(np.array([v]), beta)[0]
            u_proj = xs[np.argmax(g * xs - hx)]
            lhs = reg._conj_elem(np.array([g]))[0] + reg._h_elem(np.array([u_proj]), dom)[0]
            assert lhs >= g * u_proj - 1e-6


def test_prox_continuity_across_kinks():
    eps = 1e-9
    for reg in catalog():
        for beta in (0.3, 2.0):
            kinks = {
                "l1": [reg.lam if hasattr(reg, "lam") else 1.0],
                "l0_box": [reg.lam / reg.c2, reg.lam / reg.c1] if isinstance(reg, L0Box) else [],
            }.get(reg.kind, [])
            if isinstance(reg, (LpBall, ScadBox)):
                kink = reg.lam * reg.r ** (reg.p - 1) if isinstance(reg, LpBall) else reg.theta
                kinks = [kink, kink + reg.r * beta, -kink, -kink - reg.r * beta]
            for t in kinks:
                lo = reg.prox_conj(np.array([t - eps]), beta)[0]
                hi = reg.prox_conj(np.array([t + eps]), beta)[0]
                assert abs(hi - lo) <= 1e-6


def test_operations_are_coordinate_wise():
    rng = np.random.default_rng(77)
    for reg in catalog():
        v = rng.uniform(-4, 4, size=6)
        beta = 0.7
        vec = reg.prox_conj(v, beta)
        scalar = np.array([reg.prox_conj(np.array([vi]), beta)[0] for vi in v])
        assert np.array_equal(vec, scalar)
        assert reg.conj_value(v) == pytest.approx(
            sum(reg.conj_value(np.array([vi])) for vi in v), abs=1e-12
        )


# --- the one-pass forms against the masked forms they replaced -----------


def masked_conj(reg, y):
    lo, hi, s_lo, s_hi = reg._ramp()
    out = np.zeros_like(y)
    np.multiply(s_hi, y - hi, out=out, where=~(y <= hi))
    np.multiply(s_lo, y - lo, out=out, where=y < lo)
    return out


def gather_scatter_scad(reg, x):
    lam, gam = reg.lam, reg.gamma
    a = np.abs(x)
    out = np.where(a <= lam, lam * a, lam**2 * (gam + 1.0) / 2.0)
    mid = ~((a <= lam) | (a > gam * lam))
    q = a[mid]
    out[mid] = (2.0 * gam * lam * q - q**2 - lam**2) / (2.0 * (gam - 1.0))
    return out


def special_points(*ends):
    points = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 0.3, -0.7, 2.5]
    for end in ends:
        points += [end, np.nextafter(end, np.inf), np.nextafter(end, -np.inf)]
    return np.array(points)


def assert_bitwise_equal(got, want):
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_conj_matches_the_masked_form_at_ends_zeros_and_non_finite_inputs():
    for reg in catalog():
        lo, hi, _, _ = reg._ramp()
        y = special_points(lo, hi, -lo, -hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_bitwise_equal(reg._conj_elem(y), masked_conj(reg, y))
            for v in y:
                assert_bitwise_equal(reg._conj_elem(np.array(v)), masked_conj(reg, np.array(v)))


def test_conj_is_plus_zero_on_the_flat_part():
    for reg in catalog():
        lo, hi, _, _ = reg._ramp()
        got = reg._conj_elem(np.array([lo, hi, 0.0, -0.0, 0.5 * (lo + hi)]))
        assert np.all(got == 0.0) and not np.any(np.signbit(got)), reg.kind


def test_scad_penalty_matches_the_gather_scatter_form():
    rng = np.random.default_rng(3)
    for reg in (r for r in catalog() if isinstance(r, ScadBox)):
        ends = (reg.lam, reg.gamma * reg.lam, reg.r)
        x = np.concatenate([special_points(*ends, *(-e for e in ends)),
                            rng.uniform(-2 * reg.r, 2 * reg.r, 500)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_bitwise_equal(reg._penalty_elem(x), gather_scatter_scad(reg, x))
            for v in x[:20]:
                assert_bitwise_equal(reg._penalty_elem(np.array(v)),
                                     gather_scatter_scad(reg, np.array(v)))


# --- the span tests against the full masked evaluation -------------------


def masked_prox(reg, v, beta):
    lo, hi, s_lo, s_hi = reg._ramp()
    u = np.clip(v, lo, hi, out=np.empty_like(v))
    np.subtract(v, beta * s_hi, out=u, where=v > hi + beta * s_hi)
    np.subtract(v, beta * s_lo, out=u, where=v < lo + beta * s_lo)
    return u


def span_inputs(a, b, *ends):
    """Arrays wholly in [a, b], each special point alone, 0-d and beside them, and empty.

    Infinite ends are left out: special_points has +-inf already.
    """
    inside = np.array([a, b, 0.5 * (a + b), 0.0, -0.0])  # every [a, b] here holds 0
    points = special_points(a, b, *(end for end in ends if np.isfinite(end)))
    arrays = [inside, points, np.array([])]
    for p in points:
        arrays += [np.array(p), np.array([p]), np.append(inside, p), np.append(p, inside)]
    return arrays


def test_span_tests_match_the_full_masked_evaluation_bit_for_bit():
    for reg in catalog():
        lo, hi, s_lo, s_hi = reg._ramp()
        below, above = reg._dom_bounds()
        for y in span_inputs(lo, hi):
            assert_bitwise_equal(reg.conj_value(y), float(np.sum(reg._conj_elem(y))))
        for x in span_inputs(max(below, -1e6), min(above, 1e6), below, above, s_lo, s_hi):
            assert_bitwise_equal(reg.value_h(x), float(np.sum(reg._h_elem(x, (below, above)))))
        for beta in (0.3, 7.0):
            bottom, top = lo + beta * s_lo, hi + beta * s_hi
            for v in span_inputs(max(bottom, -1e6), min(top, 1e6), bottom, top, lo, hi):
                assert_bitwise_equal(reg.prox_conj(v, beta), masked_prox(reg, v, beta))


def l0_product_form(reg, x):
    out = np.multiply(reg.lam, x != 0, out=np.empty_like(x))
    np.copyto(out, x, where=np.isnan(x))
    return out


def test_l0_penalty_matches_the_product_with_the_bool_mask():
    reg = L0Box(0.1, -1.0, 1.0)
    x = np.concatenate([special_points(reg.c1, reg.c2, 1e-300, -1e-300),
                        np.random.default_rng(5).uniform(-2.0, 2.0, 200)])
    assert_bitwise_equal(reg._penalty_elem(x), l0_product_form(reg, x))
    for v in x[:20]:
        assert_bitwise_equal(reg._penalty_elem(np.array(v)), l0_product_form(reg, np.array(v)))


def test_conj_value_on_a_settled_denoise_run_never_evaluates_the_ramp(monkeypatch):
    img = dataio.add_gaussian_noise(problems.blocks_image(32, 32), 0.05, 3)
    prob = problems.build_denoise(img)
    calls = []
    conj_elem = conjprox.Regularizer._conj_elem

    def spy(self, y, ramp=None):
        calls.append(y.size)
        return conj_elem(self, y, ramp)

    monkeypatch.setattr(conjprox.Regularizer, "_conj_elem", spy)
    config = ppdg.PpdgConfig(alpha=ppdg.default_alpha(prob.lipschitz_L), max_iters=50,
                             tol_step=0.0)
    records = []
    ppdg.solve(prob, config, trace_sink=records.append)
    assert len(records) == 50 and calls == []
    # the spy sees the full path once the dual leaves the flat part
    lo, _, _, _ = prob.regularizer._ramp()
    assert prob.regularizer.conj_value(np.array([2.0 * lo])) > 0.0
    assert calls == [1]
