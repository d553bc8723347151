"""Property tests of the conjugate prox over drawn regularizer parameters."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dualprox.conjprox import L0Box, L1, LpBall, ScadBox  # noqa: E402

positive = st.floats(0.01, 10.0)
regularizers = st.one_of(
    st.builds(L1, positive),
    st.builds(L0Box, positive, st.floats(-10.0, -0.01), positive),
    st.builds(LpBall, positive, st.floats(0.05, 0.95), positive),
    st.builds(ScadBox, positive, st.floats(2.01, 10.0), positive),
)
points = st.floats(-50.0, 50.0)
betas = st.floats(0.01, 100.0)
# float roundoff, relative to the size of the compared values
RTOL = 1e-12

property_settings = settings(derandomize=True, max_examples=200, database=None, deadline=None)


def prox_objective(reg, w, v, beta):
    return reg.conj_value(w) + (w - v) ** 2 / (2.0 * beta)


@property_settings
@given(regularizers, points, betas, points, st.floats(-1.0, 1.0))
def test_prox_minimizes_the_conjugate_objective(reg, v, beta, w, step):
    # h*(u) + (u - v)^2 / 2 beta at u = prox is no larger than at a drawn
    # point w or at a point near u
    u = float(reg.prox_conj(v, beta))
    best = prox_objective(reg, u, v, beta)
    for rival in (w, u + step):
        other = prox_objective(reg, rival, v, beta)
        assert best <= other + RTOL * max(1.0, abs(other))


@property_settings
@given(regularizers, points, points, betas)
def test_prox_is_firmly_nonexpansive(reg, v1, v2, beta):
    # |u1 - u2|^2 <= (u1 - u2)(v1 - v2) for the prox of a convex function
    du = float(reg.prox_conj(v1, beta)) - float(reg.prox_conj(v2, beta))
    dv = v1 - v2
    assert du * du <= du * dv + RTOL * max(1.0, dv * dv)
