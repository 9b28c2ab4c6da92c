"""Property tests of the friction-pyramid projection used by the convex solver.

The scalar closed form in ``cubetoss.solvers`` must reproduce, bit for bit,
the vectorized numpy projection it replaced; that version is frozen below as
the oracle. The KKT tests check the projection on its own terms.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cubetoss.solvers import _pyramid_project

PROPERTY_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def vectorized_pyramid_project(lam: np.ndarray, mu: float) -> np.ndarray:
    """The former numpy projection: every candidate for every contact, then argmin."""
    n0 = lam[0::3]
    t1 = lam[1::3]
    t2 = lam[2::3]
    if mu == 0.0:
        out = np.zeros_like(lam)
        out[0::3] = np.maximum(0.0, n0)
        return out
    a0 = np.abs(t1)
    b0 = np.abs(t2)
    big = np.inf
    feas0 = (a0 <= mu * n0) & (b0 <= mu * n0)
    n1 = (n0 + mu * a0) / (1.0 + mu * mu)
    feas1 = (n1 >= 0.0) & (b0 <= mu * n1)
    d1 = np.where(feas1, (n1 - n0) ** 2 + (mu * n1 - a0) ** 2, big)
    n2 = (n0 + mu * b0) / (1.0 + mu * mu)
    feas2 = (n2 >= 0.0) & (a0 <= mu * n2)
    d2 = np.where(feas2, (n2 - n0) ** 2 + (mu * n2 - b0) ** 2, big)
    n3 = (n0 + mu * (a0 + b0)) / (1.0 + 2.0 * mu * mu)
    feas3 = n3 >= 0.0
    d3 = np.where(feas3, (n3 - n0) ** 2 + (mu * n3 - a0) ** 2 + (mu * n3 - b0) ** 2, big)
    d4 = n0 * n0 + a0 * a0 + b0 * b0
    dists = np.stack([d1, d2, d3, d4])
    choice = np.argmin(dists, axis=0)
    n_new = np.choose(choice, [n1, n2, n3, np.zeros_like(n0)])
    a_new = np.choose(choice, [mu * n1, np.minimum(a0, mu * n2), mu * n3, np.zeros_like(a0)])
    b_new = np.choose(choice, [np.minimum(b0, mu * n1), mu * n2, mu * n3, np.zeros_like(b0)])
    n_new = np.where(feas0, n0, n_new)
    a_new = np.where(feas0, a0, a_new)
    b_new = np.where(feas0, b0, b_new)
    out = np.empty_like(lam)
    out[0::3] = n_new
    out[1::3] = np.copysign(a_new, t1)
    out[2::3] = np.copysign(b_new, t2)
    return out


mus = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
# signed magnitudes from 1e-9 to 1e3, and exact zeros of both signs
components = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from([-1.0, 1.0]), st.floats(-9.0, 3.0)),
)
TIES = ("none", "t1=t2", "t1=mu*n", "t2=mu*n", "t1=t2=mu*n")


@st.composite
def contacts(draw, mu):
    """One contact (n, t1, t2), optionally placed on a tie between candidates."""
    n, t1, t2 = draw(components), draw(components), draw(components)
    tie = draw(st.sampled_from(TIES))
    if tie == "t1=t2":
        t2 = math.copysign(abs(t1), t2)
    elif tie == "t1=mu*n":
        t1 = math.copysign(mu * n, t1)
    elif tie == "t2=mu*n":
        t2 = math.copysign(mu * n, t2)
    elif tie == "t1=t2=mu*n":
        t1 = math.copysign(mu * n, t1)
        t2 = math.copysign(mu * n, t2)
    return [n, t1, t2]


@st.composite
def projection_inputs(draw):
    mu = draw(mus)
    nc = draw(st.integers(1, 8))
    vals = [v for _ in range(nc) for v in draw(contacts(mu))]
    return np.array(vals), mu


@PROPERTY_SETTINGS
@given(projection_inputs())
def test_projection_matches_vectorized_oracle(inp):
    x, mu = inp
    expected = vectorized_pyramid_project(x.copy(), mu)
    # the oracle passes n < 0 as feasible when mu * n underflows to -0.0 with
    # t = 0 (it tests 0 <= -0.0); the closed form sends that point to the apex
    expected[np.repeat(expected[0::3] < 0.0, 3)] = 0.0
    assert np.array_equal(_pyramid_project(x.copy(), mu), expected)


def test_projection_underflowing_cone_bound_goes_to_apex():
    x = np.array([-0.1, 0.0, 0.0, 0.2, 0.0, -0.0])
    assert vectorized_pyramid_project(x.copy(), 5e-324)[0] == -0.1
    assert np.array_equal(_pyramid_project(x.copy(), 5e-324), [0.0, 0.0, 0.0, 0.2, 0.0, 0.0])


@PROPERTY_SETTINGS
@given(projection_inputs(), st.data())
def test_projection_kkt(inp, data):
    x, mu = inp
    p = _pyramid_project(x.copy(), mu)
    n, t1, t2 = p[0::3], p[1::3], p[2::3]
    # feasible: the candidates put the tangential magnitudes exactly on mu * n
    assert np.all(n >= 0.0)
    assert np.all(np.abs(t1) <= mu * n)
    assert np.all(np.abs(t2) <= mu * n)
    # complementarity of a projection onto a cone: p is orthogonal to x - p
    r = x - p
    scale = 1e-12 * (1.0 + float(x @ x))
    assert abs(float(p @ r)) <= scale
    # variational inequality: no feasible y lies at an acute angle to x - p
    nc = x.size // 3
    for _ in range(5):
        ny = np.array(data.draw(st.lists(st.floats(0.0, 1e3), min_size=nc, max_size=nc)))
        ty = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * nc, max_size=2 * nc)))
        y = np.empty_like(x)
        y[0::3] = ny
        y[1::3] = ty[0::2] * mu * ny
        y[2::3] = ty[1::2] * mu * ny
        assert float(r @ (y - p)) <= 1e-12 * (1.0 + float(x @ x) + float(y @ y))


def test_projection_propagates_nan():
    for mu in (0.0, 0.5):
        for k in ((0,) if mu == 0.0 else (0, 1, 2)):
            x = np.array([0.3, 0.1, -0.2, 1.0, 0.0, 0.0])
            x[k] = np.nan
            p = _pyramid_project(x, mu)
            assert np.isnan(p[:3]).any(), (mu, k)
            assert np.array_equal(p[3:], vectorized_pyramid_project(x[3:].copy(), mu))
