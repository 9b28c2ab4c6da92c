"""Property tests of the friction-pyramid projection used by the convex solver.

The scalar closed form in ``cubetoss.solvers`` must reproduce, bit for bit,
the vectorized numpy projection it replaced; that version is frozen below as
the oracle. The fused gradient step must reproduce the numpy step followed by
that projection. The KKT tests check the projection on its own terms.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cubetoss.solvers import _projected_step, _pyramid_project_floats

PROPERTY_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def project(lam: np.ndarray, mu: float) -> np.ndarray:
    """The live projection of a flat impulse array, as an array."""
    return np.array(_pyramid_project_floats(lam.tolist(), mu))


def vectorized_pyramid_project(lam: np.ndarray, mu: float, scalar_nan_rules: bool = False) -> np.ndarray:
    """The former numpy projection: every candidate for every contact, then argmin.

    Its NaN comparisons are numpy's: argmin picks the first NaN distance and
    np.minimum returns NaN. scalar_nan_rules applies those of the scalar
    closed form instead: a NaN distance of the second to fourth candidate
    loses to every other (no distance compares below the first candidate's,
    so a NaN there wins), and min(a, m) is a unless m < a. The two agree
    wherever no distance is NaN and no tangent bound meets a NaN.
    """
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
    minimum = np.minimum
    if scalar_nan_rules:
        dists[1:][np.isnan(dists[1:])] = big
        minimum = scalar_min
    choice = np.argmin(dists, axis=0)
    # the apex, when nothing else is feasible, even at an infinite distance; a NaN one keeps NaN
    choice = np.where(~(feas1 | feas2 | feas3) & ~np.isnan(d4), 3, choice)
    n_new = np.choose(choice, [n1, n2, n3, np.zeros_like(n0)])
    a_new = np.choose(choice, [mu * n1, minimum(a0, mu * n2), mu * n3, np.zeros_like(a0)])
    b_new = np.choose(choice, [minimum(b0, mu * n1), mu * n2, mu * n3, np.zeros_like(b0)])
    n_new = np.where(feas0, n0, n_new)
    a_new = np.where(feas0, a0, a_new)
    b_new = np.where(feas0, b0, b_new)
    out = np.empty_like(lam)
    out[0::3] = n_new
    out[1::3] = np.copysign(a_new, t1)
    out[2::3] = np.copysign(b_new, t2)
    return out


def scalar_min(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elementwise min(a, m) as Python's min compares: a unless m < a."""
    return np.where(m < a, m, a)


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
    assert np.array_equal(project(x.copy(), mu), expected)


def test_overflowing_apex_distance_still_goes_to_apex():
    """Every candidate infeasible and the apex distance n * n overflowing: the apex, not a facet."""
    out, norm = _projected_step([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 1e-300, 5e-324)
    assert out == [0.0, 0.0, 0.0] and norm == 0.0
    step = np.array([-1e300, 0.0, 0.0])
    assert project(step, 5e-324).tolist() == [0.0, 0.0, 0.0]
    with np.errstate(over="ignore"):
        assert vectorized_pyramid_project(step, 5e-324).tolist() == [0.0, 0.0, 0.0]
    assert np.isnan(project(np.array([-1e300, math.nan, 0.0]), 5e-324)[1])


def test_projection_underflowing_cone_bound_goes_to_apex():
    x = np.array([-0.1, 0.0, 0.0, 0.2, 0.0, -0.0])
    assert vectorized_pyramid_project(x.copy(), 5e-324)[0] == -0.1
    assert np.array_equal(project(x.copy(), 5e-324), [0.0, 0.0, 0.0, 0.2, 0.0, 0.0])


@PROPERTY_SETTINGS
@given(projection_inputs(), st.data())
def test_projection_kkt(inp, data):
    x, mu = inp
    p = project(x.copy(), mu)
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
            p = project(x, mu)
            assert np.isnan(p[:3]).any(), (mu, k)
            assert np.array_equal(p[3:], vectorized_pyramid_project(x[3:].copy(), mu))


# --- fused gradient step -------------------------------------------------------
# _projected_step(x, g, c, L, mu) does in one pass what the convex solver did in
# two: the step x - (g + c) / L on arrays, then the projection. Its second
# result is L * max|x - P|, the first NaN if there is one.

NON_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def step_contact(draw):
    """(x, g, c) of one contact: finite entries, or entries that may be NaN or infinite."""
    entries = components if draw(st.booleans()) else st.one_of(components, st.sampled_from(NON_FINITE))
    return [draw(entries) for _ in range(9)]


@st.composite
def step_inputs(draw):
    mu = draw(st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.0, 2.0)))
    L = draw(st.one_of(st.sampled_from([1.0, 1e-300, 1e300]), st.floats(1e-3, 1e3)))
    contacts = draw(st.lists(step_contact(), min_size=1, max_size=8))
    x, g, c = ([v for k in contacts for v in k[3 * j:3 * j + 3]] for j in range(3))
    return x, g, c, L, mu


def float_bits(values) -> list:
    return np.array(values, dtype=float).view(np.int64).tolist()


@PROPERTY_SETTINGS
@given(step_inputs())
def test_projected_step_matches_numpy_step_and_oracle(inp):
    x, g, c, L, mu = inp
    with np.errstate(all="ignore"):
        step = np.array(x) - (np.array(g) + np.array(c)) / L
        # on a step holding NaN or inf a distance or a tangent bound can be NaN; there the
        # oracle compares as the closed form does, not as numpy does
        expected = vectorized_pyramid_project(step.copy(), mu, scalar_nan_rules=True)
        # the closed form sends n < 0 with t = 0 and mu * n underflowing to -0.0 to the apex
        n, t1, t2 = step[0::3], step[1::3], step[2::3]
        expected[0::3][(n < 0.0) & (mu * n == 0.0) & (t1 == 0.0) & (t2 == 0.0)] = 0.0
        terms = np.abs(L * (np.array(x) - expected))
    got, norm = _projected_step(x, g, c, L, mu)
    assert float_bits(got) == float_bits(expected)
    first_nan = terms[np.isnan(terms)][:1]
    assert float_bits([norm]) == float_bits(first_nan if first_nan.size else [terms.max()])
