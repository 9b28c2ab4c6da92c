"""Property tests of the projected Gauss-Seidel sweeps used by the rigid solver.

The float loop in ``cubetoss.solvers._pgs`` must reproduce, bit for bit, the
all-numpy loop it replaced; that version is frozen below as the oracle,
together with the non-finite check that ``rigid_pgs_impulse`` applied to its
result.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cubetoss as ct
from cubetoss.solvers import _pgs

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def numpy_pgs(A, g, bias, cfm, mu, lam0, max_iters, tol):
    """The former all-numpy sweeps, plus the finite check on the final iterate."""
    lam = lam0.copy()
    nc = g.size // 3
    sweeps = 0
    converged = False
    for sweeps in range(1, max_iters + 1):
        delta = 0.0
        for i in range(nc):
            ni = 3 * i
            r = float(A[ni] @ lam) + g[ni] - bias[i] + cfm * lam[ni]
            new = lam[ni] - r / (A[ni, ni] + cfm)
            if new < 0.0:
                new = 0.0
            change = abs(new - lam[ni])
            lam[ni] = new
            bound = mu * new
            for jt in (ni + 1, ni + 2):
                r = float(A[jt] @ lam) + g[jt]
                newt = lam[jt] - r / A[jt, jt]
                if newt > bound:
                    newt = bound
                elif newt < -bound:
                    newt = -bound
                cj = abs(newt - lam[jt])
                if cj > change:
                    change = cj
                lam[jt] = newt
            if change > delta:
                delta = change
        if delta < tol:
            converged = True
            break
    converged = converged and bool(np.all(np.isfinite(lam)))
    return lam, converged, sweeps


@st.composite
def pgs_problems(draw):
    """A Delassus operator of a random box-corner contact set, with biases and a start."""
    nc = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rho = rng.uniform(-0.05, 0.05, size=(3, nc))
    J = ct.geometry._table_jacobian(rho)
    mass = 10.0 ** rng.uniform(-1.0, 1.0)
    inv_mass = np.diag([1.0 / mass] * 3 + [1.0 / (mass * 1e-3)] * 3)
    A = J @ inv_mass @ J.T
    scale = 10.0 ** draw(st.floats(-4.0, 1.0))
    resting = draw(st.integers(0, 4)) == 0  # exact zero residuals, where signed zeros decide
    g = np.zeros(3 * nc) if resting else scale * rng.standard_normal(3 * nc)
    bias = np.zeros(nc) if resting else np.maximum(0.0, scale * rng.standard_normal(nc))
    mu = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5)))
    cfm = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
    start = draw(st.sampled_from(["zero", "negative zero", "random", "clamped"]))
    if start == "zero":
        lam0 = np.zeros(3 * nc)
    elif start == "negative zero":
        lam0 = np.full(3 * nc, -0.0)
    else:
        lam0 = scale * rng.standard_normal(3 * nc)
        if start == "clamped":
            # the rollout's warm start: nonnegative normals, exact zeros kept with their sign
            lam0[0::3] = np.maximum(0.0, lam0[0::3])
            lam0[rng.random(3 * nc) < 0.3] = rng.choice([0.0, -0.0])
    max_iters = draw(st.integers(1, 50))
    tol = draw(st.sampled_from([1e-8, 1e-12, 0.0]))
    return A, g, bias, cfm, mu, lam0, max_iters, tol


@PROPERTY_SETTINGS
@given(pgs_problems())
def test_pgs_matches_numpy_oracle(problem):
    A, g, bias, cfm, mu, lam0, max_iters, tol = problem
    want, want_conv, want_sweeps = numpy_pgs(A, g, bias, cfm, mu, lam0, max_iters, tol)
    lam = lam0.copy()
    got, conv, sweeps = _pgs(A, g, bias, cfm, mu, lam, max_iters, tol)
    assert got is lam
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert conv == want_conv
    assert sweeps == want_sweeps


@PROPERTY_SETTINGS
@given(pgs_problems(), st.sampled_from(["g", "bias", "lam0", "A"]), st.sampled_from([math.nan, math.inf]))
def test_pgs_non_finite_problem_never_converged(problem, field, bad):
    A, g, bias, cfm, mu, lam0, max_iters, tol = problem
    if field == "g":
        g = g.copy()
        g[0] = bad
    elif field == "bias":
        bias = bias.copy()
        bias[0] = bad
    elif field == "lam0":
        lam0 = lam0.copy()
        lam0[0] = bad
    else:
        A = A.copy()
        A[0, 0] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        lam, converged, _ = _pgs(A, g, bias, cfm, mu, lam0.copy(), max_iters, tol)
    if not np.all(np.isfinite(lam)):
        assert not converged
    if math.isnan(bad):
        assert not converged
