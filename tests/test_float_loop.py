"""Bit identity of the float rollout helpers with the numpy code they replaced.

The corner detector, the compliant law, the integrator, the fused loop and
the elementwise glue of the solvers run on Python floats. The numpy versions
are frozen in ``frozen_numpy`` as oracles: every helper must return the same
values, sign bits and NaNs included, and every rollout the same trajectory
and the same divergence. The PGS and convex solvers have no BLAS product
left; their oracles are ``frozen_numpy.sequential_pgs_impulse`` and
``frozen_numpy.convex_impulse``, the same fixed summation orders written on
numpy columns and plain index loops (the convex one is the APG alone, which
the live solve matches bit for bit wherever its face solve declines), and
the former BLAS solves are the references they must match within a
tolerance.
"""
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cubetoss as ct
import frozen_numpy as fz
from test_pgs import BLAS_TOL
from test_simulate import anisotropic_box
from conftest import with_velocity
from cubetoss import quat
from cubetoss.body import _integrate
from cubetoss.geometry import _corner_contact_arrays
from cubetoss.solvers import (
    DEFAULT_QP_TOL,
    ContactProblem,
    _compliant_force,
    _compliant_terms,
    _convex_qp,
    _convex_reference_velocity,
    _face_solve,
    _float_impulse,
    _float_terms,
    _gershgorin,
    _mass_terms,
    _pyramid_project_floats,
    _pyramid_qp,
    _table_jacobian,
    _warm_floats,
    _wrench_impulse,
)
from cubetoss.synthetic import random_toss_states, sliding_toss_states

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
DT = 1.0 / 1480.0
NO_GRAVITY = (0.0, 0.0, 0.0)

SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308)
# agreement of the float convex solve with the BLAS one, absolute and relative to the largest impulse.
# Measured over four runs of 3,000 solver_cases examples (9,388 with finite inputs): at most 3.6e-9
# apart. On 4,414 solves recorded from 16 tumbling pool tosses: at most 1.1e-10
CONVEX_TOL = 1e-8


def same_bits(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return (
        got.shape == want.shape
        and np.array_equal(got, want, equal_nan=True)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


def same_values(got, want) -> bool:
    """Equal values, NaN matching NaN, and equal sign bits off the NaNs. When both operands of a sum are
    NaN, IEEE 754 leaves open whose sign the result keeps, and numpy's array loops and Python's float
    arithmetic differ there (on 13 of 170 examples with special velocities in a 600-example run of the
    builder's property, and on none of the 430 without them)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    number = ~np.isnan(want)
    return same_bits(got[number], want[number]) and np.array_equal(np.isnan(got), ~number)


def mixed(draw, rng, n, lo, hi, specials=(0.0, -0.0), log=False):
    """n floats from rng, uniform in [lo, hi] (signed 10**uniform when log), some
    replaced by drawn special values. Hypothesis picks the structure and the
    seed; numpy's generator supplies generic values, whose roundings differ."""
    kinds = draw(st.lists(st.sampled_from(("random",) * 3 + tuple(specials)), min_size=n, max_size=n))
    if log:
        vals = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)
    else:
        vals = rng.uniform(lo, hi, n)
    return np.array([v if k == "random" else k for k, v in zip(kinds, vals.tolist())])


@st.composite
def unit_quaternions(draw):
    kind = draw(st.sampled_from(["random", "identity", "axis", "half-turn"]))
    if kind == "identity":
        return np.array([1.0, 0.0, 0.0, 0.0])
    if kind == "axis":  # quarter turns about a body axis: exact zeros in R
        s = math.sqrt(0.5)
        q = [s, 0.0, 0.0, 0.0]
        q[draw(st.integers(1, 3))] = draw(st.sampled_from([s, -s]))
        return np.array(q)
    if kind == "half-turn":
        q = [0.0, 0.0, 0.0, 0.0]
        q[draw(st.integers(1, 3))] = 1.0
        return np.array(q)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


# --- corner detection --------------------------------------------------------


@st.composite
def corner_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cube = draw(st.booleans())
    geom = ct.BoxGeometry(np.full(3, 0.05) if cube else rng.uniform(0.005, 0.2, 3))
    q = draw(unit_quaternions())
    lowest = float(-(fz.to_matrix(q) @ geom.corners_body)[2].min())
    height = lowest + draw(st.sampled_from([0.0, 1e-3, rng.uniform(-0.03, 0.006)]))
    pos = np.array([*rng.uniform(-1.0, 1.0, 2), height])
    vel = mixed(draw, rng, 3, -3.0, 3.0)
    ang_vel = mixed(draw, rng, 3, -20.0, 20.0)
    margin = draw(st.sampled_from([0.0, 1e-3, rng.uniform(0.0, 0.01)]))
    return pos, q, vel, ang_vel, geom, margin


@PROPERTY_SETTINGS
@given(corner_cases())
def test_corner_detection_matches_numpy_oracle(case):
    pos, q, vel, ang_vel, geom, margin = case
    assert same_bits(quat._matrix_rows(*q.tolist()), fz.to_matrix(q))
    want = fz.corner_contact_arrays(pos, fz.to_matrix(q), vel, ang_vel, geom.corners_body, margin)
    got = _corner_contact_arrays(
        pos.tolist(), quat._matrix_rows(*q.tolist()), vel.tolist(), ang_vel.tolist(), geom, margin
    )
    if want[0].size == 0:
        assert got is None
        return
    idx, depth, depth_rate, rho, corners = got
    _, want_depth, want_rate, vpx, vpy, want_rho, want_points = want
    assert idx == want[0].tolist()
    for g, w in ((depth, want_depth), (depth_rate, want_rate), (rho, want_rho),
                 (corners, fz.to_matrix(q) @ geom.corners_body)):
        assert same_bits(g, w)
    # detect_contacts builds each witness point p + c from the corner columns
    state = ct.RigidState(pos, q, vel, ang_vel)
    contacts = ct.detect_contacts(state, geom, margin)
    assert [c.corner_index for c in contacts] == idx
    assert same_bits(np.array([c.point for c in contacts]).T, want_points)
    # the compliant law forms the slip velocity from the arms; the oracle's detector returns it
    params = ct.param_preset("cube-drake")
    slip = ct.SimConfig().slip_tolerance
    terms = _compliant_terms(depth, depth_rate, vel.tolist(), ang_vel.tolist(), rho, params.mu, params.k, params.b,
                             slip)
    with np.errstate(all="ignore"):
        fn, ft1, ft2 = fz.compliant_forces(want_depth, want_rate, vpx, vpy, params.mu, params.k, params.b, slip)
    assert same_bits(list(zip(*terms))[:3], [ft1, ft2, fn])


def test_flight_test_band_edges_match_numpy_oracle(cube_geom):
    """Heights within a few ulps of the activation threshold, where the float bound defers to the gemv."""
    rng = np.random.default_rng(11)
    for i in range(400):
        q = np.array([1.0, 0.0, 0.0, 0.0]) if i < 20 else rng.standard_normal(4)
        q = q / np.linalg.norm(q)
        margin = [0.0, 1e-3, 2.5e-3][i % 3]
        R = fz.to_matrix(q)
        z = margin - float((R[2] @ cube_geom.corners_body).min())
        for height in (z, *np.nextafter(z, [0.0, 1.0]), z + 3e-17, z - 3e-17):
            pos = np.array([0.0, 0.0, height])
            want = fz.corner_contact_arrays(pos, R, np.zeros(3), np.zeros(3), cube_geom.corners_body, margin)
            got = _corner_contact_arrays(pos.tolist(), quat._matrix_rows(*q.tolist()), [0.0] * 3, [0.0] * 3,
                                         cube_geom, margin)
            assert (got is None) == (want[0].size == 0), (i, height)
            if got is not None:
                assert got[0] == want[0].tolist()
                assert same_bits(got[1], want[1])


def test_detect_contacts_uses_float_corner_data(cube_geom):
    """detect_contacts reports the detector's own witness points and rates."""
    q = quat.from_axis_angle(np.array([0.3, -0.2, 1.0]), 0.4)
    state = ct.RigidState([0.01, -0.02, 0.049], q, [0.2, -0.1, -0.5], [1.0, 2.0, -3.0])
    want = fz.corner_contact_arrays(state.pos, fz.to_matrix(q), state.vel, state.ang_vel,
                                    cube_geom.corners_body, 1e-3)
    contacts = ct.detect_contacts(state, cube_geom, 1e-3)
    assert [c.corner_index for c in contacts] == want[0].tolist()
    assert same_bits([c.depth for c in contacts], want[1])
    assert same_bits([c.depth_rate for c in contacts], want[2])
    assert same_bits(np.array([c.point for c in contacts]).T, want[6])


# --- compliant law -----------------------------------------------------------


@st.composite
def compliant_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nc = draw(st.integers(1, 8))
    depth, depth_rate, vt1, vt2 = [mixed(draw, rng, nc, -6.0, 3.0, SPECIAL, log=True) for _ in range(4)]
    mu = draw(st.sampled_from([0.0, rng.uniform(0.0, 2.0)]))
    k = draw(st.sampled_from([0.0, rng.uniform(0.0, 1e6)]))
    b = draw(st.sampled_from([0.0, rng.uniform(0.0, 50.0)]))
    slip = draw(st.sampled_from([1e-3, 10.0 ** rng.uniform(-9.0, 0.0)]))
    return depth, depth_rate, vt1, vt2, mu, k, b, slip


@PROPERTY_SETTINGS
@given(compliant_cases())
def test_compliant_force_matches_numpy_oracle(case):
    depth, depth_rate, vt1, vt2, mu, k, b, slip = case
    with np.errstate(all="ignore"):
        want = fz.compliant_forces(depth, depth_rate, vt1, vt2, mu, k, b, slip)
    got = [
        _compliant_force(d, dr, t1, t2, mu, k, b, slip)
        for d, dr, t1, t2 in zip(depth.tolist(), depth_rate.tolist(), vt1.tolist(), vt2.tolist())
    ]
    for g, w in zip(zip(*got), want):
        assert same_bits(g, w)


def test_compliant_force_clamps_like_np_maximum():
    """NaN propagates through both clamps; a clamped -0.0 keeps its sign as np.maximum does."""
    fn, _, _ = _compliant_force(math.nan, 0.0, 0.0, 0.0, 0.1, 1e4, 0.4, 1e-3)
    assert math.isnan(fn)
    fn, ft1, _ = _compliant_force(1e-3, 0.0, math.nan, 0.0, 0.1, 1e4, 0.4, 1e-3)
    assert fn == 10.0 and math.isnan(ft1)
    fn, _, _ = _compliant_force(-0.0, 0.0, 0.0, 0.0, 0.1, 1e4, 0.4, 1e-3)
    with np.errstate(all="ignore"):
        want, _, _ = fz.compliant_forces(np.array([-0.0]), np.zeros(1), np.zeros(1), np.zeros(1),
                                         0.1, 1e4, 0.4, 1e-3)
    assert same_bits([fn], want)


@st.composite
def wrench_terms(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nc = draw(st.integers(1, 8))
    terms = [tuple(mixed(draw, rng, 6, -6.0, 3.0, SPECIAL, log=True).tolist()) for _ in range(nc)]
    return terms, draw(st.sampled_from([DT, rng.uniform(1e-6, 1.0)]))


@PROPERTY_SETTINGS
@given(wrench_terms())
def test_wrench_impulse_matches_numpy_sums(case):
    """Column sums in np.sum's order: one by one below 8 contacts, pairwise at 8."""
    terms, dt = case
    with np.errstate(all="ignore"):
        cols = np.array(terms).T.copy()
        want_lin = dt * np.array([cols[0].sum(), cols[1].sum(), cols[2].sum()])
        want_ang = dt * np.array([cols[3].sum(), cols[4].sum(), cols[5].sum()])
    imp_lin, imp_ang = _wrench_impulse(terms, dt)
    assert same_bits(imp_lin, want_lin)
    assert same_bits(imp_ang, want_ang)


# --- integrator --------------------------------------------------------------


@st.composite
def integrator_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        inertia = ct.cube_inertial()
    else:
        rot = quat.to_matrix(quat.from_axis_angle(rng.standard_normal(3), rng.uniform(0.0, np.pi)))
        body = rot @ np.diag(rng.uniform(0.002, 0.05, 3)) @ rot.T
        inertia = ct.InertialParams(rng.uniform(0.1, 2.0), 0.5 * (body + body.T))
    q = draw(unit_quaternions())
    pos = rng.uniform(-1.0, 1.0, 3)
    vel = mixed(draw, rng, 3, -5.0, 5.0)
    ang_vel = mixed(draw, rng, 3, -30.0, 30.0)
    if draw(st.integers(0, 9)) == 0:  # a spin whose half-angle overflows: math domain error
        ang_vel[draw(st.integers(0, 2))] = draw(st.sampled_from([1e200, -1e200]))
    imps = []
    for _ in range(2):
        kind = draw(st.sampled_from(["random", "random", "zero", "negative zero"]))
        if kind == "zero":
            imps.append(np.zeros(3))
        elif kind == "negative zero":
            imps.append(np.full(3, -0.0))
        else:
            imps.append(mixed(draw, rng, 3, -1.0, 1.0))
    dt = draw(st.sampled_from([DT, rng.uniform(1e-5, 1e-2)]))
    return pos, q, vel, ang_vel, inertia, imps[0], imps[1], dt


@PROPERTY_SETTINGS
@given(integrator_cases())
def test_integrate_matches_numpy_oracle(case):
    pos, q, vel, ang_vel, inertia, imp_lin, imp_ang, dt = case
    try:
        with np.errstate(all="ignore"):
            want = fz.integrate(pos, q, vel, ang_vel, fz.to_matrix(q), inertia, imp_lin, imp_ang, dt)
    except ValueError as err:
        with np.errstate(all="ignore"), pytest.raises(ValueError) as got_err:
            _integrate(pos.tolist(), q.tolist(), vel.tolist(), ang_vel.tolist(), quat._matrix_rows(*q.tolist()),
                       inertia, imp_lin.tolist(), imp_ang.tolist(), dt)
        assert str(got_err.value) == str(err)
        return
    with np.errstate(all="ignore"):
        got = _integrate(pos.tolist(), q.tolist(), vel.tolist(), ang_vel.tolist(), quat._matrix_rows(*q.tolist()),
                         inertia, imp_lin.tolist(), imp_ang.tolist(), dt)
    for g, w in zip(got, want):
        assert same_bits(g, w)


# --- contact solvers ---------------------------------------------------------


@st.composite
def solver_cases(draw):
    """A table contact problem of 1-8 corners with special depths, rates and warm starts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nc = draw(st.integers(1, 8))
    rho = mixed(draw, rng, 3 * nc, -0.06, 0.06).reshape(3, nc)
    if draw(st.booleans()):
        inertia = ct.cube_inertial()
    else:
        rot = quat.to_matrix(quat.from_axis_angle(rng.standard_normal(3), rng.uniform(0.0, np.pi)))
        body = rot @ np.diag(rng.uniform(0.002, 0.05, 3)) @ rot.T
        inertia = ct.InertialParams(rng.uniform(0.1, 2.0), 0.5 * (body + body.T))
    R = fz.to_matrix(draw(unit_quaternions()))
    resting = draw(st.integers(0, 4)) == 0  # zero velocity, no gravity, no penetration: signed zeros decide
    if resting:
        v = rng.choice([0.0, -0.0], 6)
        depth = -rng.choice([0.0, 1e-4], nc)
        depth_rate = np.zeros(nc)
    else:
        v = np.concatenate([mixed(draw, rng, 3, -3.0, 3.0), mixed(draw, rng, 3, -20.0, 20.0)])
        depth, depth_rate = [
            mixed(draw, rng, nc, lo, hi, draw(st.sampled_from([(), (0.0, -0.0), SPECIAL])))
            for lo, hi in ((-1e-3, 5e-3), (-3.0, 3.0))
        ]
    if resting or not draw(st.booleans()):
        inertia = ct.InertialParams(inertia.mass, inertia.inertia_body, NO_GRAVITY)
    inv_mass, f_ext = _mass_terms(R, v[3:], inertia)
    h = draw(st.sampled_from([DT, rng.uniform(1e-4, 1e-2)]))
    problem = ContactProblem(rho.tolist(), inv_mass, v.tolist(), h, f_ext, depth.tolist(), depth_rate.tolist())
    mu = draw(st.sampled_from([0.0, rng.uniform(0.0, 1.5)]))
    k = draw(st.sampled_from([0.0, 10.0 ** rng.uniform(1.0, 6.0)]))
    b = draw(st.sampled_from([0.0, rng.uniform(0.0, 100.0)]))
    d = draw(st.sampled_from([0.9, rng.uniform(0.01, 0.99)]))
    kind = draw(st.sampled_from(["none", "zero", "negative zero", "random", "special", "wrong shape"]))
    if kind == "none":
        warm = None
    elif kind == "zero":
        warm = np.zeros(3 * nc)
    elif kind == "negative zero":
        warm = np.full(3 * nc, -0.0)
    elif kind == "wrong shape":
        warm = rng.standard_normal(draw(st.sampled_from([(3 * nc + 3,), (nc, 3)])))
    else:  # normals of either sign, some exact zeros of either sign
        warm = mixed(draw, rng, 3 * nc, -0.01, 0.01, SPECIAL if kind == "special" else (0.0, -0.0))
    return problem, mu, k, b, d, warm


def cube_inv_mass():
    """The cube's 6x6 inverse generalized mass diag(m^-1 I3, W), as ContactProblem.inv_mass builds it."""
    (minv, W), _ = _mass_terms(None, None, ct.cube_inertial())
    return np.diag([minv] * 3 + [W[0][0], W[1][1], W[2][2]])


def same_impulse(got, want):
    return (
        same_bits(got.normal, want.normal)
        and same_bits(got.tangent, want.tangent)
        and same_bits(got.wrench, want.wrench)
        and same_bits(got.flat(), want.flat())
        and got.converged == want.converged
        and got.iterations == want.iterations
    )


def test_table_jacobian_matches_nested_list_build():
    rho = np.array([[0.0, -0.0, math.nan, 1e308], [5e-324, math.inf, -0.0, 0.02], [-math.inf, 0.0, -0.03, -0.0]])
    assert same_bits(_table_jacobian(rho), fz.table_jacobian(rho))
    assert same_bits(_table_jacobian(rho.tolist()), fz.table_jacobian(rho))
    assert _table_jacobian(np.zeros((3, 0))).shape == (0, 6)


@PROPERTY_SETTINGS
@given(solver_cases(), st.data())
def test_arms_built_terms_match_the_full_row_sums(case, data):
    """The builder's closed-form Delassus entries, J v_free, reference velocity and wrench J^T lam equal the
    6-term sums over full Jacobian rows of frozen_numpy bit for bit: the skipped products of structural zeros
    change nothing on the anisotropic W, +-0 arms and resting +-0 velocities of solver_cases, nor on impulses
    with zeros of either sign. Half the examples take velocities and impulses with special values, NaN and
    infinities among them, on which the sums that keep their zero products (J v_free, the reference velocity,
    the wrench) would differ without them; there a NaN's sign may differ (see same_values)."""
    problem, mu, k, b, d, _ = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    special = data.draw(st.booleans())
    if special:
        problem = with_velocity(problem, mixed(data.draw, rng, 6, -3.0, 3.0, SPECIAL).tolist())
    same = same_values if special else same_bits
    params = ct.ContactParams(mu, k, b, "regularized_convex", d_interp=d)
    lam = mixed(data.draw, rng, 3 * problem.num_contacts, -0.01, 0.01, SPECIAL if special else (0.0, -0.0))
    with np.errstate(all="ignore"):
        A, g, accel = _float_terms(problem)
        J, want_A, want_accel, want_g = fz.fixed_terms(problem)
        for got, want in ((A, want_A), (g, want_g), (accel, want_accel),
                          (_convex_reference_velocity(problem, accel, params),
                           fz.convex_reference_velocity(problem, params)),
                          (_float_impulse(problem._rho, lam.tolist(), True, 0).wrench,
                           fz.fixed_impulse(J, lam, True, 0).wrench)):
            assert same(got, want)


@PROPERTY_SETTINGS
@given(solver_cases(), st.integers(1, 50))
def test_rigid_pgs_impulse_matches_numpy_oracle(case, max_iters):
    problem, mu, k, b, _, warm = case
    params = ct.ContactParams(mu, k, b, "rigid_pgs")
    with np.errstate(all="ignore"):
        want = fz.sequential_pgs_impulse(problem, params, max_iters, warm_start=warm)
        got = ct.rigid_pgs_impulse(problem, params, max_iters, warm_start=warm)
    assert same_impulse(got, want)


@PROPERTY_SETTINGS
@given(solver_cases(), st.integers(1, 50))
def test_rigid_pgs_impulse_agrees_with_blas_solve(case, max_iters):
    """On finite problems the float solve stays within BLAS_TOL of the former BLAS one (see test_pgs)."""
    problem, mu, k, b, _, warm = case
    inputs = [problem.jacobian, problem.v, problem.f_ext, problem.depth, problem.depth_rate, warm]
    assume(all(x is None or np.all(np.isfinite(x)) for x in inputs))
    params = ct.ContactParams(mu, k, b, "rigid_pgs")
    with np.errstate(all="ignore"):
        want = fz.blas_pgs_impulse(problem, params, max_iters, warm_start=warm)
    assume(np.all(np.isfinite(want.flat())))  # an overflowing problem has no rounding to compare
    got = ct.rigid_pgs_impulse(problem, params, max_iters, warm_start=warm)
    for g, w in ((got.flat(), want.flat()), (got.wrench, want.wrench)):
        assert np.max(np.abs(g - w), initial=0.0) <= BLAS_TOL * max(1.0, np.max(np.abs(w), initial=0.0))
    assert (got.converged, got.iterations) == (want.converged, want.iterations)


def convex_outcome(solve):
    """The result of a convex solve, or the ConvexSolverError it raised."""
    try:
        return solve()
    except ct.ConvexSolverError as err:
        return err


def assert_convex_close(got, want):
    """Impulse and wrench within CONVEX_TOL of want's, relative to its largest impulse."""
    for g, w in ((got.flat(), want.flat()), (got.wrench, want.wrench)):
        assert np.max(np.abs(g - w), initial=0.0) <= CONVEX_TOL * max(1.0, np.max(np.abs(w), initial=0.0))


def restarts_from_zero(err, lam0, c) -> bool:
    """Whether the live solve reruns the APG from zero after err: a non-finite first residual from a
    non-zero warm start on a finite problem (a finite step-size bound, as one iteration ran, and finite c)."""
    return err.iterations == 1 and not err.residual < math.inf and any(lam0) and all(map(math.isfinite, c))


@PROPERTY_SETTINGS
@given(solver_cases(), st.sampled_from([5, 50, 500]))
def test_regularized_convex_impulse_matches_numpy_oracle(case, max_iters):
    """Where the face solve declines, the live solve is the frozen APG bit for bit (rerun from zero where a
    warm start overflows a finite problem). Where it accepts, the live result is its projected step after
    one iteration, its gradient mapping is within the tolerance, and it is within CONVEX_TOL of the APG's
    minimizer, at this cap or, where the APG gives up here, at the default one."""
    problem, mu, k, b, d, warm = case
    params = ct.ContactParams(mu, k, b, "regularized_convex", d_interp=d)
    n = 3 * problem.num_contacts
    with np.errstate(all="ignore"):
        got = convex_outcome(lambda: ct.regularized_convex_impulse(problem, params, max_iters, warm_start=warm))
        want = convex_outcome(lambda: fz.convex_impulse(problem, params, max_iters, warm_start=warm))
        Q, c = _convex_qp(problem, params)
        lam0 = _warm_floats(warm, n) or [0.0] * n
        face = _face_solve(Q, c, mu, _pyramid_project_floats(lam0, mu), _gershgorin(Q), DEFAULT_QP_TOL)
        if face is not None:
            lam, residual = face
            assert residual <= DEFAULT_QP_TOL
            assert isinstance(got, ct.ContactImpulse) and got.converged and got.iterations == 1
            assert same_bits(got.flat(), lam)
            if isinstance(want, ct.ConvexSolverError):
                want = convex_outcome(lambda: fz.convex_impulse(problem, params, warm_start=warm))
            if isinstance(want, ct.ContactImpulse):
                assert_convex_close(got, want)
            return
        if isinstance(want, ct.ConvexSolverError) and restarts_from_zero(want, lam0, c):
            want = convex_outcome(lambda: fz.convex_impulse(problem, params, max_iters))
    if isinstance(want, ct.ConvexSolverError):
        assert isinstance(got, ct.ConvexSolverError)
        assert str(got) == str(want) and got.iterations == want.iterations
    else:
        assert same_impulse(got, want)


@PROPERTY_SETTINGS
@given(solver_cases())
def test_regularized_convex_impulse_agrees_with_blas_solve(case):
    """On finite problems the float solve stays within CONVEX_TOL of the former BLAS one, which took its
    step size from eigvalsh and two projections per iteration: at the default cap either both stop
    within DEFAULT_QP_TOL of the one minimizer, or the BLAS one gives up and the float one gives up too
    or returns the point of a face solve that met the stopping rule (about 1 in 500 examples)."""
    problem, mu, k, b, d, warm = case
    inputs = [problem.jacobian, problem.v, problem.f_ext, problem.depth, problem.depth_rate, warm]
    assume(all(x is None or np.all(np.isfinite(x)) for x in inputs))
    params = ct.ContactParams(mu, k, b, "regularized_convex", d_interp=d)
    with np.errstate(all="ignore"):
        try:
            want = fz.blas_convex_impulse(problem, params, warm_start=warm)
        except ct.ConvexSolverError:
            got = convex_outcome(lambda: ct.regularized_convex_impulse(problem, params, warm_start=warm))
            if isinstance(got, ct.ContactImpulse):
                n = 3 * problem.num_contacts
                Q, c = _convex_qp(problem, params)
                face = _face_solve(Q, c, mu, _pyramid_project_floats(_warm_floats(warm, n) or [0.0] * n, mu),
                                   _gershgorin(Q), DEFAULT_QP_TOL)
                assert face is not None and got.iterations == 1 and same_bits(got.flat(), face[0])
            return
    assume(np.all(np.isfinite(want.flat())))  # an overflowing problem has no rounding to compare
    assert_convex_close(ct.regularized_convex_impulse(problem, params, warm_start=warm), want)


def test_convex_solve_restarts_from_zero_when_a_warm_start_overflows():
    """A finite warm start near overflow makes the first Q y overflow. The frozen APG stops there with
    residual inf; the live solve reruns the APG from zero, since the minimizer does not depend on the
    warm start. Two contacts, mu = 0, k = b = 0, separating: the minimizer is zero, so the face solve
    from the warm start (both normals free) declines."""
    rho = np.array([[-0.05, 0.05], [-0.05, -0.05], [-0.05, -0.05]])
    inv_mass, f_ext = _mass_terms(None, None, ct.cube_inertial(NO_GRAVITY))
    problem = ContactProblem(rho.tolist(), inv_mass, [0.0, 0.0, 0.5, 0.0, 0.0, 0.0], DT, f_ext, [0.0] * 2, [0.0] * 2)
    params = ct.ContactParams(0.0, 0.0, 0.0, "regularized_convex")
    warm = np.full(6, 1e308)
    with np.errstate(all="ignore"):
        with pytest.raises(ct.ConvexSolverError) as err:
            fz.convex_impulse(problem, params, warm_start=warm)
        assert err.value.residual == math.inf and err.value.iterations == 1
        Q, c = _convex_qp(problem, params)
        start = _pyramid_project_floats(warm.tolist(), 0.0)
        assert _face_solve(Q, c, 0.0, start, _gershgorin(Q), DEFAULT_QP_TOL) is None
        got = ct.regularized_convex_impulse(problem, params, warm_start=warm)
    cold = ct.regularized_convex_impulse(problem, params)
    assert same_impulse(got, cold) and same_impulse(cold, fz.convex_impulse(problem, params))
    assert got.flat().tolist() == [0.0] * 6
    # not a finite problem: no rerun, the first residual is reported
    problem = ContactProblem(rho.tolist(), inv_mass, [math.nan, 0.0, 0.5, 0.0, 0.0, 0.0], DT, f_ext, [0.0] * 2, [0.0] * 2)
    with np.errstate(all="ignore"), pytest.raises(ct.ConvexSolverError) as err:
        ct.regularized_convex_impulse(problem, params, warm_start=warm)
    assert math.isnan(err.value.residual) and err.value.iterations == 1


# One contact under the centre of a cube with no gravity and vz = 0: the Delassus matrix is diagonal, so
# Q = diag(q0, q1, q1) and c = (-C, vx, vy) with C = h d k depth, and the minimizer has a closed form on
# each face. FACE_CASES: (face, mu, vx, vy, vz, depth, the warm start on the minimizer's face, one on
# another face). A warm start's sign pattern picks the facet or edge direction, so it matches the
# minimizer's: friction opposes the tangential velocity.
FACE_CASES = [
    ("interior", 0.5, 1e-3, -5e-4, 0.0, 1e-3, [1.0, 0.1, -0.1], [1.0, 0.5, 0.0]),
    ("facet t1", 0.5, 0.02, 5e-4, 0.0, 1e-3, [1.0, -0.5, 0.1], [1.0, 0.0, 0.0]),
    ("facet t2", 0.5, -5e-4, -0.02, 0.0, 1e-3, [1.0, 0.1, 0.5], [1.0, -0.5, 0.1]),
    ("edge", 0.5, 0.02, -0.03, 0.0, 1e-3, [1.0, -0.5, 0.5], [1.0, -0.5, 0.1]),
    ("apex", 0.5, 0.1, 0.2, 0.5, 0.0, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ("mu = 0", 0.0, 0.02, 0.01, 0.0, 1e-3, [1.0, 0.3, -0.2], [0.0, 0.3, -0.2]),
]


def face_case(mu, vx, vy, vz, depth):
    rho = np.array([[0.0], [0.0], [-0.05]])
    inv_mass, f_ext = _mass_terms(None, None, ct.cube_inertial(NO_GRAVITY))
    problem = ContactProblem(rho.tolist(), inv_mass, [vx, vy, vz, 0.0, 0.0, 0.0], DT, f_ext, [depth], [0.0])
    return problem, ct.ContactParams(mu, 3300.0, 0.0, "regularized_convex")


def face_minimizer(face, Q, c, mu):
    """The closed-form minimizer of 1/2 l'Ql + c'l over the pyramid on the named face, Q diagonal."""
    (q0, q01, q02), (q10, q1, q12), (q20, q21, q2) = Q
    assert q01 == q02 == q10 == q12 == q20 == q21 == 0.0 and q1 == q2
    C, vx, vy = -c[0], c[1], c[2]
    if face == "interior":
        return [C / q0, -vx / q1, -vy / q1]
    if face == "facet t1":
        n = (C + mu * abs(vx)) / (q0 + q1 * mu * mu)
        return [n, -math.copysign(mu * n, vx), -vy / q1]
    if face == "facet t2":
        n = (C + mu * abs(vy)) / (q0 + q1 * mu * mu)
        return [n, -vx / q1, -math.copysign(mu * n, vy)]
    if face == "edge":
        n = (C + mu * (abs(vx) + abs(vy))) / (q0 + 2.0 * q1 * mu * mu)
        return [n, -math.copysign(mu * n, vx), -math.copysign(mu * n, vy)]
    if face == "apex":
        assert C + mu * (abs(vx) + abs(vy)) < 0.0  # -c lies in the pyramid's polar cone
        return [0.0, 0.0, 0.0]
    return [C / q0, 0.0, 0.0]  # mu = 0


@pytest.mark.parametrize("face, mu, vx, vy, vz, depth, on_face, off_face", FACE_CASES, ids=[f[0] for f in FACE_CASES])
def test_face_solve_on_each_face_of_one_contact(face, mu, vx, vy, vz, depth, on_face, off_face):
    """From a warm start on the minimizer's face the solve returns in one iteration, at the closed-form
    minimizer. From a warm start on another face the face solve declines and the solve is the frozen APG
    bit for bit. At the apex the face solve has nothing to solve: the APG's first iteration stops there."""
    problem, params = face_case(mu, vx, vy, vz, depth)
    Q, c = _convex_qp(problem, params)
    want = face_minimizer(face, Q, c, mu)
    if face != "apex":
        assert want[0] > 0.0 and all(abs(t) <= mu * want[0] for t in want[1:])
    got = ct.regularized_convex_impulse(problem, params, warm_start=on_face)
    assert got.iterations == 1
    assert np.allclose(got.flat(), want, rtol=1e-12, atol=1e-18)
    if face == "apex":
        assert same_impulse(got, fz.convex_impulse(problem, params, warm_start=on_face))
    else:
        assert _face_solve(Q, c, mu, _pyramid_project_floats(on_face, mu), _gershgorin(Q), DEFAULT_QP_TOL) is not None
        assert fz.convex_impulse(problem, params, warm_start=on_face).iterations > 1
    assert _face_solve(Q, c, mu, _pyramid_project_floats(off_face, mu), _gershgorin(Q), DEFAULT_QP_TOL) is None
    got = ct.regularized_convex_impulse(problem, params, warm_start=off_face)
    assert same_impulse(got, fz.convex_impulse(problem, params, warm_start=off_face))
    assert np.allclose(got.flat(), want, rtol=1e-8, atol=1e-12)


@PROPERTY_SETTINGS
@given(solver_cases())
def test_convex_reference_velocity_matches_numpy_oracle(case):
    problem, mu, k, b, d, _ = case
    params = ct.ContactParams(mu, k, b, "regularized_convex", d_interp=d)
    with np.errstate(all="ignore"):
        got = _convex_reference_velocity(problem, _float_terms(problem)[2], params)
        assert same_bits(got, fz.convex_reference_velocity(problem, params))


def test_solver_clamps_match_numpy_ufuncs():
    """The float clamps keep np.maximum(0.0, x) and np.minimum(x, 0.0): NaN propagates,
    np.maximum keeps -0.0 and np.minimum turns it into +0.0."""
    x = np.array([-0.0, 0.0, math.nan, -1.0, 2.0, -math.inf, math.inf])
    assert same_bits([0.0 if t < 0.0 else t for t in x.tolist()], np.maximum(0.0, x))
    assert same_bits([0.0 if t >= 0.0 else t for t in x.tolist()], np.minimum(x, 0.0))


# --- convex QP ---------------------------------------------------------------
# _pyramid_qp sums Q y left to right on lists, takes its step size from the
# Gershgorin bound and makes one projected step per iteration. fz.pyramid_qp
# is the same arithmetic as plain index loops.


def assert_qp_matches_oracle(Q, c, mu, lam0, max_iters, tol):
    with np.errstate(all="ignore"):
        Q_rows = np.asarray(Q, dtype=float).tolist()
        got = _pyramid_qp(Q_rows, list(c), mu, _pyramid_project_floats(list(lam0), mu), _gershgorin(Q_rows), max_iters,
                          tol)
        want = fz.pyramid_qp(Q, c, mu, lam0, max_iters, tol)
    assert same_bits(got[0], want[0])
    assert same_bits([got[1]], [want[1]])
    assert got[2] == want[2]


@st.composite
def qp_cases(draw):
    """A pyramid QP of 1-8 contacts, scaled so that restart sums can underflow or overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nc = draw(st.integers(1, 8))
    n = 3 * nc
    kind = draw(st.sampled_from(["delassus", "random", "diagonal", "signed zero", "not positive"]))
    if kind == "delassus":  # a table contact problem with the convex regularizer
        rho = mixed(draw, rng, n, -0.06, 0.06).reshape(3, nc)
        A = _table_jacobian(rho) @ cube_inv_mass() @ _table_jacobian(rho).T
        Q = A + np.diag(rng.uniform(0.01, 1.0) * A.diagonal())
    elif kind == "random":
        M = rng.standard_normal((n, n))
        Q = M @ M.T + rng.uniform(1e-3, 1.0) * np.eye(n)
    elif kind == "diagonal":  # exact small integers: gradients that vanish exactly keep signed zeros alive
        Q = np.diag(rng.integers(1, 6, n).astype(float))
    elif kind == "signed zero":  # as diagonal, with every normal curvature below L = 5
        d = rng.integers(1, 6, n).astype(float)
        d[0::3] = rng.integers(1, 5, nc)
        d[1] = 5.0
        Q = np.diag(d)
    else:
        Q = draw(st.sampled_from([np.zeros((n, n)), -np.eye(n), np.full((n, n), math.inf)]))
    scale = 10.0 ** draw(st.sampled_from([0, -170, 160]))
    c = (scale * mixed(draw, rng, n, -3.0, 1.0, (0.0, -0.0), log=True)).tolist()
    lam0 = (scale * mixed(draw, rng, n, -3.0, 1.0, (0.0, -0.0, math.nan, math.inf), log=True)).tolist()
    mu = draw(st.sampled_from([0.0, 0.5, rng.uniform(0.0, 1.5)]))
    max_iters = draw(st.sampled_from([1, 2, 3, rng.integers(4, 40)]))
    tol = draw(st.sampled_from([DEFAULT_QP_TOL, 0.0, -1.0]))  # 0 and -1 run past the point of convergence
    if kind == "signed zero":
        # pushing normals and -0.0 tangents on rows whose gradient is exactly zero: after a beta == 0
        # momentum step y holds +0.0 there, and a solve stopped within a few iterations shows which
        # sign the iterate kept
        c = [x for v in (-scale * 10.0 ** rng.uniform(-3.0, 1.0, nc)).tolist() for x in (v, 0.0, 0.0)]
        lam0 = [0.0, -0.0, -0.0] * nc
        mu = draw(st.sampled_from([0.5, rng.uniform(0.01, 1.5)]))  # mu = 0 projects tangents to +0.0
        max_iters = draw(st.sampled_from([2, 3, 4, 1]))
    return Q, c, mu, lam0, int(max_iters), tol


@PROPERTY_SETTINGS
@given(qp_cases())
def test_pyramid_qp_matches_frozen_oracle(case):
    assert_qp_matches_oracle(*case)


@pytest.mark.parametrize("max_iters", [1, 2, 3, 4])
@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_pyramid_qp_refuses_reuse_across_a_signed_zero(mu, max_iters):
    """Each iterate is the projected step from the momentum point y, signed zeros
    included, so no earlier projection may stand in for it when y differs from
    the iterate only in the sign of a zero. With mu > 0, after the first
    momentum step the iterate's tangents are -0.0 and y's are +0.0
    (-0.0 + 0.0 * 0.0). Their gradients vanish exactly, so the next iterate
    takes y's signs; a projection reused from the iterate would keep -0.0.
    With mu = 0 the projection zeroes the tangents to +0.0."""
    Q = np.diag([1.0, 5.0, 1.0])  # L = 5: the normal converges over several iterations
    c, lam0 = [-1.0, 0.0, 0.0], [0.0, -0.0, -0.0]
    assert_qp_matches_oracle(Q, c, mu, lam0, max_iters, DEFAULT_QP_TOL)
    lam, _, _ = _pyramid_qp(Q.tolist(), c, mu, _pyramid_project_floats(lam0, mu), _gershgorin(Q.tolist()), max_iters,
                            DEFAULT_QP_TOL)
    assert np.signbit(lam[1:]).tolist() == [max_iters == 1 and mu > 0.0] * 2


def test_pyramid_qp_without_positive_curvature_returns_zeros():
    """A zero Q has the step-size bound L = 0: the solve returns zeros with residual 0 at once."""
    for Q in (np.zeros((3, 3)), np.full((6, 6), -0.0)):
        n = len(Q)
        assert_qp_matches_oracle(Q, [1.0] * n, 0.5, [0.1] * n, 10, DEFAULT_QP_TOL)
        lam, residual, iters = _pyramid_qp(Q.tolist(), [1.0] * n, 0.5, _pyramid_project_floats([0.1] * n, 0.5),
                                           _gershgorin(Q.tolist()), 10, DEFAULT_QP_TOL)
        assert lam == [0.0] * n and residual == 0.0 and iters == 0


def test_pyramid_qp_step_size_is_the_gershgorin_bound():
    """L is the largest row sum of |Q_ij|, above the largest eigenvalue: one step from zero lands on -c / L."""
    Q = [[2.0, -1.0, 0.0], [-1.0, 4.0, 0.5], [0.0, 0.5, 1.0]]  # row sums 3, 5.5, 1.5
    lam, residual, iters = _pyramid_qp(Q, [-5.5, 0.0, 0.0], 0.5, _pyramid_project_floats([0.0] * 3, 0.5),
                                       _gershgorin(Q), 1, DEFAULT_QP_TOL)
    assert lam == [1.0, 0.0, 0.0] and iters == 1 and residual == 5.5
    assert np.max(np.linalg.eigvalsh(np.array(Q))) < 5.5


@pytest.mark.parametrize("nc", range(1, 9))
def test_matvec_on_list_matches_matmul_on_array(nc):
    """Q.dot(list), the matrix-vector product of the former BLAS QP, runs the dgemv of
    Q @ np.array(list) bit for bit. So frozen_numpy.blas_pyramid_qp, which takes Q @ y on arrays,
    is that QP, and the tolerance tests compare the float solve with the solver it replaced."""
    rng = np.random.default_rng(nc)
    for _ in range(200):
        rho = rng.uniform(-0.06, 0.06, (3, nc))
        J = _table_jacobian(rho)
        Q = J @ cube_inv_mass() @ J.T
        Q = Q + np.diag(0.1 * Q.diagonal())
        y = (rng.standard_normal(3 * nc) * 10.0 ** rng.uniform(-6, 2)).tolist()
        assert same_bits(Q.dot(y), Q @ np.array(y))


# --- rollouts ----------------------------------------------------------------


def _rollout_cases(cube_geom):
    """(x0, inertia, geometry) triples: cube tosses, an anisotropic inertia, a tilted non-default gravity with
    a non-default isotropic inertia, and the 10 x 7 x 5 cm box, so the per-step constants that InertialParams
    and BoxGeometry hold as floats are checked away from the cube's defaults too."""
    tosses = random_toss_states(2, cube_geom, seed=5) + sliding_toss_states(2, cube_geom, seed=5)
    anisotropic = ct.InertialParams(0.37, np.diag([0.006, 0.008, 0.0105]))
    tilted = ct.InertialParams(0.5, 0.006, gravity=[0.9, -0.6, -9.7])
    box_geom, box_inertia = anisotropic_box()
    box_tosses = random_toss_states(1, box_geom, seed=6) + sliding_toss_states(1, box_geom, seed=6)
    return ([(x0, ct.cube_inertial(), cube_geom) for x0 in tosses]
            + [(tosses[0], anisotropic, cube_geom), (tosses[0], tilted, cube_geom), (tosses[2], tilted, cube_geom)]
            + [(x0, box_inertia, box_geom) for x0 in box_tosses])


def test_arrays_behind_the_float_constants_are_read_only(cube_geom, cube_inertia):
    """An edit in place of gravity or the half extents raises, where it would not reach the floats that the
    rollout reads."""
    with pytest.raises(ValueError):
        cube_inertia.gravity[2] = -1.62
    with pytest.raises(ValueError):
        cube_geom.half_extents[0] = 0.1
    assert cube_inertia.gravity_floats == (0.0, 0.0, -9.81) and cube_geom.half_extent_floats == (0.05,) * 3


@pytest.mark.parametrize("preset", ["cube-drake", "cube-mujoco-style", "cube-bullet-style"])
def test_rollout_matches_frozen_numpy_loop(preset, cube_geom):
    """simulate() reproduces the former numpy loop bit for bit, for every model."""
    params = ct.param_preset(preset)
    cfg = ct.SimConfig(dt=DT, downsample=1)
    for i, (x0, inertia, geom) in enumerate(_rollout_cases(cube_geom)):
        got = ct.simulate(x0, params, inertia, geom, cfg, 0.3).as_matrix()
        want = fz.simulate(x0, params, inertia, geom, cfg, 0.3).as_matrix()
        assert same_bits(got, want), (preset, i)


def test_float_built_problem_reads_as_the_array_built_one(monkeypatch, cube_geom):
    """The PGS and convex problems simulate builds from floats read, field by field, as the frozen loop's
    arrays, and every solver solves them bit for bit as it solves those."""
    cfg = ct.SimConfig(dt=DT, downsample=1)
    got, want = [], []

    def recorder(solver, out):
        def solve(problem, *args, **kwargs):
            out.append(problem)
            return solver(problem, *args, **kwargs)
        return solve

    live = sys.modules["cubetoss.simulate"]
    for live_name, frozen_name in (("rigid_pgs_impulse", "sequential_pgs_impulse"),
                                   ("regularized_convex_impulse", "regularized_convex_impulse")):
        monkeypatch.setattr(live, live_name, recorder(getattr(live, live_name), got))
        monkeypatch.setattr(fz, frozen_name, recorder(getattr(fz, frozen_name), want))
    for preset in ("cube-bullet-style", "cube-mujoco-style"):
        params = ct.param_preset(preset)
        for x0, inertia, geom in _rollout_cases(cube_geom):
            ct.simulate(x0, params, inertia, geom, cfg, 0.3)
            fz.simulate(x0, params, inertia, geom, cfg, 0.3)
    assert len(got) == len(want) > 0
    pgs = ct.ContactParams(0.3, 3300.0, 45.0, "rigid_pgs")
    convex = ct.ContactParams(0.3, 3300.0, 45.0, "regularized_convex")
    compliant = ct.ContactParams(0.3, 3300.0, 45.0, "compliant")
    for g, w in zip(got[::7], want[::7]):
        assert g.num_contacts == w.num_contacts and g.h == w.h
        for name in ("jacobian", "inv_mass", "v", "f_ext", "depth", "depth_rate", "accel"):
            assert same_bits(getattr(g, name), getattr(w, name)), name
        for solve, p in ((ct.rigid_pgs_impulse, pgs), (ct.regularized_convex_impulse, convex),
                         (ct.hunt_crossley_impulse, compliant)):
            assert same_impulse(solve(g, p), solve(w, p))


def _divergence(fn, params, x0, cube_geom, cube_inertia):
    with np.errstate(all="ignore"):
        with pytest.raises(ct.SimulationDivergence) as err:
            fn(x0, params, cube_inertia, cube_geom, ct.SimConfig(dt=DT, downsample=1), 0.5)
    return err.value.step_index, str(err.value)


def overflowing_spin_case():
    """Stiffness and damping so large that the first contact spins the cube to an infinite rate."""
    q = np.array([0.9, 0.1, 0.3, 0.2])
    x0 = ct.RigidState([0, 0, 0.049], q / np.linalg.norm(q), [0.3, 0, -1.0], [1.0, 2.0, 3.0])
    return ct.ContactParams(0.0, 1e150, 1e100, "compliant"), x0


@pytest.mark.parametrize("case", ["math domain error", "nan quaternion"])
def test_divergence_step_and_message_match_numpy_loop(case, cube_geom, cube_inertia):
    if case == "math domain error":
        params, x0 = overflowing_spin_case()
        expected = "math domain error"
    else:  # the case of test_divergence_reports_step_index
        params = ct.ContactParams(0.0, 1e200, 1e200, "compliant")
        x0 = ct.RigidState([0, 0, 0.049], [1, 0, 0, 0], [0, 0, -1.0], [0, 0, 0])
        expected = "cannot normalize quaternion with norm nan"
    got = _divergence(ct.simulate, params, x0, cube_geom, cube_inertia)
    assert got == _divergence(fz.simulate, params, x0, cube_geom, cube_inertia)
    assert got == (1, f"simulation diverged at step 1: {expected}")


def test_value_error_outside_integrator_is_not_divergence(monkeypatch, cube_geom, cube_inertia):
    """Only the integrator's ValueError means divergence; one from a solver call propagates as it is."""
    def broken_solver(*args, **kwargs):
        raise ValueError("bad solver argument")

    monkeypatch.setattr(sys.modules["cubetoss.simulate"], "rigid_pgs_impulse", broken_solver)
    x0 = sliding_toss_states(1, cube_geom, seed=5)[0]
    with pytest.raises(ValueError, match="bad solver argument"):
        ct.simulate(x0, ct.param_preset("cube-bullet-style"), cube_inertia, cube_geom, ct.SimConfig(dt=DT), 0.3)
