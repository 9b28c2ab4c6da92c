"""Shared fixtures and independent oracles for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

import cubetoss as ct
from cubetoss import quat as cq

DT = 1.0 / 1480.0


@pytest.fixture
def cube_geom():
    return ct.cube_geometry()


@pytest.fixture
def cube_inertia():
    return ct.cube_inertial()


def random_unit_quat(rng):
    return cq.from_axis_angle(rng.normal(size=3), rng.uniform(0.0, np.pi))


def random_onset_state(rng, geom):
    """Pose with the lowest corner inside [0, margin): contact without penetration."""
    q = random_unit_quat(rng)
    R = cq.to_matrix(q)
    corners_z = (R @ geom.corners_body)[2]
    z0 = -corners_z.min() + rng.uniform(0.0, 9e-4)
    vel = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 0.5)])
    w = rng.uniform(-15, 15, 3)
    return ct.RigidState([rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), z0], q, vel, w)


def random_contact_problem(rng, nc, dt=DT):
    """Table contacts of a random body at random arms, beyond the box-corner scenario."""
    m = rng.uniform(0.1, 2.0)
    inertia = ct.InertialParams(m, np.diag(rng.uniform(0.002, 0.05, 3)))
    st = ct.RigidState(
        rng.uniform(-1, 1, 3),
        random_unit_quat(rng),
        rng.uniform(-2, 2, 3),
        rng.uniform(-10, 10, 3),
    )
    cps = []
    for _ in range(nc):
        r = st.pos + rng.uniform(-0.1, 0.1, 3)
        vp = st.vel + np.cross(st.ang_vel, r - st.pos)
        cps.append(ct.ContactPoint(r, rng.uniform(-5e-4, 1e-3), float(-vp[2])))
    return ct.build_contact_problem(st, inertia, cps, dt), inertia, st


def lcp_enumerate(A, q, tol=1e-10):
    """Brute-force LCP solution by enumerating every active set.

    Finds lam >= 0 with A lam + q >= 0 and lam' (A lam + q) = 0, trying each
    subset of active constraints directly. Independent of any iterative
    solver.
    """
    n = len(q)
    for mask in range(2**n):
        S = [i for i in range(n) if (mask >> i) & 1]
        lam = np.zeros(n)
        if S:
            idx = np.asarray(S)
            try:
                lam[idx] = np.linalg.solve(A[np.ix_(S, S)], -q[idx])
            except np.linalg.LinAlgError:
                continue
        if np.min(lam) < -tol:
            continue
        if np.min(A @ lam + q) < -tol:
            continue
        return lam
    return None


def with_velocity(problem, v):
    """problem with the pre-step generalized velocity v (six floats) in place of its own."""
    return ct.ContactProblem(problem._rho, problem._mass, v, problem.h, problem._f, problem._depth,
                             problem._depth_rate)


def post_impulse_state(problem, state, impulse):
    vpost = problem.v_free() + problem.inv_mass @ impulse.wrench
    return ct.RigidState(state.pos, state.quat, vpost[:3], vpost[3:])
