"""Shared fixtures and independent oracles for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

import cubetoss as ct
from cubetoss import quat as cq
from cubetoss.geometry import NORMAL, TANGENT1, TANGENT2

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


def random_contact_problem(rng, nc, dt=DT, include_gravity=True):
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
        cps.append(ct.ContactPoint(r, NORMAL.copy(), rng.uniform(-5e-4, 1e-3), float(-vp[2]), TANGENT1.copy(),
                                   TANGENT2.copy()))
    return ct.build_contact_problem(st, inertia, cps, dt, include_gravity=include_gravity), inertia, st


def random_frame_lcp(rng, nc, dt=DT):
    """(A, g) of nc contacts with random frames and arms on a random body, beyond the table frame.

    A = J M^-1 J^T and g = J v_free over the rows [e, rho x e] of each
    contact's normal and tangents, with gravity and the gyroscopic force in
    v_free. Unlike table contacts, whose normal rows span at most three
    directions, random normals give the frictionless problem a nonsingular
    normal block and so a unique solution. The draws are those of
    random_contact_problem with a normal and a tangent direction per contact.
    """
    m = rng.uniform(0.1, 2.0)
    inertia = ct.InertialParams(m, np.diag(rng.uniform(0.002, 0.05, 3)))
    pos, q, vel, ang_vel = rng.uniform(-1, 1, 3), random_unit_quat(rng), rng.uniform(-2, 2, 3), rng.uniform(-10, 10, 3)
    rows = []
    for _ in range(nc):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        t1 = np.cross(n, rng.normal(size=3))
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n, t1)
        rho = rng.uniform(-0.1, 0.1, 3)
        rng.uniform(-5e-4, 1e-3)  # random_contact_problem's depth draw, unread without a bias
        rows += [np.concatenate([e, np.cross(rho, e)]) for e in (n, t1, t2)]
    J = np.array(rows)
    R = cq.to_matrix(q)
    inv_mass = np.zeros((6, 6))
    inv_mass[:3, :3] = np.eye(3) / m
    inv_mass[3:, 3:] = R @ inertia.inertia_body_inv @ R.T
    iw = R @ inertia.inertia_body @ R.T
    f_ext = np.concatenate([m * inertia.gravity, -np.cross(ang_vel, iw @ ang_vel)])
    v_free = np.concatenate([vel, ang_vel]) + dt * (inv_mass @ f_ext)
    return J @ inv_mass @ J.T, J @ v_free


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
