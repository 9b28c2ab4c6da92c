import math

import numpy as np
import pytest

import cubetoss as ct
from cubetoss import quat as cq

DT = 1.0 / 1480.0


def test_force_free_drift():
    inertia = ct.InertialParams(0.37, 0.0081 * np.eye(3), gravity=(0, 0, 0))
    s = ct.RigidState([0.1, -0.2, 1.0], [1, 0, 0, 0], [0.5, 0.2, -0.1], [0, 0, 0])
    out = ct.step(s, inertia, dt=DT)
    assert np.allclose(out.pos, s.pos + DT * s.vel, atol=0, rtol=0)
    assert np.array_equal(out.quat, s.quat)
    assert np.array_equal(out.vel, s.vel)


def test_gravity_single_step():
    inertia = ct.cube_inertial()
    s = ct.RigidState([0, 0, 1], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    out = ct.step(s, inertia, dt=DT)
    assert out.vel[2] == pytest.approx(-9.81 / 1480.0, abs=0, rel=1e-15)


def test_impulse_changes_velocities():
    inertia = ct.InertialParams(2.0, 0.01 * np.eye(3), gravity=(0, 0, 0))
    s = ct.RigidState([0, 0, 0], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    out = ct.step(s, inertia, impulse=[2.0, 0, 0, 0, 0.02, 0], dt=DT)
    assert out.vel[0] == pytest.approx(1.0)
    assert out.ang_vel[1] == pytest.approx(2.0)


def test_discrete_projectile_closed_form():
    """Contact-free flight matches the closed form of the velocity-first recurrence.

    The scheme gives v_n = v_0 + n dt g and p_n = p_0 + n dt v_0
    + dt^2 g n(n+1)/2, which is an exact independent prediction.
    """
    inertia = ct.cube_inertial()
    s = ct.RigidState([0, 0, 1], [1, 0, 0, 0], [1, 0, 0], [0, 0, 0])
    n = int(round(0.2 / DT))
    cur = s
    for _ in range(n):
        cur = ct.step(cur, inertia, dt=DT)
    g = inertia.gravity
    expect_v = s.vel + n * DT * g
    expect_p = s.pos + n * DT * s.vel + DT * DT * g * (n * (n + 1) / 2.0)
    assert np.max(np.abs(cur.vel - expect_v)) < 1e-12
    assert np.max(np.abs(cur.pos - expect_p)) < 1e-12


def test_kinetic_energy_values(cube_inertia):
    zero = ct.RigidState([0, 0, 1], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    assert ct.kinetic_energy(zero, cube_inertia) == 0.0
    lin = ct.RigidState([0, 0, 1], [1, 0, 0, 0], [0, 0, 2], [0, 0, 0])
    assert ct.kinetic_energy(lin, cube_inertia) == pytest.approx(0.74, rel=1e-12)
    rot = ct.RigidState([0, 0, 1], [1, 0, 0, 0], [0, 0, 0], [1, 0, 0])
    assert ct.kinetic_energy(rot, cube_inertia) == pytest.approx(0.00405, rel=1e-12)


def test_quaternion_norm_preserved_one_million_steps():
    inertia = ct.InertialParams(0.37, 0.0081 * np.eye(3), gravity=(0, 0, 0))
    s = ct.RigidState([0, 0, 1.0], [1, 0, 0, 0], [0, 0, 0], [3.0, -2.0, 5.0])
    cfg = ct.SimConfig(dt=DT, downsample=1000)
    traj = ct.simulate(s, ct.ContactParams(0.1, 1e4, 0.4, "compliant"), inertia,
                       ct.cube_geometry(), cfg, duration=1_000_000 * DT)
    norms = np.linalg.norm(traj.quat, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_momentum_conservation_gravity_off():
    inertia = ct.InertialParams(0.37, 0.0081 * np.eye(3), gravity=(0, 0, 0))
    s = ct.RigidState([0, 0, 0], [1, 0, 0, 0], [0.3, -0.4, 0.5], [2.0, 1.0, -3.0])
    lin0 = inertia.mass * s.vel
    ang0 = ct.body.world_inertia(s, inertia) @ s.ang_vel
    cur = s
    for _ in range(10_000):
        cur = ct.step(cur, inertia, dt=DT)
    lin1 = inertia.mass * cur.vel
    ang1 = ct.body.world_inertia(cur, inertia) @ cur.ang_vel
    assert np.max(np.abs(lin1 - lin0)) < 1e-10
    assert np.max(np.abs(ang1 - ang0)) < 1e-10


def test_gyroscopic_term_tumbles_anisotropic_body():
    # intermediate-axis spin must couple into the other axes
    inertia = ct.InertialParams(1.0, np.diag([0.01, 0.02, 0.04]), gravity=(0, 0, 0))
    s = ct.RigidState([0, 0, 0], [1, 0, 0, 0], [0, 0, 0], [0.01, 20.0, 0.01])
    cur = s
    for _ in range(2000):
        cur = ct.step(cur, inertia, dt=DT)
    assert abs(cur.ang_vel[0]) > 0.1 or abs(cur.ang_vel[2]) > 0.1


def test_step_rejects_bad_input(cube_inertia):
    s = ct.RigidState([0, 0, np.nan], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError, match="non-finite"):
        ct.step(s, cube_inertia, dt=DT)
    ok = ct.RigidState([0, 0, 0], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        ct.step(ok, cube_inertia, dt=-1.0)
    with pytest.raises(ValueError):
        ct.step(ok, cube_inertia, impulse=[1, 2, 3], dt=DT)
    off_norm = ct.RigidState([0, 0, 0], [1.1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError, match="quaternion"):
        ct.step(off_norm, cube_inertia, dt=DT)


def test_inertial_params_validation():
    with pytest.raises(ValueError):
        ct.InertialParams(-1.0, np.eye(3))
    with pytest.raises(ValueError):
        ct.InertialParams(1.0, -np.eye(3))
    with pytest.raises(ValueError):
        ct.InertialParams(1.0, np.array([[1, 0.5, 0], [0, 1, 0], [0, 0, 1.0]]))
    # a mass or inertia whose inverse overflows, or one that is not finite, is a configuration error
    for mass, inertia in ((1e-320, 1e-3 * np.eye(3)), (np.inf, 1e-3 * np.eye(3)), (np.nan, 1e-3 * np.eye(3)),
                          (0.37, np.diag([1e-320] * 3)), (0.37, np.diag([np.inf] * 3)), (0.37, np.diag([np.nan] * 3))):
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            ct.InertialParams(mass, inertia)
    assert ct.InertialParams(1.0, 0.0081 * np.eye(3)).inertia_inv_scalar is not None
    assert ct.InertialParams(1.0, np.diag([0.01, 0.02, 0.04])).inertia_inv_scalar is None


def test_sim_config_validation():
    with pytest.raises(ValueError):
        ct.SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        ct.SimConfig(downsample=0)
    assert ct.SimConfig(dt=1 / 1480, downsample=10).output_rate_hz == pytest.approx(148.0)
    assert ct.SimConfig(solver_iters=1).solver_iters == 1
    assert ct.SimConfig(solver_iters=np.int64(7)).solver_iters == 7
    for bad in (0, -1, 2.0, 2.5, True, "5"):
        with pytest.raises(ValueError, match="solver_iters"):
            ct.SimConfig(solver_iters=bad)
    assert ct.SimConfig(activation_margin=0.0).activation_margin == 0.0
    for bad in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="slip_tolerance"):
            ct.SimConfig(slip_tolerance=bad)
    for bad in (-1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="activation_margin"):
            ct.SimConfig(activation_margin=bad)


def test_sim_config_rejects_non_finite_dt():
    for bad in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            ct.SimConfig(dt=bad)


def test_quat_integrate_matches_step_orientation():
    inertia = ct.InertialParams(0.37, 0.0081 * np.eye(3), gravity=(0, 0, 0))
    s = ct.RigidState([0, 0, 0], [1, 0, 0, 0], [0, 0, 0], [4.0, -3.0, 2.0])
    out = ct.step(s, inertia, dt=DT)
    expect = cq.integrate(s.quat, s.ang_vel, DT)
    assert np.max(np.abs(out.quat - expect)) < 1e-15


def test_quat_helpers():
    q = cq.from_axis_angle([0, 0, 1], np.pi / 2)
    v = cq.to_matrix(q) @ [1, 0, 0]
    assert np.allclose(v, [0, 1, 0], atol=1e-15)
    assert np.allclose(cq.to_matrix(q) @ cq.to_matrix(q).T, np.eye(3), atol=1e-15)
    assert np.array_equal(cq.from_axis_angle([0, 0, 0], 1.0), cq.IDENTITY)
    with pytest.raises(ValueError):
        cq.normalize(np.zeros(4))


def test_state_vector_round_trip():
    s = ct.RigidState([1, 2, 3], cq.from_axis_angle([0, 0, 1], 0.3), [4, 5, 6], [7, 8, 9])
    x = s.as_vector()
    back = ct.RigidState(x[0:3], x[3:7], x[7:10], x[10:13])
    assert np.array_equal(back.pos, s.pos)
    assert np.array_equal(back.quat, s.quat)
