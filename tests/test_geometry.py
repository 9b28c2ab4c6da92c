import numpy as np
import pytest

import cubetoss as ct
from cubetoss import quat as cq
from conftest import random_unit_quat

DT = 1.0 / 1480.0


def test_separated_cube_no_contacts(cube_geom):
    s = ct.RigidState([0, 0, 1.0], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    assert ct.detect_contacts(s, cube_geom) == []


def test_face_contact_four_corners(cube_geom):
    s = ct.RigidState([0, 0, 0.05 - 1e-4], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    cps = ct.detect_contacts(s, cube_geom)
    assert len(cps) == 4
    for cp in cps:
        assert cp.depth == pytest.approx(1e-4, abs=1e-12)
        assert cp.depth_rate == 0.0
    # exact face contact (corners at z = 0) also yields exactly 4 points
    exact = ct.RigidState([0, 0, 0.05], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    assert len(ct.detect_contacts(exact, cube_geom)) == 4


def test_edge_contact_two_corners(cube_geom):
    # rotate 45 degrees about x: the lowest edge drops to -sqrt(2)/2 * side/ ... below center
    q = cq.from_axis_angle([1, 0, 0], np.pi / 4)
    drop = 0.05 * np.sqrt(2.0)
    s = ct.RigidState([0, 0, drop - 1e-3], q, [0, 0, 0], [0, 0, 0])
    cps = ct.detect_contacts(s, cube_geom)
    assert len(cps) == 2
    for cp in cps:
        assert cp.depth == pytest.approx(1e-3, abs=1e-12)


def test_deterministic_lexicographic_order(cube_geom):
    s = ct.RigidState([0, 0, 0.04], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    cps = ct.detect_contacts(s, cube_geom)
    # bottom corners in sign order (-,-,-), (-,+,-), (+,-,-), (+,+,-)
    assert [cp.corner_index for cp in cps] == [0, 2, 4, 6]
    xy = np.array([cp.point[:2] for cp in cps])
    assert np.allclose(xy, [[-0.05, -0.05], [-0.05, 0.05], [0.05, -0.05], [0.05, 0.05]])


def test_depth_rate_matches_witness_velocity(cube_geom):
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = ct.RigidState(
            [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.0, 0.09)],
            random_unit_quat(rng),
            rng.uniform(-3, 3, 3),
            rng.uniform(-20, 20, 3),
        )
        for cp in ct.detect_contacts(s, cube_geom):
            v_pt = s.vel + np.cross(s.ang_vel, cp.point - s.pos)
            assert abs(cp.depth_rate + v_pt[2]) < 1e-12


def test_contact_count_bounds(cube_geom):
    rng = np.random.default_rng(4)
    for _ in range(300):
        s = ct.RigidState(
            [0, 0, rng.uniform(-0.02, 0.2)], random_unit_quat(rng), np.zeros(3), np.zeros(3)
        )
        assert 0 <= len(ct.detect_contacts(s, cube_geom)) <= 8


def test_z_rotation_equivariance(cube_geom):
    """Rotating the world about z rotates witness points; depths are unchanged."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = ct.RigidState(
            [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.0, 0.07)],
            random_unit_quat(rng),
            rng.uniform(-2, 2, 3),
            rng.uniform(-10, 10, 3),
        )
        alpha = rng.uniform(0, 2 * np.pi)
        qz = cq.from_axis_angle([0, 0, 1], alpha)
        Rz = cq.to_matrix(qz)
        s_rot = ct.RigidState(Rz @ s.pos, cq.multiply(qz, s.quat), Rz @ s.vel, Rz @ s.ang_vel)
        a = ct.detect_contacts(s, cube_geom)
        b = ct.detect_contacts(s_rot, cube_geom)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert ca.corner_index == cb.corner_index
            assert np.max(np.abs(Rz @ ca.point - cb.point)) < 1e-12
            assert abs(ca.depth - cb.depth) < 1e-12
            assert abs(ca.depth_rate - cb.depth_rate) < 1e-12


def test_build_contact_problem_requires_3_vector_points(cube_inertia):
    """A witness point that is not a 3-vector is refused, naming the contact, rather than reshaped into
    arms that mix the contacts' components (a 2-vector point among three made 2 arms for 3 depths)."""
    s = ct.RigidState([0, 0, 0.05], [1, 0, 0, 0], [0, 0, -0.1], [0, 0, 0])
    corner = s.pos + [0.05, 0.05, -0.05]
    table = ct.ContactPoint(corner, 1e-4, 0.1)
    assert ct.build_contact_problem(s, cube_inertia, [table, table, table], DT).num_contacts == 3
    for bad in (corner[:2], np.append(corner, 0.0)):
        other = ct.ContactPoint(bad, 1e-4, 0.1)
        with pytest.raises(ValueError, match=r"contact 1 point must be a 3-vector"):
            ct.build_contact_problem(s, cube_inertia, [table, other, table], DT)
        # three such points reshape without error into 2 or 4 arms
        with pytest.raises(ValueError, match=r"contact 0 point must be a 3-vector"):
            ct.build_contact_problem(s, cube_inertia, [other] * 3, DT)


def test_jacobian_com_witness(cube_inertia):
    s = ct.RigidState([0, 0, 0.02], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    cp = ct.ContactPoint(s.pos.copy(), 0.0, 0.0)
    J = ct.build_contact_problem(s, cube_inertia, [cp], DT).jacobian
    assert np.allclose(J[:, :3], np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    assert np.allclose(J[:, 3:], 0.0)


def test_jacobian_pure_rotation_tangential(cube_inertia):
    s = ct.RigidState([0, 0, 0.05], [1, 0, 0, 0], [0, 0, 0], [0, 0, 1.0])
    r = np.array([0.05, 0.05, -0.05])
    cp = ct.ContactPoint(s.pos + r, 0.0, 0.0)
    J = ct.build_contact_problem(s, cube_inertia, [cp], DT).jacobian
    twist = np.concatenate([s.vel, s.ang_vel])
    v_contact = J @ twist
    expect = np.cross(s.ang_vel, r)
    assert v_contact[1] == pytest.approx(expect[0], abs=1e-15)
    assert v_contact[2] == pytest.approx(expect[1], abs=1e-15)


def test_jacobian_normal_row_is_minus_depth_rate(cube_geom, cube_inertia):
    rng = np.random.default_rng(6)
    for _ in range(100):
        s = ct.RigidState(
            [0, 0, rng.uniform(0.0, 0.07)], random_unit_quat(rng),
            rng.uniform(-3, 3, 3), rng.uniform(-20, 20, 3),
        )
        twist = np.concatenate([s.vel, s.ang_vel])
        for cp in ct.detect_contacts(s, cube_geom):
            J = ct.build_contact_problem(s, cube_inertia, [cp], DT).jacobian
            assert abs((J @ twist)[0] + cp.depth_rate) < 1e-12


def test_table_jacobian_matches_strided_builder():
    """The list-built Jacobian equals, bit for bit and sign of zero included, the
    former builder that assigned strided columns of a zero array."""
    rng = np.random.default_rng(7)
    for nc in range(0, 9):
        rho = rng.uniform(-0.05, 0.05, size=(3, nc))
        rho[rng.random((3, nc)) < 0.2] = 0.0
        rho[rng.random((3, nc)) < 0.2] = -0.0
        want = np.zeros((3 * nc, 6))
        rx, ry, rz = rho
        want[0::3, 2] = 1.0
        want[0::3, 3] = ry
        want[0::3, 4] = -rx
        want[1::3, 0] = 1.0
        want[1::3, 4] = rz
        want[1::3, 5] = -ry
        want[2::3, 1] = 1.0
        want[2::3, 3] = -rz
        want[2::3, 5] = rx
        got = ct.solvers._table_jacobian(rho)
        assert got.shape == (3 * nc, 6) and got.dtype == np.float64
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_box_geometry_validation():
    with pytest.raises(ValueError):
        ct.BoxGeometry([0.0, 0.1, 0.1])
    g = ct.BoxGeometry.cube(0.1)
    assert np.allclose(g.half_extents, 0.05)
    assert g.corners_body.shape == (3, 8)


def test_detect_contacts_requires_a_finite_nonnegative_margin(cube_geom):
    """The margin is checked as SimConfig checks it: NaN and -1 gave no contacts and inf all 8 corners."""
    state = ct.RigidState([0, 0, 0.0505], [1, 0, 0, 0], [0, 0, -0.5], [0, 0, 0])
    for bad in (float("nan"), -1.0, -1e-9, float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="activation_margin must be finite and nonnegative"):
            ct.detect_contacts(state, cube_geom, bad)
    assert ct.detect_contacts(state, cube_geom, 0.0) == []
    assert len(ct.detect_contacts(state, cube_geom, 1e-3)) == 4
