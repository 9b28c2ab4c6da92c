import numpy as np
import pytest

import cubetoss as ct
from cubetoss import quat as cq
from cubetoss.metrics import DIVERGENCE_PENALTY
from conftest import random_unit_quat

DT = 1.0 / 1480.0


# --- rotation angle -------------------------------------------------------------


def test_rotation_angle_identity():
    q = cq.from_axis_angle([0, 1, 0], 0.7)
    assert ct.rotation_angle(q, q) == 0.0


def test_rotation_angle_quarter_turn():
    q1 = cq.IDENTITY
    for axis in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]):
        q2 = cq.multiply(cq.from_axis_angle(axis, np.pi / 2), q1)
        assert ct.rotation_angle(q1, q2) == pytest.approx(np.pi / 2, abs=1e-12)


def test_rotation_angle_antipodal():
    q1 = cq.IDENTITY
    q2 = cq.from_axis_angle([0, 0, 1], np.pi)
    assert ct.rotation_angle(q1, q2) == pytest.approx(np.pi, abs=1e-9)
    # double cover: -q is the same rotation
    assert ct.rotation_angle(q1, -q1) == 0.0


def test_rotation_angle_properties():
    rng = np.random.default_rng(22)
    for _ in range(100):
        qa, qb, qc = (random_unit_quat(rng) for _ in range(3))
        ab = ct.rotation_angle(qa, qb)
        assert ab >= 0.0
        assert ab == pytest.approx(ct.rotation_angle(qb, qa), abs=1e-12)
        # invariant under a common left rotation
        la, lb = cq.multiply(qc, qa), cq.multiply(qc, qb)
        assert ct.rotation_angle(la, lb) == pytest.approx(ab, abs=1e-12)


def test_rotation_angle_rejects_bad_input():
    with pytest.raises(ValueError):
        ct.rotation_angle(np.array([1.1, 0, 0, 0]), cq.IDENTITY)
    with pytest.raises(ValueError):
        ct.rotation_angle(np.zeros(3), np.zeros(3))
    # quaternions only: even a proper rotation matrix is refused
    with pytest.raises(ValueError, match="quaternions"):
        ct.rotation_angle(np.eye(3), np.eye(3))


# --- cube configuration error ---------------------------------------------------


def constant_traj(pos, q, n=10, rate=148.0):
    return ct.Trajectory(
        rate,
        np.tile(np.asarray(pos, dtype=float), (n, 1)),
        np.tile(np.asarray(q, dtype=float), (n, 1)),
        np.zeros((n, 3)),
        np.zeros((n, 3)),
    )


def test_config_error_identical_is_zero():
    t = constant_traj([0.1, 0.2, 0.05], cq.IDENTITY)
    rep = ct.cube_config_error(t, t, side=0.1)
    assert rep.config_error == 0.0
    assert rep.position_error_frac == 0.0
    assert rep.rotation_error_deg == 0.0


def test_config_error_position_offset():
    a = constant_traj([0, 0, 0], cq.IDENTITY)
    b = constant_traj([0.05, 0, 0], cq.IDENTITY)
    rep = ct.cube_config_error(a, b, side=0.1)
    assert rep.config_error == pytest.approx((2.0 / 0.1) * 0.05**2, rel=1e-12)  # 0.05
    assert rep.position_error_frac == pytest.approx(0.5, rel=1e-12)


def test_config_error_rotation_offset():
    a = constant_traj([0, 0, 0], cq.IDENTITY)
    b = constant_traj([0, 0, 0], cq.from_axis_angle([0, 0, 1], np.radians(10.0)))
    rep = ct.cube_config_error(a, b, side=0.1)
    assert rep.config_error == pytest.approx(np.radians(10.0) ** 2, rel=1e-9)
    assert rep.rotation_error_deg == pytest.approx(10.0, rel=1e-9)


def test_config_error_common_translation_invariance():
    rng = np.random.default_rng(23)
    n = 20
    a = ct.Trajectory(148.0, rng.normal(size=(n, 3)),
                      np.array([random_unit_quat(rng) for _ in range(n)]),
                      np.zeros((n, 3)), np.zeros((n, 3)))
    b = ct.Trajectory(148.0, a.pos + rng.normal(size=(n, 3)) * 0.01,
                      np.array([random_unit_quat(rng) for _ in range(n)]),
                      np.zeros((n, 3)), np.zeros((n, 3)))
    shift = np.array([1.3, -2.0, 0.7])
    a2 = ct.Trajectory(148.0, a.pos + shift, a.quat, a.vel, a.ang_vel)
    b2 = ct.Trajectory(148.0, b.pos + shift, b.quat, b.vel, b.ang_vel)
    r1 = ct.cube_config_error(a, b, side=0.1)
    r2 = ct.cube_config_error(a2, b2, side=0.1)
    assert r1.config_error == pytest.approx(r2.config_error, rel=1e-12)


def test_config_error_rejects_mismatch():
    a = constant_traj([0, 0, 0], cq.IDENTITY, n=10)
    b = constant_traj([0, 0, 0], cq.IDENTITY, n=11)
    with pytest.raises(ValueError, match="length"):
        ct.cube_config_error(a, b, side=0.1)
    c = constant_traj([0, 0, 0], cq.IDENTITY, n=10, rate=100.0)
    with pytest.raises(ValueError, match="rate"):
        ct.cube_config_error(a, c, side=0.1)
    for side in (0.0, float("nan")):
        with pytest.raises(ValueError, match="side"):
            ct.cube_config_error(a, a, side=side)


# --- weighted state error -------------------------------------------------------


def test_weighted_error_identity_reduces_to_sse():
    rng = np.random.default_rng(24)
    a = rng.normal(size=(7, 5))
    b = rng.normal(size=(7, 5))
    w = np.ones(5)
    assert ct.weighted_state_error(a, b, w) == pytest.approx(np.sum((a - b) ** 2), rel=1e-12)
    assert ct.weighted_state_error(a, a, w) == 0.0


def test_weighted_error_accepts_diagonal_matrix():
    a = np.ones((3, 4))
    b = np.zeros((3, 4))
    w = np.diag([1.0, 2.0, 3.0, 4.0])
    assert ct.weighted_state_error(a, b, w) == pytest.approx(3 * 10.0)
    with pytest.raises(ValueError, match="diagonal"):
        ct.weighted_state_error(a, b, np.ones((4, 4)))


def test_weighted_error_rejects_mismatch_and_negative():
    with pytest.raises(ValueError):
        ct.weighted_state_error(np.ones((3, 4)), np.ones((3, 5)), np.ones(4))
    with pytest.raises(ValueError):
        ct.weighted_state_error(np.ones((3, 4)), np.ones((3, 4)), -np.ones(4))


def test_cassie_weight_profile():
    w = ct.cassie_state_weights()
    n = len(ct.CASSIE_JOINT_NAMES)
    assert n == 16
    assert w.shape == (7 + n + 6 + n,)
    assert np.all(w[: 7 + n] == 10.0)  # every position index
    wv = w[7 + n :]
    assert np.all(wv[:3] == 5.0)  # base rotation rates
    assert np.all(wv[3:6] == 100.0)  # base translation rates
    for i, name in enumerate(ct.CASSIE_JOINT_NAMES):
        if "ankle_spring" in name:
            assert wv[6 + i] == 0.0, name  # unmeasured deflection rate
        elif "hip_roll" in name or "knee_spring" in name or "toe" in name:
            assert wv[6 + i] == 0.01, name
        else:
            assert wv[6 + i] == 1.0, name


def test_weighted_error_accepts_trajectories(cube_geom, cube_inertia):
    params = ct.param_preset("cube-drake")
    x0 = ct.RigidState([0, 0, 0.2], [1, 0, 0, 0], [0.5, 0, -0.5], [2.0, 0, 0])
    a = ct.simulate(x0, params, cube_inertia, cube_geom, ct.SimConfig(), 0.2)
    off = ct.ContactParams(0.5, params.k, params.b, "compliant")
    b = ct.simulate(x0, off, cube_inertia, cube_geom, ct.SimConfig(), 0.2)
    w = np.ones(13)
    got = ct.weighted_state_error(a, b, w)
    assert got == pytest.approx(np.sum((a.as_matrix() - b.as_matrix()) ** 2), rel=1e-12)


def test_weighted_dataset_loss_mean():
    a = np.zeros((4, 3))
    b = np.ones((4, 3))
    w = np.ones(3)
    assert ct.weighted_dataset_loss([a, a], [b, b], w) == pytest.approx(12.0)


# --- dataset loss ----------------------------------------------------------------


def make_synthetic(n, seed, params, duration=0.3):
    from cubetoss.synthetic import make_dataset, random_toss_states

    geom, inertia = ct.cube_geometry(), ct.cube_inertial()
    states = random_toss_states(n, geom, seed=seed)
    return make_dataset(states, params, inertia, geom, ct.SimConfig(), duration)


def test_dataset_loss_replay_is_zero(cube_geom, cube_inertia):
    params = ct.param_preset("cube-drake")
    truths = make_synthetic(3, 30, params)
    loss = ct.dataset_loss(truths, params, cube_inertia, cube_geom, ct.SimConfig())
    assert loss < 1e-10


def test_dataset_loss_mean_invariance(cube_geom, cube_inertia):
    params = ct.param_preset("cube-drake")
    off = ct.ContactParams(0.5, params.k, params.b, "compliant")
    truths = make_synthetic(1, 31, params)
    one = ct.dataset_loss(truths, off, cube_inertia, cube_geom, ct.SimConfig())
    many = ct.dataset_loss(truths * 5, off, cube_inertia, cube_geom, ct.SimConfig())
    assert one == pytest.approx(many, rel=1e-12)
    assert one > 0.0


def test_dataset_loss_permutation_invariant(cube_geom, cube_inertia):
    params = ct.param_preset("cube-drake")
    off = ct.ContactParams(0.5, params.k, params.b, "compliant")
    truths = make_synthetic(4, 32, params)
    a = ct.dataset_loss(truths, off, cube_inertia, cube_geom, ct.SimConfig())
    b = ct.dataset_loss(truths[::-1], off, cube_inertia, cube_geom, ct.SimConfig())
    assert a == pytest.approx(b, rel=1e-12)


def test_dataset_loss_divergence_penalty(cube_geom, cube_inertia):
    params = ct.param_preset("cube-drake")
    truths = make_synthetic(2, 33, params)
    bad = ct.ContactParams(0.0, 1e200, 1e200, "compliant")
    with np.errstate(over="ignore", invalid="ignore"):
        reports = ct.rollout_reports(truths, bad, cube_inertia, cube_geom, ct.SimConfig())
        loss = ct.dataset_loss(truths, bad, cube_inertia, cube_geom, ct.SimConfig())
    assert all(div for _, div in reports)
    assert loss == pytest.approx(DIVERGENCE_PENALTY)


def test_dataset_loss_mean_property(cube_geom, cube_inertia):
    """Adding a zero-error trajectory lowers the mean only if below it."""
    params = ct.param_preset("cube-drake")
    off = ct.ContactParams(0.5, params.k, params.b, "compliant")
    truths = make_synthetic(3, 35, params)
    base = ct.dataset_loss(truths, off, cube_inertia, cube_geom, ct.SimConfig())
    assert base > 0.0
    zero_err = make_synthetic(1, 36, off)  # generated by the evaluated parameters
    grown = ct.dataset_loss(truths + zero_err, off, cube_inertia, cube_geom, ct.SimConfig())
    assert grown < base  # 0 < current mean, so the mean must drop
    assert grown == pytest.approx(base * 3 / 4, rel=1e-6)


def test_score_length_falls_back_to_the_geometry(cube_inertia):
    """Truths without a side_m header score exactly as the same truths with side_m = 2 x the x half extent."""
    from cubetoss.synthetic import random_toss_states

    geom = ct.BoxGeometry([0.06, 0.04, 0.03])
    params = ct.param_preset("cube-drake")
    off = ct.ContactParams(0.5, params.k, params.b, "compliant")
    sims = [ct.simulate(x0, params, cube_inertia, geom, ct.SimConfig(), 0.3)
            for x0 in random_toss_states(2, geom, seed=37)]

    def reports(meta):
        truths = [ct.Trajectory(t.rate_hz, t.pos, t.quat, t.vel, t.ang_vel, dict(meta)) for t in sims]
        return ct.rollout_reports(truths, off, cube_inertia, geom, ct.SimConfig())

    bare = reports({})
    assert bare == reports({"side_m": 2 * 0.06})
    assert bare != reports({"side_m": 0.1})
    assert all(rep.config_error > 0.0 for rep, _ in bare)


def test_dataset_loss_empty_rejected(cube_geom, cube_inertia):
    with pytest.raises(ValueError, match="empty"):
        ct.dataset_loss([], ct.param_preset("cube-drake"), cube_inertia, cube_geom)


def test_dataset_loss_rate_mismatch_rejected(cube_geom, cube_inertia):
    params = ct.param_preset("cube-drake")
    truths = make_synthetic(1, 34, params)
    cfg = ct.SimConfig(dt=1 / 1000, downsample=10)
    with pytest.raises(ValueError, match="rate"):
        ct.dataset_loss(truths, params, cube_inertia, cube_geom, cfg)


def test_rollout_reports_refuses_a_single_sample_truth():
    """A one-sample truth has no duration to roll out; it is refused by index before any rollout."""
    long = ct.Trajectory(148.0, [[0.0, 0.0, 0.5]] * 2, [[1.0, 0.0, 0.0, 0.0]] * 2, [[0.0] * 3] * 2, [[0.0] * 3] * 2)
    short = ct.Trajectory(148.0, [[0.0, 0.0, 0.5]], [[1.0, 0.0, 0.0, 0.0]], [[0.0] * 3], [[0.0] * 3])
    with pytest.raises(ValueError, match="trajectory 1 has a single sample"):
        ct.rollout_reports([long, short], ct.param_preset("cube-drake"), ct.cube_inertial(), ct.cube_geometry())
