import math
import sys

import numpy as np
import pytest

import cubetoss as ct
from cubetoss.synthetic import random_toss_states, sliding_toss_states

DT = 1.0 / 1480.0


def drake_params():
    return ct.param_preset("cube-drake")


def test_contact_free_rollout_equals_step_composition(cube_geom, cube_inertia):
    """Flight phases of simulate() are bit-identical to repeated step() calls."""
    x0 = ct.RigidState([0, 0, 1.0], [1, 0, 0, 0], [0.8, -0.2, 0.5], [4.0, -1.0, 2.0])
    cfg = ct.SimConfig(dt=DT, downsample=1)
    traj = ct.simulate(x0, drake_params(), cube_inertia, cube_geom, cfg, 50 * DT)
    cur = x0
    for i in range(1, 51):
        cur = ct.step(cur, cube_inertia, dt=DT)
        assert np.array_equal(traj.pos[i], cur.pos)
        assert np.array_equal(traj.quat[i], cur.quat)
        assert np.array_equal(traj.vel[i], cur.vel)
        assert np.array_equal(traj.ang_vel[i], cur.ang_vel)


def test_contact_never_occurs_matches_ballistic(cube_geom, cube_inertia):
    x0 = ct.RigidState([0, 0, 5.0], [1, 0, 0, 0], [1.0, 0, 1.0], [0, 0, 0])
    cfg = ct.SimConfig(dt=DT, downsample=10)
    for params in (drake_params(), ct.param_preset("cube-bullet-style")):
        traj = ct.simulate(x0, params, cube_inertia, cube_geom, cfg, 0.3)
        n = np.arange(len(traj)) * 10
        g = cube_inertia.gravity
        expect = x0.pos[None, :] + n[:, None] * DT * x0.vel[None, :] \
            + DT * DT * g[None, :] * (n * (n + 1) / 2.0)[:, None]
        assert np.max(np.abs(traj.pos - expect)) < 1e-12


def test_output_rate_protocol(cube_geom, cube_inertia):
    x0 = ct.RigidState([0, 0, 0.3], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    cfg = ct.SimConfig(dt=1.0 / 1480.0, downsample=10)
    traj = ct.simulate(x0, drake_params(), cube_inertia, cube_geom, cfg, 1.0)
    assert traj.rate_hz == pytest.approx(148.0)
    assert len(traj) == 1480 // 10 + 1
    assert np.array_equal(traj.pos[0], x0.pos)


def test_downsample_keeps_every_nth(cube_geom, cube_inertia):
    x0 = ct.RigidState([0, 0, 0.5], [1, 0, 0, 0], [0.3, 0, 0], [1.0, 0, 0])
    full = ct.simulate(x0, drake_params(), cube_inertia, cube_geom,
                       ct.SimConfig(dt=DT, downsample=1), 0.1)
    down = ct.simulate(x0, drake_params(), cube_inertia, cube_geom,
                       ct.SimConfig(dt=DT, downsample=4), 0.1)
    assert np.array_equal(down.pos, full.pos[::4])
    assert np.array_equal(down.quat, full.quat[::4])


def test_resting_cube_compliant_static_penetration(cube_geom, cube_inertia):
    """A cube at rest sinks to roughly mg / (k n_active) and stays put."""
    params = drake_params()
    x0 = ct.RigidState([0, 0, 0.05], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    cfg = ct.SimConfig(dt=DT, downsample=10)
    traj = ct.simulate(x0, params, cube_inertia, cube_geom, cfg, 1.0)
    drift = np.linalg.norm(traj.pos - traj.pos[0], axis=1)
    assert drift.max() < 1e-3
    expected = cube_inertia.mass * 9.81 / (params.k * 4)
    settled = 0.05 - traj.pos[-15:, 2].mean()  # ~0.1 s average after settling
    assert settled == pytest.approx(expected, rel=0.05)


def test_divergence_reports_step_index(cube_geom, cube_inertia):
    # absurd stiffness and dissipation overflow the explicit compliant law
    params = ct.ContactParams(0.0, 1e200, 1e200, "compliant")
    x0 = ct.RigidState([0, 0, 0.049], [1, 0, 0, 0], [0, 0, -1.0], [0, 0, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ct.SimulationDivergence) as err:
            ct.simulate(x0, params, cube_inertia, cube_geom, ct.SimConfig(dt=DT, downsample=1), 0.5)
    assert err.value.step_index >= 1


def test_identical_inputs_bit_identical_output(cube_geom, cube_inertia):
    x0 = ct.RigidState([0.01, -0.02, 0.2], [1, 0, 0, 0], [1.0, 0.5, -1.0], [8.0, -3.0, 2.0])
    cfg = ct.SimConfig()
    for params in (drake_params(), ct.param_preset("cube-mujoco-style"),
                   ct.param_preset("cube-bullet-style")):
        a = ct.simulate(x0, params, cube_inertia, cube_geom, cfg, 0.4)
        b = ct.simulate(x0, params, cube_inertia, cube_geom, cfg, 0.4)
        assert np.array_equal(a.as_matrix(), b.as_matrix())


def _public_replay(x0, params, inertia, geom, cfg, n_steps, impulses=None):
    """States of detect_contacts -> build_contact_problem -> solver -> step,
    carrying per-corner warm starts the way the rollout loop does. The
    solver gets cfg.solver_iters as its cap; each impulse goes into impulses
    when a list is given."""
    states = [x0]
    warm = np.zeros((8, 3))
    contact_steps = 0
    for _ in range(n_steps):
        cur = states[-1]
        cps = ct.detect_contacts(cur, geom, cfg.activation_margin)
        wrench = None
        if cps:
            contact_steps += 1
            idx = [c.corner_index for c in cps]
            prob = ct.build_contact_problem(cur, inertia, cps, cfg.dt)
            imp = ct.solve_contact_impulse(prob, params, cfg.slip_tolerance, cfg.solver_iters,
                                           warm_start=warm[idx].reshape(-1))
            if impulses is not None:
                impulses.append(imp)
            warm.fill(0.0)
            warm[idx] = imp.flat().reshape(-1, 3)
            wrench = imp.wrench
        states.append(ct.step(cur, inertia, wrench, cfg.dt))
    return states, contact_steps


def test_public_api_replays_rollout(cube_geom, cube_inertia):
    """The public per-step API reproduces simulate() bit for bit for every model."""
    cfg = ct.SimConfig(dt=DT, downsample=1)
    n_steps = 370  # 0.25 s
    tosses = random_toss_states(2, cube_geom, seed=3) + sliding_toss_states(2, cube_geom, seed=3)
    for preset in ("cube-drake", "cube-mujoco-style", "cube-bullet-style"):
        params = ct.param_preset(preset)
        for t, x0 in enumerate(tosses):
            rows = ct.simulate(x0, params, cube_inertia, cube_geom, cfg, n_steps * DT).as_matrix()
            states, contact_steps = _public_replay(x0, params, cube_inertia, cube_geom, cfg, n_steps)
            assert contact_steps > 0, (preset, t)
            assert len(rows) == len(states)
            for i, st in enumerate(states):
                assert np.array_equal(rows[i], st.as_vector()), (preset, t, i)


def anisotropic_box():
    """A 10 x 7 x 5 cm box of 0.37 kg: its world inverse inertia changes with the pose."""
    geom = ct.BoxGeometry([0.05, 0.035, 0.025])
    a, b, c = geom.side_lengths ** 2
    return geom, ct.InertialParams(0.37, 0.37 / 12.0 * np.diag([b + c, a + c, a + b]))


@pytest.mark.parametrize("preset, solver_iters, body", [
    ("cube-mujoco-style", None, "anisotropic box"),
    ("cube-bullet-style", None, "anisotropic box"),
    ("cube-bullet-style", 2, "cube"),
])
def test_public_api_replays_convex_and_pgs_paths(preset, solver_iters, body, cube_geom, cube_inertia):
    """Bit for bit also where the rollout assembles per-step mass terms (an
    anisotropic body) and where PGS stops at its cap (converged=False)."""
    geom, inertia = anisotropic_box() if body == "anisotropic box" else (cube_geom, cube_inertia)
    assert (inertia.inertia_inv_scalar is not None) == (body == "cube")
    cfg = ct.SimConfig(dt=DT, downsample=1, solver_iters=solver_iters)
    params = ct.param_preset(preset)
    n_steps = 370  # 0.25 s
    impulses = []
    for t, x0 in enumerate(random_toss_states(2, geom, seed=4) + sliding_toss_states(2, geom, seed=4)):
        rows = ct.simulate(x0, params, inertia, geom, cfg, n_steps * DT).as_matrix()
        states, contact_steps = _public_replay(x0, params, inertia, geom, cfg, n_steps, impulses)
        assert contact_steps > 0, t
        assert rows.tobytes() == np.array([st.as_vector() for st in states]).tobytes(), t
    if solver_iters is not None:
        assert 0 < sum(not imp.converged for imp in impulses) < len(impulses)


def test_solver_selector_mismatch_raises(cube_geom, cube_inertia):
    cfg = ct.SimConfig(solver="rigid_pgs")
    x0 = ct.RigidState([0, 0, 0.3], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError, match="solver"):
        ct.simulate(x0, drake_params(), cube_inertia, cube_geom, cfg, 0.1)


def test_duration_must_be_positive(cube_geom, cube_inertia):
    x0 = ct.RigidState([0, 0, 0.3], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        ct.simulate(x0, drake_params(), cube_inertia, cube_geom, ct.SimConfig(), 0.0)


def test_duration_must_be_finite(cube_geom, cube_inertia):
    x0 = ct.RigidState([0, 0, 0.3], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            ct.simulate(x0, drake_params(), cube_inertia, cube_geom, ct.SimConfig(), bad)


def test_tossed_cube_dissipates_and_stays_on_table(cube_geom, cube_inertia):
    x0 = ct.RigidState([0, 0, 0.15], [1, 0, 0, 0], [1.0, 0.3, -1.0], [5.0, 2.0, 1.0])
    cfg = ct.SimConfig()
    ke0 = ct.kinetic_energy(x0, cube_inertia)
    for preset in ("cube-drake", "cube-mujoco-style", "cube-bullet-style"):
        traj = ct.simulate(x0, ct.param_preset(preset), cube_inertia, cube_geom, cfg, 4.0)
        ke_end = ct.kinetic_energy(traj.state_at(len(traj) - 1), cube_inertia)
        assert ke_end < 0.05 * ke0, preset
        assert 0.04 < traj.pos[-1, 2] < 0.09, preset  # resting near the table, not sunk or flying


def test_warm_started_convex_solves_take_the_face_solve(monkeypatch, cube_geom, cube_inertia):
    """The convex solver's fast path stays on: on the first 16 tumbling tosses of the benchmark pool
    (perfbench/workloads.py, pool seed 2110) at the MuJoCo-style preset, at least 90% of the loop's
    convex solves have a non-zero warm start and stop after one iteration, which from such a warm start
    is the face solve's (4,131 of 4,414 solves, 94%, when this guard was written; the APG alone takes a
    median of 9 iterations on them)."""
    simulate_module = sys.modules["cubetoss.simulate"]
    solve = simulate_module.regularized_convex_impulse
    counts = []

    def counted(problem, params, max_iters, warm_start=None):
        result = solve(problem, params, max_iters, warm_start=warm_start)
        counts.append(result.iterations == 1 and warm_start is not None and any(warm_start))
        return result

    monkeypatch.setattr(simulate_module, "regularized_convex_impulse", counted)
    params = ct.param_preset("cube-mujoco-style")
    for x0 in random_toss_states(48, cube_geom, seed=2110)[:16]:
        ct.simulate(x0, params, cube_inertia, cube_geom, ct.SimConfig(), 0.5)
    assert len(counts) > 4000
    assert sum(counts) >= 0.9 * len(counts)
