"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a PASS line on success (run with -s or -v to see them).
Criterion 8 needs a converted recording dataset and skips itself when the
directory is absent.
"""
import os
import time
from pathlib import Path

import numpy as np
import pytest

import cubetoss as ct
from cubetoss import quat as cq
from cubetoss.cli import main
from cubetoss.synthetic import make_dataset, random_toss_states, sliding_toss_states
from conftest import lcp_enumerate, post_impulse_state, random_contact_problem, random_onset_state

DT = 1.0 / 1480.0


def _ok(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


def test_criterion_1_discrete_ballistic_exactness(cube_geom, cube_inertia):
    """Contact-free rollout matches the closed form of the recurrence to 1e-12."""
    x0 = ct.RigidState([0, 0, 2.0], [1, 0, 0, 0], [0.8, -0.4, 0.6], [2.0, -1.0, 3.0])
    cfg = ct.SimConfig(dt=DT, downsample=1)
    t0 = time.perf_counter()
    traj = ct.simulate(x0, ct.param_preset("cube-drake"), cube_inertia, cube_geom, cfg, 0.5)
    elapsed = time.perf_counter() - t0
    n = np.arange(len(traj))
    g = cube_inertia.gravity
    expect_p = x0.pos[None, :] + n[:, None] * DT * x0.vel[None, :] \
        + DT * DT * g[None, :] * (n * (n + 1) / 2.0)[:, None]
    expect_v = x0.vel[None, :] + n[:, None] * DT * g[None, :]
    p_err = np.max(np.abs(traj.pos - expect_p))
    v_err = np.max(np.abs(traj.vel - expect_v))
    w_err = np.max(np.abs(traj.ang_vel - x0.ang_vel))
    assert p_err < 1e-12 and v_err < 1e-12 and w_err == 0.0
    assert elapsed < 1.0
    _ok(1, f"ballistic closed form to {max(p_err, v_err):.1e} in {elapsed:.2f} s")


def test_criterion_2_compliant_drop_oracle():
    """Point mass on compliant ground: coarse vs 100x finer integration within 1%."""
    t0 = time.perf_counter()
    mass, k, b, z0 = 0.37, 10800.0, 0.4, 0.02
    inertia = ct.InertialParams(mass, 1e-4 * np.eye(3))
    params = ct.ContactParams(0.0, k, b, "compliant")

    def drop(dt, duration):
        st = ct.RigidState([0, 0, z0], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
        steps = int(round(duration / dt))
        zs = np.empty(steps + 1)
        zs[0] = z0
        for i in range(steps):
            z, vz = st.pos[2], st.vel[2]
            imp = np.zeros(6)
            if z < 1e-3:
                cp = ct.ContactPoint(st.pos.copy(), -z, -vz)
                prob = ct.build_contact_problem(st, inertia, [cp], dt)
                imp = ct.hunt_crossley_impulse(prob, params).wrench
            st = ct.step(st, inertia, imp, dt)
            zs[i + 1] = st.pos[2]
        return zs

    def stats(z):
        imin = int(np.argmin(z))
        return -z[imin], z[imin:].max()

    coarse = drop(DT, 0.30)
    fine = drop(DT / 100.0, 0.30)
    pen_c, apex_c = stats(coarse)
    pen_f, apex_f = stats(fine)
    pen_err = abs(pen_c - pen_f) / pen_f
    apex_err = abs(apex_c - apex_f) / apex_f
    elapsed = time.perf_counter() - t0
    assert pen_err < 0.01 and apex_err < 0.01
    assert elapsed < 10.0
    _ok(2, f"peak penetration within {100 * pen_err:.2f} %, rebound apex within "
           f"{100 * apex_err:.2f} % in {elapsed:.1f} s")


def test_criterion_3_lcp_oracle_equivalence():
    """PGS matches active-set enumeration on 1000 random frictionless problems.

    The problems are table contacts of a random body at random arms, built
    by build_contact_problem and solved by rigid_pgs_impulse at k = b = 0.
    Their normal rows [e_z, rho x e_z] span three directions, so one to
    three contacts at generic arms have a nonsingular normal block and a
    unique solution, the enumeration's. Four contacts have a singular block
    and many solutions, which slows the sweeps (one draw takes 3761); PGS
    must reach one of them, feasible and complementary."""
    rng = np.random.default_rng(101)
    params = ct.ContactParams(0.0, 0.0, 0.0, "rigid_pgs")
    worst_imp, worst_comp = 0.0, 0.0
    for _ in range(1000):
        nc = int(rng.integers(1, 5))
        prob, _, _ = random_contact_problem(rng, nc)
        imp = ct.rigid_pgs_impulse(prob, params, max_iters=10000, tol=1e-12)
        assert imp.converged
        A = prob.delassus()[0::3, 0::3]
        q = (prob.jacobian @ prob.v_free())[0::3]
        w = A @ imp.normal + q
        assert np.all(imp.normal >= 0.0) and np.all(w > -1e-8)
        worst_comp = max(worst_comp, float(np.max(np.abs(imp.normal * w))))
        if nc < 4:
            oracle = lcp_enumerate(A, q)
            assert oracle is not None
            worst_imp = max(worst_imp, float(np.max(np.abs(imp.normal - oracle))))
    assert worst_imp < 1e-6
    assert worst_comp < 1e-8
    _ok(3, f"worst impulse error {worst_imp:.1e}, worst complementarity {worst_comp:.1e}")


def _penetrating_problem(rng, geom, inertia):
    q = cq.from_axis_angle(rng.normal(size=3), rng.uniform(0, np.pi))
    R = cq.to_matrix(q)
    corners_z = (R @ geom.corners_body)[2]
    z0 = -corners_z.min() + rng.uniform(-2e-3, 9e-4)  # up to 2 mm penetration
    st = ct.RigidState([0.0, 0.0, z0], q, rng.uniform(-2, 2, 3), rng.uniform(-15, 15, 3))
    cps = ct.detect_contacts(st, geom, 1e-3)
    if not cps:
        return None, None
    return ct.build_contact_problem(st, inertia, cps, DT), st


def test_criterion_4_friction_cone_property(cube_geom, cube_inertia):
    """1e5 randomized solver calls: nonnegative normals, friction bounds to 1e-9."""
    rng = np.random.default_rng(102)
    calls = 0
    per_model = 33_334
    while calls < 3 * per_model:
        prob, _ = _penetrating_problem(rng, cube_geom, cube_inertia)
        if prob is None:
            continue
        mu = float(rng.uniform(0, 1))
        kc = float(rng.uniform(1e2, 1e5))
        bc = float(rng.uniform(0, 2))
        kv = float(rng.uniform(1e2, 1e4))
        bv = float(rng.uniform(0, 1e3))
        imps = (
            ("compliant", ct.hunt_crossley_impulse(prob, ct.ContactParams(mu, kc, bc, "compliant"))),
            ("regularized_convex", ct.regularized_convex_impulse(
                prob, ct.ContactParams(mu, kv, bv, "regularized_convex"))),
            ("rigid_pgs", ct.rigid_pgs_impulse(prob, ct.ContactParams(mu, kv, bv, "rigid_pgs"))),
        )
        for name, imp in imps:
            calls += 1
            assert np.all(imp.normal >= -1e-12), name
            if name == "compliant":
                tn = np.linalg.norm(imp.tangent, axis=1)
                assert np.all(tn <= mu * imp.normal + 1e-9), name
            else:
                assert np.all(np.abs(imp.tangent) <= mu * imp.normal[:, None] + 1e-9), name
    _ok(4, f"{calls} randomized solver calls inside friction bounds")


def test_criterion_5_dissipation_property(cube_geom, cube_inertia):
    """1e5 impact states: applying the impulse never increases kinetic energy.

    States are sampled at contact onset (no prior penetration), where there
    is no stored compliance energy and gravity is excluded, so kinetic
    energy is the total mechanical energy of the contact event.
    """
    rng = np.random.default_rng(103)
    weightless = ct.cube_inertial(gravity=(0.0, 0.0, 0.0))
    states = 0
    while states < 50_000:
        st = random_onset_state(rng, cube_geom)
        cps = ct.detect_contacts(st, cube_geom, 1e-3)
        if not cps:
            continue
        states += 1
        prob = ct.build_contact_problem(st, weightless, cps, DT)
        ke0 = ct.kinetic_energy(st, cube_inertia)
        mu = float(rng.uniform(0, 1))
        # zero-bias PGS from a zero start descends the impulse-space energy
        # functional every update, so even intermediate iterates dissipate
        pgs = ct.rigid_pgs_impulse(prob, ct.ContactParams(mu, 0.0, 0.0, "rigid_pgs"),
                                   max_iters=500, tol=1e-10)
        cvx = ct.regularized_convex_impulse(
            prob, ct.ContactParams(mu, rng.uniform(1e2, 1e4), rng.uniform(0, 1e3),
                                   "regularized_convex"))
        for imp in (pgs, cvx):
            ke1 = ct.kinetic_energy(post_impulse_state(prob, st, imp), cube_inertia)
            assert ke1 <= ke0 + 1e-12
    _ok(5, f"{2 * states} impulse applications, kinetic energy never increased")


def test_criterion_6_resting_contact(cube_geom, cube_inertia):
    """Cube at rest: drift < 1 mm, rotation < 0.5 deg over 5 s, static sink checks out."""
    x0 = ct.RigidState([0, 0, 0.05], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    cfg = ct.SimConfig()
    summaries = []
    for preset in ("cube-drake", "cube-mujoco-style", "cube-bullet-style"):
        params = ct.param_preset(preset)
        traj = ct.simulate(x0, params, cube_inertia, cube_geom, cfg, 5.0)
        drift = float(np.linalg.norm(traj.pos - traj.pos[0], axis=1).max())
        rot = max(ct.rotation_angle(traj.quat[0], traj.quat[i]) for i in range(0, len(traj), 10))
        assert drift < 1e-3, preset
        assert np.degrees(rot) < 0.5, preset
        summaries.append(f"{preset}: drift {1e3 * drift:.3f} mm, rot {np.degrees(rot):.4f} deg")
        if params.model == "compliant":
            sink = 0.05 - float(traj.pos[-148:, 2].mean())  # last second, settled
            expect = cube_inertia.mass * 9.81 / (params.k * 4)
            assert sink == pytest.approx(expect, rel=0.05)
    _ok(6, "; ".join(summaries))


def test_criterion_7_identification_self_consistency(tmp_path, cube_geom, cube_inertia):
    """cmd_identify recovers the friction of a 25-toss synthetic dataset."""
    t0 = time.perf_counter()
    theta_true = ct.ContactParams(0.18, 10800.0, 0.4, "compliant")
    cfg = ct.SimConfig()
    truths = make_dataset(sliding_toss_states(25, cube_geom, seed=77), theta_true,
                          cube_inertia, cube_geom, cfg, 0.4)
    d = tmp_path / "synthetic"
    d.mkdir()
    for i, t in enumerate(truths):
        ct.save_trajectory(t, d / f"toss_{i:03d}.csv")
    out = tmp_path / "ident.json"
    rc = main(["identify", "--dataset", str(d), "--model", "compliant",
               "--budget", "320", "--seed", "0", "--out", str(out)])
    assert rc == 0
    doc = ct.ResultsDocument.load(out)
    mu_hat = doc.results["params"]["mu"]
    loss = doc.results["loss"]
    elapsed = time.perf_counter() - t0
    assert abs(mu_hat - 0.18) <= 0.02
    assert loss <= 1e-3
    assert elapsed < 600.0
    _ok(7, f"mu {mu_hat:.4f} (true 0.18), loss {loss:.2e}, {elapsed:.0f} s")


def test_criterion_8_real_dataset_regression(tmp_path):
    """Mean configuration error over >= 50 recorded tosses stays below 0.6."""
    data_dir = os.environ.get("CUBETOSS_CUBE_DATA", "data/cube_tosses")
    path = Path(data_dir)
    trajs = ct.import_cube_dataset(path) if path.is_dir() else []
    if len(trajs) < 50:
        pytest.skip(f"converted cube dataset not available under {path} (criteria 1-7 govern)")
    out = tmp_path / "real.json"
    rc = main(["evaluate", "--preset", "cube-drake", "--dataset", str(path), "--out", str(out)])
    assert rc == 0
    doc = ct.ResultsDocument.load(out)
    mean_eq = doc.results["config_error"]["mean"]
    assert mean_eq <= 0.6
    _ok(8, f"mean configuration error {mean_eq:.3f} over {len(trajs)} tosses")


def test_criterion_9_sensitivity_shapes(cube_geom, cube_inertia):
    """Stiffness plateau above a threshold; interior friction minimum when sliding."""
    cfg = ct.SimConfig()
    # pseudo-real data from the rigid solver so the compliant sweep has a loss floor
    gen = ct.ContactParams(0.36, 1800.0, 27.0, "rigid_pgs")
    truths = make_dataset(random_toss_states(16, cube_geom, seed=88), gen,
                          cube_inertia, cube_geom, cfg, 0.35)
    base = ct.ContactParams(0.36, 10800.0, 0.4, "compliant")
    ks = np.logspace(2, np.log10(2e4), 12)
    grid = ct.sweep(base, [("k", ks)], truths, cube_inertia, cube_geom, cfg, log_axes=("k",))
    L = grid.losses
    plateau_at = None
    for t in range(1, len(ks) - 3):  # need a real threshold and >= 4 plateau points
        seg = L[t:]
        m = seg.mean()
        if np.all(np.abs(seg - m) <= 0.10 * m) and L[0] >= 1.5 * m:
            plateau_at = ks[t]
            break
    assert plateau_at is not None, f"no stiffness plateau found in {L}"

    # friction sweep on a high-sliding dataset has an interior minimum
    theta = ct.ContactParams(0.3, 10800.0, 0.4, "compliant")
    sliding = make_dataset(sliding_toss_states(12, cube_geom, seed=99), theta,
                           cube_inertia, cube_geom, cfg, 0.35)
    mus = np.linspace(0.05, 0.95, 10)
    fgrid = ct.sweep(theta, [("mu", mus)], sliding, cube_inertia, cube_geom, cfg)
    fl = fgrid.losses
    i = int(np.argmin(fl))
    assert 0 < i < len(mus) - 1, f"friction minimum not interior: {fl}"
    curvature = fl[i - 1] - 2 * fl[i] + fl[i + 1]
    assert curvature > 0.0
    assert fl[0] > 2 * fl[i] and fl[-1] > 2 * fl[i]
    _ok(9, f"stiffness flat within 10 % above k = {plateau_at:.0f}; "
           f"friction minimum at mu = {mus[i]:.2f} interior with positive curvature")


def test_criterion_10_determinism(tmp_path, cube_geom, cube_inertia):
    """Repeated commands are byte-identical regardless of worker count."""
    params = ct.param_preset("cube-drake")
    cfg = ct.SimConfig()
    truths = make_dataset(random_toss_states(3, cube_geom, seed=111), params,
                          cube_inertia, cube_geom, cfg, 0.2)
    d = tmp_path / "data"
    d.mkdir()
    for i, t in enumerate(truths):
        ct.save_trajectory(t, d / f"toss_{i:03d}.csv")

    def run(cmd, out, workers):
        rc = main(cmd + ["--workers", str(workers), "--out", str(out)])
        assert rc == 0
        return out.read_bytes()

    ident = ["identify", "--dataset", str(d), "--model", "compliant", "--budget", "24",
             "--seed", "5"]
    assert run(ident, tmp_path / "i1.json", 1) == run(ident, tmp_path / "i2.json", 2)

    ev = ["evaluate", "--preset", "cube-mujoco-style", "--dataset", str(d)]
    assert run(ev, tmp_path / "e1.json", 1) == run(ev, tmp_path / "e2.json", 4)

    sw = ["sweep", "--preset", "cube-bullet-style", "--dataset", str(d), "--axes", "b",
          "--grid", "3"]
    assert run(sw, tmp_path / "s1.json", 1) == run(sw, tmp_path / "s2.json", 2)
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

    sim = ["simulate", "--preset", "cube-drake", "--x0", str(d / "toss_000.csv")]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(sim + ["--out", str(a)]) == 0
    assert main(sim + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _ok(10, "identify, evaluate, sweep and simulate byte-identical across runs and workers")
