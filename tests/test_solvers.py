import math

import numpy as np
import pytest

import cubetoss as ct
from cubetoss.solvers import (
    _convex_reference_velocity,
    _float_terms,
    _gershgorin,
    _pyramid_project_floats,
    _pyramid_qp,
    erp_cfm,
)
from conftest import (
    lcp_enumerate,
    post_impulse_state,
    random_contact_problem,
    random_onset_state,
    with_velocity,
)

DT = 1.0 / 1480.0
NO_GRAVITY = (0.0, 0.0, 0.0)


def single_contact_problem(mass=0.5, s_minus=-0.3, depth=0.002, gravity=NO_GRAVITY):
    """One contact at the COM: scalar Delassus A = 1/mass, normal velocity s_minus."""
    inertia = ct.InertialParams(mass, 1e-3 * np.eye(3), gravity)
    st = ct.RigidState([0, 0, 0.05], [1, 0, 0, 0], [0, 0, s_minus], [0, 0, 0])
    cp = ct.ContactPoint(st.pos.copy(), depth, -s_minus)
    return ct.build_contact_problem(st, inertia, [cp], DT), inertia, st


# --- compliant law -------------------------------------------------------------


def test_compliant_zero_depth_zero_force():
    prob, _, _ = single_contact_problem(depth=0.0, s_minus=-1.0)
    imp = ct.hunt_crossley_impulse(prob, ct.ContactParams(0.3, 1e4, 0.5, "compliant"))
    assert imp.normal[0] == 0.0
    assert np.all(imp.tangent == 0.0)


def test_compliant_fast_separation_clamps_to_zero():
    b = 0.4
    prob, _, _ = single_contact_problem(depth=1e-3, s_minus=1.0 / b)  # depth_rate = -1/b
    imp = ct.hunt_crossley_impulse(prob, ct.ContactParams(0.3, 1e4, b, "compliant"))
    assert imp.normal[0] == 0.0


def test_compliant_reference_force_value():
    prob, _, _ = single_contact_problem(depth=1e-3, s_minus=0.0)
    imp = ct.hunt_crossley_impulse(prob, ct.ContactParams(0.0, 10800.0, 0.4, "compliant"))
    assert imp.normal[0] / DT == pytest.approx(10.8, rel=1e-12)


def test_compliant_force_continuous_across_clamps():
    """Finite-difference scan across depth = 0 and the dissipation clamp."""
    params = ct.ContactParams(0.5, 10800.0, 0.4, "compliant")

    def fn(depth, rate):
        inertia = ct.InertialParams(0.37, 1e-3 * np.eye(3), NO_GRAVITY)
        st = ct.RigidState([0, 0, 0.05], [1, 0, 0, 0], [0.2, 0, -rate], [0, 0, 0])
        cp = ct.ContactPoint(st.pos.copy(), depth, rate)
        prob = ct.build_contact_problem(st, inertia, [cp], DT)
        return ct.hunt_crossley_impulse(prob, params).normal[0] / DT

    for scan, fixed in (("depth", 0.0), ("rate", -1.0 / 0.4)):
        for offset in np.linspace(-1e-6, 1e-6, 11):
            if scan == "depth":
                a, b = fn(fixed + offset, 0.1), fn(fixed + offset + 1e-9, 0.1)
            else:
                a, b = fn(1e-3, fixed + offset), fn(1e-3, fixed + offset + 1e-9)
            assert abs(a - b) < 1e-3  # small input change, small force change


def test_compliant_friction_inside_cone():
    rng = np.random.default_rng(11)
    params = ct.ContactParams(0.7, 10800.0, 0.4, "compliant")
    for _ in range(200):
        st = ct.RigidState([0, 0, 0.0495], [1, 0, 0, 0], rng.uniform(-2, 2, 3), rng.uniform(-10, 10, 3))
        cps = ct.detect_contacts(st, ct.cube_geometry(), 1e-3)
        if not cps:
            continue
        prob = ct.build_contact_problem(st, ct.cube_inertial(), cps, DT)
        imp = ct.hunt_crossley_impulse(prob, params)
        tn = np.linalg.norm(imp.tangent, axis=1)
        assert np.all(tn <= params.mu * imp.normal + 1e-12)


def test_compliant_friction_regularization_below_slip_tolerance():
    # below the slip tolerance the tangential force is linear in slip velocity
    inertia = ct.InertialParams(0.37, 1e-3 * np.eye(3), NO_GRAVITY)
    params = ct.ContactParams(0.5, 1e4, 0.0, "compliant")
    vals = []
    for vt in (1e-4, 2e-4):
        st = ct.RigidState([0, 0, 0.05], [1, 0, 0, 0], [vt, 0, 0], [0, 0, 0])
        cp = ct.ContactPoint(st.pos.copy(), 1e-3, 0.0)
        prob = ct.build_contact_problem(st, inertia, [cp], DT)
        imp = ct.hunt_crossley_impulse(prob, params, slip_tolerance=1e-3)
        vals.append(imp.tangent[0, 0])
    assert vals[1] == pytest.approx(2.0 * vals[0], rel=1e-9)
    assert vals[0] < 0.0


def test_compliant_slip_tolerance_must_be_positive_and_finite():
    """A zero tolerance would divide by zero at a sticking contact; it is a configuration error."""
    inertia = ct.InertialParams(0.37, 1e-3 * np.eye(3), NO_GRAVITY)
    params = ct.ContactParams(0.5, 1e4, 0.0, "compliant")
    st = ct.RigidState([0, 0, 0.05], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    cp = ct.ContactPoint(st.pos.copy(), 1e-3, 0.0)
    prob = ct.build_contact_problem(st, inertia, [cp], DT)
    for bad in (0.0, -1e-3, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="slip_tolerance"):
            ct.hunt_crossley_impulse(prob, params, slip_tolerance=bad)
    assert ct.hunt_crossley_impulse(prob, params, slip_tolerance=1e-3).tangent[0, 0] == 0.0


# --- regularized convex program ------------------------------------------------


def test_convex_no_contacts_zero_impulse(cube_inertia):
    """Without contacts every model returns the empty result: no impulse, a +0.0 wrench, converged."""
    st = ct.RigidState([0, 0, 1.0], [1, 0, 0, 0], [0, 0, 0], [0, 0, 0])
    prob = ct.build_contact_problem(st, cube_inertia, [], DT)
    for model in ("compliant", "regularized_convex", "rigid_pgs"):
        imp = ct.solve_contact_impulse(prob, ct.ContactParams(0.2, 3300, 45, model))
        assert imp.flat().shape == (0,), model
        assert np.array_equal(imp.wrench, np.zeros(6)) and not np.any(np.signbit(imp.wrench)), model
        assert imp.converged and imp.iterations == 0, model


def reference_velocity(prob, params):
    return _convex_reference_velocity(prob, _float_terms(prob)[2], params)


def test_convex_reference_velocity_frozen_values():
    params = ct.ContactParams(0.0, 3300.0, 45.0, "regularized_convex", d_interp=0.9)
    prob, _, _ = single_contact_problem(mass=0.5, s_minus=-0.3, depth=0.002)
    assert reference_velocity(prob, params)[0] == pytest.approx(-0.287777027027027, rel=1e-12)
    # separating contact inside the margin: approach carryover drops out
    prob2, _, _ = single_contact_problem(mass=0.5, s_minus=0.5, depth=-0.0005)
    assert reference_velocity(prob2, params)[0] == pytest.approx(-0.0010033783783783786, rel=1e-12)
    # gravity contributes its unconstrained velocity change, weighted by 1 - d
    prob3, _, _ = single_contact_problem(mass=0.5, s_minus=0.5, depth=0.0, gravity=(0.0, 0.0, -9.81))
    assert reference_velocity(prob3, params)[0] == pytest.approx(-0.0006628378378378377, rel=1e-12)


def test_convex_scalar_qp_oracle():
    """Frictionless single contact reduces to lam = max(0, (v* - v_n) / (A + R))."""
    params = ct.ContactParams(0.0, 3300.0, 45.0, "regularized_convex", d_interp=0.9)
    for s_minus, depth in ((-0.3, 0.002), (-1.5, 0.0), (0.2, 0.001), (0.8, -0.0004)):
        prob, _, _ = single_contact_problem(mass=0.5, s_minus=s_minus, depth=depth)
        imp = ct.regularized_convex_impulse(prob, params)
        A = 2.0  # 1 / mass
        R = 0.22222222222222224  # (1 - d) / d * A
        v_star = reference_velocity(prob, params)[0]
        expect = max(0.0, (v_star - s_minus) / (A + R))
        assert imp.normal[0] == pytest.approx(expect, abs=1e-10)


def test_convex_rigid_inelastic_limit():
    """Large stiffness and damping with d -> 1 approaches the rigid impulse."""
    prob, _, _ = single_contact_problem(mass=0.37, s_minus=-1.0, depth=0.0)
    pr = ct.ContactParams(0.0, 1e9, 1e9, "regularized_convex", d_interp=1 - 1e-9)
    lam_cvx = ct.regularized_convex_impulse(prob, pr).normal[0]
    lam_rigid = ct.rigid_pgs_impulse(prob, ct.ContactParams(0.0, 0.0, 0.0, "rigid_pgs")).normal[0]
    assert lam_cvx == pytest.approx(lam_rigid, rel=1e-3)


def test_convex_unique_from_random_warm_starts(cube_geom, cube_inertia):
    rng = np.random.default_rng(12)
    st = ct.RigidState([0, 0, 0.0495], [1, 0, 0, 0], [0.5, 0.2, -1.0], [1.0, 2.0, 0.5])
    cps = ct.detect_contacts(st, cube_geom, 1e-3)
    prob = ct.build_contact_problem(st, cube_inertia, cps, DT)
    params = ct.ContactParams(0.22, 3300, 45, "regularized_convex")
    base = ct.regularized_convex_impulse(prob, params)
    for _ in range(10):
        warm = rng.uniform(-0.5, 0.5, 3 * len(cps))
        out = ct.regularized_convex_impulse(prob, params, warm_start=warm)
        assert np.max(np.abs(out.flat() - base.flat())) < 1e-8


def test_convex_iteration_cap_raises(cube_geom, cube_inertia):
    st = ct.RigidState([0, 0, 0.0495], [1, 0, 0, 0], [0.5, 0.2, -1.0], [1.0, 2.0, 0.5])
    cps = ct.detect_contacts(st, cube_geom, 1e-3)
    prob = ct.build_contact_problem(st, cube_inertia, cps, DT)
    params = ct.ContactParams(0.9, 3300, 45, "regularized_convex")
    with pytest.raises(ct.ConvexSolverError) as err:
        ct.regularized_convex_impulse(prob, params, max_iters=2, tol=0.0)
    assert err.value.residual > 0.0


def test_convex_non_finite_problem_raises():
    prob, _, _ = single_contact_problem(mass=0.37, s_minus=-1.0, depth=1e-3)
    params = ct.ContactParams(0.3, 3300.0, 45.0, "regularized_convex")
    finite = ct.regularized_convex_impulse(prob, params)
    assert finite.converged and np.all(np.isfinite(finite.flat()))
    prob = with_velocity(prob, [np.nan, *prob.v[1:].tolist()])
    with pytest.raises(ct.ConvexSolverError) as err:
        ct.regularized_convex_impulse(prob, params)
    assert np.isnan(err.value.residual)
    assert err.value.iterations == 1  # stops at the first non-finite projected gradient


def test_convex_eigen_failure_raises():
    """An infinite Q (inf * eye puts NaN off the diagonal) has no finite step-size bound, and neither
    has the QP of a finite problem whose regularized Delassus diagonal overflows (m^-1 = 1e308 with
    d = 0.01 puts 100 m^-1 on it): the solve ends at once as not converged, so the solver raises
    ConvexSolverError."""
    with np.errstate(invalid="ignore"):
        Q = (np.inf * np.eye(3)).tolist()
        lam, residual, iters = _pyramid_qp(Q, [0.0] * 3, 0.5, _pyramid_project_floats([0.0] * 3, 0.5), _gershgorin(Q),
                                           10, 1e-10)
    assert lam == [0.0] * 3 and residual == math.inf and iters == 0
    prob, _, _ = single_contact_problem(mass=1e-308, s_minus=-1.0, depth=1e-3)
    with pytest.raises(ct.ConvexSolverError) as err:
        ct.regularized_convex_impulse(prob, ct.ContactParams(0.3, 3300.0, 45.0, "regularized_convex", 0.01))
    assert err.value.residual == math.inf and err.value.iterations == 0


def test_pyramid_projection_properties():
    rng = np.random.default_rng(13)
    for mu in (0.0, 0.18, 0.7, 1.0):
        for _ in range(100):
            x = rng.uniform(-2, 2, 6)
            p = np.array(_pyramid_project_floats(x.tolist(), mu))
            # feasibility and idempotence
            n, t1, t2 = p[0::3], p[1::3], p[2::3]
            assert np.all(n >= -1e-14)
            assert np.all(np.abs(t1) <= mu * n + 1e-12)
            assert np.all(np.abs(t2) <= mu * n + 1e-12)
            assert np.max(np.abs(np.array(_pyramid_project_floats(p.tolist(), mu)) - p)) < 1e-13
            # no sampled feasible point may be closer (projection optimality)
            d_proj = np.linalg.norm(x - p)
            ns = rng.uniform(0, 2, (50, 2))
            for nf in ns:
                y = np.array([nf[0], *(rng.uniform(-1, 1, 2) * mu * nf[0]),
                              nf[1], *(rng.uniform(-1, 1, 2) * mu * nf[1])])
                y = y[[0, 1, 2, 3, 4, 5]]
                assert d_proj <= np.linalg.norm(x - y) + 1e-12


# --- projected Gauss-Seidel ------------------------------------------------------


def test_pgs_single_contact_full_arrest():
    prob, inertia, st = single_contact_problem(mass=0.37, s_minus=-1.0, depth=0.0)
    params = ct.ContactParams(0.0, 0.0, 0.0, "rigid_pgs")
    imp = ct.rigid_pgs_impulse(prob, params)
    assert imp.converged
    assert imp.normal[0] == pytest.approx(0.37, rel=1e-10)  # -v * effective mass
    post = post_impulse_state(prob, st, imp)
    assert abs(post.vel[2]) < 1e-10


def test_pgs_four_corner_symmetry(cube_geom, cube_inertia):
    st = ct.RigidState([0, 0, 0.05], [1, 0, 0, 0], [0, 0, -1.0], [0, 0, 0])
    cps = ct.detect_contacts(st, cube_geom, 1e-3)
    prob = ct.build_contact_problem(st, ct.cube_inertial(NO_GRAVITY), cps, DT)
    imp = ct.rigid_pgs_impulse(prob, ct.ContactParams(0.0, 0.0, 0.0, "rigid_pgs"),
                               max_iters=500, tol=1e-12)
    assert imp.converged
    assert np.max(np.abs(imp.normal - imp.normal[0])) < 1e-10
    post = post_impulse_state(prob, st, imp)
    assert abs(post.vel[2]) < 1e-9
    assert np.max(np.abs(post.ang_vel)) < 1e-9


def test_pgs_matches_enumeration_oracle():
    """rigid_pgs_impulse at k = b = 0 on table contacts at random arms, from a zero and a random warm
    start, against active-set enumeration; its wrench is J^T lambda. One to three contacts have a unique
    solution; four have a singular normal block and many, and must reach one (see criterion 3)."""
    rng = np.random.default_rng(14)
    params = ct.ContactParams(0.0, 0.0, 0.0, "rigid_pgs")
    for _ in range(200):
        nc = int(rng.integers(1, 5))
        prob, _, _ = random_contact_problem(rng, nc)
        A = prob.delassus()[0::3, 0::3]
        q = (prob.jacobian @ prob.v_free())[0::3]
        oracle = lcp_enumerate(A, q) if nc < 4 else None
        for warm in (None, rng.uniform(-1.0, 1.0, 3 * nc)):
            imp = ct.rigid_pgs_impulse(prob, params, max_iters=10000, tol=1e-12, warm_start=warm)
            assert imp.converged
            np.testing.assert_allclose(imp.wrench, prob.jacobian.T @ imp.impulse, rtol=0.0, atol=1e-12)
            w = A @ imp.normal + q
            assert np.all(imp.normal >= 0.0) and np.all(w > -1e-8)
            assert np.max(np.abs(imp.normal * w)) < 1e-8
            if nc < 4:
                assert oracle is not None and np.max(np.abs(imp.normal - oracle)) < 1e-6


def test_contact_problem_requires_a_positive_finite_timestep(cube_geom, cube_inertia):
    """A zero, negative, NaN or infinite timestep is refused when the problem is built, for every solver alike
    (PGS divided by zero at dt = 0, the convex solve returned a converged zero impulse, the compliant law
    returned NaN impulses marked converged at dt = NaN); step refuses an infinite dt with SimConfig's wording."""
    state = ct.RigidState([0, 0, 0.0495], [1, 0, 0, 0], [0.2, 0.0, -0.5], [0.0, 0.0, 0.0])
    contacts = ct.detect_contacts(state, cube_geom)
    assert len(contacts) == 4
    assert ct.build_contact_problem(state, cube_inertia, contacts, DT).h == DT
    for bad in (0.0, -0.0, -DT, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive finite timestep"):
            ct.build_contact_problem(state, cube_inertia, contacts, bad)
    for bad in (0.0, -DT, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            ct.step(state, cube_inertia, dt=bad)


def test_pgs_intermediate_iterate_is_legal():
    prob, _, _ = single_contact_problem(mass=0.37, s_minus=-1.0, depth=0.0)
    imp = ct.rigid_pgs_impulse(prob, ct.ContactParams(0.4, 0.0, 0.0, "rigid_pgs"), max_iters=1)
    assert imp.iterations == 1
    assert np.all(imp.normal >= 0.0)


def test_pgs_non_finite_problem_not_converged():
    prob, _, _ = single_contact_problem(mass=0.37, s_minus=-1.0, depth=1e-3)
    params = ct.ContactParams(0.3, 1800.0, 27.0, "rigid_pgs")
    assert ct.rigid_pgs_impulse(prob, params).converged
    prob = with_velocity(prob, [np.nan, *prob.v[1:].tolist()])
    imp = ct.rigid_pgs_impulse(prob, params)
    assert not np.all(np.isfinite(imp.wrench))
    assert not imp.converged


def test_integer_warm_start_solves_like_its_float_copy():
    """An integer warm start is read as floats: the iterates are not truncated."""
    prob, _, _ = single_contact_problem(mass=0.37, s_minus=-1.0, depth=1e-3)
    for params in (ct.ContactParams(0.3, 1800.0, 27.0, "rigid_pgs"),
                   ct.ContactParams(0.3, 3300.0, 45.0, "regularized_convex")):
        solve = ct.rigid_pgs_impulse if params.model == "rigid_pgs" else ct.regularized_convex_impulse
        got = solve(prob, params, warm_start=np.array([1, -1, 0]))
        want = solve(prob, params, warm_start=np.array([1.0, -1.0, 0.0]))
        assert got.flat().dtype == np.float64
        assert np.array_equal(got.flat(), want.flat()) and got.iterations == want.iterations


def test_pgs_baumgarte_pushes_out_of_penetration():
    prob, _, st = single_contact_problem(mass=0.37, s_minus=0.0, depth=2e-3)
    params = ct.ContactParams(0.0, 1800.0, 27.0, "rigid_pgs")
    imp = ct.rigid_pgs_impulse(prob, params)
    post = post_impulse_state(prob, st, imp)
    erp, cfm = erp_cfm(DT, params.k, params.b)
    # converged single contact: post velocity equals bias - cfm * lam
    expect = (erp / DT) * 2e-3 - cfm * imp.normal[0]
    assert post.vel[2] == pytest.approx(expect, rel=1e-8)
    assert post.vel[2] > 0.0


def test_erp_cfm_mapping():
    erp, cfm = erp_cfm(DT, 1800.0, 27.0)
    hk = DT * 1800.0
    assert erp == pytest.approx(hk / (hk + 27.0), rel=1e-15)
    assert cfm == pytest.approx(1.0 / (hk + 27.0), rel=1e-15)
    assert erp_cfm(DT, 0.0, 0.0) == (0.0, 0.0)


# --- shared randomized invariants -----------------------------------------------


def test_randomized_nonnegativity_and_pyramid_bounds():
    rng = np.random.default_rng(15)
    for _ in range(500):
        nc = int(rng.integers(1, 5))
        prob, _, _ = random_contact_problem(rng, nc)
        mu = float(rng.uniform(0, 1))
        k = float(rng.uniform(1e2, 1e4))
        b = float(rng.uniform(0, 1e3))
        for imp, m in (
            (ct.hunt_crossley_impulse(prob, ct.ContactParams(mu, k, b, "compliant")), "compliant"),
            (ct.regularized_convex_impulse(prob, ct.ContactParams(mu, k, b, "regularized_convex")), "cvx"),
            (ct.rigid_pgs_impulse(prob, ct.ContactParams(mu, k, b, "rigid_pgs")), "pgs"),
        ):
            assert np.all(imp.normal >= -1e-12), m
            if m == "compliant":
                tn = np.linalg.norm(imp.tangent, axis=1)
                assert np.all(tn <= mu * imp.normal + 1e-9), m
            else:
                assert np.all(np.abs(imp.tangent) <= mu * imp.normal[:, None] + 1e-9), m


def test_randomized_dissipation(cube_geom, cube_inertia):
    rng = np.random.default_rng(16)
    checked = 0
    while checked < 500:
        st = random_onset_state(rng, cube_geom)
        cps = ct.detect_contacts(st, cube_geom, 1e-3)
        if not cps:
            continue
        checked += 1
        prob = ct.build_contact_problem(st, ct.cube_inertial(NO_GRAVITY), cps, DT)
        ke0 = ct.kinetic_energy(st, cube_inertia)
        mu = float(rng.uniform(0, 1))
        for imp in (
            ct.rigid_pgs_impulse(prob, ct.ContactParams(mu, 0.0, 0.0, "rigid_pgs"),
                                 max_iters=500, tol=1e-10),
            ct.regularized_convex_impulse(
                prob, ct.ContactParams(mu, rng.uniform(1e2, 1e4), rng.uniform(0, 1e3),
                                       "regularized_convex")),
        ):
            assert ct.kinetic_energy(post_impulse_state(prob, st, imp), cube_inertia) <= ke0 + 1e-12


def test_contact_params_validation():
    with pytest.raises(ValueError):
        ct.ContactParams(-0.1, 1.0, 1.0, "compliant")
    for bad in (float("nan"), float("inf"), -float("inf")):
        for i in range(3):
            values = [0.1, 1.0, 1.0]
            values[i] = bad
            with pytest.raises(ValueError, match="finite"):
                ct.ContactParams(*values, "rigid_pgs")
    with pytest.raises(ValueError):
        ct.ContactParams(0.1, 1.0, 1.0, "bogus")
    with pytest.raises(ValueError):
        ct.ContactParams(0.1, 1.0, 1.0, "compliant", d_interp=1.0)
    with pytest.raises(ValueError, match="model"):
        prob, _, _ = single_contact_problem()
        ct.hunt_crossley_impulse(prob, ct.ContactParams(0.1, 1.0, 1.0, "rigid_pgs"))


def test_solve_contact_impulse_dispatch():
    prob, _, _ = single_contact_problem(mass=0.37, s_minus=-1.0, depth=1e-3)
    for model in ("compliant", "regularized_convex", "rigid_pgs"):
        params = ct.ContactParams(0.2, 3300.0, 45.0, model)
        imp = ct.solve_contact_impulse(prob, params)
        assert imp.normal[0] > 0.0, model
    # an explicit cap is used as given, zero included
    pgs = ct.ContactParams(0.2, 3300.0, 45.0, "rigid_pgs")
    assert ct.solve_contact_impulse(prob, pgs, max_iters=0).iterations == 0
    with pytest.raises(ct.ConvexSolverError):
        ct.solve_contact_impulse(prob, ct.ContactParams(0.2, 3300.0, 45.0, "regularized_convex"), max_iters=0)


def test_delassus_positive_semidefinite():
    rng = np.random.default_rng(18)
    for _ in range(50):
        prob, _, _ = random_contact_problem(rng, int(rng.integers(1, 5)))
        eigs = np.linalg.eigvalsh(prob.delassus())
        assert eigs.min() > -1e-10
