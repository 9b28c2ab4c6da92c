"""Property tests of the projected Gauss-Seidel solve of the rigid model.

``cubetoss.rigid_pgs_impulse`` sweeps in body-velocity space on Python
floats. ``frozen_numpy.sequential_pgs_impulse`` is the oracle of that
arithmetic, written independently as plain index loops: the two must agree
bit for bit. ``frozen_numpy.pgs_impulse``, the same sweeps over the Delassus
matrix as the float kernel ran them before, and
``frozen_numpy.blas_pgs_impulse``, the sweeps as they were with BLAS row
dots, are the references that finite cases must match to BLAS_TOL with the
same sweep count and convergence. The last tests keep BLAS and LAPACK out of
the PGS and convex solves and out of their contact steps in a rollout.
"""
import dis
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubetoss as ct
import frozen_numpy as fz
from cubetoss.synthetic import random_toss_states, sliding_toss_states
from test_simulate import anisotropic_box

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
DT = 1.0 / 1480.0
# agreement with the Delassus-matrix and BLAS solves, absolute and relative to the largest impulse.
# Measured on 3,000 random examples of pgs_problems: at most 8.3e-15 apart from the Delassus sweeps and
# 5.2e-15 from the BLAS ones, with the same sweep count and convergence on all
BLAS_TOL = 1e-12


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def pgs_problems(draw):
    """A box-corner contact set at random arms on a body of random mass, with PGS settings and a start."""
    nc = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rho = rng.uniform(-0.05, 0.05, size=(3, nc))
    mass = 10.0 ** rng.uniform(-1.0, 1.0)
    i_inv = 1.0 / (mass * 1e-3)
    W = [[i_inv, 0.0, 0.0], [0.0, i_inv, 0.0], [0.0, 0.0, i_inv]]
    scale = 10.0 ** draw(st.floats(-4.0, 1.0))
    resting = draw(st.integers(0, 4)) == 0  # exact zero residuals, where signed zeros decide
    if resting:
        v = rng.choice([0.0, -0.0], 6)
        depth = np.zeros(nc)
        f_ext = [0.0] * 6
    else:
        v = scale * rng.standard_normal(6)
        depth = 1e-3 * scale * rng.standard_normal(nc)
        f_ext = [0.0, 0.0, -9.81 * mass, 0.0, 0.0, 0.0]
    problem = ct.ContactProblem(rho.tolist(), (1.0 / mass, W), v.tolist(), DT, f_ext, depth.tolist(), [0.0] * nc)
    mu = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5)))
    k = draw(st.sampled_from([0.0, 10.0 ** rng.uniform(1.0, 6.0)]))
    b = draw(st.sampled_from([0.0, rng.uniform(1.0, 100.0)]))
    start = draw(st.sampled_from(["zero", "negative zero", "random", "clamped"]))
    if start == "zero":
        lam0 = np.zeros(3 * nc)
    elif start == "negative zero":
        lam0 = np.full(3 * nc, -0.0)
    else:
        lam0 = 1e-3 * scale * rng.standard_normal(3 * nc)
        if start == "clamped":
            # the rollout's warm start: nonnegative normals, exact zeros kept with their sign
            lam0[0::3] = np.maximum(0.0, lam0[0::3])
            lam0[rng.random(3 * nc) < 0.3] = rng.choice([0.0, -0.0])
    max_iters = draw(st.integers(1, 50))
    tol = draw(st.sampled_from([1e-8, 1e-12, 0.0]))
    return problem, ct.ContactParams(mu, k, b, "rigid_pgs"), lam0, max_iters, tol


def same_result(got, want) -> bool:
    return (same_bits(got.flat(), want.flat()) and same_bits(got.wrench, want.wrench)
            and (got.converged, got.iterations) == (want.converged, want.iterations))


@PROPERTY_SETTINGS
@given(pgs_problems())
def test_pgs_matches_numpy_oracle(case):
    problem, params, lam0, max_iters, tol = case
    want = fz.sequential_pgs_impulse(problem, params, max_iters, tol, warm_start=lam0)
    got = ct.rigid_pgs_impulse(problem, params, max_iters, tol, warm_start=lam0)
    assert same_result(got, want)  # values and sign bits


def assert_agrees_with_delassus_sweeps(got, want):
    """got within BLAS_TOL of want, a solve by a Delassus-matrix reference, with its sweeps and convergence."""
    for g, w in ((got.flat(), want.flat()), (got.wrench, want.wrench)):
        assert np.max(np.abs(g - w), initial=0.0) <= BLAS_TOL * max(1.0, np.max(np.abs(w), initial=0.0))
    assert (got.converged, got.iterations) == (want.converged, want.iterations)


@PROPERTY_SETTINGS
@given(pgs_problems())
def test_pgs_agrees_with_blas_sweeps(case):
    """The sweeps in body-velocity space are the Delassus sweeps, with float or BLAS row dots, evaluated another
    way: they differ by rounding only."""
    problem, params, lam0, max_iters, tol = case
    got = ct.rigid_pgs_impulse(problem, params, max_iters, tol, warm_start=lam0)
    for reference in (fz.pgs_impulse, fz.blas_pgs_impulse):
        assert_agrees_with_delassus_sweeps(got, reference(problem, params, max_iters, tol, warm_start=lam0.copy()))


@PROPERTY_SETTINGS
@given(pgs_problems(), st.sampled_from(["v", "depth", "lam0", "f_ext"]), st.sampled_from([math.nan, math.inf]))
def test_pgs_non_finite_problem_never_converged(case, field, bad):
    problem, params, lam0, max_iters, tol = case
    v, depth, f_ext = list(problem._v), list(problem._depth), list(problem._f)
    if field == "v":
        v[0] = bad
    elif field == "depth":
        depth[0] = bad
    elif field == "lam0":
        lam0[0] = bad
    else:
        f_ext[3] = bad
    problem = ct.ContactProblem(problem._rho, problem._mass, v, problem.h, f_ext, depth, problem._depth_rate)
    imp = ct.rigid_pgs_impulse(problem, params, max_iters, tol, warm_start=lam0)
    if not np.all(np.isfinite(imp.flat())):
        assert not imp.converged
    if math.isnan(bad):
        assert not imp.converged


def recorded_pgs_solves(monkeypatch, tosses):
    """(problem, params, max_iters, warm start, result) of every PGS solve in rollouts of the given tosses."""
    solves = []
    live = sys.modules["cubetoss.simulate"]
    solver = live.rigid_pgs_impulse

    def record(problem, params, max_iters, warm_start=None):
        imp = solver(problem, params, max_iters, warm_start=warm_start)
        solves.append((problem, params, max_iters, warm_start, imp))
        return imp

    monkeypatch.setattr(live, "rigid_pgs_impulse", record)
    for x0, inertia, geom in tosses:
        ct.simulate(x0, ct.param_preset("cube-bullet-style"), inertia, geom, ct.SimConfig(), 0.3)
    return solves


def test_pool_solves_sweep_as_the_delassus_sweeps(monkeypatch, cube_geom, cube_inertia):
    """Every PGS solve of a few pool tosses of the cube and the anisotropic box takes the sweeps, and reaches
    the convergence, of the former Delassus sweeps, and its impulse and wrench lie within BLAS_TOL of theirs."""
    box_geom, box_inertia = anisotropic_box()
    tosses = [(x0, cube_inertia, cube_geom) for x0 in random_toss_states(3, cube_geom, seed=2110)]
    tosses += [(x0, cube_inertia, cube_geom) for x0 in sliding_toss_states(3, cube_geom, seed=2110)]
    tosses += [(x0, box_inertia, box_geom) for x0 in sliding_toss_states(2, box_geom, seed=2110)]
    solves = recorded_pgs_solves(monkeypatch, tosses)
    assert len(solves) > 500 and any(not imp.converged for *_, imp in solves)
    for problem, params, max_iters, warm, imp in solves:
        want = fz.pgs_impulse(problem, params, max_iters, warm_start=None if warm is None else np.array(warm))
        assert_agrees_with_delassus_sweeps(imp, want)


@pytest.mark.parametrize("solver, model", [(ct.rigid_pgs_impulse, "rigid_pgs"),
                                           (ct.regularized_convex_impulse, "regularized_convex")])
def test_iterative_solvers_require_a_nonnegative_integer_cap(solver, model, cube_inertia):
    """max_iters is checked as SimConfig checks solver_iters, with 0 (no iteration) allowed."""
    (minv, W), f_ext = ct.solvers._mass_terms(None, None, cube_inertia)
    problem = ct.ContactProblem([[0.05], [0.05], [-0.05]], (minv, W), [0.0, 0.0, -1.0, 0.0, 0.0, 0.0], DT, f_ext,
                                [1e-3], [1.0])
    params = ct.ContactParams(0.3, 1800.0, 27.0, model)
    for bad in (-1, -3, True, False, 2.0, None):
        with pytest.raises(ValueError, match="max_iters must be a nonnegative integer"):
            solver(problem, params, bad)
    if model == "rigid_pgs":
        assert solver(problem, params, 0).iterations == 0
        assert solver(problem, params, np.int64(5)).iterations >= 1
    else:
        with pytest.raises(ct.ConvexSolverError):
            solver(problem, params, 0)


def test_problem_requires_finite_arms_and_inverse_mass(cube_inertia):
    """The Delassus entries skip the products of the table-frame Jacobian's structural zeros, which is
    exact only for a positive finite m^-1 and finite arms and W whose products cannot overflow: any other
    problem is refused when it is built, for every solver alike."""
    rho = [[0.05, -0.05], [0.05, 0.05], [-0.05, -0.05]]
    (minv, W), f_ext = ct.solvers._mass_terms(None, None, cube_inertia)

    def build(rho=rho, minv=minv, W=W):
        return ct.ContactProblem(rho, (minv, W), [0.0] * 6, DT, f_ext, [1e-3] * 2, [0.0] * 2)

    assert build().num_contacts == 2
    for bad in (math.nan, math.inf, -math.inf):
        arms = [row[:] for row in rho]
        arms[2][1] = bad
        w = [row[:] for row in W]
        w[1][2] = bad
        for kwargs in ({"rho": arms}, {"rho": np.array(arms)}, {"W": w}):
            with pytest.raises(ValueError, match="finite arms and W"):
                build(**kwargs)
    for bad in (0.0, -0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite arms and W"):
            build(minv=bad)
    # finite, but W (rho x e) overflows
    with pytest.raises(ValueError, match="finite arms and W"):
        build(rho=[[1e160, 0.0], [0.0, 0.0], [0.0, 0.0]], W=[[1e160, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


# numpy's products, which go to BLAS or LAPACK, by the names code reaches them through
PRODUCT_NAMES = {"dot", "vdot", "matmul", "inner", "outer", "tensordot", "einsum", "linalg"}


def numpy_products(fn) -> tuple:
    """Run fn() and return (products, called): where it reached a numpy product, and the Python functions it ran.

    sys.setprofile sees C calls by name (ndarray.dot and the like) and
    Python calls into numpy.linalg; an opcode trace sees the @ operator and
    every load of a product's name (np.dot, np.matmul, np.linalg), which C
    call events do not show. Each product is reported as (function, what).
    """
    products, called, codes = [], set(), {}

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) in PRODUCT_NAMES:
            products.append((frame.f_code.co_name, arg.__name__))
        elif event == "call":
            called.add(frame.f_code.co_name)
            if frame.f_globals.get("__name__", "").startswith("numpy.linalg"):
                products.append((frame.f_code.co_name, "numpy.linalg"))

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            code = frame.f_code
            if code not in codes:
                codes[code] = {ins.offset: ins for ins in dis.get_instructions(code)}
            ins = codes[code].get(frame.f_lasti)
            if ins is not None and (
                "MATRIX_MULTIPLY" in ins.opname
                or ins.opname == "BINARY_OP" and ins.argrepr in ("@", "@=")
                or ins.opname.startswith("LOAD_") and ins.argval in PRODUCT_NAMES
            ):
                products.append((code.co_name, ins.argrepr or ins.opname))
        return trace

    sys.setprofile(profile)
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return products, called


def test_numpy_products_sees_each_way_to_blas():
    a = np.eye(3)
    for fn in (lambda: a @ a, lambda: a.dot(a), lambda: np.dot(a, a), lambda: np.matmul(a, a),
               lambda: np.linalg.eigvalsh(a)):
        assert numpy_products(fn)[0]
    assert numpy_products(lambda: (a * a).sum())[0] == []


def assert_solve_and_rollout_step_call_no_blas(preset, solver, cube_geom, cube_inertia):
    state = ct.RigidState([0.0, 0.0, 0.0495], [1.0, 0.0, 0.0, 0.0], [0.2, -0.1, -0.3], [0.5, 0.2, -0.4])
    contacts = ct.detect_contacts(state, cube_geom)
    problem = ct.build_contact_problem(state, cube_inertia, contacts, DT)
    params = ct.param_preset(preset)
    warm = np.full(3 * len(contacts), 0.01)
    products, called = numpy_products(lambda: getattr(ct, solver)(problem, params, warm_start=warm))
    assert len(contacts) == 4 and solver in called
    assert products == []
    # one contact step. What remains is outside the solver path: the corner products of the detector
    products, called = numpy_products(
        lambda: ct.simulate(state, params, cube_inertia, cube_geom, ct.SimConfig(dt=DT, downsample=1), DT)
    )
    assert solver in called
    assert {p[0] for p in products} == {"_corner_contact_arrays"}


def test_pgs_solve_and_rollout_step_call_no_blas(cube_geom, cube_inertia):
    """The PGS solve, and the PGS contact step of a rollout, run no BLAS or LAPACK product; nor does the solve
    of a tilted anisotropic box, whose world inverse inertia W has off-diagonal entries (a cube's is diagonal)."""
    assert_solve_and_rollout_step_call_no_blas("cube-bullet-style", "rigid_pgs_impulse", cube_geom, cube_inertia)
    geom, inertia = anisotropic_box()
    q = ct.quat.from_axis_angle(np.array([1.0, 2.0, 0.5]), 0.3)
    lowest = float(np.min((ct.quat.to_matrix(q) @ geom.corners_body)[2]))
    state = ct.RigidState([0.0, 0.0, -lowest - 5e-4], q, [0.2, -0.1, -0.3], [0.5, 0.2, -0.4])
    contacts = ct.detect_contacts(state, geom)
    problem = ct.build_contact_problem(state, inertia, contacts, DT)
    W = np.array(problem._mass[1])
    assert contacts and np.all(W != 0.0)
    params = ct.param_preset("cube-bullet-style")
    warm = np.full(3 * len(contacts), 0.01)
    products, called = numpy_products(lambda: ct.rigid_pgs_impulse(problem, params, warm_start=warm))
    assert "rigid_pgs_impulse" in called
    assert products == []


def test_convex_solve_and_rollout_step_call_no_blas(cube_geom, cube_inertia):
    """The convex solve, and the convex contact step of a rollout, run no BLAS or LAPACK product."""
    assert_solve_and_rollout_step_call_no_blas(
        "cube-mujoco-style", "regularized_convex_impulse", cube_geom, cube_inertia
    )
