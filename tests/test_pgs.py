"""Property tests of the projected Gauss-Seidel sweeps used by the rigid solver.

``cubetoss.solvers._pgs`` runs on Python floats and sums every row dot left
to right from its first product. ``frozen_numpy.pgs`` is the oracle of that
arithmetic, written independently as plain index loops: the two must agree
bit for bit. ``frozen_numpy.blas_pgs``, the sweeps as they were with BLAS
row dots, is the reference that finite cases must match to BLAS_TOL. The
last test keeps BLAS and LAPACK out of the PGS and convex solves and out of
their contact steps in a rollout.
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
from cubetoss.solvers import _pgs

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
DT = 1.0 / 1480.0
# agreement with the BLAS solve, absolute and relative to the largest impulse. Measured on 3,000
# examples of pgs_problems and the 2,279 finite ones of 3,000 test_float_loop.solver_cases: at most
# 7.1e-15 apart, with the same sweep count and convergence on all
BLAS_TOL = 1e-12


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def pgs_problems(draw):
    """A Delassus operator of a random box-corner contact set, with biases and a start."""
    nc = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rho = rng.uniform(-0.05, 0.05, size=(3, nc))
    J = ct.geometry._table_jacobian(rho)
    mass = 10.0 ** rng.uniform(-1.0, 1.0)
    inv_mass = np.diag([1.0 / mass] * 3 + [1.0 / (mass * 1e-3)] * 3)
    A = J @ inv_mass @ J.T
    scale = 10.0 ** draw(st.floats(-4.0, 1.0))
    resting = draw(st.integers(0, 4)) == 0  # exact zero residuals, where signed zeros decide
    g = np.zeros(3 * nc) if resting else scale * rng.standard_normal(3 * nc)
    bias = np.zeros(nc) if resting else np.maximum(0.0, scale * rng.standard_normal(nc))
    mu = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5)))
    cfm = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
    start = draw(st.sampled_from(["zero", "negative zero", "random", "clamped"]))
    if start == "zero":
        lam0 = np.zeros(3 * nc)
    elif start == "negative zero":
        lam0 = np.full(3 * nc, -0.0)
    else:
        lam0 = scale * rng.standard_normal(3 * nc)
        if start == "clamped":
            # the rollout's warm start: nonnegative normals, exact zeros kept with their sign
            lam0[0::3] = np.maximum(0.0, lam0[0::3])
            lam0[rng.random(3 * nc) < 0.3] = rng.choice([0.0, -0.0])
    max_iters = draw(st.integers(1, 50))
    tol = draw(st.sampled_from([1e-8, 1e-12, 0.0]))
    return A, g, bias, cfm, mu, lam0, max_iters, tol


@PROPERTY_SETTINGS
@given(pgs_problems())
def test_pgs_matches_numpy_oracle(problem):
    A, g, bias, cfm, mu, lam0, max_iters, tol = problem
    want, want_conv, want_sweeps = fz.pgs(A, g.tolist(), bias.tolist(), cfm, mu, lam0.tolist(), max_iters, tol)
    lam = lam0.tolist()
    got, conv, sweeps = _pgs(A.tolist(), g.tolist(), bias.tolist(), cfm, mu, lam, max_iters, tol)
    assert got is lam
    assert same_bits(got, want)  # values and sign bits
    assert conv == want_conv
    assert sweeps == want_sweeps


@PROPERTY_SETTINGS
@given(pgs_problems())
def test_pgs_agrees_with_blas_sweeps(problem):
    A, g, bias, cfm, mu, lam0, max_iters, tol = problem
    want, want_conv, want_sweeps = fz.blas_pgs(A, g, bias, cfm, mu, lam0.copy(), max_iters, tol)
    got, conv, sweeps = _pgs(A.tolist(), g.tolist(), bias.tolist(), cfm, mu, lam0.tolist(), max_iters, tol)
    assert np.max(np.abs(np.array(got) - want)) <= BLAS_TOL * max(1.0, np.max(np.abs(want)))
    assert (conv, sweeps) == (want_conv, want_sweeps)


@PROPERTY_SETTINGS
@given(pgs_problems(), st.sampled_from(["g", "bias", "lam0", "A"]), st.sampled_from([math.nan, math.inf]))
def test_pgs_non_finite_problem_never_converged(problem, field, bad):
    A, g, bias, cfm, mu, lam0, max_iters, tol = (x.tolist() if isinstance(x, np.ndarray) else x for x in problem)
    if field == "g":
        g[0] = bad
    elif field == "bias":
        bias[0] = bad
    elif field == "lam0":
        lam0[0] = bad
    else:
        A[0][0] = bad
    lam, converged, _ = _pgs(A, g, bias, cfm, mu, lam0, max_iters, tol)
    if not all(map(math.isfinite, lam)):
        assert not converged
    if math.isnan(bad):
        assert not converged


def test_pgs_requires_the_block_inverse_mass(cube_geom, cube_inertia):
    """The float kernels assume diag(m^-1 I3, W); any other inverse mass is refused, not solved another
    way, by the PGS solver and by the convex one that shares its Delassus terms."""
    state = ct.RigidState([0.0, 0.0, 0.0495], [1.0, 0.0, 0.0, 0.0], [0.2, -0.1, -0.3], [0.5, 0.2, -0.4])
    for params in (ct.param_preset("cube-bullet-style"), ct.param_preset("cube-mujoco-style")):
        solve = ct.rigid_pgs_impulse if params.model == "rigid_pgs" else ct.regularized_convex_impulse
        for i, j, value in ((0, 4, 0.1), (1, 1, 3.0), (3, 0, 0.1), (0, 0, math.nan)):
            problem = ct.build_contact_problem(state, cube_inertia, ct.detect_contacts(state, cube_geom), DT)
            problem.inv_mass[i, j] = value
            with pytest.raises(ValueError, match="block form"):
                solve(problem, params)


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
    """The PGS solve, and the PGS contact step of a rollout, run no BLAS or LAPACK product."""
    assert_solve_and_rollout_step_call_no_blas("cube-bullet-style", "rigid_pgs_impulse", cube_geom, cube_inertia)


def test_convex_solve_and_rollout_step_call_no_blas(cube_geom, cube_inertia):
    """The convex solve, and the convex contact step of a rollout, run no BLAS or LAPACK product."""
    assert_solve_and_rollout_step_call_no_blas(
        "cube-mujoco-style", "regularized_convex_impulse", cube_geom, cube_inertia
    )
