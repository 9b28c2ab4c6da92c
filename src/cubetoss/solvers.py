"""Contact impulse solvers for one timestep.

Three formulations of the same interface problem (find contact impulses for
the current step) are provided:

* ``hunt_crossley_impulse``: an explicit compliant law. The normal force is
  a nonlinear spring-damper, f_n = k * (1 + b * depth_rate)_+ * depth_+, and
  friction is a piecewise-linear regularization of Coulomb friction that is
  exact above the slip tolerance and linear in the slip velocity below it.
* ``regularized_convex_impulse``: a strictly convex quadratic program over
  the friction pyramid. The normal constraint tracks a reference velocity
  that interpolates, with weight d, between a spring-damper response and the
  unconstrained motion; a diagonal regularizer proportional to the Delassus
  diagonal softens strict complementarity.
* ``rigid_pgs_impulse``: projected Gauss-Seidel sweeps on the mixed
  complementarity problem of inelastic rigid contact, with the spring-damper
  pair (k, b) mapped to a velocity bias and constraint-force mixing
  (erp = h k / (h k + b), cfm = 1 / (h k + b)). Hitting the iteration cap is
  not an error; the intermediate iterate is returned with converged=False.

All three are inelastic by construction; any rebound emerges from compliance
dynamics alone. Friction for the two optimization-based solvers uses a
4-sided pyramid aligned with the tangent frame, so their per-direction
tangential impulses respect |t_i| <= mu * n while a pyramid corner may
exceed the circular cone by up to sqrt(2).

A ContactProblem holds table contacts (normal +z, tangents +x and +y) by
their moment arms, as Python floats, and the body's own gravity as its
external force. This module alone knows the frame's row layout [e, rho x
e]; _table_jacobian builds ContactProblem.jacobian from it. Both iterative
solvers run on those floats, with no BLAS or LAPACK call and no numpy
array until a caller reads their result's arrays. One helper over the arms
(_arm_terms) forms each row's W (rho x e), M^-1 f_ext and v_free for both,
the row terms as one tuple per contact, from which each solver builds its
own per-contact data in one pass. The PGS sweeps need no Delassus matrix:
they run in body-velocity space (sequential impulses),
keeping u = v_free + M^-1 J^T lambda and reading each row's residual as
J_k . u, so a row costs the same at any contact count. The Delassus
entries J M^-1 J^T serve the convex QP alone: _float_terms forms them in
closed form, skipping the table-frame Jacobian's structural zeros, and
J v_free with every product; the convex reference velocity and the wrench
J^T lambda (_float_impulse, shared by both solvers) keep every product
too. Each is a sum in an order the code fixes, and so are the PGS
velocity updates and the convex QP's matrix-vector product (_q_times),
step-size bound (_gershgorin) and restart sum (_uphill), so a PGS or
convex result does not depend on the BLAS build. The QP fuses its
elementwise passes: one loop per contact takes the gradient step, projects
it onto the pyramid and measures the gradient mapping (_projected_step),
and one loop forms the momentum difference and the restart sum; each
iteration makes one projected step. Each solver is one public function
with no second kernel beside it. The choice among them is made in one
place, simulate.solve_contact_impulse, which the rollout loop and the
per-step API both call for a PGS or convex step; every result holds one
flat impulse, which the loop hands the next step as its warm start (each
solver copies its warm start).

Before the APG, the convex solve tries a face solve (_face_solve), the
polishing step of OSQP and the second-order step of MuJoCo's Newton solver
on this formulation: it reads each contact's face of the pyramid (apex,
interior, a facet or the edge) from the projected warm start, solves the
QP's reduced linear system on those faces by Cholesky over Python floats,
and keeps the result only when the APG's own stopping rule accepts it. In
a rollout the contacts seldom change face from one step to the next, so
most warm-started solves end there, in one iteration; the rest run the APG
from the same projected warm start, with the same step-size bound, both
formed once per solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import quat
from .body import InertialParams, RigidState, SimConfig, _as_vec3
from .geometry import ContactPoint

MODELS = ("compliant", "regularized_convex", "rigid_pgs")

DEFAULT_PGS_ITERS = 50
DEFAULT_PGS_TOL = 1e-8
DEFAULT_QP_ITERS = 500
DEFAULT_QP_TOL = 1e-10


class ConvexSolverError(RuntimeError):
    """Raised when the convex solver stops above tolerance: at its iteration cap, or at once on a non-finite residual.

    residual is the gradient mapping at the last momentum point (see
    _pyramid_qp), inf when the problem's step-size bound is not finite.
    """

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"convex contact solve stopped at residual {residual:.3e} after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass
class ContactParams:
    """Friction, stiffness and damping for one contact model.

    mu is dimensionless; the meaning and units of k and b depend on the
    model (N/m and s/m for the compliant law, stabilization spring-damper
    for the rigid solver, reference-dynamics gains for the convex solver).
    d_interp weights the constrained versus unconstrained dynamics in the
    convex model and is rarely worth tuning.
    """

    mu: float
    k: float
    b: float
    model: str
    d_interp: float = 0.9

    def __post_init__(self):
        self.mu = float(self.mu)
        self.k = float(self.k)
        self.b = float(self.b)
        if not all(0.0 <= x < math.inf for x in (self.mu, self.k, self.b)):
            raise ValueError(f"mu, k, b must be finite and nonnegative, got {(self.mu, self.k, self.b)}")
        if self.model not in MODELS:
            raise ValueError(f"unknown contact model {self.model!r}, expected one of {MODELS}")
        if not (0.0 < self.d_interp < 1.0):
            raise ValueError(f"d_interp must lie strictly between 0 and 1, got {self.d_interp}")


def _table_jacobian(rho) -> np.ndarray:
    """Stacked 3nc x 6 contact Jacobian in the table frame (normal +z, tangents +x, +y).

    rho holds the arms from the COM to the witness points as three rows
    (x, y, z) of nc values: a (3, nc) array or three float lists. Rows
    follow [e, rho x e] for e = normal, t1, t2 of each contact, so the
    normal row of J @ twist equals minus depth_rate. The entries go into one
    flat list read by np.fromiter with a known count, which on these few
    contacts costs less than nested lists or strided assignments.
    """
    flat = []
    for x, y, z in zip(*rho):
        flat += (
            0.0, 0.0, 1.0, y, -x, 0.0,
            1.0, 0.0, 0.0, 0.0, z, -y,
            0.0, 1.0, 0.0, -z, 0.0, x,
        )
    return np.fromiter(flat, float, len(flat)).reshape(-1, 6)


class ContactProblem:
    """One-step problem of table contacts in velocity-impulse form.

    rho holds the moment arms from the COM to the witness points as three
    rows (x, y, z) of nc Python floats.
    inv_mass is the inverse generalized mass diag(m^-1 I3, W) at the
    current orientation as the pair (m^-1, W) that _mass_terms returns, W
    the world inverse inertia as three float rows; f_ext is the external
    generalized force (gravity and gyroscopic pseudo-force), v the pre-step
    generalized velocity [v, w], h the timestep, and depth and depth_rate
    have one entry per contact, all Python floats and float lists. The
    problem keeps the lists it is given (not copies); the solvers read them.

    Every contact has the table's frame (normal +z, tangents +x and +y), so
    its Jacobian rows [e, rho x e] follow from its arm alone. The arrays
    jacobian (_table_jacobian), inv_mass, f_ext, v, depth,
    depth_rate and accel = inv_mass @ f_ext are built when first read; they
    are copies, and editing one changes nothing that a solver reads.

    h must be positive and finite, m^-1 positive and finite, and the arms
    and W finite with |W|_F |rho| clear of overflow, a ValueError
    otherwise: then the Delassus entries, which skip the products of the
    Jacobian's structural zeros, equal their 6-term sums bit for bit (see
    _float_terms).
    """

    def __init__(self, rho, inv_mass, v, h, f_ext, depth, depth_rate):
        if not 0.0 < h < math.inf:
            raise ValueError(f"a contact problem needs a positive finite timestep h, got {h}")
        minv, (w0, w1, w2) = inv_mass
        # each entry of W (rho x e) is at most |W|_F |rho| in size; a NaN or inf in W or rho fails the test too
        if not (0.0 < minv < math.inf and 2.0 * math.hypot(*w0, *w1, *w2) * math.hypot(*rho[0], *rho[1], *rho[2])
                < math.inf):
            raise ValueError("a contact problem needs a positive finite m^-1 and finite arms and W, "
                             "with |W|_F |rho| clear of overflow")
        self._rho = rho
        self._mass = inv_mass
        self._f = f_ext
        self._v = v
        self.h = h
        self._depth = depth
        self._depth_rate = depth_rate
        self.num_contacts = len(depth)

    @cached_property
    def jacobian(self) -> np.ndarray:
        return _table_jacobian(self._rho)

    @cached_property
    def inv_mass(self) -> np.ndarray:
        minv, W = self._mass
        M = np.zeros((6, 6))
        M[0, 0] = M[1, 1] = M[2, 2] = minv
        M[3:, 3:] = W
        return M

    @cached_property
    def f_ext(self) -> np.ndarray:
        return np.array(self._f)

    @cached_property
    def v(self) -> np.ndarray:
        return np.array(self._v)

    @cached_property
    def depth(self) -> np.ndarray:
        return np.array(self._depth)

    @cached_property
    def depth_rate(self) -> np.ndarray:
        return np.array(self._depth_rate)

    @cached_property
    def accel(self) -> np.ndarray:
        return self.inv_mass @ self.f_ext

    def delassus(self) -> np.ndarray:
        """Contact-space effective inverse mass J M^-1 J^T."""
        return self.jacobian @ self.inv_mass @ self.jacobian.T

    def v_free(self) -> np.ndarray:
        """Post-step generalized velocity if no contact impulse acted."""
        return self.v + self.h * self.accel


def _mass_terms(R, w, inertia: InertialParams):
    """((m^-1, W), f_ext) at orientation R: the inverse generalized mass diag(m^-1 I3, W) and the external force.

    Python floats, W as three rows and f_ext as six values: the body's
    weight m g, then the gyroscopic torque -w x (I w). For an
    isotropic body W is exactly the body diagonal and the gyroscopic torque
    vanishes, so neither depends on R or w (which may then be None).
    """
    m = inertia.mass
    f_ext = [m * g for g in inertia.gravity_floats]
    i = inertia.inertia_inv_scalar
    if i is not None:
        W = [[i, 0.0, 0.0], [0.0, i, 0.0], [0.0, 0.0, i]]
        f_ext += (0.0, 0.0, 0.0)
    else:
        W = (R @ inertia.inertia_body_inv @ R.T).tolist()
        iw = R @ inertia.inertia_body @ R.T
        f_ext += (-np.cross(w, iw @ w)).tolist()
    return (1.0 / m, W), f_ext


def build_contact_problem(
    state: RigidState,
    inertia: InertialParams,
    contacts: Sequence[ContactPoint],
    dt: float,
) -> ContactProblem:
    """Assemble the velocity-level problem for the detected contacts.

    Uses the arms and mass terms of the rollout loop, so stepping
    detect_contacts output through this problem reproduces simulate; a
    gravity-free problem takes a body whose gravity is zero. Each contact's
    point must be a 3-vector, a ValueError otherwise.
    """
    points = [_as_vec3(c.point, f"contact {i} point") for i, c in enumerate(contacts)]
    R = quat.to_matrix(state.quat)
    inv_mass, f_ext = _mass_terms(R, state.ang_vel, inertia)
    rho = np.array(points).reshape(-1, 3).T - state.pos[:, None]
    depth = [float(c.depth) for c in contacts]
    depth_rate = [float(c.depth_rate) for c in contacts]
    return ContactProblem(rho.tolist(), inv_mass, state.vel.tolist() + state.ang_vel.tolist(), float(dt), f_ext, depth,
                          depth_rate)


class ContactImpulse:
    """Per-contact impulses plus their aggregated effect on the body.

    impulse is the flat impulse [n, t1, t2, n, t1, t2, ...] of the contacts
    in order, and wrench the generalized 6-vector impulse J^T impulse ready
    to feed the integrator. normal (the nonnegative normal impulses, N*s) and
    tangent (the (t1, t2) tangential impulses, one row per contact) are views
    into impulse; flat() returns a copy of it.

    impulse and wrench are given as float lists. The result keeps them (not
    copies) and builds the arrays when first read; the rollout loop reads
    the floats.
    """

    def __init__(self, impulse, wrench, converged: bool, iterations: int):
        self._impulse = impulse
        self._wrench = wrench
        self.converged = converged
        self.iterations = iterations

    @classmethod
    def empty(cls) -> "ContactImpulse":
        return cls([], [0.0] * 6, True, 0)

    @cached_property
    def impulse(self) -> np.ndarray:
        return np.array(self._impulse, dtype=float)

    @cached_property
    def wrench(self) -> np.ndarray:
        return np.array(self._wrench, dtype=float)

    @property
    def normal(self) -> np.ndarray:
        return self.impulse[0::3]

    @property
    def tangent(self) -> np.ndarray:
        return self.impulse.reshape(-1, 3)[:, 1:]

    def flat(self) -> np.ndarray:
        return self.impulse.copy()


def _warm_floats(warm_start, n: int) -> Optional[list]:
    """A solver's starting iterate from warm_start: a new list of n Python floats, or None.

    warm_start may be a flat array or a list of n numbers (the rollout loop
    passes the last result's list); None or any other shape gives None. An
    integer warm start is read as floats, so it cannot truncate the iterates.
    """
    if isinstance(warm_start, np.ndarray):
        if warm_start.shape != (n,):
            return None
        warm_start = warm_start.tolist()
    if warm_start is None or len(warm_start) != n:
        return None
    return list(map(float, warm_start))


def _require_iters(max_iters) -> None:
    """Raise ValueError unless max_iters is a nonnegative integer and not a bool, as SimConfig checks solver_iters.

    The solvers call it only for a max_iters that is not a nonnegative
    Python int, which they test inline, since a call costs a measurable
    share of a convex solve.
    """
    if isinstance(max_iters, bool) or not isinstance(max_iters, (int, np.integer)) or max_iters < 0:
        raise ValueError(f"max_iters must be a nonnegative integer, got {max_iters!r}")


def _arm_terms(problem: ContactProblem) -> tuple:
    """(arms, accel, v_free) of a problem with contacts, on Python floats: what both iterative solvers build on.

    Contact i's rows n, t1 and t2 are [e, rho_i x e] for e = +z, +x, +y,
    so M^-1 r = (m^-1 e, W (rho_i x e)). arms holds one tuple per contact,
    (y, -x, z, -y, -z, x, n0, n1, n2, a0, a1, a2, b0, b1, b2): the arm
    terms in the order the rows read them (normal y, -x; t1 z, -y; t2 -z,
    x), then the nine floats W (rho x e) of rows n (rho x e = (y, -x, 0)),
    t1 ((0, z, -y)) and t2 ((-z, 0, x)), each entry two products, skipping
    the one of the structural zero (see _float_terms). Each solver reads
    what it needs from these tuples in one pass. accel = M^-1 f_ext has 6
    entries, each of W f_ext summed left to right, and v_free = v + h accel.
    """
    minv, ((w00, w01, w02), (w10, w11, w12), (w20, w21, w22)) = problem._mass
    arms = []
    for x, y, z in zip(*problem._rho):
        nx = -x
        ny = -y
        nz = -z
        arms.append((y, nx, z, ny, nz, x,
                     w00 * y + w01 * nx, w10 * y + w11 * nx, w20 * y + w21 * nx,
                     w01 * z + w02 * ny, w11 * z + w12 * ny, w21 * z + w22 * ny,
                     w00 * nz + w02 * x, w10 * nz + w12 * x, w20 * nz + w22 * x))
    f0, f1, f2, f3, f4, f5 = problem._f
    a0 = minv * f0
    a1 = minv * f1
    a2 = minv * f2
    a3 = w00 * f3 + w01 * f4 + w02 * f5
    a4 = w10 * f3 + w11 * f4 + w12 * f5
    a5 = w20 * f3 + w21 * f4 + w22 * f5
    h = problem.h
    v0, v1, v2, v3, v4, v5 = problem._v
    v_free = [v0 + h * a0, v1 + h * a1, v2 + h * a2, v3 + h * a3, v4 + h * a4, v5 + h * a5]
    return arms, [a0, a1, a2, a3, a4, a5], v_free


def _float_terms(problem: ContactProblem) -> tuple:
    """(A, g, accel) of a problem with contacts, on Python floats: the convex QP's input.

    A = J M^-1 J^T is a list of new rows (the caller may edit them), g =
    J v_free, and accel = M^-1 f_ext, all built on _arm_terms.

    A Delassus entry r_a . M^-1 r_b is, in closed form, its linear part
    (m^-1 when both rows have the same direction, else 0.0) plus the
    angular products whose Jacobian entry is not a structural zero, added
    in the order of the 6-term sum; W (rho x e) skips its structural-zero
    product too. That is exact for the finite arms and W that ContactProblem
    requires: the 6-term sum's first three products add up to exactly +0.0
    or m^-1 > 0, a float sum that does not start at -0.0 never reaches
    -0.0, and adding a zero of either sign to such a sum changes nothing.
    The skipped products are such zeros, and the W (rho x e) entries they
    would change differ at most in the sign of a zero, which reaches A only
    through a product that is zero either way.

    g sees any velocity, signed zeros and non-finite values included, so
    each of its entries keeps all six products of its row, left to right,
    with the frame's 0.0 and 1.0 entries written as literals; the partial
    sums over those constant entries are the same for every contact and
    are formed once.
    """
    minv = problem._mass[0]
    arms, accel, (u0, u1, u2, u3, u4, u5) = _arm_terms(problem)
    # rows n (0, 0, 1, y, -x, 0), t1 (1, 0, 0, 0, z, -y) and t2 (0, 1, 0, -z, 0, x) times v_free
    gn = 0.0 * u0 + 0.0 * u1 + 1.0 * u2
    g1 = 1.0 * u0 + 0.0 * u1 + 0.0 * u2 + 0.0 * u3
    g2 = 0.0 * u0 + 1.0 * u1 + 0.0 * u2
    z4 = 0.0 * u4
    z5 = 0.0 * u5
    A = []
    g = []
    for y, nx, z, ny, nz, x, _, _, _, _, _, _, _, _, _ in arms:
        rn = []
        r1 = []
        r2 = []
        for _, _, _, _, _, _, n0, n1, n2, a0, a1, a2, b0, b1, b2 in arms:
            rn += minv + y * n0 + nx * n1, 0.0 + y * a0 + nx * a1, 0.0 + y * b0 + nx * b1
            r1 += 0.0 + z * n1 + ny * n2, minv + z * a1 + ny * a2, 0.0 + z * b1 + ny * b2
            r2 += 0.0 + nz * n0 + x * n2, 0.0 + nz * a0 + x * a2, minv + nz * b0 + x * b2
        A += rn, r1, r2
        g += gn + y * u3 + nx * u4 + z5, g1 + z * u4 + ny * u5, g2 + nz * u3 + z4 + x * u5
    return A, g, accel


def _float_impulse(rho, lam: list, converged: bool, iterations: int) -> ContactImpulse:
    """A result over the float impulse lam of the table contacts with arms rho, with its wrench J^T lam.

    The wrench sums lam_k r_k over the rows in order, all six products of
    each row with its 0.0 and 1.0 entries written as literals, from -0.0,
    which adds to the first product exactly.
    """
    s0 = s1 = s2 = s3 = s4 = s5 = -0.0
    it = iter(lam)
    for x, y, z, ln, l1, l2 in zip(*rho, it, it, it):
        s0 = s0 + ln * 0.0 + l1 * 1.0 + l2 * 0.0
        s1 = s1 + ln * 0.0 + l1 * 0.0 + l2 * 1.0
        s2 = s2 + ln * 1.0 + l1 * 0.0 + l2 * 0.0
        s3 = s3 + ln * y + l1 * 0.0 + l2 * -z
        s4 = s4 + ln * -x + l1 * z + l2 * 0.0
        s5 = s5 + ln * 0.0 + l1 * -y + l2 * x
    return ContactImpulse(lam, [s0, s1, s2, s3, s4, s5], converged, iterations)


# --- compliant model ---------------------------------------------------------


def _compliant_force(depth, depth_rate, vt1, vt2, mu, k, b, slip_tol):
    """Normal and tangential force (fn, ft1, ft2) of the compliant law at one contact.

    Python floats throughout, for _compliant_terms. The clamps keep the
    semantics of the former np.maximum calls on this platform: NaN
    propagates and a clamped -0.0 stays -0.0 (np.maximum(0.0, t) returns t
    unless 0.0 > t).
    """
    rate = 1.0 + b * depth_rate
    fn = k * (0.0 if rate < 0.0 else rate) * (0.0 if depth < 0.0 else depth)
    speed = math.sqrt(vt1 * vt1 + vt2 * vt2)
    denom = slip_tol if speed < slip_tol else speed
    return fn, -mu * fn * vt1 / denom, -mu * fn * vt2 / denom


def _compliant_terms(depth, depth_rate, vel, ang_vel, rho, mu, k, b, slip_tol) -> list:
    """The compliant law's (fx, fy, fz, mx, my, mz) per table contact: its force and its moment rho x f.

    depth and depth_rate hold one Python float per contact, rho the arms as
    three rows, and vel and ang_vel the body's three floats each. A
    contact's tangential velocity is the (x, y) part of its witness point's
    velocity v + w x rho, formed here alone. Shared by hunt_crossley_impulse
    and the rollout loop, which sum the terms with _wrench_impulse.
    """
    v0, v1, _ = vel
    wx, wy, wz = ang_vel
    terms = []
    for d, dr, x, y, z in zip(depth, depth_rate, *rho):
        fn, ft1, ft2 = _compliant_force(d, dr, v0 + wy * z - wz * y, v1 + wz * x - wx * z, mu, k, b, slip_tol)
        terms.append((ft1, ft2, fn, y * fn - z * ft2, z * ft1 - x * fn, x * ft2 - y * ft1))
    return terms


def _wrench_impulse(terms, dt):
    """Linear and angular impulse over dt from per-contact force and moment terms.

    terms holds one (fx, fy, fz, mx, my, mz) tuple per contact. Each column
    is summed in the order np.sum uses for float64 arrays: up to 7 terms
    one by one onto +0.0, 8 terms as one round of pairwise sums. So the
    impulses equal dt * arr.sum() over per-contact float64 arrays bit for
    bit, signed zeros included.
    """
    if len(terms) == 8:
        sx, sy, sz, tx, ty, tz = [
            0.0 + (((a + b) + (c + d)) + ((e + f) + (g + h))) for a, b, c, d, e, f, g, h in zip(*terms)
        ]
    else:
        sx = sy = sz = tx = ty = tz = 0.0
        for fx, fy, fz, mx, my, mz in terms:
            sx += fx
            sy += fy
            sz += fz
            tx += mx
            ty += my
            tz += mz
    return [dt * sx, dt * sy, dt * sz], [dt * tx, dt * ty, dt * tz]


def hunt_crossley_impulse(
    problem: ContactProblem,
    params: ContactParams,
    slip_tolerance: float = SimConfig.slip_tolerance,
) -> ContactImpulse:
    """Impulse of the explicit compliant force law over one timestep.

    Forces are evaluated at the pre-step state and multiplied by h, so the
    solver is a pure function with no iteration. Contacts at or above the
    surface contribute nothing. slip_tolerance must be positive and finite,
    as SimConfig requires.

    The per-contact terms come from _compliant_terms and the wrench is
    their sum by _wrench_impulse, both as in the rollout loop, so the
    per-step API replays a compliant rollout bit for bit.
    """
    if params.model != "compliant":
        raise ValueError(f"params.model must be 'compliant', got {params.model!r}")
    if not (0.0 < slip_tolerance < math.inf):
        raise ValueError(f"slip_tolerance must be positive and finite, got {slip_tolerance}")
    v = problem._v
    terms = _compliant_terms(problem._depth, problem._depth_rate, v[:3], v[3:], problem._rho, params.mu, params.k,
                             params.b, slip_tolerance)
    h = problem.h
    lam = []
    for ft1, ft2, fn, _, _, _ in terms:
        lam += (h * fn, h * ft1, h * ft2)
    imp_lin, imp_ang = _wrench_impulse(terms, h)
    return ContactImpulse(lam, imp_lin + imp_ang, True, 0)


# --- regularized convex model ------------------------------------------------


def _projected_step(x: list, g: list, c: list, L: float, mu: float) -> tuple:
    """One projected gradient step P(x - (g + c) / L) and the gradient mapping at x.

    x, g and c are flat lists [n, t1, t2, n, t1, t2, ...] of Python floats
    (the point, the product Q x and the linear term). Returns the step as a
    new list of the same layout and L * max_i |x_i - P_i|, the first NaN
    among those terms if any. Each contact is stepped, projected and measured
    in one pass, each float operation the one numpy applied to the step's
    arrays, so the results are bit for bit those of the former separate
    passes: the step list, the projection and the norm loop, whose break at
    the first NaN the norm keeps by never replacing a NaN.

    P is the Euclidean projection onto the per-contact friction pyramid cones
    {(n, t1, t2): n >= 0, |t1| <= mu n, |t2| <= mu n}, in closed form: with
    a = |t1| and b = |t2| (the signs separate out by symmetry and are
    restored with copysign), a point already in the cone is kept; otherwise
    the nearest feasible one of the candidates on facet |t1| = mu n, facet
    |t2| = mu n, their edge and the apex wins, the first in that order on a
    tie. The candidate formulas and their order of operations are those of
    the vectorized numpy projection kept as the oracle in
    tests/test_pyramid_projection.py, so convex rollouts stay bit for bit
    what they were with it; scalar floats avoid the numpy call overhead that
    dominates on arrays of 3 to 24 elements. Where the two differ: a point
    with n < 0, t = 0 and mu * n underflowing to -0.0 goes to the apex, where
    the oracle passes it as feasible; and on a step holding NaN or inf, a
    NaN distance (inf - inf) of a later candidate beats no other here, where
    the oracle's argmin picks the first NaN, and min(b, m) is b when m is
    NaN, where np.minimum gives NaN. NaN input gives NaN output, since no
    candidate beats a NaN distance. When no facet or edge candidate is
    feasible the apex wins even if its distance overflows to inf, unless
    that distance is NaN.
    """
    out = [0.0] * len(x)
    norm = 0.0
    if mu == 0.0:
        for i in range(0, len(x), 3):
            x0 = x[i]
            n0 = x0 - (g[i] + c[i]) / L
            n_new = out[i] = 0.0 if n0 < 0.0 else n0
            for e in (L * (x0 - n_new), L * x[i + 1], L * x[i + 2]):
                if not -norm <= e <= norm and norm == norm:  # larger, or the first NaN
                    norm = abs(e)
        return out, norm
    den1 = 1.0 + mu * mu
    den3 = 1.0 + 2.0 * mu * mu
    for i in range(0, len(x), 3):
        j = i + 1
        k = i + 2
        x0 = x[i]
        x1 = x[j]
        x2 = x[k]
        n0 = x0 - (g[i] + c[i]) / L
        t1 = x1 - (g[j] + c[j]) / L
        t2 = x2 - (g[k] + c[k]) / L
        m0 = mu * n0
        # -m <= t <= m is |t| <= m, NaN false; n0 >= 0 only matters when m0 underflows to -0.0
        if n0 >= 0.0 and -m0 <= t1 <= m0 and -m0 <= t2 <= m0:
            n_new = n0
            t1_new = t1  # copysign(|t|, t) is t for every t that is not NaN
            t2_new = t2
        else:
            a0 = abs(t1)
            b0 = abs(t2)
            # facet |t1| = mu n, t2 interior
            n1 = (n0 + mu * a0) / den1
            if n1 >= 0.0 and b0 <= mu * n1:
                e = n1 - n0
                f = mu * n1 - a0
                best = e * e + f * f
                feasible = True
            else:
                best = math.inf
                feasible = False
            choice = 1
            # facet |t2| = mu n, t1 interior
            n2 = (n0 + mu * b0) / den1
            if n2 >= 0.0 and a0 <= mu * n2:
                feasible = True
                e = n2 - n0
                f = mu * n2 - b0
                d = e * e + f * f
                if d < best:
                    best, choice = d, 2
            # edge |t1| = |t2| = mu n
            n3 = (n0 + mu * (a0 + b0)) / den3
            if n3 >= 0.0:
                feasible = True
                e = n3 - n0
                f = mu * n3 - a0
                h = mu * n3 - b0
                d = e * e + f * f + h * h
                if d < best:
                    best, choice = d, 3
            # apex; also when no other candidate is feasible and its distance overflows, unless it is NaN
            d = n0 * n0 + a0 * a0 + b0 * b0
            if d < best or not feasible and d == d:
                choice = 4
            if choice == 1:
                n_new = n1
                a_new = mu * n1
                b_new = min(b0, mu * n1)
            elif choice == 2:
                n_new = n2
                a_new = min(a0, mu * n2)
                b_new = mu * n2
            elif choice == 3:
                n_new = n3
                a_new = b_new = mu * n3
            else:
                n_new = a_new = b_new = 0.0
            t1_new = math.copysign(a_new, t1)
            t2_new = math.copysign(b_new, t2)
        out[i] = n_new
        out[j] = t1_new
        out[k] = t2_new
        e = L * (x0 - n_new)
        if not -norm <= e <= norm and norm == norm:
            norm = abs(e)
        e = L * (x1 - t1_new)
        if not -norm <= e <= norm and norm == norm:
            norm = abs(e)
        e = L * (x2 - t2_new)
        if not -norm <= e <= norm and norm == norm:
            norm = abs(e)
    return out, norm


def _pyramid_project_floats(vals: list, mu: float) -> list:
    """Projection of the flat float list vals onto the friction pyramids (see _projected_step).

    The zero-gradient step: vals - (0.0 + 0.0) / 1.0 is vals bit for bit,
    signed zeros, infinities and NaN included.
    """
    zeros = [0.0] * len(vals)
    return _projected_step(vals, zeros, zeros, 1.0, mu)[0]


def _convex_reference_velocity(problem: ContactProblem, accel: list, params: ContactParams) -> list:
    """Per-contact normal velocity targets of the interpolated reference dynamics.

    The target blends a spring-damper response to penetration with the
    unconstrained velocity change. Damping acts only on the approaching part
    of the pre-step normal velocity and its gain is clamped at full arrest,
    so the reference never demands a rebound faster than the approach.

    accel is _float_terms's. Each contact's pre-step normal velocity r . v
    and normal acceleration r . accel, with r = (0, 0, 1, y, -x, 0) its
    normal row, keep all six products, summed left to right as _float_terms
    sums g. The approach clamp keeps np.minimum(s, 0.0)'s semantics: NaN
    propagates and -0.0 becomes +0.0.
    """
    h = problem.h
    d, k, b = params.d_interp, params.k, params.b
    v0, v1, v2, v3, v4, v5 = problem._v
    a0, a1, a2, a3, a4, a5 = accel
    sn = 0.0 * v0 + 0.0 * v1 + 1.0 * v2
    an = 0.0 * a0 + 0.0 * a1 + 1.0 * a2
    sz = 0.0 * v5
    az = 0.0 * a5
    carry = max(0.0, 1.0 - h * d * b)
    spring = h * d * k
    relax = 1.0 - d
    out = []
    for x, y, _, depth_i in zip(*problem._rho, problem._depth):
        s = sn + y * v3 + -x * v4 + sz
        a = an + y * a3 + -x * a4 + az
        out.append((0.0 if s >= 0.0 else s) * carry + spring * depth_i + relax * (h * a))
    return out


def _uphill(y: list, lam_new: list, lam: list) -> tuple:
    """The APG restart test and the step it tests: (uphill, diff) with diff = lam_new - lam.

    y, lam_new and lam are Python float lists of one length. One pass forms
    diff_i = lam_new_i - lam_i and sums the products (y_i - lam_new_i) *
    diff_i in list order; uphill is whether that sum is positive.
    """
    diff = [0.0] * len(y)
    s = 0.0
    for i, li in enumerate(lam_new):
        d = diff[i] = li - lam[i]
        s += (y[i] - li) * d
    return s > 0.0, diff


def _gershgorin(Q: list) -> float:
    """The largest row sum of |Q_ij|, each summed left to right: a bound on Q's largest eigenvalue.

    The scan stops at the first NaN row sum and returns it.
    """
    L = 0.0
    for row in Q:
        s = 0.0
        for q in row:
            s += abs(q)
        if not s <= L:  # larger, or NaN
            L = s
            if s != s:
                break
    return L


def _q_times(Q: list, x: list) -> list:
    """Q x as a new list, each row dot summed left to right from its first product.

    Written out one contact (three terms) at a time, since on 3 to 24
    floats the interpreter's per-call cost outweighs
    the arithmetic. The APG's Q y and the face solve's Q lam both come
    from here, so the face solve's stopping test sums as the APG does.
    """
    rest = range(3, len(x), 3)  # the row dot's contacts after the first
    x0, x1, x2 = x[0], x[1], x[2]
    out = []
    for row in Q:
        r = row[0] * x0 + row[1] * x1 + row[2] * x2
        for j in rest:
            r = r + row[j] * x[j] + row[j + 1] * x[j + 1] + row[j + 2] * x[j + 2]
        out.append(r)
    return out


def _pyramid_qp(Q, c, mu, start, L, max_iters, tol):
    """Accelerated projected gradient on min 1/2 l'Ql + c'l over the pyramid.

    Q is strongly convex (Delassus plus a positive diagonal regularizer) and
    the projection is exact, so momentum with the gradient restart of
    O'Donoghue and Candes (restart when (y - lam_new) . (lam_new - lam) > 0)
    converges linearly. Q is a list of rows and c a list, all of Python
    floats; start is the first iterate, a point of the pyramid (the
    caller's projected warm start), which the solve does not modify.
    Returns the last iterate, the residual and the iteration count.

    The step size is 1/L, where the caller passes L = _gershgorin(Q), the
    Gershgorin bound of Q's largest eigenvalue: the largest row sum of
    |Q_ij|. A non-finite bound (an infinite or NaN Q) ends the solve at
    once with residual inf, which the caller reports as not converged;
    L <= 0 (Q = 0) returns zeros with residual 0.

    Each iteration takes one projected step lam_new = P(y - (Q y + c) / L)
    from the momentum point y and stops when the gradient mapping at y,
    L * max_i |y_i - lam_new_i|, is at most tol (Nesterov's stopping rule),
    returning lam_new; a non-finite residual stops it at once, since NaN
    never meets the tolerance. Q y comes from _q_times.
    _projected_step takes the step, projects it and measures the residual
    in one pass per contact; _uphill forms lam_new - lam and the restart
    sum in one pass. No BLAS or LAPACK call is made.
    """
    n = len(start)
    if not L < math.inf:
        return [0.0] * n, math.inf, 0
    if L <= 0.0:
        return [0.0] * n, 0.0, 0
    lam = y = start
    t = 1.0
    pg_norm = math.inf
    for it in range(1, max_iters + 1):
        lam_new, pg_norm = _projected_step(y, _q_times(Q, y), c, L, mu)
        if pg_norm <= tol or not math.isfinite(pg_norm):
            return lam_new, pg_norm, it
        uphill, diff = _uphill(y, lam_new, lam)
        if uphill:
            t = 1.0  # momentum points uphill, restart
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        y = [li + beta * di for li, di in zip(lam_new, diff)]
        lam = lam_new
        t = t_new
    return lam, pg_norm, max_iters


def _face_solve(Q, c, mu, p, L, tol):
    """The pyramid QP solved exactly on the faces of the projected warm start, or None.

    Q, c, L and tol are _pyramid_qp's, and p is its start, the warm start
    projected onto the pyramids. The projection puts each contact on one
    face of its pyramid, read from equalities that the closed-form
    projection meets exactly: the apex (n == 0), the edge
    |t1| == |t2| == mu n, the facet |t1| == mu n or |t2| == mu n, or the
    interior; with mu == 0, the apex or the ray t1 == t2 == 0. The face's
    free directions are the columns of a matrix B (n along the edge
    (1, +-mu, +-mu), n along a facet (1, +-mu, 0) with the other tangent
    free, each of the three entries in the interior); each entry of the
    impulse belongs to at most one column. The minimizer lam = B z of the
    QP on the face's span solves B'QB z = -B'c, by Cholesky over Python
    floats.

    lam is then put to _pyramid_qp's stopping rule: Q lam by _q_times, and
    the projected step from lam with the same step size 1/L. When its
    gradient mapping is at most tol, the step's projected point and the
    gradient mapping are returned, as _pyramid_qp returns an
    iteration that stops. Otherwise, and when every contact sits at the
    apex (lam would be zero, the point the APG's first iteration tests), the
    step-size bound is not finite and positive, a pivot is not positive or
    p holds NaN, None is returned, and nothing has been decided.
    """
    if not 0.0 < L < math.inf:
        return None
    cols = []  # the free directions, each as (index, coefficient) pairs
    for i in range(0, len(p), 3):
        n = p[i]
        if n == 0.0:  # apex
            continue
        if not n > 0.0:  # NaN
            return None
        if mu == 0.0:
            cols.append(((i, 1.0),))
            continue
        m = mu * n
        t1 = p[i + 1]
        t2 = p[i + 2]
        if abs(t1) == m:
            if abs(t2) == m:
                cols.append(((i, 1.0), (i + 1, math.copysign(mu, t1)), (i + 2, math.copysign(mu, t2))))
            else:
                cols += ((i, 1.0), (i + 1, math.copysign(mu, t1))), ((i + 2, 1.0),)
        elif abs(t2) == m:
            cols += ((i, 1.0), (i + 2, math.copysign(mu, t2))), ((i + 1, 1.0),)
        else:
            cols += ((i, 1.0),), ((i + 1, 1.0),), ((i + 2, 1.0),)
    if not cols:
        return None
    # B'QB = G G' row by row (G lower triangular), with the forward solve G w = -B'c alongside
    G = []
    w = []
    for a, col_a in enumerate(cols):
        row = []
        for b, col_b in enumerate(cols[:a + 1]):
            s = 0.0
            for i, u in col_a:
                q = Q[i]
                for j, v in col_b:
                    s += u * v * q[j]
            g_b = G[b] if b < a else row
            for k in range(b):
                s -= row[k] * g_b[k]
            if b < a:
                row.append(s / g_b[b])
            elif s > 0.0:
                row.append(math.sqrt(s))
            else:  # not positive, or NaN
                return None
        r = 0.0
        for i, u in col_a:
            r -= u * c[i]
        for k in range(a):
            r -= row[k] * w[k]
        G.append(row)
        w.append(r / row[a])
    # back solve G' z = w, then lam = B z
    lam = [0.0] * len(p)
    z = [0.0] * len(cols)
    for a in range(len(cols) - 1, -1, -1):
        s = w[a]
        for k in range(a + 1, len(cols)):
            s -= G[k][a] * z[k]
        z[a] = s / G[a][a]
        for i, u in cols[a]:
            lam[i] = u * z[a]
    step, residual = _projected_step(lam, _q_times(Q, lam), c, L, mu)
    if residual <= tol:
        return step, residual
    return None


def regularized_convex_impulse(
    problem: ContactProblem,
    params: ContactParams,
    max_iters: int = DEFAULT_QP_ITERS,
    tol: float = DEFAULT_QP_TOL,
    warm_start: Optional[np.ndarray] = None,
) -> ContactImpulse:
    """Unique minimizer of the regularized friction-pyramid quadratic program.

    Solves min_l 1/2 l'(A + R)l + l'(J v_free - v*) over the pyramid cone,
    where A is the Delassus operator, R = (1 - d)/d times its diagonal, and
    v* the reference normal velocities. R makes the program strictly convex,
    so the impulse is unique regardless of the warm start. Raises
    ConvexSolverError when the iteration cap is hit above tol or the
    residual (the gradient mapping at the last momentum point, see
    _pyramid_qp) turns non-finite (a NaN or infinite problem). max_iters
    must be a nonnegative integer; 0 makes no iteration and so raises.

    When max_iters >= 1, a face solve runs first (_face_solve): the exact
    minimizer on the faces of the pyramid that the projected warm start
    lies on, put to the APG's stopping rule. When the rule accepts it, its
    projected step is the result and iterations reads 1, one stopping-rule
    check, as when the APG stops at its first iteration. The face solve and
    the APG each stop at a point whose gradient mapping is at most tol, not
    at the same point, so their results agree to within what that rule
    allows (at most 2.7e-10 N s apart over 35,042 solves in rollouts of
    the benchmark's cube and box tosses). Otherwise the APG runs from the
    warm start; when its first residual is not finite (Q y overflowed on a
    warm start near overflow) while the warm start is not zero and the QP
    is finite, it runs again from zero. Every ConvexSolverError comes from
    the APG.

    The solve runs on Python floats alone, as rigid_pgs_impulse does: A and
    J v_free come from the problem's arms through _float_terms, and the
    wrench J^T lambda through _float_impulse. warm_start may also be the
    list of floats that the rollout loop passes (see _warm_floats).
    """
    if params.model != "regularized_convex":
        raise ValueError(f"params.model must be 'regularized_convex', got {params.model!r}")
    if type(max_iters) is not int or max_iters < 0:
        _require_iters(max_iters)
    nc = problem.num_contacts
    if nc == 0:
        return ContactImpulse.empty()
    Q, c = _convex_qp(problem, params)
    mu = params.mu
    lam0 = _warm_floats(warm_start, 3 * nc) or [0.0] * (3 * nc)
    L = _gershgorin(Q)
    start = _pyramid_project_floats(lam0, mu)
    face = _face_solve(Q, c, mu, start, L, tol) if max_iters >= 1 else None
    if face is not None:
        return _float_impulse(problem._rho, face[0], True, 1)
    lam, residual, iters = _pyramid_qp(Q, c, mu, start, L, max_iters, tol)
    if iters == 1 and not residual < math.inf and any(lam0) and all(map(math.isfinite, c)):
        # a warm start near overflow overflowed Q y: the minimizer does not depend on it (zero is in the pyramid)
        lam, residual, iters = _pyramid_qp(Q, c, mu, [0.0] * (3 * nc), L, max_iters, tol)
    if not residual <= tol:
        raise ConvexSolverError(residual, iters)
    return _float_impulse(problem._rho, lam, True, iters)


def _convex_qp(problem: ContactProblem, params: ContactParams) -> tuple:
    """(Q, c) of regularized_convex_impulse's QP on Python floats, for a problem with contacts.

    Q = A + R is a list of rows and c = J v_free - v* with v* on the normal
    entries, from _float_terms and _convex_reference_velocity.
    """
    Q, c, accel = _float_terms(problem)
    d = params.d_interp
    ratio = (1.0 - d) / d
    for i, row in enumerate(Q):  # A + diag(ratio * diag(A))
        a = row[i]
        row[i] = a + ratio * a
    for i, ref in enumerate(_convex_reference_velocity(problem, accel, params)):
        c[3 * i] -= ref
    return Q, c


# --- rigid complementarity model ---------------------------------------------


def erp_cfm(h: float, k: float, b: float) -> tuple[float, float]:
    """Spring-damper (k, b) mapped to stabilization gains (erp, cfm)."""
    denom = h * k + b
    if denom <= 0.0:
        return 0.0, 0.0
    return h * k / denom, 1.0 / denom


def rigid_pgs_impulse(
    problem: ContactProblem,
    params: ContactParams,
    max_iters: int = DEFAULT_PGS_ITERS,
    tol: float = DEFAULT_PGS_TOL,
    warm_start: Optional[np.ndarray] = None,
) -> ContactImpulse:
    """Rigid inelastic contact impulses via projected Gauss-Seidel.

    Each sweep updates every contact in the detector's deterministic order:
    the normal impulse is projected to be nonnegative against a target
    velocity of zero plus the stabilization bias (erp / h) * depth_+, then
    each tangential impulse is clamped to the box [-mu n, mu n]. Sweeping
    stops when the largest impulse change falls below tol; if the cap is
    reached first the intermediate iterate is returned as a legal result
    with converged=False. A non-finite iterate is never reported converged.
    max_iters must be a nonnegative integer; 0 returns the clamped warm
    start after no sweep.

    The sweeps run in body-velocity space, as sequential impulses do
    (Catto, "Iterative Dynamics with Temporal Coherence", GDC 2005; Bullet's
    btSequentialImpulseConstraintSolver), with no Delassus matrix: the
    kernel keeps u = v_free + M^-1 J^T lam, reads row k's residual
    (J M^-1 J^T lam + J v_free)_k as J_k . u, two products and two sums on
    a table-frame row (normal u2 + y u3 - x u4, t1 u0 + z u4 - y u5, t2
    u1 - z u3 + x u5), and after each update adds
    M^-1 J_k^T (new - old) to u: m^-1 times the change on the row's linear
    component and W (rho x e) times it on the three angular ones. The work
    per row does not depend on the number of contacts. u starts from
    v_free (_arm_terms); a warm start adds M^-1 J^T lam0 contact by
    contact, each angular entry of a contact as one sum over its rows n,
    t1, t2. A row's diagonal A_kk (plus cfm on a normal row) is the closed
    form of _float_terms, bit for bit. The same sweeps over the Delassus
    matrix differ from these by rounding only.

    The solve runs on Python floats alone, with no BLAS, LAPACK or numpy
    array before its result, so the result does not depend on the BLAS
    build; the wrench J^T lam comes from _float_impulse. The bias and the
    warm start's normal clamp keep np.maximum(0.0, x)'s semantics: NaN
    propagates and -0.0 stays -0.0. warm_start may also be the list of
    floats that the rollout loop passes (see _warm_floats).
    """
    if params.model != "rigid_pgs":
        raise ValueError(f"params.model must be 'rigid_pgs', got {params.model!r}")
    if type(max_iters) is not int or max_iters < 0:
        _require_iters(max_iters)
    nc = problem.num_contacts
    if nc == 0:
        return ContactImpulse.empty()
    minv = problem._mass[0]
    arms, _, (u0, u1, u2, u3, u4, u5) = _arm_terms(problem)
    h = problem.h
    erp, cfm = erp_cfm(h, params.k, params.b)
    gain = erp / h
    mu = params.mu
    n = 3 * nc
    lam = _warm_floats(warm_start, n)
    warm = lam is not None
    if not warm:
        lam = [0.0] * n
    # per contact: its rows' indices, the arm terms each row's residual reads, W (rho x e) of each row,
    # the diagonals (cfm on the normal's) and the bias
    rows = []
    ni = 0
    for (y, nx, z, ny, nz, x, n0, n1, n2, a0, a1, a2, b0, b1, b2), d in zip(arms, problem._depth):
        rows.append((ni, ni + 1, ni + 2, y, nx, z, ny, nz, x, n0, n1, n2, a0, a1, a2, b0, b1, b2,
                     minv + y * n0 + nx * n1 + cfm, minv + z * a1 + ny * a2, minv + nz * b0 + x * b2,
                     gain * (0.0 if d < 0.0 else d)))
        if warm:
            ln = lam[ni]
            if ln < 0.0:
                ln = lam[ni] = 0.0
            l1 = lam[ni + 1]
            l2 = lam[ni + 2]
            u0 += minv * l1
            u1 += minv * l2
            u2 += minv * ln
            u3 += n0 * ln + a0 * l1 + b0 * l2
            u4 += n1 * ln + a1 * l1 + b1 * l2
            u5 += n2 * ln + a2 * l1 + b2 * l2
        ni += 3
    sweeps = 0
    converged = False
    for sweeps in range(1, max_iters + 1):
        delta = 0.0
        for ni, ti, si, y, nx, z, ny, nz, x, n0, n1, n2, a0, a1, a2, b0, b1, b2, dn, d1, d2, bn in rows:
            old = lam[ni]
            ln = old - (u2 + y * u3 + nx * u4 - bn + cfm * old) / dn
            if ln < 0.0:
                ln = 0.0
            lam[ni] = ln
            step = ln - old
            u2 += minv * step
            u3 += n0 * step
            u4 += n1 * step
            u5 += n2 * step
            change = abs(step)
            bound = mu * ln
            old = lam[ti]
            new = old - (u0 + z * u4 + ny * u5) / d1
            if new > bound:
                new = bound
            elif new < -bound:
                new = -bound
            lam[ti] = new
            step = new - old
            u0 += minv * step
            u3 += a0 * step
            u4 += a1 * step
            u5 += a2 * step
            step = abs(step)
            if step > change:
                change = step
            old = lam[si]
            new = old - (u1 + nz * u3 + x * u5) / d2
            if new > bound:
                new = bound
            elif new < -bound:
                new = -bound
            lam[si] = new
            step = new - old
            u1 += minv * step
            u3 += b0 * step
            u4 += b1 * step
            u5 += b2 * step
            step = abs(step)
            if step > change:
                change = step
            if change > delta:
                delta = change
        if delta < tol:
            converged = True
            break
    converged = converged and all(map(math.isfinite, lam))
    return _float_impulse(problem._rho, lam, converged, sweeps)
