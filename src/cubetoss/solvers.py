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

Both iterative solvers run on Python floats alone, with no BLAS or LAPACK
call and no numpy array until a caller reads their result's arrays: the
Delassus entries J M^-1 J^T, M^-1 f_ext, J v_free and J^T lambda are sums of
products in an order the code fixes (_float_terms and _float_impulse, shared
by both), and so are the PGS sweeps' row dots and the convex QP's
matrix-vector product, step-size bound and restart sum (see _pgs and
_pyramid_qp). So a PGS or convex result does not depend on the BLAS build.
The QP fuses its elementwise passes: one loop per contact takes the
gradient step, projects it onto the pyramid and measures the gradient
mapping (_projected_step), and one loop forms the momentum difference and
the restart sum (_uphill); each iteration makes one projected step. Each
solver is one public function with no second kernel beside it; rollouts
call these functions, and every result holds one flat impulse, which the
loop hands the next step as its warm start (each solver copies its warm
start).

Before the APG, the convex solve tries a face solve (_face_solve), the
polishing step of OSQP and the second-order step of MuJoCo's Newton solver
on this formulation: it reads each contact's face of the pyramid (apex,
interior, a facet or the edge) from the projected warm start, solves the
QP's reduced linear system on those faces by Cholesky over Python floats,
and keeps the result only when the APG's own stopping rule accepts it. In
a rollout the contacts seldom change face from one step to the next, so
most warm-started solves end there, in one iteration; the rest run the APG
from the warm start as before.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import quat
from .body import InertialParams, RigidState
from .geometry import ContactPoint, _frame_jacobian

MODELS = ("compliant", "regularized_convex", "rigid_pgs")

DEFAULT_PGS_ITERS = 50
DEFAULT_PGS_TOL = 1e-8
DEFAULT_QP_ITERS = 500
DEFAULT_QP_TOL = 1e-10
DEFAULT_SLIP_TOLERANCE = 1e-3


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


class ContactProblem:
    """One-step contact problem in velocity-impulse form.

    jacobian stacks the per-contact 3x6 maps (rows normal, t1, t2).
    inv_mass is the 6x6 inverse generalized mass at the current orientation,
    v the pre-step generalized velocity [v, w], f_ext the external
    generalized force (gravity and gyroscopic pseudo-force), and h the
    timestep. accel is the unconstrained generalized acceleration
    inv_mass @ f_ext.

    The rollout loop builds its problems with _from_floats instead, from the
    Python float lists it already holds, because the iterative solvers read
    only floats (_input_floats). Such a problem builds its jacobian, v,
    depth, depth_rate and accel arrays when they are first read, each equal
    bit for bit to the array the constructor would have been given, so
    every other reader sees the problem it saw before.
    """

    def __init__(self, jacobian, inv_mass, v, h, f_ext, depth, depth_rate):
        self.jacobian = jacobian
        self.inv_mass = inv_mass
        self.v = v
        self.h = h
        self.f_ext = f_ext
        self.depth = depth
        self.depth_rate = depth_rate
        self.accel = inv_mass @ f_ext
        self.num_contacts = depth.size
        self._floats = None

    @classmethod
    def _from_floats(cls, rows, inv_mass, f_ext, mass, v, h, depth, depth_rate) -> "ContactProblem":
        """The problem of table-frame contacts as the rollout loop holds it.

        rows holds the flat Jacobian entries of geometry._table_rows,
        inv_mass and f_ext are the mass-term arrays and mass their
        _block_mass floats (m^-1, W, f_ext), and v (6), depth and depth_rate
        are Python float lists.
        """
        problem = cls.__new__(cls)
        problem.inv_mass = inv_mass
        problem.f_ext = f_ext
        problem.h = h
        problem.num_contacts = len(depth)
        problem._floats = (rows, *mass, v, depth)
        problem._depth_rate = depth_rate
        return problem

    @cached_property
    def jacobian(self) -> np.ndarray:
        flat = self._floats[0]
        return np.fromiter(flat, float, len(flat)).reshape(-1, 6)

    @cached_property
    def v(self) -> np.ndarray:
        return np.array(self._floats[4])

    @cached_property
    def depth(self) -> np.ndarray:
        return np.array(self._floats[5])

    @cached_property
    def depth_rate(self) -> np.ndarray:
        return np.array(self._depth_rate)

    @cached_property
    def accel(self) -> np.ndarray:
        return self.inv_mass @ self.f_ext

    def _input_floats(self) -> tuple:
        """(J, m^-1, W, f_ext, v, depth) as Python floats: the iterative solvers' input.

        J holds the Jacobian's entries in one flat list, row after row, and W
        the three rows of the world inverse inertia. A problem built from arrays converts them on
        every call, so the next solve sees an array edited in place. Raises
        ValueError when inv_mass lacks the block form of _block_mass.
        """
        if self._floats is not None:
            return self._floats
        minv, W, f_ext = _block_mass(self.inv_mass, self.f_ext)
        return self.jacobian.ravel().tolist(), minv, W, f_ext, self.v.tolist(), self.depth.tolist()

    def delassus(self) -> np.ndarray:
        """Contact-space effective inverse mass J M^-1 J^T."""
        return self.jacobian @ self.inv_mass @ self.jacobian.T

    def v_free(self) -> np.ndarray:
        """Post-step generalized velocity if no contact impulse acted."""
        return self.v + self.h * self.accel


def _mass_terms(R, w, inertia: InertialParams, include_gravity: bool):
    """Inverse generalized mass and external generalized force at orientation R.

    For an isotropic body the world inverse inertia is exactly the body
    diagonal and the gyroscopic torque vanishes, so neither depends on R or
    w (which may then be None).
    """
    inv_mass = np.zeros((6, 6))
    inv_mass[0, 0] = inv_mass[1, 1] = inv_mass[2, 2] = 1.0 / inertia.mass
    f_ext = np.zeros(6)
    if include_gravity:
        f_ext[:3] = inertia.mass * inertia.gravity
    if inertia.isotropic:
        inv_mass[3, 3] = inv_mass[4, 4] = inv_mass[5, 5] = inertia.inertia_body_inv[0, 0]
    else:
        inv_mass[3:, 3:] = R @ inertia.inertia_body_inv @ R.T
        iw = R @ inertia.inertia_body @ R.T
        f_ext[3:] = -np.cross(w, iw @ w)
    return inv_mass, f_ext


def _block_mass(inv_mass: np.ndarray, f_ext: np.ndarray) -> tuple:
    """(m^-1, W, f_ext) as Python floats, for inv_mass in _mass_terms's block form diag(m^-1 I3, W).

    W comes back as its three rows. Raises ValueError for a 6x6 matrix of
    any other form, a NaN m^-1 included.
    """
    M = np.asarray(inv_mass, dtype=float)
    if M.shape != (6, 6):
        raise ValueError(f"inv_mass must be 6x6, got shape {M.shape}")
    rows = M.tolist()
    minv = rows[0][0]
    lin = [[minv, 0.0, 0.0], [0.0, minv, 0.0], [0.0, 0.0, minv]]
    zeros = [0.0, 0.0, 0.0]
    if [r[:3] for r in rows] != lin + [zeros] * 3 or [r[3:] for r in rows[:3]] != [zeros] * 3 or minv != minv:
        raise ValueError("inv_mass must have the block form diag(m^-1 I3, W) that _mass_terms builds")
    return minv, [r[3:] for r in rows[3:]], np.asarray(f_ext, dtype=float).tolist()


def build_contact_problem(
    state: RigidState,
    inertia: InertialParams,
    contacts: Sequence[ContactPoint],
    dt: float,
    include_gravity: bool = True,
) -> ContactProblem:
    """Assemble the velocity-level problem for the detected contacts.

    Uses the same Jacobian and mass terms as the rollout loop, so stepping
    detect_contacts output through this problem reproduces simulate.
    """
    R = quat.to_matrix(state.quat)
    inv_mass, f_ext = _mass_terms(R, state.ang_vel, inertia, include_gravity)
    nc = len(contacts)
    rho = np.array([c.point for c in contacts]).reshape(nc, 3).T - state.pos[:, None]
    frames = np.array([(c.normal, c.tangent1, c.tangent2) for c in contacts]).reshape(nc, 3, 3)
    v = np.concatenate([state.vel, state.ang_vel])
    depth = np.array([c.depth for c in contacts])
    depth_rate = np.array([c.depth_rate for c in contacts])
    return ContactProblem(_frame_jacobian(rho, frames), inv_mass, v, float(dt), f_ext, depth, depth_rate)


class ContactImpulse:
    """Per-contact impulses plus their aggregated effect on the body.

    impulse is the flat impulse [n, t1, t2, n, t1, t2, ...] of the contacts
    in order, and wrench the generalized 6-vector impulse J^T impulse ready
    to feed the integrator. normal (the nonnegative normal impulses, N*s) and
    tangent (the (t1, t2) tangential impulses, one row per contact) are views
    into impulse; flat() returns a copy of it.

    The PGS solver works on Python floats and builds its result with
    _from_floats: impulse and wrench are then made from its float lists when
    first read, and the rollout loop takes the lists through _float_lists.
    """

    def __init__(self, impulse: np.ndarray, wrench: np.ndarray, converged: bool, iterations: int):
        self.impulse = impulse
        self.wrench = wrench
        self.converged = converged
        self.iterations = iterations
        self._lists = None

    @classmethod
    def _from_floats(cls, impulse: list, wrench: list, converged: bool, iterations: int) -> "ContactImpulse":
        """A result over the float lists of a solver, which it keeps (not copies)."""
        result = cls.__new__(cls)
        result.converged = converged
        result.iterations = iterations
        result._lists = (impulse, wrench)
        return result

    @classmethod
    def empty(cls) -> "ContactImpulse":
        return cls(np.zeros(0), np.zeros(6), True, 0)

    @cached_property
    def impulse(self) -> np.ndarray:
        return np.array(self._lists[0], dtype=float)

    @cached_property
    def wrench(self) -> np.ndarray:
        return np.array(self._lists[1], dtype=float)

    @property
    def normal(self) -> np.ndarray:
        return self.impulse[0::3]

    @property
    def tangent(self) -> np.ndarray:
        return self.impulse.reshape(-1, 3)[:, 1:]

    def flat(self) -> np.ndarray:
        return self.impulse.copy()

    def _float_lists(self) -> tuple:
        """(impulse, wrench) as Python float lists, for reading only: a float solver's own lists."""
        if self._lists is not None:
            return self._lists
        return self.impulse.tolist(), self.wrench.tolist()


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
    return [float(x) for x in warm_start]


def _float_terms(problem: ContactProblem) -> tuple:
    """(J, A, accel, g, v, depth) of a problem with contacts, on Python floats: the iterative solvers' input.

    J holds the Jacobian's rows of 6, A = J M^-1 J^T is a list of new rows
    (the caller may edit them), accel = M^-1 f_ext and v are 6 floats, g =
    J v_free with v_free = v + h accel, and depth has one entry per contact.
    The inverse mass must have the block form diag(m^-1 I3, W) of
    _mass_terms (a ValueError otherwise), so M^-1 r of a Jacobian row r =
    (l, a) is (m^-1 l, W a), each entry of W a summed left to right. Each
    Delassus entry A[i][j] = r_i . M^-1 r_j and each entry of g is a 6-term
    dot summed left to right, and so is each entry of W f_ext in accel.
    """
    J, minv, W, f, v, depth = problem._input_floats()
    J = list(zip(*[iter(J)] * 6))  # the rows of 6
    (w00, w01, w02), (w10, w11, w12), (w20, w21, w22) = W
    # M^-1 J^T, one row per Jacobian row, then the Delassus matrix A = J M^-1 J^T
    m_rows = [
        (minv * l0, minv * l1, minv * l2,
         w00 * a0 + w01 * a1 + w02 * a2, w10 * a0 + w11 * a1 + w12 * a2, w20 * a0 + w21 * a1 + w22 * a2)
        for l0, l1, l2, a0, a1, a2 in J
    ]
    A = []
    for r0, r1, r2, r3, r4, r5 in J:
        row = []
        for m0, m1, m2, m3, m4, m5 in m_rows:
            row.append(r0 * m0 + r1 * m1 + r2 * m2 + r3 * m3 + r4 * m4 + r5 * m5)
        A.append(row)
    f0, f1, f2, f3, f4, f5 = f
    a0 = minv * f0
    a1 = minv * f1
    a2 = minv * f2
    a3 = w00 * f3 + w01 * f4 + w02 * f5
    a4 = w10 * f3 + w11 * f4 + w12 * f5
    a5 = w20 * f3 + w21 * f4 + w22 * f5
    # v_free = v + h accel, then g = J v_free
    h = problem.h
    v0, v1, v2, v3, v4, v5 = v
    u0 = v0 + h * a0
    u1 = v1 + h * a1
    u2 = v2 + h * a2
    u3 = v3 + h * a3
    u4 = v4 + h * a4
    u5 = v5 + h * a5
    g = [r0 * u0 + r1 * u1 + r2 * u2 + r3 * u3 + r4 * u4 + r5 * u5 for r0, r1, r2, r3, r4, r5 in J]
    return J, A, [a0, a1, a2, a3, a4, a5], g, v, depth


def _float_impulse(J: list, lam: list, converged: bool, iterations: int) -> ContactImpulse:
    """A result over the float impulse lam of the Jacobian rows J (non-empty), with its wrench J^T lam.

    The wrench sums lam_k r_k over the rows in order, starting from the first.
    """
    x = lam[0]
    s0, s1, s2, s3, s4, s5 = [x * e for e in J[0]]
    for x, (r0, r1, r2, r3, r4, r5) in zip(lam[1:], J[1:]):
        s0 += x * r0
        s1 += x * r1
        s2 += x * r2
        s3 += x * r3
        s4 += x * r4
        s5 += x * r5
    return ContactImpulse._from_floats(lam, [s0, s1, s2, s3, s4, s5], converged, iterations)


# --- compliant model ---------------------------------------------------------


def _compliant_force(depth, depth_rate, vt1, vt2, mu, k, b, slip_tol):
    """Normal and tangential force (fn, ft1, ft2) of the compliant law at one contact.

    Python floats throughout, shared by hunt_crossley_impulse and the
    rollout loop. The clamps keep the semantics of the former np.maximum
    calls on this platform: NaN propagates and a clamped -0.0 stays -0.0
    (np.maximum(0.0, t) returns t unless 0.0 > t).
    """
    rate = 1.0 + b * depth_rate
    fn = k * (0.0 if rate < 0.0 else rate) * (0.0 if depth < 0.0 else depth)
    speed = math.sqrt(vt1 * vt1 + vt2 * vt2)
    denom = slip_tol if speed < slip_tol else speed
    return fn, -mu * fn * vt1 / denom, -mu * fn * vt2 / denom


def hunt_crossley_impulse(
    problem: ContactProblem,
    params: ContactParams,
    slip_tolerance: float = DEFAULT_SLIP_TOLERANCE,
) -> ContactImpulse:
    """Impulse of the explicit compliant force law over one timestep.

    Forces are evaluated at the pre-step state and multiplied by h, so the
    solver is a pure function with no iteration. Contacts at or above the
    surface contribute nothing. slip_tolerance must be positive and finite,
    as SimConfig requires.
    """
    if params.model != "compliant":
        raise ValueError(f"params.model must be 'compliant', got {params.model!r}")
    if not (0.0 < slip_tolerance < math.inf):
        raise ValueError(f"slip_tolerance must be positive and finite, got {slip_tolerance}")
    if problem.num_contacts == 0:
        return ContactImpulse.empty()
    vc = (problem.jacobian @ problem.v).tolist()
    h, mu, k, b = problem.h, params.mu, params.k, params.b
    lam = []
    for depth, rate, vt1, vt2 in zip(problem.depth.tolist(), problem.depth_rate.tolist(), vc[1::3], vc[2::3]):
        fn, ft1, ft2 = _compliant_force(depth, rate, vt1, vt2, mu, k, b, slip_tolerance)
        lam += (h * fn, h * ft1, h * ft2)
    lam = np.array(lam)
    return ContactImpulse(lam, problem.jacobian.T @ lam, True, 0)


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


def _pyramid_project(lam: np.ndarray, mu: float) -> np.ndarray:
    """Euclidean projection of the flat impulse vector onto the friction pyramids."""
    return np.array(_pyramid_project_floats(lam.tolist(), mu))


def _convex_reference_velocity(J: list, v: list, accel: list, depth: list, h: float, params: ContactParams) -> list:
    """Per-contact normal velocity targets of the interpolated reference dynamics.

    The target blends a spring-damper response to penetration with the
    unconstrained velocity change. Damping acts only on the approaching part
    of the pre-step normal velocity and its gain is clamped at full arrest,
    so the reference never demands a rebound faster than the approach.

    J, v, accel and depth are _float_terms's floats. Each contact's
    pre-step normal velocity r . v and normal acceleration r . accel, with r
    its normal row, are 6-term dots summed left to right. The approach clamp
    keeps np.minimum(s, 0.0)'s semantics: NaN propagates and -0.0 becomes
    +0.0.
    """
    d, k, b = params.d_interp, params.k, params.b
    v0, v1, v2, v3, v4, v5 = v
    a0, a1, a2, a3, a4, a5 = accel
    carry = max(0.0, 1.0 - h * d * b)
    spring = h * d * k
    relax = 1.0 - d
    out = []
    for (r0, r1, r2, r3, r4, r5), depth_i in zip(J[0::3], depth):
        s = r0 * v0 + r1 * v1 + r2 * v2 + r3 * v3 + r4 * v4 + r5 * v5
        a = r0 * a0 + r1 * a1 + r2 * a2 + r3 * a3 + r4 * a4 + r5 * a5
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


def _pyramid_qp(Q, c, mu, lam0, max_iters, tol):
    """Accelerated projected gradient on min 1/2 l'Ql + c'l over the pyramid.

    Q is strongly convex (Delassus plus a positive diagonal regularizer) and
    the projection is exact, so momentum with the gradient restart of
    O'Donoghue and Candes (restart when (y - lam_new) . (lam_new - lam) > 0)
    converges linearly. Q is a list of rows, c and the start lam0 are lists,
    all of Python floats. Returns the iterate as a new list, the residual
    and the iteration count.

    The step size is 1/L with L the Gershgorin bound of Q's largest
    eigenvalue (_gershgorin): the largest row sum of |Q_ij|.
    A non-finite bound (an infinite or NaN Q) ends the solve at once with
    residual inf, which the caller reports as not converged; L <= 0 (Q = 0)
    returns zeros with residual 0.

    Each iteration takes one projected step lam_new = P(y - (Q y + c) / L)
    from the momentum point y and stops when the gradient mapping at y,
    L * max_i |y_i - lam_new_i|, is at most tol (Nesterov's stopping rule),
    returning lam_new; a non-finite residual stops it at once, since NaN
    never meets the tolerance. Q y is summed left to right, written out one
    contact (three terms) at a time as _pgs's row dots are, since on 3 to
    24 floats the interpreter's per-call cost outweighs the arithmetic.
    _projected_step takes the step, projects it and measures the residual
    in one pass per contact; _uphill forms lam_new - lam and the restart
    sum in one pass. No BLAS or LAPACK call is made.
    """
    n = len(lam0)
    L = _gershgorin(Q)
    if not L < math.inf:
        return [0.0] * n, math.inf, 0
    if L <= 0.0:
        return [0.0] * n, 0.0, 0
    rest = range(3, n, 3)  # the row dot's contacts after the first
    lam = y = _pyramid_project_floats(lam0, mu)
    t = 1.0
    pg_norm = math.inf
    for it in range(1, max_iters + 1):
        y0, y1, y2 = y[0], y[1], y[2]
        qy = []
        for row in Q:
            r = row[0] * y0 + row[1] * y1 + row[2] * y2
            for j in rest:
                r = r + row[j] * y[j] + row[j + 1] * y[j + 1] + row[j + 2] * y[j + 2]
            qy.append(r)
        lam_new, pg_norm = _projected_step(y, qy, c, L, mu)
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


def _face_solve(Q, c, mu, lam0, tol):
    """The pyramid QP solved exactly on the faces of the projected warm start, or None.

    Q, c and lam0 are _pyramid_qp's. The projection p = P(lam0) puts each
    contact on one face of its pyramid, read from equalities that the
    closed-form projection meets exactly: the apex (n == 0), the edge
    |t1| == |t2| == mu n, the facet |t1| == mu n or |t2| == mu n, or the
    interior; with mu == 0, the apex or the ray t1 == t2 == 0. The face's
    free directions are the columns of a matrix B (n along the edge
    (1, +-mu, +-mu), n along a facet (1, +-mu, 0) with the other tangent
    free, each of the three entries in the interior); each entry of the
    impulse belongs to at most one column. The minimizer lam = B z of the
    QP on the face's span solves B'QB z = -B'c, by Cholesky over Python
    floats.

    lam is then put to _pyramid_qp's stopping rule: Q lam summed as that
    loop sums Q y, and the projected step from lam with the same step size
    1/L. When its gradient mapping is at most tol, the step's projected
    point and the gradient mapping are returned, as _pyramid_qp returns an
    iteration that stops. Otherwise, and when every contact sits at the
    apex (lam would be zero, the point the APG's first iteration tests), the
    step-size bound is not finite and positive, a pivot is not positive or
    p holds NaN, None is returned, and nothing has been decided.
    """
    L = _gershgorin(Q)
    if not 0.0 < L < math.inf:
        return None
    p = _pyramid_project_floats(lam0, mu)
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
    rest = range(3, len(p), 3)
    y0, y1, y2 = lam[0], lam[1], lam[2]
    q_lam = []
    for row in Q:
        r = row[0] * y0 + row[1] * y1 + row[2] * y2
        for j in rest:
            r = r + row[j] * lam[j] + row[j + 1] * lam[j + 1] + row[j + 2] * lam[j + 2]
        q_lam.append(r)
    step, residual = _projected_step(lam, q_lam, c, L, mu)
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
    _pyramid_qp) turns non-finite (a NaN or infinite problem).

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

    The solve runs on Python floats alone, as rigid_pgs_impulse does: A,
    J v_free and the wrench J^T lambda come from _float_terms and
    _float_impulse, so the inverse mass must have _mass_terms's block form
    (a ValueError otherwise). warm_start may also be the list of floats that
    the rollout loop passes (see _warm_floats).
    """
    if params.model != "regularized_convex":
        raise ValueError(f"params.model must be 'regularized_convex', got {params.model!r}")
    nc = problem.num_contacts
    if nc == 0:
        return ContactImpulse.empty()
    J, Q, c = _convex_qp(problem, params)
    mu = params.mu
    lam0 = _warm_floats(warm_start, 3 * nc) or [0.0] * (3 * nc)
    face = _face_solve(Q, c, mu, lam0, tol) if max_iters >= 1 else None
    if face is not None:
        return _float_impulse(J, face[0], True, 1)
    lam, residual, iters = _pyramid_qp(Q, c, mu, lam0, max_iters, tol)
    if iters == 1 and not residual < math.inf and any(lam0) and all(map(math.isfinite, c)):
        # a warm start near overflow overflowed Q y: the minimizer does not depend on it
        lam, residual, iters = _pyramid_qp(Q, c, mu, [0.0] * (3 * nc), max_iters, tol)
    if not residual <= tol:
        raise ConvexSolverError(residual, iters)
    return _float_impulse(J, lam, True, iters)


def _convex_qp(problem: ContactProblem, params: ContactParams) -> tuple:
    """(J, Q, c) of regularized_convex_impulse's QP on Python floats, for a problem with contacts.

    J holds _float_terms's Jacobian rows, Q = A + R as a list of rows and
    c = J v_free - v* with v* on the normal entries.
    """
    J, Q, accel, c, v, depth = _float_terms(problem)
    d = params.d_interp
    ratio = (1.0 - d) / d
    for i, row in enumerate(Q):  # A + diag(ratio * diag(A))
        a = row[i]
        row[i] = a + ratio * a
    for i, ref in enumerate(_convex_reference_velocity(J, v, accel, depth, problem.h, params)):
        c[3 * i] -= ref
    return J, Q, c


# --- rigid complementarity model ---------------------------------------------


def erp_cfm(h: float, k: float, b: float) -> tuple[float, float]:
    """Spring-damper (k, b) mapped to stabilization gains (erp, cfm)."""
    denom = h * k + b
    if denom <= 0.0:
        return 0.0, 0.0
    return h * k / denom, 1.0 / denom


def _pgs(A, g, bias, cfm, mu, lam, max_iters, tol):
    """Projected Gauss-Seidel sweeps over normal and boxed tangential rows.

    All arguments are Python floats: A the Delassus matrix as a list of
    rows, g and lam flat lists [n, t1, t2, ...] and bias one entry per
    contact. lam holds the starting iterate and is updated in place. Each
    residual is the row dot A[k] . lam summed left to right from the first
    product, written out one contact (three terms) at a time, then
    ((dot + g) - bias) + cfm * old for a normal row and dot + g for a
    tangential one. A non-finite iterate is reported as not converged,
    since a NaN change never exceeds the sweep's largest.
    """
    n = len(lam)
    rest = range(3, n, 3)  # the row dot's contacts after the first
    # per contact: its normal row's index, row, diagonal + cfm, g and bias, then each tangent's
    contacts = [
        (ni, A[ni], A[ni][ni] + cfm, g[ni], bias[ni // 3],
         ((ni + 1, A[ni + 1], A[ni + 1][ni + 1], g[ni + 1]), (ni + 2, A[ni + 2], A[ni + 2][ni + 2], g[ni + 2])))
        for ni in range(0, n, 3)
    ]
    sweeps = 0
    converged = False
    for sweeps in range(1, max_iters + 1):
        delta = 0.0
        for ni, row, dn, gn, bn, tangents in contacts:
            r = row[0] * lam[0] + row[1] * lam[1] + row[2] * lam[2]
            for j in rest:
                r = r + row[j] * lam[j] + row[j + 1] * lam[j + 1] + row[j + 2] * lam[j + 2]
            old = lam[ni]
            new = old - (r + gn - bn + cfm * old) / dn
            if new < 0.0:
                new = 0.0
            change = abs(new - old)
            lam[ni] = new
            bound = mu * new
            for jt, row, dt, gt in tangents:
                r = row[0] * lam[0] + row[1] * lam[1] + row[2] * lam[2]
                for j in rest:
                    r = r + row[j] * lam[j] + row[j + 1] * lam[j + 1] + row[j + 2] * lam[j + 2]
                old = lam[jt]
                newt = old - (r + gt) / dt
                if newt > bound:
                    newt = bound
                elif newt < -bound:
                    newt = -bound
                cj = abs(newt - old)
                if cj > change:
                    change = cj
                lam[jt] = newt
            if change > delta:
                delta = change
        if delta < tol:
            converged = True
            break
    converged = converged and all(map(math.isfinite, lam))
    return lam, converged, sweeps


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

    The solve runs on Python floats alone, with no BLAS, LAPACK or numpy
    array before its result: sums of products whose order the code fixes
    replace the matrix products, so the result does not depend on the BLAS
    build. The Delassus matrix, g = J v_free and the wrench J^T lam come
    from _float_terms and _float_impulse, which need the block form of the
    inverse mass (a ValueError for any other); the sweeps are those of
    _pgs. The bias and the warm start's normal clamp keep
    np.maximum(0.0, x)'s semantics: NaN propagates and -0.0 stays -0.0.
    warm_start may also be the list of floats that the rollout loop passes
    (see _warm_floats).
    """
    if params.model != "rigid_pgs":
        raise ValueError(f"params.model must be 'rigid_pgs', got {params.model!r}")
    nc = problem.num_contacts
    if nc == 0:
        return ContactImpulse.empty()
    J, A, _, g, _, depth = _float_terms(problem)
    h = problem.h
    erp, cfm = erp_cfm(h, params.k, params.b)
    gain = erp / h
    bias = [gain * (0.0 if d < 0.0 else d) for d in depth]
    n = 3 * nc
    lam = _warm_floats(warm_start, n)
    if lam is None:
        lam = [0.0] * n
    else:
        for i in range(0, n, 3):
            if lam[i] < 0.0:
                lam[i] = 0.0
    lam, converged, sweeps = _pgs(A, g, bias, cfm, params.mu, lam, max_iters, tol)
    return _float_impulse(J, lam, converged, sweeps)


def solve_contact_impulse(
    problem: ContactProblem,
    params: ContactParams,
    slip_tolerance: float = DEFAULT_SLIP_TOLERANCE,
    max_iters: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
) -> ContactImpulse:
    """Dispatch to the solver selected by params.model."""
    if params.model == "compliant":
        return hunt_crossley_impulse(problem, params, slip_tolerance)
    if params.model == "regularized_convex":
        return regularized_convex_impulse(
            problem, params, DEFAULT_QP_ITERS if max_iters is None else max_iters, warm_start=warm_start
        )
    return rigid_pgs_impulse(
        problem, params, DEFAULT_PGS_ITERS if max_iters is None else max_iters, warm_start=warm_start
    )
