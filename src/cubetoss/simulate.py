"""Contact trajectory rollouts.

Every step detects box-corner contacts, asks the selected solver for the
step's contact impulse, and advances the state with the shared semi-implicit
integrator. The recorded trajectory keeps every downsample-th state
(including the initial one), matching a capture system running slower than
the integration rate.

The loop carries the state as Python floats, because numpy's per-call
overhead dominates on these 3- and 4-vectors, and it uses the float helpers
that the public per-step API uses too: quat._matrix_rows, the corner
detector geometry._corner_contact_arrays, the compliant law
solvers._compliant_force and the integrator body._integrate. Each float
operation is the one the former array code applied elementwise, in the same
order, so rollouts are bit-identical to that code. Numpy keeps the corner
products inside the detector and, for an anisotropic body, the mass terms
(solvers._mass_terms) and the integrator's rotations. Both iterative solvers
run on floats alone, so the loop builds their ContactProblem from the float
lists themselves (ContactProblem._from_floats: the Jacobian rows of
geometry._table_rows and the block mass floats of solvers._block_mass) and
reads their result back as float lists (ContactImpulse._float_lists); a PGS
or convex step of a cube makes no numpy array outside the detector. Warm
starts are remapped per corner over float lists when the set of active
corners changes. Both iterative solvers are called through this module's
globals rigid_pgs_impulse and regularized_convex_impulse, once per contact
step: that seam is deliberate, since it is where the solver layer can be
timed (the benchmark's tracer wraps these names) and where the per-step API
meets the loop. Stepping detect_contacts, build_contact_problem, the solver
with per-corner warm starts, and step therefore reproduces a convex or PGS
rollout bit for bit. The compliant rollout sums its wrench per corner,
while hunt_crossley_impulse goes through J @ v and J.T @ lam, so its public
replay agrees to rounding only.

Any arithmetic error inside a step (ZeroDivisionError, OverflowError),
a convex solve that gives up, or a ValueError from the integrator (math.sin
of an infinite angle, a quaternion that cannot be normalized) becomes
SimulationDivergence at that step. A ValueError elsewhere in the step is a
programming error and propagates as it is.
"""
from __future__ import annotations

import math
from array import array
from typing import Optional

import numpy as np

from . import quat
from .body import InertialParams, RigidState, SimConfig, _integrate
from .geometry import BoxGeometry, _corner_contact_arrays, _table_rows
from .solvers import (
    DEFAULT_PGS_ITERS,
    DEFAULT_QP_ITERS,
    ContactParams,
    ContactProblem,
    ConvexSolverError,
    _block_mass,
    _compliant_force,
    _mass_terms,
    regularized_convex_impulse,
    rigid_pgs_impulse,
)
from .trajectory import Trajectory


class SimulationDivergence(RuntimeError):
    """Raised when a rollout produces a non-finite state or a solver gives up.

    step_index is the 1-based index of the integration step that failed.
    """

    def __init__(self, step_index: int, message: str):
        super().__init__(f"simulation diverged at step {step_index}: {message}")
        self.step_index = step_index


def simulate(
    x0: RigidState,
    params: ContactParams,
    inertia: InertialParams,
    geom: BoxGeometry,
    cfg: Optional[SimConfig] = None,
    duration: float = 1.0,
) -> Trajectory:
    """Roll the body forward for the given duration and return the trajectory.

    The output is sampled at cfg.dt and downsampled by cfg.downsample
    (samples 0, n, 2n, ...). Identical inputs produce bit-identical
    trajectories.
    """
    cfg = cfg or SimConfig()
    if cfg.solver is not None and cfg.solver != params.model:
        raise ValueError(f"config selects solver {cfg.solver!r} but params.model is {params.model!r}")
    if not (0.0 < duration < math.inf):
        raise ValueError(f"duration must be positive and finite, got {duration}")
    x0.require_valid()

    dt = cfg.dt
    n_steps = int(round(duration / dt))
    down = cfg.downsample

    p, q, v, w = x0.pos.tolist(), x0.quat.tolist(), x0.vel.tolist(), x0.ang_vel.tolist()
    # every kept sample's 13 floats [pos, quat, vel, ang_vel], row after row
    samples = array("d", p + q + v + w)

    model = params.model
    mu, k, b = params.mu, params.k, params.b
    slip = cfg.slip_tolerance
    margin = cfg.activation_margin
    max_iters = cfg.solver_iters
    if max_iters is None:
        max_iters = DEFAULT_QP_ITERS if model == "regularized_convex" else DEFAULT_PGS_ITERS
    # an isotropic body's mass terms do not depend on the state
    const_mass_terms = const_block = None
    if inertia.isotropic and model != "compliant":
        const_mass_terms = _mass_terms(None, None, inertia, True)
        const_block = _block_mass(*const_mass_terms)

    # warm start: the corners and flat impulse of this rollout's last contact solve
    warm_corners = []
    warm_flat = None

    no_impulse = [0.0, 0.0, 0.0]
    for step_i in range(1, n_steps + 1):
        try:
            R = quat._matrix_rows(*q)
            found = _corner_contact_arrays(p, R, v, w, geom, margin)
            if found is None:
                imp_lin = imp_ang = no_impulse
            elif model == "compliant":
                # explicit law: assemble the wrench straight from the corner data
                _, depth, depth_rate, vt1, vt2, rho, _ = found
                terms = []
                for d, dr, t1, t2, x, y, z in zip(depth, depth_rate, vt1, vt2, *rho):
                    fn, ft1, ft2 = _compliant_force(d, dr, t1, t2, mu, k, b, slip)
                    terms.append((ft1, ft2, fn, y * fn - z * ft2, z * ft1 - x * fn, x * ft2 - y * ft1))
                imp_lin, imp_ang = _wrench_impulse(terms, dt)
            else:
                idx, depth, depth_rate, _, _, rho, _ = found
                inv_mass, f_ext = const_mass_terms or _mass_terms(np.array(R), np.array(w), inertia, True)
                problem = ContactProblem._from_floats(
                    _table_rows(rho), inv_mass, f_ext, const_block or _block_mass(inv_mass, f_ext),
                    v + w, dt, depth, depth_rate,
                )
                if idx == warm_corners:
                    warm = warm_flat
                else:
                    # a corner starts from its impulse in the last solve, or zero if it was not in it
                    at = {corner: 3 * j for j, corner in enumerate(warm_corners)}
                    warm = []
                    for corner in idx:
                        j = at.get(corner)
                        warm += no_impulse if j is None else warm_flat[j:j + 3]
                if model == "regularized_convex":
                    imp = regularized_convex_impulse(problem, params, max_iters, warm_start=warm)
                else:
                    imp = rigid_pgs_impulse(problem, params, max_iters, warm_start=warm)
                warm_flat, wrench = imp._float_lists()
                warm_corners = idx
                imp_lin, imp_ang = wrench[:3], wrench[3:]
        except (ArithmeticError, ConvexSolverError) as err:
            raise SimulationDivergence(step_i, str(err)) from err
        try:
            p, q, v, w = _integrate(p, q, v, w, R, inertia, imp_lin, imp_ang, dt)
        except (ArithmeticError, ValueError) as err:
            raise SimulationDivergence(step_i, str(err)) from err
        if not math.isfinite(p[0] + p[1] + p[2] + v[0] + v[1] + v[2]):
            raise SimulationDivergence(step_i, "non-finite position or velocity")
        if step_i % down == 0:
            samples.fromlist(p + q + v + w)

    rows = np.frombuffer(samples).reshape(-1, 13)
    return Trajectory(
        cfg.output_rate_hz,
        rows[:, 0:3].copy(),
        rows[:, 3:7].copy(),
        rows[:, 7:10].copy(),
        rows[:, 10:13].copy(),
    )


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
