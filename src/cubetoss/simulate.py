"""Contact trajectory rollouts.

Every step detects box-corner contacts, asks the selected solver for the
step's contact impulse, and advances the state with the shared semi-implicit
integrator. The recorded trajectory keeps every downsample-th state
(including the initial one), matching a capture system running slower than
the integration rate.

The loop works on the detector's corner arrays but shares every piece of the
contact problem with the public per-step API: the corner detector and the
table-frame Jacobian (geometry), the mass terms (solvers._mass_terms) and
the integrator (body._integrate). Stepping detect_contacts,
build_contact_problem, the solver with per-corner warm starts, and step
therefore reproduces a convex or PGS rollout bit for bit. The compliant law
builds its wrench from the corner arrays directly (same forces through
_compliant_forces), so its public replay agrees to rounding only.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import quat
from .body import InertialParams, RigidState, SimConfig, _integrate
from .geometry import BoxGeometry, _corner_contact_arrays, _table_jacobian
from .solvers import (
    DEFAULT_PGS_ITERS,
    DEFAULT_QP_ITERS,
    ContactParams,
    ContactProblem,
    ConvexSolverError,
    _compliant_forces,
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
    if not (duration > 0.0):
        raise ValueError(f"duration must be positive, got {duration}")
    x0.require_valid()

    dt = cfg.dt
    n_steps = int(round(duration / dt))
    down = cfg.downsample
    n_samples = n_steps // down + 1

    pos_out = np.empty((n_samples, 3))
    quat_out = np.empty((n_samples, 4))
    vel_out = np.empty((n_samples, 3))
    angvel_out = np.empty((n_samples, 3))

    p = x0.pos.copy()
    q = x0.quat.copy()
    v = x0.vel.copy()
    w = x0.ang_vel.copy()
    pos_out[0], quat_out[0], vel_out[0], angvel_out[0] = p, q, v, w

    model = params.model
    margin = cfg.activation_margin
    corners_body = geom.corners_body
    max_iters = cfg.solver_iters
    if max_iters is None:
        max_iters = DEFAULT_QP_ITERS if model == "regularized_convex" else DEFAULT_PGS_ITERS
    # an isotropic body's mass terms do not depend on the state
    const_mass_terms = _mass_terms(None, None, inertia, True, True) if inertia.isotropic else None

    # warm start: the corners and flat impulse of this rollout's last contact solve
    warm_corners = []
    warm_flat = None

    zero_imp = np.zeros(3)
    for step_i in range(1, n_steps + 1):
        R = quat.to_matrix(q)
        idx, depth, depth_rate, vt1, vt2, rho, _ = _corner_contact_arrays(p, R, v, w, corners_body, margin)

        if idx.size == 0:
            imp_lin = zero_imp
            imp_ang = zero_imp
        elif model == "compliant":
            # explicit law: assemble the wrench straight from the corner data
            fn, ft1, ft2 = _compliant_forces(
                depth, depth_rate, vt1, vt2, params.mu, params.k, params.b, cfg.slip_tolerance
            )
            imp_lin = dt * np.array([ft1.sum(), ft2.sum(), fn.sum()])
            imp_ang = dt * np.array([
                (rho[1] * fn - rho[2] * ft2).sum(),
                (rho[2] * ft1 - rho[0] * fn).sum(),
                (rho[0] * ft2 - rho[1] * ft1).sum(),
            ])
        else:
            inv_mass, f_ext = const_mass_terms or _mass_terms(R, w, inertia, True, True)
            problem = ContactProblem(
                _table_jacobian(rho), inv_mass, np.concatenate([v, w]), dt, f_ext, depth, depth_rate
            )
            corners = idx.tolist()
            if corners == warm_corners:
                warm = warm_flat
            else:
                # a corner starts from its impulse in the last solve, or zero if it was not in it
                per_corner = np.zeros((8, 3))
                if warm_corners:
                    per_corner[warm_corners] = warm_flat.reshape(-1, 3)
                warm = per_corner[idx].reshape(-1)
            try:
                if model == "regularized_convex":
                    imp = regularized_convex_impulse(problem, params, max_iters, warm_start=warm)
                else:
                    imp = rigid_pgs_impulse(problem, params, max_iters, warm_start=warm)
            except ConvexSolverError as err:
                raise SimulationDivergence(step_i, str(err)) from err
            warm_corners, warm_flat = corners, imp.flat()
            imp_lin = imp.wrench[:3]
            imp_ang = imp.wrench[3:]

        try:
            p, q, v, w = _integrate(p, q, v, w, R, inertia, imp_lin, imp_ang, dt)
        except ValueError as err:
            raise SimulationDivergence(step_i, str(err)) from err
        chk = p[0] + p[1] + p[2] + v[0] + v[1] + v[2]
        if not math.isfinite(chk):
            raise SimulationDivergence(step_i, "non-finite position or velocity")

        if step_i % down == 0:
            j = step_i // down
            pos_out[j], quat_out[j], vel_out[j], angvel_out[j] = p, q, v, w

    return Trajectory(cfg.output_rate_hz, pos_out, quat_out, vel_out, angvel_out)
