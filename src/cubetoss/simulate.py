"""Contact trajectory rollouts.

Every step detects box-corner contacts, asks the selected solver for the
step's contact impulse, and advances the state with the shared semi-implicit
integrator. The recorded trajectory keeps every downsample-th state
(including the initial one), matching a capture system running slower than
the integration rate.

The loop carries the state as Python floats, because numpy's per-call
overhead dominates on these 3- and 4-vectors, and it uses the float helpers
that the public per-step API uses too: quat._matrix_rows, the corner
detector geometry._corner_contact_arrays (each active corner's index,
depth, depth rate and arm, and the rotated corner columns), the compliant
law's per-contact terms solvers._compliant_terms with their sum
solvers._wrench_impulse, and the integrator body._integrate. The per-step
constants (gravity, a cube's inverse inertia, the half extents) are the
floats that InertialParams and BoxGeometry hold from construction. Each
float operation is the one the former array code applied elementwise, in
the same order, so rollouts are bit-identical to that code. Numpy keeps
the detector's corner product, one np.dot per contact step and none per
flight step, and, for an anisotropic body, the mass terms
(solvers._mass_terms) and the integrator's rotations. For a PGS or convex
step the loop builds the ContactProblem from the detector's arms, its float
lists and the body's own gravity, as build_contact_problem does from
detect_contacts output (a ContactPoint's witness point gives its arm), and
reads the result's float lists back; such a step of a cube makes no numpy
array outside the detector. Warm starts are remapped per corner over float
lists when the set of active corners changes.

solve_contact_impulse, defined here, is the one place that picks the
solver for params.model and the one place where an unset iteration cap
becomes DEFAULT_QP_ITERS or DEFAULT_PGS_ITERS; the loop calls it for
every PGS or convex contact step with cfg.solver_iters, and the per-step
API calls it too. It calls the iterative solvers through this module's
globals rigid_pgs_impulse and regularized_convex_impulse, once per contact
step of either path: that seam is deliberate, since it is where the solver
layer can be timed (the benchmark's tracer wraps these names). Stepping
detect_contacts, build_contact_problem, solve_contact_impulse with
per-corner warm starts, and step therefore reproduces a rollout of any of
the three models bit for bit.

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
from .geometry import BoxGeometry, _corner_contact_arrays
from .solvers import (
    DEFAULT_PGS_ITERS,
    DEFAULT_QP_ITERS,
    ContactImpulse,
    ContactParams,
    ContactProblem,
    ConvexSolverError,
    _compliant_terms,
    _mass_terms,
    _wrench_impulse,
    hunt_crossley_impulse,
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


def solve_contact_impulse(
    problem: ContactProblem,
    params: ContactParams,
    slip_tolerance: float = SimConfig.slip_tolerance,
    max_iters: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
) -> ContactImpulse:
    """The step's contact impulse from the solver that params.model selects.

    max_iters caps an iterative solver (None: DEFAULT_QP_ITERS for the
    convex model, DEFAULT_PGS_ITERS for PGS) and slip_tolerance is the
    compliant law's; each applies to its model only.
    """
    model = params.model
    if model == "compliant":
        return hunt_crossley_impulse(problem, params, slip_tolerance)
    if model == "regularized_convex":
        return regularized_convex_impulse(
            problem, params, DEFAULT_QP_ITERS if max_iters is None else max_iters, warm_start=warm_start
        )
    return rigid_pgs_impulse(problem, params, DEFAULT_PGS_ITERS if max_iters is None else max_iters,
                             warm_start=warm_start)


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
    # an isotropic body's mass terms do not depend on the state
    const_mass_terms = _mass_terms(None, None, inertia) if inertia.isotropic else None

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
                _, depth, depth_rate, rho, _ = found
                terms = _compliant_terms(depth, depth_rate, v, w, rho, mu, k, b, slip)
                imp_lin, imp_ang = _wrench_impulse(terms, dt)
            else:
                idx, depth, depth_rate, rho, _ = found
                inv_mass, f_ext = const_mass_terms or _mass_terms(np.array(R), np.array(w), inertia)
                problem = ContactProblem(rho, inv_mass, v + w, dt, f_ext, depth, depth_rate)
                if idx == warm_corners:
                    warm = warm_flat
                else:
                    # a corner starts from its impulse in the last solve, or zero if it was not in it
                    at = {corner: 3 * j for j, corner in enumerate(warm_corners)}
                    warm = []
                    for corner in idx:
                        j = at.get(corner)
                        warm += no_impulse if j is None else warm_flat[j:j + 3]
                imp = solve_contact_impulse(problem, params, slip, cfg.solver_iters, warm)
                warm_flat, wrench = imp._impulse, imp._wrench
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
