"""Rigid-body contact simulation and validation toolkit.

Simulates a free body (the bundled scenario is a 10 cm cube) tossed onto a
table under three families of contact dynamics, scores rollouts against
recorded trajectories, and identifies contact parameters by derivative-free
search with sensitivity sweeps.
"""
from ._version import __version__
from .body import InertialParams, RigidState, SimConfig, kinetic_energy, step
from .geometry import BoxGeometry, ContactPoint, detect_contacts
from .identify import AxisSpec, OptimizeResult, ParamDomain, SweepGrid, optimize, sweep
from .io import ResultsDocument, TrajectoryFileError, import_cube_dataset, load_trajectory, save_trajectory
from .metrics import (
    CASSIE_JOINT_NAMES,
    ErrorReport,
    cassie_state_weights,
    cube_config_error,
    dataset_loss,
    rollout_reports,
    rotation_angle,
    weighted_dataset_loss,
    weighted_state_error,
)
from .presets import (
    CUBE_INERTIA,
    CUBE_MASS_KG,
    CUBE_SIDE_M,
    PARAM_PRESETS,
    cube_domain,
    cube_geometry,
    cube_inertial,
    param_preset,
)
from .simulate import SimulationDivergence, simulate, solve_contact_impulse
from .solvers import (
    ContactImpulse,
    ContactParams,
    ContactProblem,
    ConvexSolverError,
    build_contact_problem,
    hunt_crossley_impulse,
    regularized_convex_impulse,
    rigid_pgs_impulse,
)
from .trajectory import Trajectory

__all__ = [
    "__version__",
    "AxisSpec",
    "BoxGeometry",
    "CASSIE_JOINT_NAMES",
    "CUBE_INERTIA",
    "CUBE_MASS_KG",
    "CUBE_SIDE_M",
    "ContactImpulse",
    "ContactParams",
    "ContactPoint",
    "ContactProblem",
    "ConvexSolverError",
    "ErrorReport",
    "InertialParams",
    "OptimizeResult",
    "PARAM_PRESETS",
    "ParamDomain",
    "ResultsDocument",
    "RigidState",
    "SimConfig",
    "SimulationDivergence",
    "SweepGrid",
    "Trajectory",
    "TrajectoryFileError",
    "build_contact_problem",
    "cassie_state_weights",
    "cube_config_error",
    "cube_domain",
    "cube_geometry",
    "cube_inertial",
    "dataset_loss",
    "detect_contacts",
    "hunt_crossley_impulse",
    "import_cube_dataset",
    "kinetic_energy",
    "load_trajectory",
    "optimize",
    "param_preset",
    "regularized_convex_impulse",
    "rigid_pgs_impulse",
    "rollout_reports",
    "rotation_angle",
    "save_trajectory",
    "simulate",
    "solve_contact_impulse",
    "step",
    "sweep",
    "weighted_dataset_loss",
    "weighted_state_error",
]
