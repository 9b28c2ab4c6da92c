"""Synthetic toss generation for demos, round-trip identification and tests."""
from __future__ import annotations

from typing import Optional

import numpy as np

from . import quat
from .body import InertialParams, RigidState, SimConfig
from .geometry import BoxGeometry
from .metrics import _body_header
from .simulate import simulate
from .solvers import ContactParams
from .trajectory import Trajectory


def random_toss_states(n: int, geom: BoxGeometry, seed: int = 0) -> list[RigidState]:
    """Tumbling tosses: random orientation, downward and sideways motion."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        axis = rng.normal(size=3)
        q = quat.from_axis_angle(axis, rng.uniform(0.0, np.pi))
        pos = np.array([0.0, 0.0, rng.uniform(0.15, 0.30)])
        vel = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(-1.5, -0.3)])
        w = rng.uniform(-12.0, 12.0, size=3)
        states.append(RigidState(pos, q, vel, w))
    return states


def sliding_toss_states(n: int, geom: BoxGeometry, seed: int = 0) -> list[RigidState]:
    """Low, fast, flat tosses that slide a lot, making friction identifiable."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        q = quat.from_axis_angle(np.array([0.0, 0.0, 1.0]), rng.uniform(0.0, np.pi / 2))
        pos = np.array([0.0, 0.0, geom.half_extents[2] + rng.uniform(0.005, 0.03)])
        speed = rng.uniform(1.0, 2.5)
        heading = rng.uniform(0.0, 2.0 * np.pi)
        vel = np.array([speed * np.cos(heading), speed * np.sin(heading), rng.uniform(-0.8, -0.2)])
        w = rng.uniform(-2.0, 2.0, size=3)
        states.append(RigidState(pos, q, vel, w))
    return states


def make_dataset(
    states: list[RigidState],
    params: ContactParams,
    inertia: InertialParams,
    geom: BoxGeometry,
    cfg: Optional[SimConfig] = None,
    duration: float = 0.4,
) -> list[Trajectory]:
    """Ground-truth trajectories produced by the simulator itself."""
    cfg = cfg or SimConfig()
    out = []
    for x0 in states:
        traj = simulate(x0, params, inertia, geom, cfg, duration)
        traj.meta.update(_body_header(geom))
        out.append(traj)
    return out
