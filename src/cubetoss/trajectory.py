"""Uniformly sampled rigid-body trajectories."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .body import RigidState


@dataclass
class Trajectory:
    """A sequence of rigid-body states sampled at a fixed rate.

    Arrays are row-per-sample: pos (T, 3), quat (T, 4), vel (T, 3),
    ang_vel (T, 3). meta carries free-form header information such as the
    body name and cube side length.
    """

    rate_hz: float
    pos: np.ndarray
    quat: np.ndarray
    vel: np.ndarray
    ang_vel: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.pos = np.atleast_2d(np.asarray(self.pos, dtype=float))
        self.quat = np.atleast_2d(np.asarray(self.quat, dtype=float))
        self.vel = np.atleast_2d(np.asarray(self.vel, dtype=float))
        self.ang_vel = np.atleast_2d(np.asarray(self.ang_vel, dtype=float))
        T = self.pos.shape[0]
        if T < 1:
            raise ValueError("trajectory must contain at least one sample")
        shapes = (self.pos.shape, self.quat.shape, self.vel.shape, self.ang_vel.shape)
        if shapes != ((T, 3), (T, 4), (T, 3), (T, 3)):
            raise ValueError(f"inconsistent trajectory array shapes {shapes}")
        if not (self.rate_hz > 0.0):
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz}")

    def __len__(self) -> int:
        return self.pos.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self)) / self.rate_hz

    @property
    def duration(self) -> float:
        return (len(self) - 1) / self.rate_hz

    def state_at(self, i: int) -> RigidState:
        return RigidState(self.pos[i].copy(), self.quat[i].copy(), self.vel[i].copy(), self.ang_vel[i].copy())

    @property
    def initial_state(self) -> RigidState:
        return self.state_at(0)

    def as_matrix(self) -> np.ndarray:
        """(T, 13) matrix with columns [pos, quat, vel, ang_vel]."""
        return np.hstack([self.pos, self.quat, self.vel, self.ang_vel])

    def downsampled(self, n: int) -> "Trajectory":
        """Keep samples 0, n, 2n, ... with the rate reduced accordingly."""
        if n < 1 or int(n) != n:
            raise ValueError(f"downsample factor must be a positive integer, got {n}")
        n = int(n)
        return Trajectory(
            self.rate_hz / n,
            self.pos[::n].copy(),
            self.quat[::n].copy(),
            self.vel[::n].copy(),
            self.ang_vel[::n].copy(),
            dict(self.meta),
        )
