"""Host-speed calibration: a fixed kernel timed between the benchmark's commands.

The benchmark's hosts are shared, and their speed drifts in phases of tens
of seconds: the same deterministic command takes up to 1.7 times as long in
a slow phase as in a quiet one, and a whole run can fall into one phase. The
kernel here does the kind of work a rollout does (a cube dropped on a
penalty-law floor: small numpy array operations and Python float arithmetic
each step) but uses nothing of cubetoss, so a change to the program leaves
its time alone. Timed right before and right
after a command, it tells how fast the host ran at that moment; ``factor``
turns that into the slowdown against ``REFERENCE_S``, the kernel's time on a
quiet 2-vCPU Xeon host.
"""
import math
import time

import numpy as np

REFERENCE_S = 0.030  # one kernel call on a quiet 2-vCPU Xeon host
STEPS = 400  # simulated steps per kernel call
CALLS = 3  # kernel calls per measurement

_CORNERS = 0.05 * np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
_GRAVITY = np.array([0.0, 0.0, -9.81])


def _rotation(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def kernel(steps: int = STEPS) -> float:
    """A cube dropped on a penalty-law floor; returns its final height."""
    dt, k, b, mu = 1.0 / 1480.0, 1e4, 5.0, 0.3
    p, v, w = np.array([0.0, 0.0, 0.2]), np.array([0.5, 0.1, 0.0]), np.array([3.0, -2.0, 1.0])
    q = np.array([0.9, 0.3, 0.2, 0.1])
    q /= np.linalg.norm(q)
    for _ in range(steps):
        rho = _CORNERS @ _rotation(q).T
        corner_vel = v + np.cross(w, rho)
        depth = -(p[2] + rho[:, 2])
        idx = np.nonzero(depth > 0.0)[0]
        force, torque = np.zeros(3), np.zeros(3)
        if idx.size:
            fn = np.maximum(k * depth[idx] - b * corner_vel[idx, 2], 0.0)
            slip = corner_vel[idx, :2]
            speed = np.sqrt((slip * slip).sum(axis=1)) + 1e-9
            f = np.column_stack([-(mu * fn / speed)[:, None] * slip, fn])
            force = f.sum(axis=0)
            torque = np.cross(rho[idx], f).sum(axis=0)
        v = v + dt * (_GRAVITY + force)
        w = w + dt * 600.0 * torque
        q = q + 0.5 * dt * np.array([-q[1:] @ w, *(q[0] * w + np.cross(w, q[1:]))])
        q /= math.sqrt(float(q @ q))
        p = p + dt * v
    return float(p[2])


def seconds() -> float:
    """Mean wall time of one kernel call over ``CALLS`` calls."""
    t0 = time.perf_counter()
    for _ in range(CALLS):
        kernel()
    return (time.perf_counter() - t0) / CALLS


def factor(before: float, after: float) -> float:
    """Host slowdown over a command, from the kernel times around it (1.0 is the reference host)."""
    return 0.5 * (before + after) / REFERENCE_S
