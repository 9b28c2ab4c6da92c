"""Quaternion helpers for world-from-body orientations.

Quaternions are length-4 float arrays in (w, x, y, z) order. A body
orientation quaternion q maps body coordinates into world coordinates,
v_world = R(q) @ v_body.
"""
from __future__ import annotations

import numpy as np

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = float(np.sqrt(q @ q))
    if not np.isfinite(n) or n == 0.0:
        raise ValueError(f"cannot normalize quaternion with norm {n}")
    return q / n


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def from_rotation_vector(phi: np.ndarray) -> np.ndarray:
    """Unit quaternion rotating by |phi| radians about phi / |phi|."""
    phi = np.asarray(phi, dtype=float)
    half = 0.5 * float(np.sqrt(phi @ phi))
    # np.sinc is sin(pi x) / (pi x), stable through half = 0.
    s = 0.5 * np.sinc(half / np.pi)
    return np.array([np.cos(half), s * phi[0], s * phi[1], s * phi[2]])


def _matrix_rows(w: float, x: float, y: float, z: float) -> list:
    """Rows of the rotation matrix of (w, x, y, z) as nested Python float lists.

    The rollout loop calls this directly and converts to an array only for
    the corner products that stay in numpy.
    """
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return [
        [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
        [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
        [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
    ]


def to_matrix(q: np.ndarray) -> np.ndarray:
    return np.array(_matrix_rows(*q))


def integrate(q: np.ndarray, w_world: np.ndarray, dt: float) -> np.ndarray:
    """Advance q by the world-frame angular velocity over dt, renormalized."""
    dq = from_rotation_vector(dt * np.asarray(w_world, dtype=float))
    return normalize(multiply(dq, q))


def from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = float(np.sqrt(axis @ axis))
    if n == 0.0:
        return IDENTITY.copy()
    return from_rotation_vector(axis * (angle / n))
