"""Free rigid body state, inertial data, and the velocity-first integrator.

The integrator is semi-implicit (symplectic) Euler: velocities are updated
from forces and applied impulses first, then the position and orientation
are advanced with the new velocities. Orientation is advanced through the
quaternion exponential map and renormalized every step, so there is no
constraint-projection drift.

_integrate (that step over Python floats, shared by step() and the rollout
loop) and _mass_terms (the contact problem's mass terms) are the per-step
inertia math; only their anisotropic products stay in numpy. Both read
gravity and an isotropic body's inverse inertia as InertialParams' floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import quat

DEFAULT_GRAVITY = (0.0, 0.0, -9.81)
DEFAULT_RATE_HZ = 1480.0


def _as_vec3(v, name: str) -> np.ndarray:
    arr = np.array(v, dtype=float).reshape(-1)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {np.shape(v)}")
    return arr


@dataclass
class RigidState:
    """Position, orientation and twist of one free body.

    pos is the center of mass in world coordinates (m), quat the unit
    world-from-body quaternion (w, x, y, z), vel the linear velocity (m/s)
    and ang_vel the angular velocity (rad/s), both in the world frame.
    """

    pos: np.ndarray
    quat: np.ndarray
    vel: np.ndarray
    ang_vel: np.ndarray

    def __post_init__(self):
        self.pos = _as_vec3(self.pos, "pos")
        self.vel = _as_vec3(self.vel, "vel")
        self.ang_vel = _as_vec3(self.ang_vel, "ang_vel")
        q = np.array(self.quat, dtype=float).reshape(-1)
        if q.shape != (4,):
            raise ValueError(f"quat must have 4 components, got shape {q.shape}")
        self.quat = q

    def require_valid(self) -> None:
        for name in ("pos", "quat", "vel", "ang_vel"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite component in state field '{name}'")
        qw, qx, qy, qz = self.quat.tolist()
        n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"quaternion norm {n} deviates from 1 by more than 1e-9")

    def copy(self) -> "RigidState":
        return RigidState(self.pos.copy(), self.quat.copy(), self.vel.copy(), self.ang_vel.copy())

    def as_vector(self) -> np.ndarray:
        """13-vector [pos, quat, vel, ang_vel]."""
        return np.concatenate([self.pos, self.quat, self.vel, self.ang_vel])


@dataclass
class InertialParams:
    """Mass properties of the body plus the gravity it experiences.

    Construction also computes what the rollout reads every step:
    inertia_body_inv, gravity_floats (gravity as three Python floats) and
    inertia_inv_scalar (1 / I as a float for an isotropic body, else None,
    the one test of isotropy). They are not recomputed if a field is edited
    afterwards; the gravity array is read-only, so an edit in place raises.
    """

    mass: float
    inertia_body: np.ndarray
    gravity: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_GRAVITY))
    inertia_body_inv: np.ndarray = field(init=False, repr=False)
    gravity_floats: tuple = field(init=False, repr=False)
    inertia_inv_scalar: Optional[float] = field(init=False, repr=False)

    def __post_init__(self):
        self.mass = float(self.mass)
        # the contact solvers read 1 / mass and inertia_body_inv as floats
        if not (0.0 < self.mass < math.inf and 1.0 / self.mass < math.inf):
            raise ValueError(f"mass must be positive and finite with a finite inverse, got {self.mass}")
        inertia = np.array(self.inertia_body, dtype=float)
        if inertia.shape == ():
            inertia = float(inertia) * np.eye(3)
        if inertia.shape != (3, 3):
            raise ValueError(f"inertia_body must be 3x3, got shape {inertia.shape}")
        if not np.all(np.isfinite(inertia)):
            raise ValueError("inertia_body must be finite")
        if np.max(np.abs(inertia - inertia.T)) > 1e-12 * max(1.0, np.max(np.abs(inertia))):
            raise ValueError("inertia_body must be symmetric")
        eig = np.linalg.eigvalsh(inertia)
        if np.min(eig) <= 0.0:
            raise ValueError(f"inertia_body must be positive definite, eigenvalues {eig}")
        self.inertia_body = inertia
        self.gravity = _as_vec3(self.gravity, "gravity")
        self.gravity.flags.writeable = False  # gravity_floats is its copy; an edit in place would not reach it
        self.inertia_body_inv = np.linalg.inv(inertia)
        if not np.all(np.isfinite(self.inertia_body_inv)):
            raise ValueError("inertia_body must have a finite inverse")
        isotropic = np.max(np.abs(inertia - inertia[0, 0] * np.eye(3))) == 0.0
        self.gravity_floats = tuple(self.gravity.tolist())
        self.inertia_inv_scalar = float(self.inertia_body_inv[0, 0]) if isotropic else None


@dataclass
class SimConfig:
    """Stepping and solver configuration for trajectory rollouts.

    dt is the integration timestep; the recorded trajectory keeps every
    downsample-th sample (including the first), so the output rate is
    1 / (dt * downsample). solver, when set, must agree with the contact
    model requested through the contact parameters. solver_iters, when
    set (a positive integer), overrides the iteration cap of the active
    contact solver. slip_tolerance (m/s, positive) is the compliant
    friction's regularization velocity; activation_margin (m, nonnegative)
    is the height below which a corner becomes a contact candidate.
    """

    dt: float = 1.0 / DEFAULT_RATE_HZ
    downsample: int = 10
    solver: Optional[str] = None
    solver_iters: Optional[int] = None
    slip_tolerance: float = 1e-3
    activation_margin: float = 1e-3

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if int(self.downsample) != self.downsample or self.downsample < 1:
            raise ValueError(f"downsample must be a positive integer, got {self.downsample}")
        self.downsample = int(self.downsample)
        it = self.solver_iters
        if it is not None and (isinstance(it, bool) or not isinstance(it, (int, np.integer)) or it < 1):
            raise ValueError(f"solver_iters must be None or a positive integer, got {it!r}")
        if not (0.0 < self.slip_tolerance < math.inf):
            raise ValueError(f"slip_tolerance must be positive and finite, got {self.slip_tolerance}")
        if not (0.0 <= self.activation_margin < math.inf):
            raise ValueError(
                f"activation_margin must be finite and nonnegative, got {self.activation_margin}"
            )

    @property
    def output_rate_hz(self) -> float:
        return 1.0 / (self.dt * self.downsample)


def _world_inertia(R, inertia: InertialParams) -> np.ndarray:
    return R @ inertia.inertia_body @ R.T


def _gyroscopic_torque(R, w, inertia: InertialParams) -> np.ndarray:
    """-w x (R I R^T w): an anisotropic body's gyroscopic torque at orientation R and angular velocity w (arrays)."""
    return -np.cross(w, _world_inertia(R, inertia) @ w)


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
        f_ext += _gyroscopic_torque(R, w, inertia).tolist()
    return (1.0 / m, W), f_ext


def _integrate(pos, q, vel, w, R, inertia: InertialParams, imp_lin, imp_ang, dt: float):
    """One semi-implicit Euler step given an impulse applied at the COM.

    The float integrator shared by step() and the rollout loop, so both
    advance the state with bit-identical arithmetic. pos, vel, w and the
    impulses are three floats each, q four, and the new (pos, q, vel, w)
    come back as float lists. Each operation is the one the former array
    code applied elementwise, in the same order. Gravity and, for an
    isotropic body, the inverse-inertia scalar are inertia's gravity_floats
    and inertia_inv_scalar. R, nested row lists or an array, is read only by
    the anisotropic branch, which keeps that code's numpy products. The
    quaternion exponential update is inlined in scalar form; this is the
    hottest function of a rollout.
    """
    m = inertia.mass
    gx, gy, gz = inertia.gravity_floats
    lx, ly, lz = imp_lin
    vx, vy, vz = vel
    vx, vy, vz = vx + dt * gx + lx / m, vy + dt * gy + ly / m, vz + dt * gz + lz / m
    c = inertia.inertia_inv_scalar
    if c is not None:
        # isotropic: world inertia equals the body inertia, gyroscopic torque vanishes
        ax, ay, az = imp_ang
        wx, wy, wz = w
        wx, wy, wz = wx + c * ax, wy + c * ay, wz + c * az
    else:
        R = np.array(R)
        w = np.array(w)
        tau_gyro = _gyroscopic_torque(R, w, inertia)
        w1 = w + R @ (inertia.inertia_body_inv @ (R.T @ (dt * tau_gyro + np.array(imp_ang))))
        wx, wy, wz = w1.tolist()
    # orientation advance: normalize(exp(dt w1 / 2) * q)
    hx, hy, hz = 0.5 * dt * wx, 0.5 * dt * wy, 0.5 * dt * wz
    half = math.sqrt(hx * hx + hy * hy + hz * hz)
    s = 1.0 if half == 0.0 else math.sin(half) / half
    c = math.cos(half)
    bx, by, bz = s * hx, s * hy, s * hz
    qw, qx, qy, qz = q
    rw = c * qw - bx * qx - by * qy - bz * qz
    rx = c * qx + bx * qw + by * qz - bz * qy
    ry = c * qy - bx * qz + by * qw + bz * qx
    rz = c * qz + bx * qy - by * qx + bz * qw
    n = math.sqrt(rw * rw + rx * rx + ry * ry + rz * rz)
    if not (n > 0.0 and n < math.inf):
        raise ValueError(f"cannot normalize quaternion with norm {n}")
    px, py, pz = pos
    return (
        [px + dt * vx, py + dt * vy, pz + dt * vz],
        [rw / n, rx / n, ry / n, rz / n],
        [vx, vy, vz],
        [wx, wy, wz],
    )


def step(state: RigidState, inertia: InertialParams, impulse=None, dt: float = SimConfig.dt) -> RigidState:
    """Advance the state by one timestep under gravity and an optional impulse.

    impulse is a generalized 6-vector [linear N*s, angular N*m*s] applied at
    the center of mass. Velocities update first, then position with the new
    linear velocity and orientation through the exponential map of the new
    angular velocity.
    """
    if not (0.0 < dt < math.inf):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    state.require_valid()
    if impulse is None:
        imp = [0.0] * 6
    else:
        arr = np.asarray(impulse, dtype=float).reshape(-1)
        if arr.shape != (6,):
            raise ValueError(f"impulse must be a 6-vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite impulse")
        imp = arr.tolist()
    q = state.quat.tolist()
    p1, q1, v1, w1 = _integrate(
        state.pos.tolist(), q, state.vel.tolist(), state.ang_vel.tolist(),
        quat._matrix_rows(*q), inertia, imp[:3], imp[3:], dt,
    )
    return RigidState(p1, q1, v1, w1)


def world_inertia(state: RigidState, inertia: InertialParams) -> np.ndarray:
    return _world_inertia(quat.to_matrix(state.quat), inertia)


def kinetic_energy(state: RigidState, inertia: InertialParams) -> float:
    """Total kinetic energy 1/2 m |v|^2 + 1/2 w . I_world w in joules."""
    state.require_valid()
    iw = world_inertia(state, inertia)
    v, w = state.vel, state.ang_vel
    return 0.5 * inertia.mass * float(v @ v) + 0.5 * float(w @ (iw @ w))
