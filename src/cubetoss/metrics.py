"""Trajectory error metrics and dataset losses.

The cube configuration error averages, over samples, the squared position
error scaled by 2 / side plus the squared relative rotation angle. Velocity
errors are deliberately excluded: recorded velocities come from filtered
position differences, so the metric focuses on long-term position and
orientation accuracy. A generic weighted squared state error is provided for
articulated systems where joints differ wildly in inertia.
"""
from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .body import InertialParams, SimConfig
from .geometry import BoxGeometry
from .simulate import SimulationDivergence, simulate
from .solvers import ContactParams
from .trajectory import Trajectory

DIVERGENCE_PENALTY = 1e3


def _angles_from_quats(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Relative rotation angles in [0, pi] for row-aligned unit quaternions.

    The absolute value of the quaternion dot product handles the double
    cover: q and -q describe the same rotation.
    """
    for q in (q1, q2):
        norms = np.linalg.norm(q, axis=-1)
        if np.max(np.abs(norms - 1.0)) > 1e-6:
            raise ValueError("quaternions deviate from unit norm by more than 1e-6")
    dots = np.abs(np.sum(q1 * q2, axis=-1))
    return 2.0 * np.arccos(np.minimum(dots, 1.0))


def rotation_angle(q1, q2) -> float:
    """Angle in [0, pi] of the relative rotation between two unit quaternions (w, x, y, z)."""
    a = np.asarray(q1, dtype=float)
    b = np.asarray(q2, dtype=float)
    if a.shape != (4,) or b.shape != (4,):
        raise ValueError(f"expected two quaternions, got shapes {a.shape}, {b.shape}")
    return float(_angles_from_quats(a[None, :], b[None, :])[0])


@dataclass
class ErrorReport:
    """Per-trajectory pose errors between a reference and a simulated rollout."""

    config_error: float
    position_error_frac: float
    rotation_error_deg: float

    def to_dict(self) -> dict:
        return {
            "config_error": self.config_error,
            "position_error_pct": 100.0 * self.position_error_frac,
            "rotation_error_deg": self.rotation_error_deg,
        }


def cube_config_error(truth: Trajectory, sim: Trajectory, side: float) -> ErrorReport:
    """Configuration error between two equally sampled pose trajectories.

    Per sample the error is (2 / side) * |dp|^2 + angle^2, averaged over the
    trajectory; the 2 / side scaling puts position and orientation terms on
    comparable magnitudes, and side (m) must be positive. Also reports the
    mean position error as a fraction of the cube width and the mean
    rotation error in degrees.
    """
    if len(truth) != len(sim):
        raise ValueError(f"trajectory lengths differ: {len(truth)} vs {len(sim)}")
    if abs(truth.rate_hz - sim.rate_hz) > 1e-9 * max(truth.rate_hz, sim.rate_hz):
        raise ValueError(f"sample rates differ: {truth.rate_hz} vs {sim.rate_hz}")
    if not side > 0.0:
        raise ValueError(f"cube side length must be positive, got {side}")
    dists = np.linalg.norm(truth.pos - sim.pos, axis=1)
    angles = _angles_from_quats(truth.quat, sim.quat)
    e = float(np.mean((2.0 / side) * dists**2 + angles**2))
    return ErrorReport(
        config_error=e,
        position_error_frac=float(np.mean(dists)) / side,
        rotation_error_deg=float(np.degrees(np.mean(angles))),
    )


def weighted_state_error(x_ref, x_test, weights) -> float:
    """Sum over samples of e_t' W e_t with W a nonnegative diagonal weighting.

    Accepts (T, n) state matrices or Trajectory objects (flattened to their
    13-column state matrix). weights may be a length-n vector or an n x n
    diagonal matrix.
    """
    a = x_ref.as_matrix() if isinstance(x_ref, Trajectory) else np.asarray(x_ref, dtype=float)
    b = x_test.as_matrix() if isinstance(x_test, Trajectory) else np.asarray(x_test, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if b.ndim == 1:
        b = b[None, :]
    if a.shape != b.shape:
        raise ValueError(f"state matrices differ in shape: {a.shape} vs {b.shape}")
    w = np.asarray(weights, dtype=float)
    if w.ndim == 2:
        if w.shape[0] != w.shape[1] or np.any(w != np.diag(np.diag(w))):
            raise ValueError("weight matrix must be diagonal")
        w = np.diag(w)
    if w.shape != (a.shape[1],):
        raise ValueError(f"weights length {w.shape} does not match state dimension {a.shape[1]}")
    if np.min(w) < 0.0:
        raise ValueError("weights must be nonnegative")
    err = a - b
    return float(np.sum(err * err * w))


# Per-leg joint naming for a Cassie-class biped; the weight rule keys off
# these substrings.
CASSIE_JOINT_NAMES = tuple(
    f"{j}_{side}"
    for side in ("left", "right")
    for j in ("hip_roll", "hip_yaw", "hip_pitch", "knee", "knee_spring", "tarsus", "ankle_spring", "toe")
)


def cassie_state_weights(joint_names: Sequence[str] = CASSIE_JOINT_NAMES) -> np.ndarray:
    """Diagonal weights for a floating-base biped state [q; v].

    Positions (quaternion, base translation and every joint) get weight 10.
    Velocity weights emphasize the bulk motion: 5 for base rotation, 100 for
    base translation, 0.01 for the low-inertia hip roll, knee spring and toe
    joints, 0 for the unmeasured ankle spring deflection rate, and 1 for the
    remaining joints.
    """
    n = len(joint_names)
    w_q = np.full(7 + n, 10.0)
    w_v = np.concatenate([np.full(3, 5.0), np.full(3, 100.0), np.ones(n)])
    for i, name in enumerate(joint_names):
        if "ankle_spring" in name:
            w_v[6 + i] = 0.0
        elif "hip_roll" in name or "knee_spring" in name or "toe" in name:
            w_v[6 + i] = 0.01
    return np.concatenate([w_q, w_v])


def weighted_dataset_loss(refs: Sequence, tests: Sequence, weights) -> float:
    """Mean weighted state error over a dataset of trajectory pairs."""
    if len(refs) == 0 or len(refs) != len(tests):
        raise ValueError("need equally many nonempty reference and test trajectories")
    return float(np.mean([weighted_state_error(a, b, weights) for a, b in zip(refs, tests)]))


# --- dataset losses against the simulator --------------------------------------


def _rollout_report(args):
    truth, params, inertia, geom, cfg, side = args
    try:
        sim = simulate(truth.initial_state, params, inertia, geom, cfg, truth.duration)
        return cube_config_error(truth, sim, side), False
    except SimulationDivergence:
        return None, True


def _body_header(geom: BoxGeometry) -> dict:
    """The trajectory header naming the scored body and its score length side_m, 2 x the x half extent (m)."""
    return {"body": "cube", "side_m": 2.0 * float(geom.half_extents[0])}


def _resolve_side(truths: Sequence[Trajectory], geom: BoxGeometry) -> float:
    for t in truths:
        if "side_m" in t.meta:
            return float(t.meta["side_m"])
    return _body_header(geom)["side_m"]


def _check_truths(truths: Sequence[Trajectory], cfg: SimConfig) -> None:
    """Refuse a dataset that rollout_reports cannot score: an empty one, or a truth off cfg's output rate or with
    a single sample (a rollout needs a positive duration); a truth is named by its index in truths."""
    if len(truths) == 0:
        raise ValueError("dataset is empty")
    for i, t in enumerate(truths):
        if abs(t.rate_hz - cfg.output_rate_hz) > 1e-6 * t.rate_hz:
            raise ValueError(
                f"trajectory rate {t.rate_hz} Hz does not match simulator output rate {cfg.output_rate_hz} Hz"
            )
        if len(t) < 2:
            raise ValueError(f"trajectory {i} has a single sample; scoring needs at least two")


def rollout_reports(
    truths: Sequence[Trajectory],
    params: ContactParams,
    inertia: InertialParams,
    geom: BoxGeometry,
    cfg: Optional[SimConfig] = None,
    executor: Optional[concurrent.futures.Executor] = None,
) -> list[tuple[Optional[ErrorReport], bool]]:
    """Simulate every trajectory from its initial state and score it.

    Rollouts are independent; when an executor is supplied they run
    concurrently, but results are always reduced in dataset order so the
    outcome does not depend on the worker count. Diverged rollouts yield
    (None, True) instead of aborting the whole dataset. The cube side comes
    from the first trajectory whose meta carries side_m, else from geom.
    """
    cfg = cfg or SimConfig()
    _check_truths(truths, cfg)
    side = _resolve_side(truths, geom)
    jobs = [(t, params, inertia, geom, cfg, side) for t in truths]
    if executor is None:
        return [_rollout_report(j) for j in jobs]
    return list(executor.map(_rollout_report, jobs))


def _penalized_mean(reports: Sequence[tuple[Optional[ErrorReport], bool]]) -> float:
    """Mean configuration error of rollout_reports results, DIVERGENCE_PENALTY per diverged rollout."""
    return float(np.mean([DIVERGENCE_PENALTY if rep is None else rep.config_error for rep, _ in reports]))


def dataset_loss(
    truths: Sequence[Trajectory],
    params: ContactParams,
    inertia: InertialParams,
    geom: BoxGeometry,
    cfg: Optional[SimConfig] = None,
    executor: Optional[concurrent.futures.Executor] = None,
) -> float:
    """Mean configuration error of simulated rollouts over a dataset.

    Divergent rollouts contribute DIVERGENCE_PENALTY (well above any
    physical loss) so derivative-free search remains defined on unstable
    corners of the parameter space.
    """
    return _penalized_mean(rollout_reports(truths, params, inertia, geom, cfg, executor))
